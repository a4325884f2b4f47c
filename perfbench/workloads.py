"""The benchmark's four workloads: inputs, one operation, output checks.

Every workload builds fresh inputs for each operation, so nothing an
earlier operation cached on an object is reused.  Inputs come only from
the run's seed.  Checks compare outputs with independent computations or
with properties the method must have; they never compare with a stored
copy of earlier output, and they run outside the timed phase.

Program functions are looked up through their modules at call time
(``solver.enumerate_ez``, not a local alias), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import numpy as np

from zeitgeist import catalog, learning, models, solver, stability
from zeitgeist.games import DenseKernel, MonitoringStructure, StageEnv
from zeitgeist.models import Model, Parameter

# seed-stream tags, so that the warm-up, the timed rounds and the checks
# never draw the same inputs
WARMUP, ROUND, BRUTE = 0, 1, 2


def _rng(seed: int, *stream: int) -> np.random.Generator:
    # numpy seeds must be non-negative; any integer seed is accepted
    return np.random.default_rng([int(seed) % 2**64, *stream])


class Workload:
    """One kind of operation; a round is ``build_round``'s list of them.

    ``extra`` is timed work a round runs once besides its operations; it
    counts in the round's wall time but is not an operation.
    """

    name = ""

    def build_warmup(self, seed: int):
        raise NotImplementedError

    def build_round(self, seed: int, r: int) -> list:
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        return []

    extra = None

    def check_extra(self, out) -> list[str]:
        return []

    def final_checks(self, seed: int, warmup_inp, warmup_out) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# enumerate: the repository's random problems


N_STRATEGIES, N_PARAMS, N_CONSEQUENCES = 8, 8, 3
NOISY_TAU = 0.9
# (monitoring, share) of the problems of one round, cycled: half perfect,
# half noisy monitoring, each at interior shares (drawn from U(0.05, 0.95))
# and at both extremes
ENUM_SLOTS = (
    ("perfect", None), ("perfect", None), ("perfect", 1.0), ("perfect", 0.0),
    ("noisy", None), ("noisy", None), ("noisy", 1.0), ("noisy", 0.0),
)
# A round solves one fixed sample of ENUM_POOL problems, drawn once from
# ENUM_POOL_SEED; the run's seed orders it and draws the warm-up and the
# brute-force problems.  About one perfect-monitoring problem in seven sends
# hundreds of triples to the LP and takes ten times as long as the rest, so
# a sample drawn afresh from each run's seed would swing a run's wall time
# by the count of those it happened to draw.
ENUM_POOL, ENUM_POOL_SEED = 32, 0
BRUTE_PROBLEMS = 4
BRUTE_SIZE = (3, 3)          # strategies, parameters


def random_problem(rng: np.random.Generator, n: int, n_params: int, noisy: bool):
    """A random environment and two explicit models containing the truth.

    The repository's random problem (``random_env`` and ``random_model`` in
    tests/conftest.py): parameter 0 of each model carries the true kernel,
    the others random kernels, and every conjecture about either group is
    free with probability 1/2, else a uniformly drawn strategy.
    """
    labels = [f"s{i}" for i in range(n)]
    truth = rng.dirichlet(np.ones(N_CONSEQUENCES), size=(n, n))
    utility = rng.normal(size=(n, N_CONSEQUENCES))
    monitoring = MonitoringStructure.noisy(labels, NOISY_TAU) if noisy else None
    env = StageEnv(labels, [f"c{i}" for i in range(N_CONSEQUENCES)], ["G0"],
                   [truth], utility, monitoring=monitoring)

    def model(label: str) -> Model:
        kernels, params = [], []
        for t in range(n_params):
            table = truth.copy() if t == 0 else rng.dirichlet(
                np.ones(N_CONSEQUENCES), size=(n, n))
            kernel = DenseKernel(table)
            conj = tuple(None if rng.random() < 0.5 else int(rng.integers(n))
                         for _ in range(2))
            kernels.append(kernel)
            params.append(Parameter(conj, kernel, t, f"{label}{t}"))
        return Model(label, params, strategic_certainty_form=False, kernels=kernels,
                     kernel_labels=[f"k{t}" for t in range(n_params)])

    return env, model("a"), model("b")


def _problem_at(rng, slot, n, n_params):
    monitoring, share = slot
    env, ma, mb = random_problem(rng, n, n_params, monitoring == "noisy")
    p = float(rng.uniform(0.05, 0.95)) if share is None else share
    return env, ma, mb, (p, 1.0 - p)


def enumerate_pool() -> list:
    """Freshly built problems of the fixed sample, in pool order."""
    return [_problem_at(_rng(ENUM_POOL_SEED, ROUND, k), ENUM_SLOTS[k % len(ENUM_SLOTS)],
                        N_STRATEGIES, N_PARAMS) for k in range(ENUM_POOL)]


class Enumerate(Workload):
    name = "enumerate"

    def __init__(self):
        self.states = 0
        self.mixtures = 0

    def build_warmup(self, seed):
        return _problem_at(_rng(seed, WARMUP), ENUM_SLOTS[0], N_STRATEGIES, N_PARAMS)

    def build_round(self, seed, r):
        pool = enumerate_pool()
        return [pool[int(k)] for k in _rng(seed, ROUND, r).permutation(ENUM_POOL)]

    def op(self, inp):
        env, ma, mb, shares = inp
        states = solver.enumerate_ez(env, ma, mb, shares)
        verdicts = [solver.verify_ez(z, env, ma, mb)[0] for z in states]
        return states, verdicts

    def check(self, inp, out):
        states, verdicts = out
        shares = inp[3]
        self.states += len(states)
        self.mixtures += sum(z.mixture_supported for z in states)
        bad = []
        if not all(verdicts):
            bad.append(f"{verdicts.count(False)} emitted state(s) fail verify_ez")
        if any(tuple(z.shares) != shares for z in states):
            bad.append("a state carries other shares than requested")
        return bad

    def final_checks(self, seed, warmup_inp, warmup_out):
        bad = []
        if self.states == 0 or self.mixtures == 0:
            bad.append(f"the workload emitted {self.states} states, "
                       f"{self.mixtures} mixture-supported; expected some of each")
        rng = _rng(seed, BRUTE)
        for k in range(BRUTE_PROBLEMS):
            slot = ENUM_SLOTS[k * len(ENUM_SLOTS) // BRUTE_PROBLEMS]
            bad += brute_force_mismatches(*_problem_at(rng, slot, *BRUTE_SIZE))
        return bad


def _one_hot_state(env, ma, mb, quad, i, j, shares):
    def one_hot(size, t):
        v = np.zeros(size)
        v[t] = 1.0
        return v
    outcome = solver.SituationOutcome(
        situation=env.situations[0], quadruple=quad,
        belief_a=one_hot(ma.n_params, i), belief_b=one_hot(mb.n_params, j),
        minimizers_a=(i,), minimizers_b=(j,), all_infinite_a=False,
        all_infinite_b=False, mixture_a=False, mixture_b=False)
    return solver.Zeitgeist(tuple(shares), (outcome,))


def brute_force_mismatches(env, ma, mb, shares) -> list[str]:
    """Compare the enumeration with a search over one-hot belief pairs.

    A quadruple that some one-hot pair certifies must be enumerated; an
    enumerated quadruple that no one-hot pair certifies must rest on a
    mixture belief and pass the verifier.
    """
    n = env.n_strategies
    outcomes = solver.enumerate_situation_ez(env, ma, mb, env.situations[0], shares)
    found = {o.quadruple: o for o in outcomes}
    certified = set()
    for quad in np.ndindex(n, n, n, n):
        quad = tuple(int(a) for a in quad)
        if any(solver.verify_ez(_one_hot_state(env, ma, mb, quad, i, j, shares),
                                env, ma, mb)[0]
               for i in range(ma.n_params) for j in range(mb.n_params)):
            certified.add(quad)
    bad = []
    missing = certified - set(found)
    if missing:
        bad.append(f"brute force certifies {sorted(missing)} at shares {shares}, "
                   "which the enumeration misses")
    for quad, o in found.items():
        if quad in certified:
            continue
        z = solver.Zeitgeist(tuple(shares), (o,))
        if not (o.mixture_a or o.mixture_b) or not solver.verify_ez(z, env, ma, mb)[0]:
            bad.append(f"enumerated {quad} at shares {shares} has no one-hot "
                       "certificate and no verified mixture belief")
    return bad


# ---------------------------------------------------------------------------
# scan: share-space analysis of the paper's worked pairs

INVESTMENT = catalog.InvestmentSpec(1.0, 5.5, 12.0)
BRACKET = 1e-6               # share offset either side of a threshold


def _gap(env, ma, mb, p):
    """Resident-minus-entrant fitness of the first state at share p."""
    states = solver.enumerate_ez(env, ma, mb, (p, 1.0 - p))
    if not states:
        return None
    f = solver.fitness(states[0], env)
    return float(f[0] - f[1])


def _threshold_mismatches(label, env, ma, mb, result) -> list[str]:
    bad = []
    for t in result.thresholds:
        lo, hi = _gap(env, ma, mb, t - BRACKET), _gap(env, ma, mb, t + BRACKET)
        if lo is None or hi is None or not (lo > 0.0 > hi):
            bad.append(f"{label} threshold {t!r} does not bracket a sign change "
                       f"of the gap ({lo!r} below, {hi!r} above)")
    return bad


class Scan(Workload):
    name = "scan"

    def _inputs(self):
        env_c = catalog.build_two_situation_game()
        correct = models.minimal_correct_model(env_c)
        blind = models.illusion_of_control_model(env_c)
        env_i, ia, ib, _ = catalog.build_investment_game(INVESTMENT)
        return env_c, correct, blind, env_i, ia, ib

    def build_warmup(self, seed):
        return self._inputs()

    def build_round(self, seed, r):
        return [self._inputs()]

    def op(self, inp):
        env_c, correct, blind, env_i, ia, ib = inp
        verdict = stability.classify_stability(env_c, correct, blind)
        shares_c = stability.stable_shares(env_c, correct, blind)
        reversal = stability.detect_reversal(env_i, ia, ib)
        shares_i = stability.stable_shares(env_i, ia, ib)
        return verdict, shares_c, reversal, shares_i

    def check(self, inp, out):
        env_c, correct, blind, env_i, ia, ib = inp
        verdict, shares_c, reversal, shares_i = out
        bad = []
        if verdict.label != "Fragile":
            bad.append(f"two-situation verdict {verdict.label}, expected Fragile")
        bad += _threshold_mismatches("commitment", env_c, correct, blind, shares_c)
        bad += _threshold_mismatches("investment", env_i, ia, ib, shares_i)
        quads_a = [z.outcomes[0].quadruple for z in reversal.states_resident_a]
        quads_b = [z.outcomes[0].quadruple for z in reversal.states_resident_b]
        if not reversal.reversal or quads_a != [(0, 0, 1, 1)] or quads_b != [(0, 0, 0, 1)]:
            bad.append(f"reversal={reversal.reversal} with states {quads_a} at (1, 0) "
                       f"and {quads_b} at (0, 1)")
        b, c = INVESTMENT.b, INVESTMENT.c
        want = {("A", "A"): 2 * b, ("B", "A"): 6 * b - c,
                ("A", "B"): 3 * b, ("B", "B"): 8 * b - c}
        for z in reversal.states_resident_a:
            for (g, h), v in want.items():
                got = solver.conditional_fitness(z, env_i, 0, g, h)
                if abs(got - v) > 1e-9:
                    bad.append(f"conditional fitness {g} vs {h} is {got!r}, expected {v!r}")
        return bad


# ---------------------------------------------------------------------------
# learn: population learning at the reproduce scale

N_AGENTS, LEARN_SHARES, HORIZON, TAU, WINDOW = 200, (0.01, 0.99), 1500, 0.99, 300


# the learning seeds operations draw from, in an order taken from the run's
# seed; the pool is fixed, not filtered by the checks
LEARN_SEEDS = range(1, 65)


def learning_inputs(sim_seed: int):
    env, ma, mb, _ = catalog.build_investment_game(INVESTMENT)
    cfg = learning.SimConfig(n_agents=N_AGENTS, shares=LEARN_SHARES, horizon=HORIZON,
                             seed=sim_seed, tau=TAU)
    return env, ma, mb, cfg


def learning_op(inp):
    env, ma, mb, cfg = inp
    traj = learning.run_learning(env, ma, mb, cfg)
    states = solver.enumerate_ez(env, ma, mb, cfg.shares)
    return traj, states, learning.compare_to_ez(traj, states, window=WINDOW)


def learning_mismatches(inp, out) -> list[str]:
    env, ma, mb, cfg = inp
    traj, states, rep = out
    bad = []
    if rep.modal_play != (0, 0, 0, 1) or not rep.converged:
        bad.append(f"seed {cfg.seed}: modal play {rep.modal_play}, "
                   f"converged={rep.converged}")
        return bad
    belief = traj.model_b.kernel_marginal(traj.nu_b[-1])
    on_slope_4 = belief[list(traj.model_b.kernel_labels).index("slope=4")]
    if on_slope_4 < 0.95:
        bad.append(f"seed {cfg.seed}: entrants put {on_slope_4!r} on slope=4, "
                   "expected at least 0.95")
    fit = solver.fitness(states[rep.best_index], env)
    for g in range(2):
        sample = traj.payoff[-WINDOW:, g]
        sem = sample.std(ddof=1) / np.sqrt(WINDOW)
        if abs(sample.mean() - fit[g]) > 3.0 * sem:
            bad.append(f"seed {cfg.seed}: group {'AB'[g]} window mean "
                       f"{sample.mean():.4f} is more than 3 SEM ({sem:.4f}) "
                       f"from fitness {fit[g]:.4f}")
    return bad


class Learn(Workload):
    name = "learn"

    def _seed_for(self, seed, k):
        # a per-run order of the pool: no two operations of a run share a seed
        order = _rng(seed, ROUND).permutation(len(LEARN_SEEDS))
        return LEARN_SEEDS[int(order[k % len(order)])]

    def build_warmup(self, seed):
        return learning_inputs(self._seed_for(seed, -1))

    def build_round(self, seed, r):
        return [learning_inputs(self._seed_for(seed, r))]

    def op(self, inp):
        return learning_op(inp)

    def check(self, inp, out):
        return learning_mismatches(inp, out)

    def final_checks(self, seed, warmup_inp, warmup_out):
        if warmup_out is None:
            return ["the warm-up operation failed"]
        env, ma, mb, cfg = learning_inputs(warmup_inp[3].seed)
        again = learning.run_learning(env, ma, mb, cfg)
        first = warmup_out[0]
        if any(getattr(first, f).tobytes() != getattr(again, f).tobytes()
               for f in ("alpha", "nu_a", "nu_b", "payoff")):
            return [f"seed {cfg.seed}: two runs gave different trajectories"]
        return []


# ---------------------------------------------------------------------------
# catalog: discretized duopoly plus the stopping-game lattice

COURNOT = catalog.CournotSpec(10.0, 2.0, 1.0, 0.5)
COURNOT_GRID_POINTS, PRICE_BINS, NOISE_SD = 51, 200, 2.0
LATTICE_K = (6, 8, 10, 12, 14)
LATTICE_G = (1.0, 1.5, 2.0, 2.5, 3.0)
LATTICE_L = (0.2, 0.4, 0.6, 0.8, 1.0)
DOLLAR_K = (6, 8, 10, 12)
# the lattice runs once a round and costs about six 51-point duopoly
# solves; six solves a round keep enough of them in a run for a steady median
DUOPOLIES_PER_ROUND = 6


def duopoly_inputs():
    grid = np.linspace(0.0, 8.0, COURNOT_GRID_POINTS)
    return (grid, *catalog.build_cournot_discrete(COURNOT, grid, PRICE_BINS, NOISE_SD))


def stopping_lattice():
    centipede = {(K, g, l): catalog.centipede_analysis(catalog.CentipedeSpec(K, g, l))
                 for K in LATTICE_K for g in LATTICE_G for l in LATTICE_L}
    dollar = {K: catalog.dollar_analysis(K) for K in DOLLAR_K}
    return centipede, dollar


class Catalog(Workload):
    name = "catalog"

    def build_warmup(self, seed):
        return duopoly_inputs()

    def build_round(self, seed, r):
        return [duopoly_inputs() for _ in range(DUOPOLIES_PER_ROUND)]

    def op(self, inp):
        grid, env, ma, mb = inp
        return (catalog.cournot_discrete_ez(env, ma, mb, (1.0, 0.0)),
                catalog.cournot_discrete_ez(env, ma, mb, (0.0, 1.0)))

    extra = staticmethod(stopping_lattice)

    def check(self, inp, out):
        grid = inp[0]
        at_a, at_b = out
        bad = []
        if not at_a or not at_b:
            bad.append(f"{len(at_a)} states at (1, 0) and {len(at_b)} at (0, 1); "
                       "expected states at both")
        s = COURNOT
        step = float(grid[1] - grid[0])
        a_aa = (s.beta - s.c) / (3.0 * s.r)
        a_ba = (s.beta - s.c) / (2.0 * s.r_hat + s.r)
        for z in at_a:
            q = z.outcomes[0].quadruple
            if abs(grid[q[0]] - a_aa) > step + 1e-12 or abs(grid[q[2]] - a_ba) > step + 1e-12:
                bad.append(f"state {q} at (1, 0) is more than a grid step from "
                           f"a_AA={a_aa:.4f}, a_BA={a_ba:.4f}")
        return bad

    def check_extra(self, out):
        centipede, dollar = out
        bad = []
        p = np.full((len(LATTICE_K), len(LATTICE_G), len(LATTICE_L)), np.nan)
        for i, K in enumerate(LATTICE_K):
            for j, g in enumerate(LATTICE_G):
                for k, l in enumerate(LATTICE_L):
                    rep = centipede[(K, g, l)]
                    if abs(rep.analogy_minimizer_x - 2.0 / K) > 1e-6:
                        bad.append(f"centipede {(K, g, l)}: pooled rate "
                                   f"{rep.analogy_minimizer_x!r}, expected 2/K")
                    want = 1.0 - l / (g * (K - 2))
                    if rep.p_star_b is None or abs(rep.p_star_b - want) > 1e-12:
                        bad.append(f"centipede {(K, g, l)}: p*_b {rep.p_star_b!r}, "
                                   f"expected {want!r}")
                    else:
                        p[i, j, k] = rep.p_star_b
        if not (np.all(np.diff(p, axis=0) > 0) and np.all(np.diff(p, axis=1) > 0)
                and np.all(np.diff(p, axis=2) < 0)):
            bad.append("p*_b is not strictly monotone along every lattice axis")
        shares = np.linspace(0.0, 1.0, 101)
        for K, rep in dollar.items():
            m = np.asarray(rep.match_payoffs)
            fit_a = shares * m[0, 0] + (1.0 - shares) * m[0, 1]
            fit_b = shares * m[1, 0] + (1.0 - shares) * m[1, 1]
            if not rep.maximal_continuation_verified or not np.all(fit_a > fit_b):
                bad.append(f"dollar K={K}: group A does not beat group B at every share")
        return bad


WORKLOADS = {w.name: w for w in (Enumerate, Scan, Learn, Catalog)}
