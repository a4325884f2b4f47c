"""Agent-based learning over finite parameter grids.

A finite population split into two groups plays the stage game repeatedly.
Each period every agent is matched with an opponent sampled with
replacement from the pool its match-group draw selects, sees the
opponent's group, acts, then observes its own consequence and a noisy
monitoring signal about the opponent's strategy.  Agents are Bayesians
over their group's parameter grid: each parameter couples a consequence
kernel with a conjectured strategy for each opponent group, and the
period's likelihood is the kernel's consequence probability at the
conjectured opponent action times the signal probability under that
conjecture.

Play is asymptotically myopic: uniformly random until a burn-in number of
matches against the relevant opponent group, exactly myopic afterward
(optionally softened by a decaying exploration rate).  The whole run is
a deterministic function of the seed: one generator, a fixed draw order
inside each period, and index ties broken low.  ``compare_to_outcomes`` matches a
run's last periods against the self-confirming outcomes of their situation.

The models' likelihood and payoff tables are built once per run, since
they do not depend on the situation; only the true kernel's cumulative
consequence table is built per situation, its last column +inf, so that
the first column at or above a uniform draw is the inverse-CDF draw,
clamped to the last consequence.  Both groups' log posteriors share one
array, a row per agent and as many columns as the wider grid, the
narrower grid's extra columns holding -inf.  Each step of a period runs
once over all agents, and one ``logsumexp`` call normalizes both groups:
only its row sums run per group, on that group's own columns, as padding
a row with zeros regroups numpy's pairwise sum and moves its bits.
``_exp`` writes +0.0 without calling ``np.exp`` where an entry is at most
-750 and underflows anyway, as most of a settled posterior's do; numpy's
exp on a (198, 24) block takes about 7 us at -1, 100 us at -800 and
600-870 us in the subnormal band.  Neither changes a bit of any run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .games import TOL, StageEnv, as_weights
from .inference import validate_shares
from .models import Model

# a run has converged to a state when its modal play matches the state's and
# each group's mean kernel belief lies within this total-variation distance
CONVERGENCE_TV = 0.05


def _exp(x: np.ndarray) -> np.ndarray:
    """``np.exp(x)``, but +0.0 where x <= -750 (exp rounds to it below -745.13)."""
    out = np.zeros(x.size)
    # flat indices: a boolean mask would scan all of x at each use; ~(<=) lets NaN through
    live = np.flatnonzero(~(x <= -750.0))
    out[live] = np.exp(x.take(live))
    return out.reshape(x.shape)


def logsumexp(a: np.ndarray, blocks) -> np.ndarray:
    """Row-wise log-sum-exp of a 2-d array, as an (n, 1) column.

    Each row is shifted by its max before exponentiating; an all ``-inf``
    row is shifted by 0 instead (no ``inf - inf`` NaN) and gives ``-inf``.
    ``blocks`` pairs row slices with a width: those rows sum only their
    first ``width`` columns, as padding a row with zeros would regroup
    numpy's pairwise sum and move its bits.
    """
    # the max is exact in any order; down the columns of a transposed copy
    # it runs across all rows at once, several times faster on short rows
    a_max = a.T.copy().max(axis=0)[:, None]
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    e = _exp(a - shift)
    total = np.empty(shift.shape)
    for r, width in blocks:
        e[r, :width].sum(axis=1, keepdims=True, out=total[r])
    with np.errstate(divide="ignore"):
        return np.log(total) + shift


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the first column of ``cum`` (last column +inf) at or above u."""
    return (cum >= u[:, None]).argmax(axis=1)


@dataclass(frozen=True)
class Policy:
    """Burn-in length and optional exploration schedule eps0 / (1 + t/kappa)."""

    burn_in: int = 10
    eps0: float = 0.0
    kappa: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.burn_in, (int, np.integer)) and self.burn_in >= 0):
            raise ValueError(f"burn_in must be a nonnegative integer, got {self.burn_in!r}")
        if not 0.0 <= self.eps0 <= 1.0:
            raise ValueError(f"eps0 must lie in [0, 1], got {self.eps0!r}")
        if not 0.0 < self.kappa < np.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa!r}")

    def eps_at(self, t: int) -> float:
        return self.eps0 / (1.0 + t / self.kappa)


@dataclass(frozen=True)
class SimConfig:
    n_agents: int
    shares: tuple[float, float]
    horizon: int
    seed: int
    tau: float = 0.99
    policy: Policy = field(default_factory=Policy)
    prior_a: np.ndarray | None = None    # over (possibly pre-expansion) parameters
    prior_b: np.ndarray | None = None
    q: tuple | None = None               # situation weights
    situation_period: int | None = None  # redraw cadence; None = never redraw

    def __post_init__(self):
        validate_shares(self.shares)
        if not 0.0 <= self.tau < 1.0:
            raise ValueError("monitoring accuracy tau must lie in [0, 1)")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.situation_period is not None and self.situation_period < 1:
            raise ValueError("situation_period must be a positive integer")

    def group_sizes(self) -> tuple[int, int]:
        n_a = int(round(self.n_agents * self.shares[0]))
        n_b = self.n_agents - n_a
        if min(n_a, n_b) < 2:
            raise ValueError(
                f"need at least 2 agents per group; shares {self.shares} of "
                f"{self.n_agents} agents give ({n_a}, {n_b})")
        return n_a, n_b


@dataclass
class LearningTrajectory:
    """Per-period population state of one run.

    ``alpha[t, g, h]`` is the distribution of strategies group ``g`` would
    use against group ``h`` at period ``t``, tabulated over every agent of
    ``g`` (burn-in exploration included).  ``nu_a`` / ``nu_b`` are mean
    posteriors over the groups' expanded parameter grids, ``payoff[t, g]``
    the mean realized payoff of group ``g`` in period ``t``, and
    ``running_payoff`` its cumulative average.  ``restarts[t, g]`` counts
    the agents of group ``g`` whose posterior a zero-likelihood trap wiped
    in period ``t`` and that restarted from the prior.
    """

    situations: np.ndarray          # (T,) situation index per period
    alpha: np.ndarray               # (T, 2, 2, n_strategies)
    nu_a: np.ndarray                # (T, P_A)
    nu_b: np.ndarray                # (T, P_B)
    payoff: np.ndarray              # (T, 2)
    running_payoff: np.ndarray      # (T, 2)
    restarts: np.ndarray            # (T, 2) posterior restarts per period
    model_a: Model                  # expanded models the posteriors refer to
    model_b: Model
    config: SimConfig

    @property
    def horizon(self) -> int:
        return len(self.situations)

    def play_quadruple(self, t: int) -> tuple[int, int, int, int]:
        return tuple(int(i) for i in self.alpha[t].argmax(axis=2).flat)

    def write_text(self, path, every: int = 1) -> None:
        """Columnar text dump, one row per (period, group), subsampled."""
        if every < 1:
            raise ValueError("subsample step must be >= 1")
        with open(path, "w") as fh:
            fh.write("# period situation group play_vs_A play_vs_B "
                     "belief mean_payoff running_payoff\n")
            for t in range(0, self.horizon, every):
                nu = (self.nu_a[t], self.nu_b[t])
                for g in range(2):
                    frag_a = ",".join(f"{v:.6f}" for v in self.alpha[t, g, 0])
                    frag_b = ",".join(f"{v:.6f}" for v in self.alpha[t, g, 1])
                    bel = ",".join(f"{v:.6f}" for v in nu[g])
                    fh.write(f"{t} {self.situations[t]} {'AB'[g]} {frag_a} "
                             f"{frag_b} {bel} {self.payoff[t, g]:.6f} "
                             f"{self.running_payoff[t, g]:.6f}\n")


def _expanded_prior(model: Model, expanded: Model, prior) -> np.ndarray:
    """Full-support prior over the expanded grid; a per-kernel prior is
    spread evenly over the parameters of each kernel."""
    p_n = expanded.n_params
    if prior is None:
        return np.full(p_n, 1.0 / p_n)
    prior = np.asarray(prior, dtype=float)
    if len(prior) == p_n:
        out = prior.copy()
    elif len(prior) == len(expanded.kernels):
        k = np.array([p.kernel_index for p in expanded.params])
        out = prior[k] / np.bincount(k)[k]
    else:
        raise ValueError(
            f"prior for model {model.label!r} has length {len(prior)}; expected "
            f"{p_n} (expanded) or {len(expanded.kernels)} (per kernel)")
    if not out.min() >= 1e-12:   # written so that NaN fails
        raise ValueError("priors must have full support (every mass >= 1e-12)")
    total = out.sum()
    if not abs(total - 1.0) <= TOL:
        raise ValueError("prior must sum to 1")
    return out / total


def _model_tables(model: Model, env: StageEnv, tau: float):
    """Log-likelihood and payoff lookups; they do not depend on the situation.

    Returns (ll, lm, pay), parameter axis last: ``ll[og, a, y, p]`` is the
    log probability parameter ``p`` assigns to consequence ``y`` after own
    action ``a`` against an opponent from group ``og``, ``lm[og, m, p]`` the
    log signal probability and ``pay[p, og * n + a]`` the expected payoff of
    ``a``, each at p's conjecture for that group.
    """
    n = env.n_strategies
    conj = np.array([param.conj_a for param in model.params]).T  # [og, p]
    og, p = np.indices(conj.shape)
    rows = np.stack([np.stack([param.kernel.rows_for_own(a) for a in range(n)])
                     for param in model.params])                 # [p, a, j, y]
    pay = np.stack([param.kernel.payoff_matrix(env.utility) for param in model.params])
    with np.errstate(divide="ignore"):
        # a parameter giving an observed consequence zero mass is ruled out
        # for good: -inf log posterior
        ll = np.log(rows[p, :, conj])
    sig = np.full(conj.shape + (n,), (1.0 - tau) / n)
    sig[og, p, conj] += tau
    return (ll.transpose(0, 2, 3, 1), np.log(sig).transpose(0, 2, 1),
            pay[p.T, :, conj.T].reshape(len(model.params), 2 * n))


def run_learning(env: StageEnv, model_a: Model, model_b: Model,
                 cfg: SimConfig) -> LearningTrajectory:
    """Simulate the two-group Bayesian learning process.

    Within a period all decisions read the previous period's posteriors and
    burn-in counters (a synchronous update), so agent order cannot matter;
    the fixed per-period draw order makes runs bit-reproducible from the
    seed.  On a situation redraw, posteriors and burn-in counters restart.
    """
    for who, model in zip("AB", (model_a, model_b)):
        model.require_fit(env, who)
        free = [i for i, p in enumerate(model.params) if None in p.conj_a]
        if free and not model.strategic_certainty_form:
            raise ValueError(f"model {model.label!r} parameter {free[0]} has a free (None) "
                             "conjecture; learning needs explicit ones or the certainty form")
    exp_a = model_a.expand_product(env)
    exp_b = model_b.expand_product(env)
    prior = (_expanded_prior(model_a, exp_a, cfg.prior_a),
             _expanded_prior(model_b, exp_b, cfg.prior_b))
    n_a, n_b = cfg.group_sizes()
    sizes = np.array((n_a, n_b))
    n_all = n_a + n_b
    group_of = np.concatenate([np.zeros(n_a, dtype=int), np.ones(n_b, dtype=int)])
    rows = (slice(0, n_a), slice(n_a, n_all))
    n, n_y = env.n_strategies, len(env.consequences)
    n_p = (exp_a.n_params, exp_b.n_params)
    weights = as_weights(cfg.q, env.n_situations)
    rng = np.random.default_rng(cfg.seed)
    T = cfg.horizon
    redraw = cfg.situation_period

    # both groups' tables over one parameter axis; -inf prior in the padding
    log_prior = np.full((2, max(n_p)), -np.inf)
    ll_all = np.zeros((2, 2, n, n_y, max(n_p)))
    lm_all = np.zeros((2, 2, n, max(n_p)))
    pay2 = []
    for g, model in enumerate((exp_a, exp_b)):
        ll, lm, pay = _model_tables(model, env, cfg.tau)
        log_prior[g, :n_p[g]] = np.log(prior[g])
        ll_all[g, ..., :n_p[g]], lm_all[g, ..., :n_p[g]] = ll, lm
        pay2.append(pay)
    # flat rows, one per (own group, opponent group, action[, consequence])
    ll_flat, lm_flat = ll_all.reshape(-1, max(n_p)), lm_all.reshape(-1, max(n_p))
    # the true kernel's CDF rows per situation, built on first visit
    cdfs = {}

    log_post = log_prior[group_of]
    counts = np.zeros((n_all, 2), dtype=int)
    agents = np.arange(n_all)
    two_g = 2 * group_of
    # bincount bins of (own group, opponent group, action), row-major
    alpha_bin = (two_g[:, None] + np.arange(2)) * n
    blocks = tuple(zip(rows, n_p))
    exp_pay = np.empty((n_all, 2 * n))

    traj_sit = np.zeros(T, dtype=int)
    alpha_counts = np.zeros((T, 4 * n), dtype=int)
    traj_nu = [np.zeros((T, p)) for p in n_p]
    traj_pay = np.zeros((T, 2))
    traj_restarts = np.zeros((T, 2), dtype=int)

    gi = 0
    for t in range(T):
        if t == 0 or (redraw is not None and t % redraw == 0):
            u = rng.random()
            gi = int(np.searchsorted(np.cumsum(weights), u, side="right"))
            gi = min(gi, env.n_situations - 1)
            if t > 0:
                log_post[:] = log_prior[group_of]
                counts[:] = 0
            if gi not in cdfs:
                cdfs[gi] = np.cumsum([env.kernels[gi].rows_for_own(a) for a in range(n)], axis=2)
                cdfs[gi][..., -1] = np.inf   # no draw falls past the last consequence
            cdf = cdfs[gi]

        # fixed draw order: exploration actions, exploration coin, opponent
        # group, opponent index, consequence, signal coin, signal fallback;
        # the five uniform blocks come from one call, in that order
        explore = rng.integers(0, n, size=(n_all, 2))
        uniform = rng.random(6 * n_all)
        eps_u = uniform[:2 * n_all].reshape(n_all, 2)
        og_u, oi_u, y_u, m_v = uniform[2 * n_all:].reshape(4, n_all)
        m_w = rng.integers(0, n, size=n_all)

        # policy actions of every agent against both groups, from frozen state
        post = _exp(log_post)
        for g, (r, p) in enumerate(blocks):
            view = post[r, :p]
            np.matmul(view, pay2[g], out=exp_pay[r])
            traj_nu[g][t] = view.sum(axis=0) / sizes[g]
        myopic = exp_pay.reshape(n_all, 2, n).argmax(axis=2)
        explored = counts < cfg.policy.burn_in
        if cfg.policy.eps0 > 0:
            explored |= eps_u < cfg.policy.eps_at(t)
        act = np.where(explored, explore, myopic)
        alpha_counts[t] = np.bincount((alpha_bin + act).ravel(), minlength=4 * n)

        # each agent meets group h with probability p_h, then a uniform
        # member of that pool (with replacement)
        opp_group = (og_u >= cfg.shares[0]).astype(int)
        pool = sizes[opp_group]
        opp_idx = np.minimum((oi_u * pool).astype(int), pool - 1) + n_a * opp_group
        a_own = act[agents, opp_group]
        a_opp = act[opp_idx, group_of]

        y = _inverse_cdf(cdf[a_own, a_opp], y_u)
        m = np.where(m_v < cfg.tau, a_opp, m_w)

        realized = env.utility[a_own, y]
        pair = (two_g + opp_group) * n
        log_post += ll_flat[(pair + a_own) * n_y + y] + lm_flat[pair + m]
        norm = logsumexp(log_post, blocks)
        traj_pay[t] = [realized[r].sum() / size for r, size in zip(rows, sizes)]
        dead = ~np.isfinite(norm[:, 0])
        if dead.any():
            # a zero-likelihood trap wiped these posteriors; restart them
            log_post[dead] = log_prior[group_of[dead]]
            norm[dead] = 0.0
            traj_restarts[t] = np.bincount(group_of[dead], minlength=2)
        log_post -= norm
        counts[agents, opp_group] += 1
        traj_sit[t] = gi

    traj_alpha = alpha_counts.reshape(T, 2, 2, n) / sizes[:, None, None]
    traj_run = np.cumsum(traj_pay, axis=0) / np.arange(1, T + 1)[:, None]
    return LearningTrajectory(traj_sit, traj_alpha, traj_nu[0], traj_nu[1],
                              traj_pay, traj_run, traj_restarts, exp_a, exp_b, cfg)


@dataclass(frozen=True)
class ComparisonReport:
    window: int
    situation: int
    modal_play: tuple[int, int, int, int]
    mean_payoff: tuple[float, float]
    kernel_belief_a: np.ndarray
    kernel_belief_b: np.ndarray
    best_index: int | None
    play_mismatch: int | None
    belief_tv: float
    converged: bool


def compare_to_outcomes(traj: LearningTrajectory, per_situation, window: int) -> ComparisonReport:
    """Match the final stretch of a run against its situation's outcomes.

    Over the last ``window`` periods (one situation ``gi``), the modal play
    quadruple and mean kernel-marginal beliefs are compared to those of each
    outcome in ``per_situation[gi]`` (``enumerate_situation_ez``'s list, which
    ``best_index`` indexes), ranked by play mismatch count plus total-variation
    distance; the run has converged when play matches exactly and the worse
    group's distance is within ``CONVERGENCE_TV``.
    """
    if not 0 < window <= traj.horizon:
        raise ValueError("window must lie in [1, horizon]")
    sl = slice(traj.horizon - window, traj.horizon)
    sits = np.unique(traj.situations[sl])
    if len(sits) != 1:
        raise ValueError("the comparison window spans a situation redraw; "
                         "use a shorter window")
    gi = int(sits[0])

    mean_alpha = traj.alpha[sl].mean(axis=0)
    modal = tuple(int(i) for i in mean_alpha.argmax(axis=2).flat)
    bel_a = traj.model_a.kernel_marginal(traj.nu_a[sl].mean(axis=0))
    bel_b = traj.model_b.kernel_marginal(traj.nu_b[sl].mean(axis=0))
    pay = traj.payoff[sl].mean(axis=0)

    best = None
    for idx, out in enumerate(per_situation[gi]):
        mismatch = sum(int(a != b) for a, b in zip(modal, out.quadruple))
        tv_a = _kernel_tv(bel_a, out.belief_a, traj.model_a)
        tv_b = _kernel_tv(bel_b, out.belief_b, traj.model_b)
        tv = max(tv_a, tv_b)
        score = mismatch + tv_a + tv_b
        if best is None or score < best[0]:
            best = (score, idx, mismatch, tv)

    _, idx, mismatch, tv = best or (None, None, None, float("inf"))
    return ComparisonReport(window, gi, modal, (float(pay[0]), float(pay[1])),
                            bel_a, bel_b, idx, mismatch, float(tv),
                            mismatch == 0 and tv <= CONVERGENCE_TV)


def compare_to_ez(traj: LearningTrajectory, ez_list, window: int) -> ComparisonReport:
    """``compare_to_outcomes`` with ``best_index`` indexing composed states."""
    return compare_to_outcomes(traj, [[z.outcomes[gi] for z in ez_list] for gi in
                                      range(1 + int(traj.situations.max(initial=0)))], window)


def _kernel_tv(traj_kernel_belief: np.ndarray, ez_belief: np.ndarray,
               model: Model) -> float:
    """Total variation between kernel marginals; the state's belief may live
    on the expanded grid or on a compact grid with one entry per kernel."""
    ez_belief = np.asarray(ez_belief, dtype=float)
    if len(ez_belief) == model.n_params:
        other = model.kernel_marginal(ez_belief)
    elif len(ez_belief) == len(model.kernels):
        other = ez_belief
    else:
        raise ValueError(
            f"belief length {len(ez_belief)} matches neither the expanded "
            f"grid ({model.n_params}) nor the kernel list ({len(model.kernels)})")
    return 0.5 * float(np.abs(traj_kernel_belief - other).sum())
