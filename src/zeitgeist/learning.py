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
inside each period, and index ties broken low.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .games import StageEnv, as_weights
from .models import Model


@dataclass(frozen=True)
class Policy:
    """Burn-in length and optional exploration schedule eps0 / (1 + t/kappa)."""

    burn_in: int = 10
    eps0: float = 0.0
    kappa: float = 1.0

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
        pa, pb = self.shares
        if min(pa, pb) < 0 or abs(pa + pb - 1.0) > 1e-9:
            raise ValueError("shares must be a two-point distribution")
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
    ``running_payoff`` its cumulative average.
    """

    situations: np.ndarray          # (T,) situation index per period
    alpha: np.ndarray               # (T, 2, 2, n_strategies)
    nu_a: np.ndarray                # (T, P_A)
    nu_b: np.ndarray                # (T, P_B)
    payoff: np.ndarray              # (T, 2)
    running_payoff: np.ndarray      # (T, 2)
    model_a: Model                  # expanded models the posteriors refer to
    model_b: Model
    config: SimConfig

    @property
    def horizon(self) -> int:
        return len(self.situations)

    def play_quadruple(self, t: int) -> tuple[int, int, int, int]:
        a = self.alpha[t]
        return (int(a[0, 0].argmax()), int(a[0, 1].argmax()),
                int(a[1, 0].argmax()), int(a[1, 1].argmax()))

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
    """Full-support prior over the expanded grid, spreading a compact-form
    prior uniformly across conjecture pairs when needed."""
    p_n = expanded.n_params
    if prior is None:
        return np.full(p_n, 1.0 / p_n)
    prior = np.asarray(prior, dtype=float)
    if len(prior) == p_n:
        out = prior.copy()
    elif len(prior) == len(expanded.kernels) and p_n % len(expanded.kernels) == 0:
        reps = p_n // len(expanded.kernels)
        out = np.tile(prior / reps, reps)
    else:
        raise ValueError(
            f"prior for model {model.label!r} has length {len(prior)}; expected "
            f"{p_n} (expanded) or {len(expanded.kernels)} (per kernel)")
    if out.min() < 1e-12:
        raise ValueError("priors must have full support (every mass >= 1e-12)")
    total = out.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError("prior must sum to 1")
    return out / total


def _likelihood_tables(model: Model, env: StageEnv, gi: int, tau: float):
    """Log-likelihood lookups for one situation.

    Returns (ll, lm): ``ll[og, p, a, y]`` is the log probability parameter
    ``p`` assigns to consequence ``y`` after own action ``a`` against an
    opponent from group ``og``; ``lm[og, p, m]`` the log signal probability.
    """
    n = env.n_strategies
    n_y = len(env.consequences)
    p_n = model.n_params
    ll = np.empty((2, p_n, n, n_y))
    lm = np.empty((2, p_n, n))
    sig_base = (1.0 - tau) / n
    for p_i, param in enumerate(model.params):
        rows = np.stack([param.kernel.rows_for_own(a) for a in range(n)])
        for og in (0, 1):
            conj = param.conj_a[og]
            with np.errstate(divide="ignore"):
                # a parameter giving an observed consequence zero mass is
                # ruled out for good: -inf log posterior
                ll[og, p_i] = np.log(rows[:, conj, :])
            sig = np.full(n, sig_base)
            sig[conj] += tau
            lm[og, p_i] = np.log(sig)
    return ll, lm


def _payoff_tables(model: Model, env: StageEnv) -> np.ndarray:
    """``u[og, p, a]``: parameter p's expected payoff of own action a against
    an opponent from group og, at p's conjecture for that group."""
    n = env.n_strategies
    out = np.empty((2, model.n_params, n))
    for p_i, param in enumerate(model.params):
        pay = param.kernel.payoff_matrix(env.utility)
        for og in (0, 1):
            out[og, p_i] = pay[:, param.conj_a[og]]
    return out


def run_learning(env: StageEnv, model_a: Model, model_b: Model,
                 cfg: SimConfig) -> LearningTrajectory:
    """Simulate the two-group Bayesian learning process.

    Within a period all decisions read the previous period's posteriors and
    burn-in counters (a synchronous update), so agent order cannot matter;
    the fixed per-period draw order makes runs bit-reproducible from the
    seed.  On a situation redraw, posteriors and burn-in counters restart.
    """
    exp_a = model_a.expand_product(env)
    exp_b = model_b.expand_product(env)
    prior = (_expanded_prior(model_a, exp_a, cfg.prior_a),
             _expanded_prior(model_b, exp_b, cfg.prior_b))
    n_a, n_b = cfg.group_sizes()
    sizes = (n_a, n_b)
    n_all = n_a + n_b
    group_of = np.concatenate([np.zeros(n_a, dtype=int), np.ones(n_b, dtype=int)])
    offsets = (0, n_a)
    n = env.n_strategies
    weights = as_weights(cfg.q, env.n_situations)
    rng = np.random.default_rng(cfg.seed)
    T = cfg.horizon
    redraw = cfg.situation_period

    models = (exp_a, exp_b)
    log_prior = tuple(np.log(p) for p in prior)
    # per-situation tables, built lazily on first visit
    tables: dict[int, tuple] = {}

    def situation_tables(gi: int):
        if gi not in tables:
            tables[gi] = tuple(
                (*_likelihood_tables(m, env, gi, cfg.tau), _payoff_tables(m, env))
                for m in models)
        return tables[gi]

    log_post = [np.tile(log_prior[g], (sizes[g], 1)) for g in range(2)]
    counts = [np.zeros((sizes[g], 2), dtype=int) for g in range(2)]

    traj_sit = np.zeros(T, dtype=int)
    traj_alpha = np.zeros((T, 2, 2, n))
    traj_nu = [np.zeros((T, exp_a.n_params)), np.zeros((T, exp_b.n_params))]
    traj_pay = np.zeros((T, 2))
    traj_run = np.zeros((T, 2))

    gi = 0
    pay_sum = np.zeros(2)
    for t in range(T):
        if t == 0 or (redraw is not None and t % redraw == 0):
            u = rng.random()
            gi = int(np.searchsorted(np.cumsum(weights), u, side="right"))
            gi = min(gi, env.n_situations - 1)
            if t > 0:
                for g in range(2):
                    log_post[g][:] = log_prior[g]
                    counts[g][:] = 0
        per_model = situation_tables(gi)
        true_kernel = env.kernels[gi]

        # fixed draw order: exploration actions, exploration coin, opponent
        # group, opponent index, consequence, signal coin, signal fallback
        explore = rng.integers(0, n, size=(n_all, 2))
        eps_u = rng.random((n_all, 2))
        og_u = rng.random(n_all)
        oi_u = rng.random(n_all)
        y_u = rng.random(n_all)
        m_v = rng.random(n_all)
        m_w = rng.integers(0, n, size=n_all)

        # policy actions of every agent against both groups, from frozen state
        eps_t = cfg.policy.eps_at(t)
        act = np.empty((n_all, 2), dtype=int)
        for g in range(2):
            ll, lm, pay = per_model[g]
            post = np.exp(log_post[g] - logsumexp(log_post[g], axis=1,
                                                  keepdims=True))
            sl = slice(offsets[g], offsets[g] + sizes[g])
            for og in (0, 1):
                myopic = np.argmax(post @ pay[og], axis=1)
                burn = counts[g][:, og] < cfg.policy.burn_in
                soft = eps_u[sl, og] < eps_t
                act[sl, og] = np.where(burn | soft, explore[sl, og], myopic)
            traj_nu[g][t] = post.mean(axis=0)
            for og in (0, 1):
                traj_alpha[t, g, og] = np.bincount(act[sl, og],
                                                   minlength=n) / sizes[g]

        # each agent meets group h with probability p_h, then a uniform
        # member of that pool (with replacement)
        opp_group = (og_u >= cfg.shares[0]).astype(int)
        pool = np.array(sizes)[opp_group]
        opp_idx = np.minimum((oi_u * pool).astype(int), pool - 1) \
            + np.array(offsets)[opp_group]
        a_own = act[np.arange(n_all), opp_group]
        a_opp = act[opp_idx, group_of]

        table = getattr(true_kernel, "table", None)
        if table is not None:
            rows = table[a_own, a_opp]
        else:
            rows = np.stack([true_kernel.row(a_own[i], a_opp[i])
                             for i in range(n_all)])
        y = (y_u[:, None] > np.cumsum(rows, axis=1)).sum(axis=1)
        y = np.minimum(y, rows.shape[1] - 1)
        m = np.where(m_v < cfg.tau, a_opp, m_w)

        realized = env.utility[a_own, y]
        for g in range(2):
            sl = slice(offsets[g], offsets[g] + sizes[g])
            ll, lm, _ = per_model[g]
            add = ll[opp_group[sl], :, a_own[sl], y[sl]] \
                + lm[opp_group[sl], :, m[sl]]
            log_post[g] += add
            norm = logsumexp(log_post[g], axis=1, keepdims=True)
            dead = ~np.isfinite(norm[:, 0])
            if dead.any():
                # a zero-likelihood trap wiped these posteriors; restart them
                log_post[g][dead] = log_prior[g]
                norm[dead] = 0.0
            log_post[g] -= norm
            counts[g][np.arange(sizes[g]), opp_group[sl]] += 1
            traj_pay[t, g] = realized[sl].mean()

        pay_sum += traj_pay[t]
        traj_sit[t] = gi
        traj_run[t] = pay_sum / (t + 1)

    return LearningTrajectory(traj_sit, traj_alpha, traj_nu[0], traj_nu[1],
                              traj_pay, traj_run, exp_a, exp_b, cfg)


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


def compare_to_ez(traj: LearningTrajectory, ez_list, window: int,
                  tol: float = 0.05) -> ComparisonReport:
    """Match the final stretch of a run against candidate population states.

    Over the last ``window`` periods (which must share one situation), the
    modal play quadruple and mean kernel-marginal beliefs are compared to
    each state's play and beliefs; states are ranked by play mismatch count
    plus total-variation distance, and the run counts as converged when
    play matches exactly and the worse group's distance is within ``tol``.
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
    modal = (int(mean_alpha[0, 0].argmax()), int(mean_alpha[0, 1].argmax()),
             int(mean_alpha[1, 0].argmax()), int(mean_alpha[1, 1].argmax()))
    bel_a = traj.model_a.kernel_marginal(traj.nu_a[sl].mean(axis=0))
    bel_b = traj.model_b.kernel_marginal(traj.nu_b[sl].mean(axis=0))
    pay = traj.payoff[sl].mean(axis=0)

    best = None
    for idx, z in enumerate(ez_list):
        out = z.outcomes[gi]
        mismatch = sum(int(a != b) for a, b in zip(modal, out.quadruple))
        tv_a = _kernel_tv(bel_a, out.belief_a, traj.model_a)
        tv_b = _kernel_tv(bel_b, out.belief_b, traj.model_b)
        tv = max(tv_a, tv_b)
        score = mismatch + tv_a + tv_b
        if best is None or score < best[0]:
            best = (score, idx, mismatch, tv)

    if best is None:
        return ComparisonReport(window, gi, modal, (float(pay[0]), float(pay[1])),
                                bel_a, bel_b, None, None, float("inf"), False)
    _, idx, mismatch, tv = best
    return ComparisonReport(window, gi, modal, (float(pay[0]), float(pay[1])),
                            bel_a, bel_b, idx, mismatch, float(tv),
                            mismatch == 0 and tv <= tol)


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
