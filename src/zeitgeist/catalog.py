"""Worked environments and their closed-form analyses.

Four families.  A quantity-setting duopoly where entrants misperceive the
demand slope (closed forms plus a finite discretization whose equilibria
the generic verifier can certify).  A two-player capacity-investment game
whose entrants misattribute a fixed price discount to scale.  A
two-situation commitment game with success/failure outcomes used for the
separation and fragility analyses.  Two alternating-move stopping games
(centipede and dollar) where one group pools opponent nodes by parity
when forming conjectures; these have parametric strategy spaces, so they
are analyzed by one backward induction over the hand-written profile
rather than by the finite enumerator: under actual play it gives the
match payoffs, under the conjectures the one-deviation margins.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .games import TOL, DenseKernel, StageEnv, best_reply_mask, slack
from .inference import DataContext
from .models import Model, _certainty_form_model, singleton_model
from .solver import SituationOutcome, Zeitgeist, verify_ez

# ---------------------------------------------------------------------------
# duopoly closed forms


@dataclass(frozen=True)
class CournotSpec:
    """Duopoly with inverse demand ``beta - r*(q_i + q_j) + noise``, cost c.

    Group A knows the true slope ``r``; group B perceives slope ``r_hat``
    and infers the demand intercept from observed prices.
    """

    beta: float
    c: float
    r: float
    r_hat: float

    def __post_init__(self):
        if not self.beta > self.c:
            raise ValueError("demand intercept must exceed marginal cost")
        if not (self.r > 0 and self.r_hat > 0):
            raise ValueError("demand slopes must be positive")


@dataclass(frozen=True)
class CournotClosedForm:
    """Equilibrium quantities and fitness when group A is the whole population."""

    spec: CournotSpec
    a_AA: float                # symmetric resident quantity
    resident_fitness: float
    a_stack: float             # quantity a leader would commit to

    @property
    def a_BA(self) -> float:
        """Entrant quantity against residents, at spec.r_hat."""
        return self.a_BA_at(self.spec.r_hat)

    @property
    def entrant_fitness(self) -> float:
        return self.entrant_fitness_at(self.spec.r_hat)

    def a_BA_at(self, r_hat: float) -> float:
        s = self.spec
        return (s.beta - s.c) / (2.0 * r_hat + s.r)

    def entrant_profit(self, a: float) -> float:
        """Entrant fitness as a function of its own quantity, residents replying
        with their true best response."""
        s = self.spec
        return 0.5 * (a * (s.beta - s.c) - a * a * s.r)

    def entrant_fitness_at(self, r_hat: float) -> float:
        return self.entrant_profit(self.a_BA_at(r_hat))


def cournot_closed_form(spec: CournotSpec) -> CournotClosedForm:
    gain = spec.beta - spec.c
    return CournotClosedForm(spec=spec, a_AA=gain / (3.0 * spec.r),
                             resident_fitness=gain * gain / (9.0 * spec.r),
                             a_stack=gain / (2.0 * spec.r))


# ---------------------------------------------------------------------------
# duopoly discretization

MASS_CHUNK = 64          # rows per pass of GaussianGridKernel.masses: bounds its temporaries


class MassBank:
    """Bin axis and noise scale shared by a build's kernels, so that a row
    depends only on its mean.  Inside ``with bank:`` rows are memoized on
    their exact float mean, keeping their bits; outside, every request
    computes them."""

    def __init__(self, edges, sigma: float):
        self.edges = np.asarray(edges, dtype=float)
        self.centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        self.sigma = float(sigma)
        self._memo: dict[float, np.ndarray] | None = None

    def __enter__(self) -> MassBank:
        self._memo = {}
        return self

    def __exit__(self, *exc) -> None:
        self._memo = None

    def __len__(self) -> int:
        return 0 if self._memo is None else len(self._memo)

    def row(self, mu: float, compute) -> np.ndarray:
        """One row; a memo hit is served as stored."""
        hit = None if self._memo is None else self._memo.get(mu)
        return self.rows(mu, compute)[0] if hit is None else hit

    def fill(self, mus, compute) -> list[float]:
        """Memoize the rows of ``mus`` missing from the memo in one ``compute``
        call, stacking nothing; returns the memo keys.  A no-op outside."""
        keys = np.atleast_1d(np.asarray(mus, dtype=float)).tolist()
        if self._memo is not None:
            missing = [mu for mu in dict.fromkeys(keys) if mu not in self._memo]
            if missing:
                self._memo.update(zip(missing, compute(np.array(missing))))
        return keys

    def rows(self, mus, compute) -> np.ndarray:
        """Rows for the means ``mus``, stacked; misses are filled first."""
        if self._memo is None:
            return compute(mus)
        return np.array([self._memo[mu] for mu in self.fill(mus, compute)])


class GaussianGridKernel:
    """Lazy consequence kernel for a price that is linear in the quantity sum.

    The price at profile (i, j) is normal with mean
    ``intercept - slope*(q_i + q_j)`` and a shared standard deviation,
    discretized onto a common equal-width bin axis and renormalized.  Rows
    come from ``bank``, which memoizes them for one ``cournot_discrete_ez``
    call and otherwise computes them on demand; the (n, n, bins) table is
    never stored.
    """

    def __init__(self, quantities, slope: float, intercept: float, bank: MassBank):
        self.quantities = np.asarray(quantities, dtype=float)
        self.slope = float(slope)
        self.intercept = float(intercept)
        self.bank = bank
        self._payoff_cache: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n_strategies(self) -> int:
        return len(self.quantities)

    @property
    def n_consequences(self) -> int:
        return len(self.bank.centers)

    def mean(self, i: int, j: int) -> float:
        return self.intercept - self.slope * (self.quantities[i] + self.quantities[j])

    def masses(self, mus) -> np.ndarray:
        """Renormalized bin masses for an array of means, shape (m, bins).

        Each tail is accumulated from its own end so far bins keep tiny
        positive mass instead of rounding to zero; every divergence against
        another kernel on the same axis then stays finite.  Each edge's nearer
        tail is one ``ndtr(-|z|)``; the bin straddling the mean also needs
        its left edge's upper tail.
        """
        from scipy.special import ndtr   # slow to import, needed only here
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        out = np.empty((len(mus), len(self.bank.centers)))
        for lo in range(0, len(mus), MASS_CHUNK):
            z = (self.bank.edges[None, :] - mus[lo:lo + MASS_CHUNK, None]) / self.bank.sigma
            tail = ndtr(-np.abs(z))
            upper = z[:, 1:] > 0.0
            start = tail[:, :-1].copy()
            straddle = upper & (z[:, :-1] <= 0.0)
            start[straddle] = ndtr(-z[:, :-1][straddle])
            mass = np.where(upper, start - tail[:, 1:], tail[:, 1:] - start)
            np.maximum(mass, 0.0, out=mass)
            np.divide(mass, mass.sum(axis=1, keepdims=True), out=out[lo:lo + MASS_CHUNK])
        return out

    def row(self, i: int, j: int) -> np.ndarray:
        return self.bank.row(self.mean(i, j), self.masses)

    def rows_for_own(self, i: int) -> np.ndarray:
        mus = self.intercept - self.slope * (self.quantities[i] + self.quantities)
        return self.bank.rows(mus, self.masses)

    def payoff_matrix(self, utility: np.ndarray) -> np.ndarray:
        # the one payoff memo: a miss stacks every row of the grid, and the
        # verifier asks again for each state.  It holds the utility array
        # itself, so that array's identity stays a valid key while it lives.
        cached = self._payoff_cache
        if cached is None or cached[0] is not utility:
            n = self.n_strategies
            pay = np.empty((n, n))
            for i in range(n):
                pay[i] = self.rows_for_own(i) @ utility[i]
            cached = self._payoff_cache = (utility, pay)
        return cached[1]


def build_cournot_discrete(spec: CournotSpec, quantity_grid, price_bins: int,
                           noise_sd: float):
    """Finite version of the duopoly: quantity grid, binned Gaussian prices.

    Returns (env, model_a, model_b).  Both models range over one shared
    intercept grid; group A's kernels use the true slope, group B's the
    perceived one.  The intercept grid is stepped so that every
    data-matching intercept ``beta + s*(r_hat - r)`` for an on-grid
    quantity sum s is itself on the grid (exact for uniform quantity
    grids; otherwise a construction warning reports the worst residual).
    """
    q = np.asarray(quantity_grid, dtype=float)
    if q.ndim != 1 or len(q) < 2 or np.any(np.diff(q) <= 0):
        raise ValueError("quantity grid must be strictly increasing")
    monopoly = (spec.beta - spec.c) / spec.r
    if q[0] > 1e-12 or q[-1] < monopoly - 1e-12:
        raise ValueError(f"quantity grid must cover [0, {monopoly:g}]")
    if not noise_sd > 0:
        raise ValueError("noise_sd must be positive")
    if price_bins < 2:
        raise ValueError(f"price_bins must be at least 2, got {price_bins}")
    bins = int(price_bins)

    qstep = float(np.min(np.diff(q)))
    drift = spec.r_hat - spec.r
    step = qstep * (abs(drift) if drift != 0.0 else spec.r)
    span = 2.0 * q[-1] * drift
    lo, hi = min(0.0, span), max(0.0, span)
    if drift == 0.0:
        lo, hi = -10.0 * step, 10.0 * step
    below = int(np.ceil(-lo / step - TOL))
    above = int(np.ceil(hi / step - TOL))
    intercepts = spec.beta + step * np.arange(-below, above + 1)

    sums = np.unique(q[:, None] + q[None, :])
    targets = spec.beta + sums * drift
    residual = float(np.abs(targets[:, None] - intercepts[None, :]).min(axis=1).max())
    if residual > 0.5 * step * (1.0 + TOL):
        warnings.warn(
            f"intercept grid too coarse for the data-matching intercepts: "
            f"worst residual {residual:.3g} exceeds half a step ({0.5 * step:.3g})")

    slope_max = max(spec.r, spec.r_hat)
    mean_lo = float(intercepts.min() - slope_max * 2.0 * q[-1])
    mean_hi = float(intercepts.max())
    edges = np.linspace(mean_lo - 4.0 * noise_sd, mean_hi + 4.0 * noise_sd, bins + 1)
    width = edges[1] - edges[0]
    if noise_sd / width < 1.5:
        warnings.warn(
            f"price bins are coarse relative to the noise scale "
            f"(sd/width = {noise_sd / width:.2f}); payoff ties may not survive")

    bank = MassBank(edges, noise_sd)
    truth = GaussianGridKernel(q, spec.r, spec.beta, bank)
    centers = bank.centers

    def family(slope):
        return [GaussianGridKernel(q, slope, b, bank) for b in intercepts]

    utility = q[:, None] * (centers[None, :] - spec.c)
    args = {"beta": spec.beta, "c": spec.c, "r": spec.r, "r_hat": spec.r_hat,
            "quantity_grid": [float(v) for v in q], "price_bins": int(price_bins),
            "noise_sd": noise_sd}

    def stamp(role, **extra):
        return {"builder": "cournot_discrete", "role": role, "args": args, **extra}

    env = StageEnv(
        strategies=[f"{v:g}" for v in q],
        consequences=[f"{v:.6g}" for v in centers],
        situations=["market"],
        kernels=[truth],
        utility=utility,
        meta=stamp("env", intercept_step=step, cost=spec.c),
    )
    labels = [f"intercept={b:g}" for b in intercepts]
    model_a = _certainty_form_model("true_slope", family(spec.r), labels,
                                    meta=stamp("model_a", slope=spec.r))
    model_b = _certainty_form_model("perceived_slope", family(spec.r_hat), labels,
                                    meta=stamp("model_b", slope=spec.r_hat))
    return env, model_a, model_b


def _nearest_index(values: np.ndarray, target: float) -> int:
    return int(np.argmin(np.abs(values - target)))


def cournot_discrete_ez(env: StageEnv, model_a: Model, model_b: Model,
                        shares) -> list[Zeitgeist]:
    """All self-confirming states of the discretized duopoly at an extreme share.

    Group A's belief is the true intercept; group B's is the intercept whose
    predicted mean price matches its data, the cross profile (a_BA, a_AB) at
    (1, 0) and its own (a_BB, a_BB) at (0, 1).  Pinned beliefs let the state
    space be scanned instead of enumerated.  B's payoffs are its kernel rows
    times ``env.utility``, so no builder metadata is read.  Every state found
    is certified by the generic verifier before it is returned.
    """
    p_a, p_b = float(shares[0]), float(shares[1])
    if (p_a, p_b) not in ((1.0, 0.0), (0.0, 1.0)):
        raise ValueError("the direct scan handles only the extreme shares "
                         "(1, 0) and (0, 1)")
    truth: GaussianGridKernel = env.kernels[0]
    q = truth.quantities
    beta, r = truth.intercept, truth.slope
    r_hat = model_b.params[0].kernel.slope
    grid_b = np.array([p.kernel.intercept for p in model_b.params])
    # own-group data pins A at (1, 0), and the correct slope makes cross
    # data match exactly at (0, 1)
    idx_a = _nearest_index(np.array([p.kernel.intercept for p in model_a.params]), beta)

    def pinned(total: float) -> int:
        """B's data-matching intercept for an observed quantity sum."""
        return _nearest_index(grid_b, beta + total * (r_hat - r))

    @functools.cache
    def reply_b(idx: int, a_opp: int) -> np.ndarray:
        """B's best-reply mask against ``a_opp`` under intercept ``idx``; a
        row's mean depends only on the quantity sum, so the rows (a_opp, i)
        are the rows (i, a_opp)."""
        rows = model_b.params[idx].kernel.rows_for_own(a_opp)
        return best_reply_mask(np.einsum("iy,iy->i", rows, env.utility))

    def outcome(quad, idx_b: int) -> Zeitgeist:
        o = SituationOutcome(
            situation=env.situations[0], quadruple=quad,
            belief_a=np.eye(1, model_a.n_params, idx_a)[0],
            belief_b=np.eye(1, model_b.n_params, idx_b)[0],
            minimizers_a=(idx_a,), minimizers_b=(idx_b,),
            all_infinite_a=False, all_infinite_b=False,
            mixture_a=False, mixture_b=False)
        return Zeitgeist((p_a, p_b), (o,))

    sums = np.unique(q[:, None] + q)

    def verifier_means(z: Zeitgeist) -> np.ndarray:
        """The mean of every row ``verify_ez`` reads for ``z``: both groups'
        profiles under the truth and their parameters, and the payoff rows
        of B's belief (the scan reads A's)."""
        o = z.outcomes[0]
        kb = model_b.params[o.minimizers_b[0]].kernel
        mus = [k.mean(i, j) for g, m in enumerate((model_a, model_b))
               for i, j, _, _ in DataContext(g, z.shares, 0, o.quadruple).profiles()
               for k in (truth, *(p.kernel for p in m.params))]
        return np.unique(np.concatenate([mus, kb.intercept - kb.slope * sums]))

    # rows fetched by the scan and its verification are memoized for this call
    with truth.bank:
        reply_a = best_reply_mask(model_a.params[idx_a].kernel.payoff_matrix(env.utility))
        feasible_aa = np.flatnonzero(np.diagonal(reply_a)).tolist()
        cross = np.argwhere(reply_a.T).tolist()    # (a_BA, a_AB): A's replies to B
        found: list[tuple[int, int, int, int]] = []  # (a_AB, a_BA, a_BB, B's belief)
        if p_a == 1.0:
            # B's own play is any symmetric best reply under its pinned belief,
            # read off the memoized payoff matrix that the verifier reuses
            for a_ba, a_ab in cross:
                idx_b = pinned(q[a_ba] + q[a_ab])
                if reply_b(idx_b, a_ab)[a_ba]:
                    pay_b = model_b.params[idx_b].kernel.payoff_matrix(env.utility)
                    found += [(a_ab, a_ba, a_bb, idx_b) for a_bb in
                              np.flatnonzero(np.diagonal(best_reply_mask(pay_b))).tolist()]
        else:
            # B's cross play must be a best reply under its pinned belief
            for a_bb in range(len(q)):
                idx_b = pinned(2.0 * q[a_bb])
                if reply_b(idx_b, a_bb)[a_bb]:
                    found += [(a_ab, a_ba, a_bb, idx_b) for a_ba, a_ab in cross
                              if reply_b(idx_b, a_ab)[a_ba]]
        states = sorted((outcome((a_aa, a_ab, a_ba, a_bb), idx_b)
                         for a_ab, a_ba, a_bb, idx_b in found for a_aa in feasible_aa),
                        key=lambda z: z.outcomes[0].quadruple)
        for z in states:
            truth.bank.fill(verifier_means(z), truth.masses)   # verify_ez reads only hits
            ok, cert = verify_ez(z, env, model_a, model_b)
            if not ok:
                raise RuntimeError(
                    f"scan produced a state that fails verification: "
                    f"{z.outcomes[0].quadruple} -> {cert.failures()}")
    return states


# ---------------------------------------------------------------------------
# capacity-investment game


@dataclass(frozen=True)
class InvestmentSpec:
    """Two players invest 1 or 2 units; price is linear in total capacity.

    The true price mean is ``b*(a_i + a_j)``.  Entrants believe the mean is
    ``b_hat*(a_i + a_j) - m``, so matching the data at total s requires
    ``b_hat = b + m/s``: the inferred slope depends on the play they see.
    """

    b: float
    c: float
    m: float

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError("price slope b must be positive")
        if not self.m > 0:
            raise ValueError("discount offset m must be positive")
        if not np.isfinite(self.c):
            raise ValueError("investment cost c must be finite")

    def b_star(self, a_i: int, a_j: int) -> float:
        return self.b + self.m / (a_i + a_j)


@dataclass(frozen=True)
class InvestmentReport:
    b_star_11: float
    b_star_12: float
    b_star_22: float
    dominance_ok: bool      # 5b < c < 6b: low investment objectively dominant
    entry_play_ok: bool     # c < 4b + m/3 and c < 5b + m/4: entrants invest high
    flags: tuple[str, ...]


def build_investment_game(spec: InvestmentSpec, noise_sd: float = 2.0):
    """Returns (env, model_a, model_b, report).

    Group A holds the single true kernel.  Group B's parameters range over
    a slope grid that contains the three data-matching values b + m/2,
    b + m/3, b + m/4 exactly, plus padding on both sides.  Prices live on
    an integer lattice with a discrete Gaussian of sd ``noise_sd``.
    """
    if not 0.0 < noise_sd < np.inf:
        raise ValueError("noise_sd must be positive and finite")
    b, c, m = spec.b, spec.c, spec.m
    flags = []
    dominance_ok = 5.0 * b < c < 6.0 * b
    if not dominance_ok:
        flags.append(f"need 5b < c < 6b for low investment to dominate "
                     f"objectively; got 5b={5 * b:g}, c={c:g}, 6b={6 * b:g}")
    entry_play_ok = (c < 4.0 * b + m / 3.0) and (c < 5.0 * b + m / 4.0)
    if not entry_play_ok:
        flags.append(f"need c < 4b + m/3 and c < 5b + m/4 for entrants to "
                     f"invest high; got c={c:g}, 4b+m/3={4 * b + m / 3:g}, "
                     f"5b+m/4={5 * b + m / 4:g}")
    report = InvestmentReport(spec.b_star(1, 1), spec.b_star(1, 2),
                              spec.b_star(2, 2), dominance_ok, entry_play_ok,
                              tuple(flags))

    slopes = sorted({b, b + m / 6.0, b + m / 4.0, b + m / 3.0, b + m / 2.0, b + m})
    sums = np.array([2.0, 3.0, 4.0])
    means = [s * b for s in sums] + [bh * s - m for bh in slopes for s in sums]
    lattice = np.arange(int(np.floor(min(means) - 10.0 * noise_sd)),
                        int(np.ceil(max(means) + 10.0 * noise_sd)) + 1, dtype=float)

    def lattice_kernel(mean_of_sum) -> DenseKernel:
        table = np.empty((2, 2, len(lattice)))
        for i in range(2):
            for j in range(2):
                w = np.exp(-0.5 * ((lattice - mean_of_sum(i + j + 2)) / noise_sd) ** 2)
                table[i, j] = w / w.sum()
        return DenseKernel(table)

    truth = lattice_kernel(lambda s: b * s)
    utility = np.stack([lattice, 2.0 * lattice - c])   # invest a: a*P - (a-1)*c
    args = {"b": b, "c": c, "m": m, "noise_sd": noise_sd}
    grid_info = {"slope_grid": [float(v) for v in slopes]}
    env = StageEnv(
        strategies=["1", "2"],
        consequences=[f"{int(v)}" for v in lattice],
        situations=["market"],
        kernels=[truth],
        utility=utility,
        meta={"builder": "investment", "role": "env", "args": args, **grid_info},
    )
    model_a = singleton_model(env, truth, label="true_price")
    model_a.meta.update({"builder": "investment", "role": "model_a", "args": args})
    kernels_b = [lattice_kernel(lambda s, bh=bh: bh * s - m) for bh in slopes]
    model_b = _certainty_form_model(
        "discounted_price", kernels_b, [f"slope={v:g}" for v in slopes],
        meta={"builder": "investment", "role": "model_b", "args": args, **grid_info})
    return env, model_a, model_b, report


# ---------------------------------------------------------------------------
# two-situation commitment game

# success probability of the row player, by (own, opponent) strategy
_SITUATION_1 = np.array([
    [0.10, 0.10, 0.10],
    [0.10, 0.30, 0.10],
    [0.11, 0.10, 0.20],
])
_SITUATION_2 = np.array([
    [0.11, 0.50, 0.12],
    [0.50, 0.12, 0.14],
    [0.40, 0.55, 0.40],
])


def build_two_situation_game() -> StageEnv:
    """Three strategies, success/failure consequences, two situations.

    In the first situation the middle strategy is the symmetric optimum; in
    the second, success probabilities reward committing against specific
    replies.  The pair makes weighting across situations matter for which
    behavior can be protected.
    """
    def kernel(table: np.ndarray) -> np.ndarray:
        k = np.empty((3, 3, 2))
        k[:, :, 0] = table
        k[:, :, 1] = 1.0 - table
        return k

    return StageEnv(
        strategies=["a1", "a2", "a3"],
        consequences=["success", "failure"],
        situations=["G1", "G2"],
        kernels=[kernel(_SITUATION_1), kernel(_SITUATION_2)],
        utility=np.array([1.0, 0.0]),
        meta={"builder": "two_situation", "role": "env", "args": {}},
    )


# ---------------------------------------------------------------------------
# alternating-move stopping games


@dataclass(frozen=True)
class CentipedeSpec:
    """Stopping game on nodes 1..K; passing grows the pie by g per move,
    being stopped on costs the passer l relative to stopping first."""

    K: int
    g: float
    l: float

    def __post_init__(self):
        if self.K < 4 or self.K % 2 != 0:
            raise ValueError("K must be an even integer >= 4")
        if not (self.g > 0 and self.l > 0):
            raise ValueError("g and l must be positive")

    @property
    def sustainable(self) -> bool:
        """Passing beats stopping under pooled conjectures."""
        return self.g * (self.K - 2) > 2.0 * self.l


def _profile(stops: np.ndarray, z_end) -> tuple[bool, float, np.ndarray]:
    """Check the maximal-continuation profile and play it out.

    ``stops[k]`` is the (P1, P2) payoff pair if node k stops, row 0 unused,
    and ``z_end`` the pair if nobody stops; player 1 moves at odd nodes.
    Each plan is its first stop node, indexed [group, opponent group,
    role], with K + 1 for never: group A stops at once against its own kind
    and late against the pooled reasoners; group B passes everywhere except
    node K.  One backward induction runs over all eight cases, under actual
    play (the match payoffs) and under the conjectures (the one-deviation
    margin, prescribed action's value minus the alternative's, at every own
    node the conjecture can reach).  Group A conjectures the opponent's
    actual plan.  Group B pools opponent nodes by parity: rate x = 2/K at
    the nodes of an opponent whose plan stops anywhere, 0 at those of one
    that never stops.  It sees one stop after K/2 - 1 passes, so a rate x
    has divergence -(K/2 - 1)*log(1 - x) - log(x) (Jehiel, JET 2005), and
    the first-order condition (K/2 - 1)/(1 - x) = 1/x gives x = 2/K.

    Returns (verified, binding margin, m) with m[g, h] group g's expected
    payoff against group h, roles split evenly.
    """
    K = len(stops) - 1
    # from the whole contiguous table: abs over the transposed slice is slower
    scale = float(np.max(np.abs(stops)))
    first = np.array([[[1, 2], [K - 1, K]], [[K + 1, K], [K + 1, K]]])[..., None]
    rival = first.transpose(1, 0, 2, 3)[:, :, ::-1]         # first[h, g, 1 - role]
    node = np.arange(1, K + 1)
    own = (node % 2 == 1) == (np.arange(2) == 0)[:, None]    # [role, node]
    group_a = np.arange(2)[:, None, None, None] == 0
    played = (node >= np.where(own, first, rival)).astype(float)
    conjectured = np.where(own | group_a, played, np.where(rival <= K, 2.0 / K, 0.0))
    rate = np.stack([played, conjectured])                    # [mode, g, h, role, node]

    stops = stops[1:].T                                       # [role, node]
    value = np.empty(rate.shape[:-1] + (K + 1,))              # value[..., i] at node i + 1
    value[..., K] = z_end
    for i in range(K - 1, -1, -1):
        value[..., i] = rate[..., i] * stops[:, i] + (1.0 - rate[..., i]) * value[..., i + 1]

    go = value[1, ..., 1:]
    margin = np.where(played == 1.0, stops - go, go - stops)
    # a conjectured sure stop cuts off every node after it
    cut = np.logical_or.accumulate(~own & (conjectured >= 1.0), axis=-1)
    checked = own & ~cut
    tie = np.array([slack(max(scale, abs(z))) for z in z_end])[:, None]
    verified = bool(np.all((margin >= -tie) | ~checked))
    binding = float(np.min(margin[checked], initial=np.inf))
    pay = value[0, ..., 0]                                    # [g, h, role]
    return verified, binding, 0.5 * (pay[..., 0] + pay[..., 1])


@dataclass(frozen=True)
class StoppingReport:
    """Maximal-continuation profile of a stopping ladder and its match
    payoffs; ``line_payoffs`` is ``match_payoffs`` where the profile
    applies, else None: what ``affine_stable_shares`` takes."""

    maximal_continuation_verified: bool
    binding_margin: float
    match_payoffs: np.ndarray          # m[g, h]: group g against group h
    line_payoffs: np.ndarray | None


@dataclass(frozen=True)
class CentipedeReport(StoppingReport):
    spec: CentipedeSpec
    condition_holds: bool
    analogy_minimizer_x: float
    p_star_b: float | None


def centipede_analysis(spec: CentipedeSpec) -> CentipedeReport:
    """Verify the maximal-continuation profile (``_profile``) and report its
    fitness line.  The fitness gap is affine in group A's share; when the
    pie grows fast enough the crossing share is interior, otherwise the
    stability claims do not apply and p_star_b and line_payoffs are None.
    """
    K, g, l = spec.K, spec.g, spec.l
    # an odd-node stop splits the pie; an even-node stopper takes l from P1
    stops = np.array([(0.0, 0.0)] + [(g * (k - 1) / 2.0,) * 2 if k % 2 else
                                     ((k - 2) * g / 2.0 - l, k * g / 2.0 + l)
                                     for k in range(1, K + 1)])
    verified, margin, m = _profile(stops, (K * g / 2.0, K * g / 2.0))
    applies = spec.sustainable and verified
    return CentipedeReport(
        maximal_continuation_verified=verified, binding_margin=margin, match_payoffs=m,
        line_payoffs=m if applies else None, spec=spec, condition_holds=spec.sustainable,
        analogy_minimizer_x=2.0 / K, p_star_b=1.0 - l / (g * (K - 2)) if applies else None)


@dataclass(frozen=True)
class DollarReport(StoppingReport):
    K: int
    dominance_flag: bool


def dollar_analysis(K: int) -> DollarReport:
    """Winner-take-all variant: the stopper collects the whole pie.

    Passing is still sustained by pooled conjectures, but every payoff the
    pooled reasoners forgo accrues to the opponent, so the correct group's
    fitness is strictly higher at every share.  Requires K even and at
    least 6, so that the pooled first mover's last pass margin, (K-4)/K,
    is positive.  The binding margin is 0.0 at every K: passing at node
    K-2 is worth (1 - 2/K)*K = K-2 to the pooled second mover against
    group A, exactly its stop payoff, and the check accepts that tie
    within the slack.
    """
    if K < 6 or K % 2 != 0:
        raise ValueError("K must be an even integer >= 6")
    stops = np.array([(float(k), 0.0) if k % 2 else (0.0, float(k)) for k in range(K + 1)])
    verified, margin, m = _profile(stops, (float(K + 2), 0.0))
    # both fitness lines are affine in the share, so group A is ahead at
    # every share exactly when it is ahead against both groups by more than TOL
    return DollarReport(maximal_continuation_verified=verified, binding_margin=margin,
                        match_payoffs=m, line_payoffs=m if verified else None, K=K,
                        dominance_flag=bool(np.all(m[0] > m[1] + TOL)))
