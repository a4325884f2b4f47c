"""Worked environments and their closed-form analyses.

Four families.  A quantity-setting duopoly where entrants misperceive the
demand slope (closed forms plus a finite discretization whose equilibria
the generic verifier can certify).  A two-player capacity-investment game
whose entrants misattribute a fixed price discount to scale.  A
two-situation commitment game with success/failure outcomes used for the
separation and fragility analyses.  Two alternating-move stopping games
(centipede and dollar) where one group pools opponent nodes by parity
when forming conjectures; these have parametric strategy spaces, so they
are analyzed by direct plan verification and closed-form fitness rather
than by the finite enumerator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .games import DenseKernel, StageEnv, best_reply_mask, tie_tolerance
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
        if self.r <= 0 or self.r_hat <= 0:
            raise ValueError("demand slopes must be positive")


@dataclass(frozen=True)
class CournotClosedForm:
    """Equilibrium quantities and fitness when group A is the whole population."""

    spec: CournotSpec
    a_AA: float                # symmetric resident quantity
    resident_fitness: float
    a_stack: float             # quantity a leader would commit to
    a_BA: float                # entrant quantity against residents, at spec.r_hat
    entrant_fitness: float

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
    a_aa = gain / (3.0 * spec.r)
    a_ba = gain / (2.0 * spec.r_hat + spec.r)
    form = CournotClosedForm(
        spec=spec,
        a_AA=a_aa,
        resident_fitness=gain * gain / (9.0 * spec.r),
        a_stack=gain / (2.0 * spec.r),
        a_BA=a_ba,
        entrant_fitness=0.5 * (a_ba * gain - a_ba * a_ba * spec.r),
    )
    return form


# ---------------------------------------------------------------------------
# duopoly discretization


class GaussianGridKernel:
    """Lazy consequence kernel for a price that is linear in the quantity sum.

    The price at profile (i, j) is normal with mean
    ``intercept - slope*(q_i + q_j)`` and a shared standard deviation,
    discretized onto a common equal-width bin axis and renormalized.  Rows
    are computed on demand; the (n, n, bins) table is never stored.
    """

    def __init__(self, quantities, slope: float, intercept: float,
                 sigma: float, edges):
        self.quantities = np.asarray(quantities, dtype=float)
        self.slope = float(slope)
        self.intercept = float(intercept)
        self.sigma = float(sigma)
        self.edges = np.asarray(edges, dtype=float)
        self.centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        self._payoff_cache: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n_strategies(self) -> int:
        return len(self.quantities)

    @property
    def n_consequences(self) -> int:
        return len(self.centers)

    def mean(self, i: int, j: int) -> float:
        return self.intercept - self.slope * (self.quantities[i] + self.quantities[j])

    def masses(self, mus) -> np.ndarray:
        """Renormalized bin masses for an array of means, shape (m, bins).

        Each tail is accumulated from its own end so far bins keep tiny
        positive mass instead of rounding to zero; every divergence against
        another kernel on the same axis then stays finite.
        """
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        z = (self.edges[None, :] - mus[:, None]) / self.sigma
        lower = ndtr(z)
        upper = ndtr(-z)
        left = lower[:, 1:] - lower[:, :-1]
        right = upper[:, :-1] - upper[:, 1:]
        mass = np.where(z[:, 1:] <= 0.0, left, right)
        np.maximum(mass, 0.0, out=mass)
        return mass / mass.sum(axis=1, keepdims=True)

    def binned_mean(self, mus) -> np.ndarray:
        return self.masses(mus) @ self.centers

    def row(self, i: int, j: int) -> np.ndarray:
        return self.masses(self.mean(i, j))[0]

    def rows_for_own(self, i: int) -> np.ndarray:
        mus = self.intercept - self.slope * (self.quantities[i] + self.quantities)
        return self.masses(mus)

    def payoff_matrix(self, utility: np.ndarray) -> np.ndarray:
        # keyed on the utility array itself, as in DenseKernel.payoff_matrix
        cached = self._payoff_cache
        if cached is None or cached[0] is not utility:
            n = self.n_strategies
            pay = np.empty((n, n))
            for i in range(n):
                pay[i] = self.rows_for_own(i) @ utility[i]
            cached = self._payoff_cache = (utility, pay)
        return cached[1]

    def opponent_independent(self, tol: float = 1e-9) -> bool:
        return abs(self.slope) <= tol

    def __eq__(self, other) -> bool:
        return (isinstance(other, GaussianGridKernel)
                and self.slope == other.slope
                and self.intercept == other.intercept
                and self.sigma == other.sigma
                and np.array_equal(self.edges, other.edges)
                and np.array_equal(self.quantities, other.quantities))

    def __hash__(self):
        return id(self)


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
    if noise_sd <= 0:
        raise ValueError("noise_sd must be positive")
    bins = max(int(price_bins), 2)

    qstep = float(np.min(np.diff(q)))
    drift = spec.r_hat - spec.r
    step = qstep * (abs(drift) if drift != 0.0 else spec.r)
    span = 2.0 * q[-1] * drift
    lo, hi = min(0.0, span), max(0.0, span)
    if drift == 0.0:
        lo, hi = -10.0 * step, 10.0 * step
    below = int(np.ceil(-lo / step - 1e-9))
    above = int(np.ceil(hi / step - 1e-9))
    intercepts = spec.beta + step * np.arange(-below, above + 1)

    sums = np.unique(q[:, None] + q[None, :])
    targets = spec.beta + sums * drift
    residual = float(np.abs(targets[:, None] - intercepts[None, :]).min(axis=1).max())
    if residual > 0.5 * step * (1.0 + 1e-9):
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

    def family(slope):
        return [GaussianGridKernel(q, slope, b, noise_sd, edges) for b in intercepts]

    truth = GaussianGridKernel(q, spec.r, spec.beta, noise_sd, edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
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
                        shares, tol: float = 1e-9) -> list[Zeitgeist]:
    """All self-confirming states of the discretized duopoly at an extreme share.

    At (1, 0) group A's belief is pinned by own-group data to the true
    intercept, and group B's by cross-group data to the intercept matching
    the observed mean price; at (0, 1) the roles of the pinning data swap.
    That structure lets the state space be scanned directly instead of
    enumerating quadruples, which is intractable at this grid size.  Every
    state found is certified by the generic verifier before it is returned.
    """
    p_a, p_b = float(shares[0]), float(shares[1])
    if (p_a, p_b) not in ((1.0, 0.0), (0.0, 1.0)):
        raise ValueError("the direct scan handles only the extreme shares "
                         "(1, 0) and (0, 1)")
    truth: GaussianGridKernel = env.kernels[0]
    q = truth.quantities
    n = len(q)
    cost = env.meta.get("cost")
    if cost is None:
        raise ValueError("expected an environment from build_cournot_discrete "
                         "(meta lacks the unit cost)")
    beta, r = truth.intercept, truth.slope
    r_hat = model_b.params[0].kernel.slope
    grid_a = np.array([p.kernel.intercept for p in model_a.params])
    grid_b = np.array([p.kernel.intercept for p in model_b.params])

    def pay_column(slope, intercept, a_opp: int) -> np.ndarray:
        """Subjective payoff of each own quantity against opponent index;
        bin masses depend only on the shared edges and noise scale."""
        mus = intercept - slope * (q + q[a_opp])
        return q * (truth.binned_mean(mus) - cost)

    def br_set(col: np.ndarray) -> np.ndarray:
        return np.flatnonzero(best_reply_mask(col, tol))

    def fixed_points(pay: np.ndarray) -> list[int]:
        slack = tie_tolerance(pay, tol)
        return [a for a in range(n) if pay[a, a] >= pay[:, a].max() - slack]

    # group A's belief is the true intercept at both extremes: own-group data
    # pins it at (1, 0), and the correct slope makes cross data match exactly
    # at (0, 1)
    idx_beta = _nearest_index(grid_a, beta)
    kern_a = model_a.params[idx_beta].kernel
    pay_a = kern_a.payoff_matrix(env.utility)
    feasible_aa = fixed_points(pay_a)

    situation = env.situations[0]

    def belief_vec(size: int, idx: int) -> np.ndarray:
        v = np.zeros(size)
        v[idx] = 1.0
        return v

    def outcome(quad, idx_b: int) -> Zeitgeist:
        o = SituationOutcome(
            situation=situation, quadruple=tuple(int(a) for a in quad),
            belief_a=belief_vec(model_a.n_params, idx_beta),
            belief_b=belief_vec(model_b.n_params, idx_b),
            minimizers_a=(idx_beta,), minimizers_b=(idx_b,),
            all_infinite_a=False, all_infinite_b=False,
            mixture_a=False, mixture_b=False)
        return Zeitgeist((p_a, p_b), (o,))

    states: list[Zeitgeist] = []
    if p_a == 1.0:
        # cross data pins B's intercept through the realized quantity sum
        triples: list[tuple[int, int, int]] = []   # (a_AB, a_BA, belief index)
        for a_ba in range(n):
            for a_ab in br_set(pay_a[:, a_ba]):
                target = beta + (q[a_ba] + q[a_ab]) * (r_hat - r)
                idx_b = _nearest_index(grid_b, target)
                col = pay_column(r_hat, grid_b[idx_b], a_ab)
                if best_reply_mask(col, tol)[a_ba]:
                    triples.append((int(a_ab), a_ba, idx_b))
        for a_ab, a_ba, idx_b in triples:
            kern_b = model_b.params[idx_b].kernel
            for a_bb in fixed_points(kern_b.payoff_matrix(env.utility)):
                for a_aa in feasible_aa:
                    states.append(outcome((a_aa, a_ab, a_ba, a_bb), idx_b))
    else:
        # own-group data pins B's intercept through twice its own quantity;
        # only two payoff columns per candidate are ever needed, so the full
        # subjective matrix is never formed
        for a_bb in range(n):
            target = beta + 2.0 * q[a_bb] * (r_hat - r)
            idx_b = _nearest_index(grid_b, target)
            intercept = grid_b[idx_b]
            col_bb = pay_column(r_hat, intercept, a_bb)
            if not best_reply_mask(col_bb, tol)[a_bb]:
                continue
            cols: dict[int, np.ndarray] = {}
            for a_ba in range(n):
                for a_ab in br_set(pay_a[:, a_ba]):
                    col = cols.get(a_ab)
                    if col is None:
                        col = cols[a_ab] = pay_column(r_hat, intercept, a_ab)
                    if best_reply_mask(col, tol)[a_ba]:
                        for a_aa in feasible_aa:
                            states.append(outcome((a_aa, a_ab, a_ba, a_bb), idx_b))

    states.sort(key=lambda z: z.outcomes[0].quadruple)
    for z in states:
        ok, cert = verify_ez(z, env, model_a, model_b, tol)
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
        if self.b <= 0:
            raise ValueError("price slope b must be positive")
        if self.m <= 0:
            raise ValueError("discount offset m must be positive")

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


def two_situation_tables() -> tuple[np.ndarray, np.ndarray]:
    return _SITUATION_1.copy(), _SITUATION_2.copy()


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
        if self.g <= 0 or self.l <= 0:
            raise ValueError("g and l must be positive")

    @property
    def sustainable(self) -> bool:
        """Passing beats stopping under pooled conjectures."""
        return self.g * (self.K - 2) > 2.0 * self.l


@dataclass(frozen=True)
class _Ladder:
    """Alternating-move stopping game; player 1 moves at odd nodes."""

    K: int
    stops: np.ndarray            # (K + 1, 2): payoffs (P1, P2) if stopped at node k
    z_end: tuple[float, float]   # payoffs if nobody stops


def _centipede_ladder(spec: CentipedeSpec) -> _Ladder:
    K, g, l = spec.K, spec.g, spec.l
    stops = np.zeros((K + 1, 2))
    for k in range(1, K + 1):
        if k % 2 == 1:
            stops[k] = (g * (k - 1) / 2.0, g * (k - 1) / 2.0)
        else:
            stops[k] = ((k - 2) * g / 2.0 - l, k * g / 2.0 + l)
    return _Ladder(K, stops, (K * g / 2.0, K * g / 2.0))


def _dollar_ladder(K: int) -> _Ladder:
    stops = np.zeros((K + 1, 2))
    for k in range(1, K + 1):
        stops[k, 0 if k % 2 == 1 else 1] = float(k)
    return _Ladder(K, stops, (float(K + 2), 0.0))


def _plan_stops_at(drop_from: int | None, k: int) -> bool:
    return drop_from is not None and k >= drop_from


def _plan_check(game: _Ladder, role: int, drop_from: int | None,
                hazard: np.ndarray, tol: float = 1e-9) -> tuple[bool, float]:
    """One-deviation optimality of a threshold plan against conjectured
    opponent stop rates, checked at every node the conjecture can reach.

    Returns (ok, worst margin); margin is the prescribed action's value
    minus the alternative's.
    """
    K = game.K
    value = np.zeros(K + 2)
    value[K + 1] = game.z_end[role]
    for k in range(K, 0, -1):
        if (k % 2 == 1) == (role == 0):
            stops = _plan_stops_at(drop_from, k)
            value[k] = game.stops[k, role] if stops else value[k + 1]
        else:
            value[k] = hazard[k] * game.stops[k, role] \
                + (1.0 - hazard[k]) * value[k + 1]

    scale = max(1.0, float(np.max(np.abs(game.stops))), abs(game.z_end[role]))
    worst = np.inf
    reachable = True
    for k in range(1, K + 1):
        own = (k % 2 == 1) == (role == 0)
        if own:
            if reachable:
                stop_val = game.stops[k, role]
                pass_val = value[k + 1]
                margin = (stop_val - pass_val if _plan_stops_at(drop_from, k)
                          else pass_val - stop_val)
                worst = min(worst, float(margin))
        else:
            if hazard[k] >= 1.0:
                reachable = False
    return bool(worst >= -tol * scale), worst


# plans in the maximal-continuation profile, as first-stop thresholds
# indexed by (group, role): group 0 stops early on its own kind and late
# against the pooled reasoners; group 1 passes everywhere except node K
def _profile_plans(K: int) -> dict:
    return {
        ("A", "A"): {0: 1, 1: 2},
        ("A", "B"): {0: K - 1, 1: K},
        ("B", "A"): {0: None, 1: K},
        ("B", "B"): {0: None, 1: K},
    }


def _conjectured_hazards(K: int, viewer: str, opp: str, role: int,
                         x: float) -> np.ndarray:
    """Stop rates the viewer assigns to opponent nodes.

    Group A conjectures actual play.  Group B pools nodes by parity and
    carries the fitted rate x for every parity generating stop data, and
    zero where its data shows no stops.
    """
    h = np.zeros(K + 1)
    opp_nodes = [k for k in range(1, K + 1) if (k % 2 == 1) == (role != 0)]
    if viewer == "A":
        plans = _profile_plans(K)[(opp, "A")]
        opp_plan = plans[1 - role]
        for k in opp_nodes:
            h[k] = 1.0 if _plan_stops_at(opp_plan, k) else 0.0
    elif opp == "A":
        for k in opp_nodes:
            h[k] = x
    else:
        for k in opp_nodes:
            h[k] = x if k % 2 == 0 else 0.0
    return h


def _verify_profile(game: _Ladder, x: float, tol: float = 1e-9) -> tuple[bool, float]:
    """Check all eight (group, role, opponent) plan optimality conditions."""
    plans = _profile_plans(game.K)
    ok_all, worst = True, np.inf
    for viewer in ("A", "B"):
        for opp in ("A", "B"):
            for role in (0, 1):
                drop_from = plans[(viewer, opp)][role]
                hazard = _conjectured_hazards(game.K, viewer, opp, role, x)
                ok, margin = _plan_check(game, role, drop_from, hazard, tol)
                ok_all = ok_all and ok
                if np.isfinite(margin):
                    worst = min(worst, margin)
    return ok_all, worst


def _play_out(game: _Ladder, plan_p1: int | None, plan_p2: int | None) -> np.ndarray:
    for k in range(1, game.K + 1):
        plan = plan_p1 if k % 2 == 1 else plan_p2
        if _plan_stops_at(plan, k):
            return game.stops[k].copy()
    return np.asarray(game.z_end, dtype=float)


def _match_payoffs(game: _Ladder) -> np.ndarray:
    """m[g, h]: group g's expected payoff against group h, roles split evenly."""
    plans = _profile_plans(game.K)
    m = np.zeros((2, 2))
    for gi, g in enumerate("AB"):
        for hi, h in enumerate("AB"):
            as_p1 = _play_out(game, plans[(g, h)][0], plans[(h, g)][1])[0]
            as_p2 = _play_out(game, plans[(h, g)][0], plans[(g, h)][1])[1]
            m[gi, hi] = 0.5 * (as_p1 + as_p2)
    return m


def _pooled_rate(K: int) -> float:
    """Stop rate the pooled reasoners fit to their data.

    They see one stop after K/2 - 1 passes, so a constant per-node stop
    rate x has divergence -(K/2 - 1)*log(1 - x) - log(x) (Jehiel, JET 2005).
    Its first-order condition (K/2 - 1)/(1 - x) = 1/x gives x = 2/K.
    """
    return 2.0 / K


@dataclass(frozen=True)
class StoppingReport:
    """Maximal-continuation profile of a stopping ladder and its fitness lines."""

    maximal_continuation_verified: bool
    binding_margin: float
    match_payoffs: np.ndarray          # (group, opponent group)

    @property
    def applies(self) -> bool:
        return self.maximal_continuation_verified

    def fitness_a(self, p):
        p = np.asarray(p, dtype=float)
        return p * self.match_payoffs[0, 0] + (1.0 - p) * self.match_payoffs[0, 1]

    def fitness_b(self, p):
        p = np.asarray(p, dtype=float)
        return p * self.match_payoffs[1, 0] + (1.0 - p) * self.match_payoffs[1, 1]

    def gap(self, p):
        return self.fitness_a(p) - self.fitness_b(p)

    def share_fitness(self, p_a: float):
        """(fitness A, fitness B) at group A's share, or None at every share
        when the profile does not apply; a gap source for
        ``scan_stable_shares``."""
        if not self.applies:
            return None
        return float(self.fitness_a(p_a)), float(self.fitness_b(p_a))


@dataclass(frozen=True)
class CentipedeReport(StoppingReport):
    spec: CentipedeSpec
    condition_holds: bool
    analogy_minimizer_x: float
    p_star_b: float | None

    @property
    def applies(self) -> bool:
        return self.condition_holds and self.maximal_continuation_verified


def centipede_analysis(spec: CentipedeSpec, tol: float = 1e-9) -> CentipedeReport:
    """Verify the maximal-continuation profile and report its fitness line.

    The profile is checked by backward induction on subjective values: each
    group's plan must be one-deviation optimal at every reachable own node
    under its conjectured stop rates (group B pools opponent nodes by
    parity at the fitted rate 2/K).  The fitness gap is affine in group A's
    share; when the pie grows fast enough the crossing share is interior,
    otherwise the stability claims do not apply and p_star_b is None.
    """
    game = _centipede_ladder(spec)
    x = _pooled_rate(spec.K)
    verified, margin = _verify_profile(game, x, tol)
    p_star = None
    if spec.sustainable and verified:
        p_star = 1.0 - spec.l / (spec.g * (spec.K - 2))
    return CentipedeReport(
        maximal_continuation_verified=verified,
        binding_margin=margin,
        match_payoffs=_match_payoffs(game),
        spec=spec,
        condition_holds=spec.sustainable,
        analogy_minimizer_x=x,
        p_star_b=p_star,
    )


@dataclass(frozen=True)
class DollarReport(StoppingReport):
    K: int
    dominance_flag: bool


def dollar_analysis(K: int, tol: float = 1e-9) -> DollarReport:
    """Winner-take-all variant: the stopper collects the whole pie.

    Passing is still sustained by pooled conjectures, but every payoff the
    pooled reasoners forgo accrues to the opponent, so the correct group's
    fitness is strictly higher at every share.  Requires K even and at
    least 6: the binding pass margin at the last pooled node is (K-4)/K.
    """
    if K < 6 or K % 2 != 0:
        raise ValueError("K must be an even integer >= 6")
    game = _dollar_ladder(K)
    verified, margin = _verify_profile(game, _pooled_rate(K), tol)
    m = _match_payoffs(game)
    # both fitness lines are affine in the share, so group A is ahead at
    # every share exactly when it is ahead at both ends
    dominance = bool(m[0, 0] > m[1, 0] and m[0, 1] > m[1, 1])
    return DollarReport(maximal_continuation_verified=verified, binding_margin=margin,
                        match_payoffs=m, K=K, dominance_flag=dominance)
