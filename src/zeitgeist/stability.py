"""Evolutionary comparisons between two models of the same environment.

A resident group carrying one model is invaded by a small entrant group
carrying another.  Classification asks whether the resident's objective
fitness beats the entrant's across every self-confirming state at every
invasion size in a list; reversal asks whether conditional-fitness rankings
at the two extreme share points flip; the separation check asks whether the
symmetric-equilibrium payoff profile of a correctly specified resident can
be strictly protected, by some weighting of situations, against every
dogmatic single-kernel entrant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .games import StageEnv, as_weights, best_response_indices, symmetric_nash
from .solver import (SituationProblem, Zeitgeist, conditional_fitness,
                     fitness, situation_fitness, solve_states)

GAP_TOL = 1e-9
DEFAULT_EPS_LIST = (0.1, 0.05, 0.01, 0.005, 0.001)


@dataclass(frozen=True)
class EpsEvidence:
    eps: float
    shares: tuple[float, float]
    counts: tuple[int, ...]         # states per situation
    ez_count: int                   # composed count (product)
    empty: bool
    min_gap: float                  # resident minus entrant, over all states
    max_gap: float


@dataclass(frozen=True)
class StabilityVerdict:
    label: str                      # Stable | Fragile | Ambiguous | NoEZ
    evidence: tuple[EpsEvidence, ...]
    q: np.ndarray

    @property
    def is_stable(self) -> bool:
        return self.label == "Stable"

    @property
    def is_fragile(self) -> bool:
        return self.label == "Fragile"


def classify_stability(env: StageEnv, model_resident, model_entrant, q=None,
                       eps_list=DEFAULT_EPS_LIST, gap_tol: float = GAP_TOL,
                       tol: float = 1e-9) -> StabilityVerdict:
    """Resident-minus-entrant fitness range across all states, per invasion size.

    States decouple across situations, so the extreme total gaps are the
    weighted sums of per-situation extreme gaps; the full product of states
    is never materialized.  Each situation's problem is built once and
    solved at every invasion size.
    """
    if not len(eps_list):
        raise ValueError("need at least one invasion size")
    eps_sorted = sorted((float(e) for e in eps_list), reverse=True)
    weights = as_weights(q, env.n_situations)
    problems = [SituationProblem(env, model_resident, model_entrant, G, tol)
                for G in env.situations]
    evidence = []
    for eps in eps_sorted:
        if not 0.0 < eps < 1.0:
            raise ValueError("invasion sizes must lie strictly between 0 and 1")
        shares = (1.0 - eps, eps)
        counts = []
        lo = hi = 0.0
        empty = False
        for gi, (G, problem) in enumerate(zip(env.situations, problems)):
            outcomes = problem.solve(shares)
            counts.append(len(outcomes))
            if not outcomes:
                empty = True
                continue
            pairs = [situation_fitness(o, env, G, shares) for o in outcomes]
            gaps = [float(f[0] - f[1]) for f in pairs]
            lo += weights[gi] * min(gaps)
            hi += weights[gi] * max(gaps)
        if empty:
            lo = hi = np.nan
        total = int(np.prod(counts)) if counts else 0
        evidence.append(EpsEvidence(eps, shares, tuple(counts), total,
                                    empty, lo, hi))

    if any(e.empty for e in evidence):
        label = "NoEZ"
    elif all(e.min_gap >= -gap_tol for e in evidence):
        label = "Stable"
    elif all(e.max_gap < -gap_tol for e in evidence):
        label = "Fragile"
    else:
        label = "Ambiguous"
    return StabilityVerdict(label, tuple(evidence), weights)


@dataclass(frozen=True)
class ReversalResult:
    reversal: bool
    condition_majority_a: bool
    condition_majority_b: bool
    states_resident_a: tuple[Zeitgeist, ...]
    states_resident_b: tuple[Zeitgeist, ...]
    mixture_supported_present: bool


def detect_reversal(env: StageEnv, model_a, model_b, tol: float = GAP_TOL,
                    solver_tol: float = 1e-9) -> ReversalResult:
    """Conditional-fitness reversal between the two extreme share points.

    With group A as the whole population, A must beat B conditional on both
    opponent groups in every state; with group B as the whole population, B
    must have the higher total fitness in every state.  Defined for a single
    situation only.
    """
    if env.n_situations != 1:
        raise ValueError("reversal detection is defined for a single situation")
    G = env.situations[0]

    problems = [SituationProblem(env, model_a, model_b, G, solver_tol)]
    states_a = tuple(solve_states(problems, (1.0, 0.0)))
    states_b = tuple(solve_states(problems, (0.0, 1.0)))

    cond_a = bool(states_a)
    for z in states_a:
        vs_a = conditional_fitness(z, env, G, "A", "A") \
            > conditional_fitness(z, env, G, "B", "A") + tol
        vs_b = conditional_fitness(z, env, G, "A", "B") \
            > conditional_fitness(z, env, G, "B", "B") + tol
        cond_a = cond_a and vs_a and vs_b

    cond_b = bool(states_b)
    for z in states_b:
        f = fitness(z, env)
        cond_b = cond_b and (f[1] > f[0] + tol)

    mixture = any(z.mixture_supported for z in states_a + states_b)
    return ReversalResult(cond_a and cond_b, cond_a, cond_b,
                          states_a, states_b, mixture)


@dataclass(frozen=True)
class StableSharesResult:
    thresholds: tuple[float, ...]   # group-A shares where the gap crosses + to -
    grid: np.ndarray
    gaps: np.ndarray                # resident minus entrant; nan where undefined


def first_ez_selector(env: StageEnv, model_a, model_b, q=None,
                      tol: float = 1e-9):
    """Fitness pair of the first state in enumeration order, as a function
    of group A's share; None when no state exists.  The situation problems
    are built once, here, and solved at every share."""
    problems = [SituationProblem(env, model_a, model_b, G, tol)
                for G in env.situations]

    def select(p_a: float):
        states = solve_states(problems, (p_a, 1.0 - p_a))
        if not states:
            return None
        f = fitness(states[0], env, q)
        return float(f[0]), float(f[1])
    return select


def scan_stable_shares(gap_source, grid=None,
                       share_tol: float = 1e-9) -> StableSharesResult:
    """Shares where the resident-minus-entrant gap falls through zero.

    ``gap_source`` maps group A's share to a (fitness A, fitness B) pair or
    None.  Only downward crossings count: a positive gap at a lower share
    followed by a negative gap at a higher one, refined by bisection to
    ``share_tol``.  A gap that merely touches zero is not a crossing.
    """
    if grid is None:
        grid = np.linspace(0.0, 1.0, 101)
    grid = np.asarray(grid, dtype=float)
    gaps = np.full(len(grid), np.nan)
    for idx, p in enumerate(grid):
        pair = gap_source(float(p))
        if pair is not None:
            gaps[idx] = pair[0] - pair[1]

    def refine(lo: float, hi: float) -> float:
        # invariant: gap(lo) > 0, gap(hi) <= 0 with a negative beyond
        while hi - lo > share_tol:
            mid = 0.5 * (lo + hi)
            pair = gap_source(mid)
            if pair is None:
                break
            if pair[0] - pair[1] > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    thresholds = []
    last_pos = None                 # index of latest positive gap, still live
    for idx in range(len(grid)):
        g = gaps[idx]
        if np.isnan(g):
            continue
        if g > 0.0:
            last_pos = idx
        elif g < 0.0:
            if last_pos is not None:
                thresholds.append(refine(float(grid[last_pos]), float(grid[idx])))
            last_pos = None
    return StableSharesResult(tuple(thresholds), grid, gaps)


def stable_shares(env: StageEnv, model_a, model_b, q=None, grid_n: int = 101,
                  tol: float = 1e-9, ez_selector="lexicographic-first") -> StableSharesResult:
    """Stable group-A shares for two finite models over a uniform share grid.

    ``ez_selector`` is either the name "lexicographic-first" (track the first
    state in enumeration order) or a callable mapping a group-A share to a
    (fitness A, fitness B) pair or None.
    """
    if grid_n < 10:
        raise ValueError("grid_n must be at least 10")
    if callable(ez_selector):
        source = ez_selector
    elif ez_selector == "lexicographic-first":
        source = first_ez_selector(env, model_a, model_b, q)
    else:
        raise ValueError(f"unknown selector {ez_selector!r}")
    return scan_stable_shares(source, np.linspace(0.0, 1.0, grid_n), tol)


@dataclass(frozen=True)
class SeparationResult:
    v_ne: np.ndarray                       # equilibrium payoff per situation
    candidate_points: tuple                # v vector per reaction rule (-inf allowed)
    rules: tuple                           # the rules, aligned with candidate_points
    separating_q: np.ndarray | None        # full-support weights, None if absent
    margin: float                          # q.v_ne - max_rule q.v at separating_q
    lp_margin: float                       # optimum of the max-margin program
    eps_tilt: float

    @property
    def separable(self) -> bool:
        return self.separating_q is not None


def singleton_fragility_check(env: StageEnv, tol: float = 1e-9,
                              margin_tol: float = 1e-9) -> SeparationResult:
    """Can symmetric-equilibrium payoffs be protected against reaction rules?

    A dogmatic single-kernel entrant facing objectively rational opponents
    induces, per situation, an outcome pinned by a reaction rule b mapping
    the opponent's reply to the entrant's action; its guaranteed payoff is
    the worst consistent profile, or -inf when none exists.  The check
    searches for situation weights giving the resident's equilibrium payoff
    a strictly positive margin over every rule, then tilts the maximizing
    weights to full support while the strict inequalities survive.
    """
    m = env.n_situations
    n = env.n_strategies
    if n ** n > 1_000_000:
        raise ValueError("reaction-rule enumeration is infeasible at this size")

    nash_vals = np.empty(m)
    for gi, G in enumerate(env.situations):
        res = symmetric_nash(env, G, tol)
        if not res.exists:
            raise ValueError(f"no symmetric pure equilibrium in situation {G}")
        nash_vals[gi] = res.value

    replies = [[best_response_indices(env, G, a_i, tol=tol) for a_i in range(n)]
               for G in env.situations]

    rules = []
    points = []
    for b in itertools.product(range(n), repeat=n):
        vals = np.full(m, -np.inf)
        for gi in range(m):
            pi = env.payoff_matrix(gi)
            consistent = [pi[a_i, a_minus]
                          for a_i in range(n)
                          for a_minus in replies[gi][a_i]
                          if b[a_minus] == a_i]
            if consistent:
                vals[gi] = min(consistent)
        rules.append(b)
        points.append(vals)

    finite_rows = [v for v in points if np.all(np.isfinite(v))]
    if finite_rows:
        # vars (q_1..q_m, t): max t  s.t.  q.(v_rule - v_ne) + t <= 0
        a_ub = np.hstack([np.array(finite_rows) - nash_vals[None, :],
                          np.ones((len(finite_rows), 1))])
        res = linprog(np.concatenate([np.zeros(m), [-1.0]]),
                      A_ub=a_ub, b_ub=np.zeros(len(finite_rows)),
                      A_eq=np.concatenate([np.ones(m), [0.0]])[None, :], b_eq=[1.0],
                      bounds=[(0.0, 1.0)] * m + [(None, None)], method="highs")
        if not res.success:
            raise RuntimeError(f"margin program failed: {res.message}")
        q_star = res.x[:m]
        lp_margin = float(res.x[m])
    else:
        q_star = np.full(m, 1.0 / m)
        lp_margin = np.inf

    def strict_margin_at(qv: np.ndarray) -> float:
        base = float(qv @ nash_vals)
        sup = qv > 0.0
        worst = np.inf
        for vals in points:
            if np.isneginf(vals[sup]).any():
                continue                  # rule never consistent where q puts mass
            worst = min(worst, base - float(qv[sup] @ vals[sup]))
        return worst

    separating_q = None
    margin = strict_margin_at(q_star)
    eps_used = 0.0
    if lp_margin > margin_tol:
        eps = 0.1
        while eps >= 1e-12:
            q_tilt = (1.0 - eps) * q_star + eps / m
            sm = strict_margin_at(q_tilt)
            if sm > margin_tol:
                separating_q, margin, eps_used = q_tilt, sm, eps
                break
            eps *= 0.5
    return SeparationResult(nash_vals, tuple(points), tuple(rules),
                            separating_q, margin, lp_margin, eps_used)
