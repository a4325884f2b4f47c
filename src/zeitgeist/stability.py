"""Evolutionary comparisons between two models of the same environment.

A resident group carrying one model is invaded by a small entrant group
carrying another.  A ``SharePair`` builds each situation's problem once and
answers three questions from it.  Classification asks whether the
resident's objective fitness beats the entrant's across every
self-confirming state at every invasion size in a list; reversal asks
whether conditional-fitness rankings at the two extreme shares flip; both
read the extreme gaps from per-situation extremes.  Share cells split group
A's share where the state list can change and find where the gap falls
through zero.  The separation check asks whether a correct resident's
symmetric-equilibrium payoffs can be strictly protected, by some weighting
of situations, against every dogmatic single-kernel entrant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .games import (TOL, StageEnv, as_weights, best_reply_mask, slack,
                    symmetric_nash)
from .solver import (SituationOutcome, SituationProblem, Zeitgeist, compose_states,
                     match_payoffs, max_margin, share_blend, situation_payoffs)

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


def _gap_range(env: StageEnv, per_situation, weights, blend) -> tuple[float, float]:
    """Least and greatest A-minus-B gap over all states under the share blend
    ``blend``: the weighted sums of each situation's extreme gaps, as states
    decouple across situations; nan when a situation has no outcome."""
    lo = hi = 0.0
    for gi, quads in enumerate(per_situation):
        if not len(quads):
            return np.nan, np.nan
        fits = share_blend(match_payoffs(env, gi, quads), blend)
        gaps = fits[:, 0] - fits[:, 1]
        lo += weights[gi] * gaps.min()
        hi += weights[gi] * gaps.max()
    return lo, hi


@dataclass(frozen=True)
class ReversalResult:
    """Reversal flags, and each situation's outcomes at both extremes.

    ``states_resident_a`` and ``states_resident_b`` compose the states on
    read and raise past ``MAX_COMPOSED`` states; read the outcomes."""
    reversal: bool
    condition_majority_a: bool
    condition_majority_b: bool
    outcomes_resident_a: tuple[tuple[SituationOutcome, ...], ...]
    outcomes_resident_b: tuple[tuple[SituationOutcome, ...], ...]
    mixture_supported_present: bool

    @property
    def states_resident_a(self) -> tuple[Zeitgeist, ...]:
        return tuple(compose_states(self.outcomes_resident_a, (1.0, 0.0)))

    @property
    def states_resident_b(self) -> tuple[Zeitgeist, ...]:
        return tuple(compose_states(self.outcomes_resident_b, (0.0, 1.0)))


@dataclass(frozen=True)
class StableSharesResult:
    """Share cells of group A and the shares where the gap falls through zero.

    Cell i spans ``ends[i]`` to ``ends[i + 1]`` (the shares 0 and 1 are
    cells of zero width); ``lines[i]`` is its resident-minus-entrant gap
    c0 + c1 p as (c0, c1), None where it has no state.  A threshold is the
    ``root`` of a cell's line or a ``jump`` across a cell end."""

    thresholds: tuple[float, ...]
    labels: tuple[str, ...]
    ends: tuple[float, ...]
    lines: tuple[tuple[float, float] | None, ...]

    @property
    def gaps(self) -> np.ndarray:
        """The gap at both ends of every cell, where a piecewise-affine gap
        takes its extremes; nan where a cell has no state."""
        return np.array([[np.nan, np.nan] if line is None else
                         [line[0] + line[1] * p for p in self.ends[i:i + 2]]
                         for i, line in enumerate(self.lines)])

    @property
    def no_state_bands(self) -> tuple[tuple[float, float], ...]:
        """Maximal runs of adjacent cells without a state, as (lo, hi)."""
        cells = zip(self.ends[:-1], self.ends[1:], self.lines)
        runs = [list(run) for empty, run in
                itertools.groupby(cells, key=lambda cell: cell[2] is None) if empty]
        return tuple((run[0][0], run[-1][1]) for run in runs)


def _scan_cells(ends, lines) -> StableSharesResult:
    """Walk the cells upward and record each downward crossing: a positive
    gap followed, past zero gaps and stateless cells, by a negative one."""
    found, last = [], None          # last: (share, label) ending the latest positive run
    for lo, hi, line in zip(ends[:-1], ends[1:], lines):
        if line is None:
            continue
        c0, c1 = line
        tol = slack(abs(c0) + abs(c1))
        start, end = c0 + c1 * lo, c0 + c1 * hi
        if start > tol:
            last = (hi, "jump") if end > tol else (-c0 / c1, "root")
        if last is not None and min(start, end) < -tol:
            found.append(last)
            last = None
        if end > tol:
            last = (hi, "jump")
    return StableSharesResult(tuple(float(t) for t, _ in found),
                              tuple(label for _, label in found), tuple(ends), tuple(lines))


def _gap_line(m: np.ndarray) -> tuple[float, float]:
    """(c0, c1) of the gap c0 + c1 p of match payoffs ``m`` at group A's
    share p: every match is against group B at p = 0 and against A at 1."""
    g0, g1 = float(m[0, 1] - m[1, 1]), float(m[0, 0] - m[1, 0])
    return g0, g1 - g0


def affine_stable_shares(m: np.ndarray | None) -> StableSharesResult:
    """``stable_shares`` for match payoffs ``m`` fixed on all of [0, 1], one
    cell; None when no state applies."""
    return _scan_cells((0.0, 1.0), (None if m is None else _gap_line(m),))


def share_cell_ends(problems: list[SituationProblem]) -> tuple[float, ...]:
    """Cell ends of prebuilt situation problems: 0 and 1 twice each, and
    every ``share_cuts`` share in (0, 1); a cut within ``TOL`` above the
    last end kept is merged into it."""
    cuts = np.concatenate([problem.share_cuts() for problem in problems])
    ends = [0.0, 0.0]
    for w in np.unique(cuts[(cuts > TOL) & (cuts < 1.0 - TOL)]):
        if w - ends[-1] > TOL:                  # against the last end kept
            ends.append(float(w))
    return (*ends, 1.0, 1.0)


@dataclass(frozen=True)
class SharePair:
    """Two models of one environment, each situation's problem built once for every question."""
    env: StageEnv
    model_a: object
    model_b: object

    @cached_property
    def problems(self) -> list[SituationProblem]:
        return [SituationProblem(self.env, self.model_a, self.model_b, G)
                for G in self.env.situations]

    def classify(self, q=None, eps_list=DEFAULT_EPS_LIST) -> StabilityVerdict:
        """Resident-minus-entrant fitness range across all states, per invasion
        size, read by ``_gap_range`` from one ``quadruples`` call per situation."""
        if not len(eps_list):
            raise ValueError("need at least one invasion size")
        eps_sorted = sorted((float(e) for e in eps_list), reverse=True)
        if not all(0.0 < eps < 1.0 for eps in eps_sorted):
            raise ValueError("invasion sizes must lie strictly between 0 and 1")
        weights = as_weights(q, self.env.n_situations)
        share_list = [(1.0 - eps, eps) for eps in eps_sorted]
        solved = [problem.quadruples(share_list) for problem in self.problems]
        evidence = []
        for eps, shares, *per_situation in zip(eps_sorted, share_list, *solved):
            counts = tuple(map(len, per_situation))
            evidence.append(EpsEvidence(eps, shares, counts, math.prod(counts), 0 in counts,
                                        *_gap_range(self.env, per_situation, weights, shares)))

        if any(e.empty for e in evidence):
            label = "NoEZ"
        elif all(e.min_gap >= -TOL for e in evidence):
            label = "Stable"
        elif all(e.max_gap < -TOL for e in evidence):
            label = "Fragile"
        else:
            label = "Ambiguous"
        return StabilityVerdict(label, tuple(evidence), weights)

    def reversal(self) -> ReversalResult:
        """Conditional-fitness reversal between the two extreme share points.

        With group A as the whole population, A must beat B conditional on both
        opponent groups in every state: the least gap under each blend e_h,
        m[0, h] - m[1, h], exceeds ``TOL``; with group B as the whole
        population, B must have the higher total fitness in every state.  The
        gaps are ``_gap_range``'s, with situations weighted equally as in
        ``fitness``; each situation is solved once, at both shares."""
        weights = as_weights(None, self.env.n_situations)
        extremes = [(1.0, 0.0), (0.0, 1.0)]
        solved = [problem.solve_many(extremes) for problem in self.problems]
        at_a, at_b = (tuple(map(tuple, per)) for per in zip(*solved))
        quads_a, quads_b = ([[o.quadruple for o in outs] for outs in per] for per in (at_a, at_b))
        cond_a = all(_gap_range(self.env, quads_a, weights, blend)[0] > TOL for blend in extremes)
        cond_b = bool(_gap_range(self.env, quads_b, weights, extremes[1])[1] < -TOL)
        # a state exists only where every situation has an outcome
        mixture = any(all(per) and any(o.mixture_supported for outs in per for o in outs)
                      for per in (at_a, at_b))
        return ReversalResult(cond_a and cond_b, cond_a, cond_b, at_a, at_b, mixture)

    def cells(self, q=None) -> StableSharesResult:
        """Share cells of two finite models and the thresholds of the first
        state's gap in enumeration order.

        Each group's objective is affine in the shares and its best-reply
        tables do not depend on them, so the state list can change only at a
        cell end (``share_cell_ends``).  Each cell is solved at its midpoint,
        all in one ``quadruples`` call per situation.  A cell's line is the
        ``situation_payoffs`` sum of its first state's match payoffs: each
        situation's first quadruple, so the product of outcomes is never formed."""
        weights = as_weights(q, self.env.n_situations)
        ends = share_cell_ends(self.problems)
        solved = [problem.quadruples([(p, 1.0 - p) for p in np.add(ends[:-1], ends[1:]) / 2.0])
                  for problem in self.problems]
        live = [c for c, per_situation in enumerate(zip(*solved)) if all(map(len, per_situation))]
        m = situation_payoffs(self.env, [[per_share[c][0] for c in live] for per_share in solved],
                              weights)
        lines = dict(zip(live, map(_gap_line, m)))
        return _scan_cells(ends, [lines.get(c) for c in range(len(ends) - 1)])


def classify_stability(env: StageEnv, model_resident, model_entrant, q=None,
                       eps_list=DEFAULT_EPS_LIST) -> StabilityVerdict:
    return SharePair(env, model_resident, model_entrant).classify(q, eps_list)


def detect_reversal(env: StageEnv, model_a, model_b) -> ReversalResult:
    return SharePair(env, model_a, model_b).reversal()


def stable_shares(env: StageEnv, model_a, model_b, q=None) -> StableSharesResult:
    return SharePair(env, model_a, model_b).cells(q)


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


def singleton_fragility_check(env: StageEnv) -> SeparationResult:
    """Can symmetric-equilibrium payoffs be protected against reaction rules?

    A dogmatic single-kernel entrant facing objectively rational opponents
    induces, per situation, an outcome pinned by a reaction rule b mapping
    the opponent's reply to the entrant's action; its guaranteed payoff is
    the worst consistent profile, or -inf when none exists.  The check
    searches for situation weights giving the resident's equilibrium payoff
    a strictly positive margin over every rule, then tilts the maximizing
    weights to full support while the strict inequalities survive.  Each
    situation's rule points are one gather from its best-reply mask (entry
    [j, b[j]] for every opponent reply j); the weights come from ``max_margin``.
    The margin at weights q is one ``np.vecdot`` (a 1-D ``@`` per row, bit
    for bit) over the rules with no -inf where q puts mass.
    """
    m = env.n_situations
    n = env.n_strategies
    if n ** n > 1_000_000:
        raise ValueError("reaction-rule enumeration is infeasible at this size")

    nash_vals = np.empty(m)
    for gi, G in enumerate(env.situations):
        res = symmetric_nash(env, G)
        if not res.exists:
            raise ValueError(f"no symmetric pure equilibrium in situation {G}")
        nash_vals[gi] = res.value

    rules = tuple(itertools.product(range(n), repeat=n))
    b = np.array(rules)
    table = np.empty((len(rules), m))
    for gi, G in enumerate(env.situations):
        pay = env.payoff_matrix(G)
        held = np.where(best_reply_mask(pay), pay.T, np.inf)   # [reply j, action]
        table[:, gi] = held[np.arange(n), b].min(axis=1)
    table[np.isposinf(table)] = -np.inf
    points = tuple(table)

    finite = table[np.isfinite(table).all(axis=1)]
    found = (max_margin((nash_vals - finite).T) if len(finite)
             else (np.full(m, 1.0 / m), np.inf))
    q_star, lp_margin = found

    def strict_margin_at(qv: np.ndarray) -> float:
        sup = qv > 0.0
        live = table[:, sup][~np.isneginf(table[:, sup]).any(axis=1)]
        return float(np.min(float(qv @ nash_vals) - np.vecdot(live, qv[sup]), initial=np.inf))

    separating_q = None
    margin = strict_margin_at(q_star)
    eps_used = 0.0
    if lp_margin > TOL:
        for eps in (0.1 * 0.5 ** k for k in range(37)):     # 0.1 halved down to 1e-12
            q_tilt = (1.0 - eps) * q_star + eps / m
            sm = strict_margin_at(q_tilt)
            if sm > TOL:
                separating_q, margin, eps_used = q_tilt, sm, eps
                break
    return SeparationResult(nash_vals, tuple(points), tuple(rules),
                            separating_q, margin, lp_margin, eps_used)
