"""Equilibrium search over population states with model-based beliefs.

A population state couples, for every situation, the pure play of two
groups (four directed actions: within A, A against B, B against A, within
B) with one belief per group over that group's model parameters.  The
state is self-confirming when each group's belief is supported on the
parameters that best explain the data generated by the actual play,
weighted by the share of own-group and cross-group matches, and when the
four actions are subjectively optimal under those beliefs.

``SituationProblem`` builds once what does not depend on the shares: KL
profile tables, subjective payoffs and the tensor of single-parameter
rationalizers, in one pass over both models' stacked parameters.  One
feasibility pass weights the tables along a leading axis of shares, cuts
every minimizer set at once, takes the first single-parameter rationalizer
as a degenerate belief, and runs the max-margin mixture LP only for triples
with none that the other group could complete and with no mix of one or two
deviations that every minimizer prefers beyond the tie slack, once per LP
store (a ``SharePair`` shares one across situations) for each triple and
minimizer set; ``quadruples`` gives the play, ``solve_many`` adds beliefs."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .games import TOL, StageEnv, as_weights, slack, tie_tolerance
from .inference import (CHUNK_ELEMENTS, DataContext, conjectures, kl_minimizers,
                        kl_profile_tables, member_cut, validate_shares)

# composing per-situation results across situations multiplies counts;
# beyond this the caller should work situation by situation
MAX_COMPOSED = 200_000


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first call; every LP of the
    package is a ``max_margin`` program solved here.

    Loading scipy.optimize takes about half a second, and after the screens
    in ``_mixture_belief`` one situation solve in 32 of the benchmark's
    random pool reaches an LP.  ``perfbench/spans.py`` wraps this
    module-level name to count and time the LP calls."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


def max_margin(d: np.ndarray) -> tuple[np.ndarray, float]:
    """Simplex weights ``w`` over the rows of ``d`` maximizing the worst entry of
    ``w @ d``, and that entry.  The program is always feasible and bounded: failure raises."""
    m, k = d.shape
    # vars (w_1..w_m, t): max t  s.t.  t - w.d_j <= 0 for every column j
    res = linprog(np.append(np.zeros(m), -1.0), A_ub=np.hstack([-d.T, np.ones((k, 1))]),
                  b_ub=np.zeros(k), A_eq=np.append(np.ones(m), 0.0)[None, :], b_eq=[1.0],
                  bounds=[(0.0, 1.0)] * m + [(None, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"max-margin LP failed numerically: {res.message}")
    return res.x[:m], float(res.x[m])


def _require_compatible(env: StageEnv, model, who: str) -> None:
    model.require_fit(env, who)
    if model.strategic_certainty_form and not env.monitoring.is_perfect():
        raise ValueError(
            f"model {who} is in strategic-certainty form, which is only valid "
            "under perfect monitoring; expand it with Model.expand_product first")


@dataclass(frozen=True)
class SituationOutcome:
    """Play quadruple and supporting beliefs for a single situation."""

    situation: str
    quadruple: tuple[int, int, int, int]
    belief_a: np.ndarray
    belief_b: np.ndarray
    minimizers_a: tuple[int, ...]
    minimizers_b: tuple[int, ...]
    all_infinite_a: bool
    all_infinite_b: bool
    mixture_a: bool
    mixture_b: bool

    @property
    def mixture_supported(self) -> bool:
        return self.mixture_a or self.mixture_b


@dataclass(frozen=True)
class Zeitgeist:
    """A full population state: one situation outcome per situation."""

    shares: tuple[float, float]
    outcomes: tuple[SituationOutcome, ...]

    @property
    def mixture_supported(self) -> bool:
        return any(o.mixture_supported for o in self.outcomes)


def _mixture_belief(v_own: np.ndarray, v_cross: np.ndarray, a_own: int,
                    a_cross: int) -> tuple[np.ndarray, bool] | None:
    """Mixture over the rows of ``v_own``/``v_cross`` making (a_own, a_cross)
    subjectively optimal, or None.

    Row r holds one parameter's payoff of every own action against its
    conjectured opponent action.  Returns (weights, used_mixture).

    The LP is skipped when some mix of at most two deviations j, k rules
    out every belief.  Any simplex ``w`` has ``min_j (w @ d)_j <= w @ (λ d_j
    + (1 - λ) d_k) <= max_r (λ d_rj + (1 - λ) d_rk)``; when that max is below
    minus twice the tie tolerance of both stacks, it is below ``-s`` for the
    final check's slack ``s`` (``|w @ v| <= max |v|`` bounds it), so that
    check would reject any LP answer.  The 2 covers rounding in both.  Over
    λ the max is least at an end of [0, 1], one deviation alone, or where
    two rows cross, and only a pair with an entry below the bound in every
    row can qualify.  The LP's optimal mix of columns needs no more columns
    than there are rows, so for two minimizers the screen is exact."""
    d_own = v_own[:, a_own][:, None] - v_own   # >= -slack required, all columns
    d_cross = v_cross[:, a_cross][:, None] - v_cross
    d = np.hstack([d_own, d_cross])
    bound = -2.0 * tie_tolerance(np.hstack([v_own, v_cross]))
    if d.max(axis=0).min() < bound:
        return None
    high = (d >= bound).astype(float)
    j, k = np.nonzero(high.T @ high == 0.0)     # both orders, so λ = 1 also covers λ = 0
    step, base = d[:, j] - d[:, k], d[:, k]     # [r, pair]: row r's line is base + λ step
    with np.errstate(divide="ignore", invalid="ignore"):   # [r, s, pair]: where rows cross
        lam = (base[None] - base[:, None]) / (step[:, None] - step[None])
    lam = np.where((lam > 0.0) & (lam < 1.0), lam, 1.0)
    if reduce(np.maximum, (b + lam * s for b, s in zip(base, step))).min(initial=0.0) < bound:
        return None

    # maximize the worst optimality margin so the solution sits as far from
    # the boundary as the parameter set allows; a boundary-hugging belief
    # would be vulnerable to LP tolerance noise downstream
    found = max_margin(d)
    w = np.where(found[0] <= TOL, 0.0, found[0])
    w /= w.sum()
    # same convention the verifier applies: slack scales with the
    # belief-blended payoffs, not the raw per-parameter stack
    s = tie_tolerance(np.concatenate([w @ v_own, w @ v_cross]))
    if float((w @ d_own).min()) < -s or float((w @ d_cross).min()) < -s:
        return None
    return w, int(np.count_nonzero(w)) > 1


class _GroupTables:
    """Share-independent tables of one group in its own frame ``[t, x, y, z]``.

    ``t`` is a model parameter, ``x`` the group's action against its own
    group, ``y`` its action against the other group and ``z`` the other
    group's action against it: (a_AA, a_AB, a_BA) for group A and
    (a_BB, a_BA, a_AB) for group B.  The arrays are the group's rows of the
    pass ``SituationProblem`` makes over both models' stacked parameters.
    ``lps`` keeps every ``_mixture_belief`` answer under its inputs' key
    (x, y, z, member-index bytes); the inputs never depend on the situation,
    so all situations of a ``SharePair`` share one store per group.
    """

    def __init__(self, inf, diag, cross, v_own, v_cross, ok, lps):
        self.inf, self.diag, self.cross = inf, diag, cross
        self.v_own, self.v_cross, self.ok = v_own, v_cross, ok
        self.n_params = len(diag)
        self.lps: dict[tuple[int, int, int, bytes], tuple[np.ndarray, bool] | None] = lps

    def objective(self, w_own: np.ndarray, w_cross: np.ndarray) -> np.ndarray:
        """Weighted objective [t, k, x, y, z] of every parameter and triple."""
        obj = ((w_own[:, None] * self.diag[:, None])[:, :, :, None, None]
               + (w_cross[:, None, None] * self.cross[:, None])[:, :, None])
        np.copyto(obj, np.inf, where=self.inf[:, None])
        return obj

    def crossings(self) -> np.ndarray:
        """Own shares w in (0, 1) where two finite objective lines, cross + w
        (diag - cross) on [x, y, z], cross on their lower envelope, for any
        triple; a line with an infinite term is never on the envelope."""
        icpt = self.cross[:, None]                                 # [t, 1, y, z]
        slope = self.diag[:, :, None, None] - icpt                 # [t, x, y, z]
        with np.errstate(divide="ignore", invalid="ignore"):       # w: [t, s, x, y, z]
            w = (icpt[None] - icpt[:, None]) / (slope[:, None] - slope[None])
        w = np.where((w > 0.0) & (w < 1.0) & ~self.inf[:, None] & ~self.inf[None], w, np.nan)
        best = np.full(w.shape, np.inf)
        for r in range(self.n_params):
            best = np.minimum(best, np.where(self.inf[r], np.inf, icpt[r] + w * slope[r]))
        return w[icpt[:, None] + w * slope[:, None] <= best + slack(np.abs(best))]


class _GroupCut:
    """One group's minimizer sets and certified beliefs on [k, x, y, z]: K shares."""

    def __init__(self, tables: _GroupTables, w_own: np.ndarray, w_cross: np.ndarray):
        self.tables = tables
        self.members, self.all_inf = member_cut(tables.objective(w_own, w_cross))
        single = self.members & tables.ok[:, None]
        self.has_single = single.any(axis=0)
        self.first = single.argmax(axis=0)        # first rationalizer, index order
        self.needs_lp = ~self.has_single & (self.members.sum(axis=0) >= 2)
        self.feasible = self.has_single.copy()

    def run_lp(self, wanted: np.ndarray) -> np.ndarray:
        """Certify the ``wanted`` LP triples; returns the feasibility mask."""
        v_own, v_cross, lps = self.tables.v_own, self.tables.v_cross, self.tables.lps
        for k, x, y, z in np.argwhere(self.needs_lp & wanted).tolist():
            idx = np.flatnonzero(self.members[:, k, x, y, z])
            key = (x, y, z, idx.tobytes())
            if key not in lps:
                lps[key] = _mixture_belief(v_own[idx, x], v_cross[idx, z], x, y)
            self.feasible[k, x, y, z] = lps[key] is not None
        return self.feasible

    def support(self, k: int, x: int, y: int, z: int
                ) -> tuple[np.ndarray, tuple[int, ...], bool, bool]:
        """(belief, minimizers, all infinite, mixture) of a feasible (k, x, y, z);
        a mixture belief is the LP answer ``run_lp`` kept under its key."""
        idx = np.flatnonzero(self.members[:, k, x, y, z])
        belief, mixture = np.zeros(self.tables.n_params), False
        if self.has_single[k, x, y, z]:
            belief[self.first[k, x, y, z]] = 1.0
        else:
            weights, mixture = self.tables.lps[(x, y, z, idx.tobytes())]
            belief[idx] = weights
        return belief, tuple(int(t) for t in idx), bool(self.all_inf[k, x, y, z]), mixture


class SituationProblem:
    """One situation of a model pair, prepared once and solved at any shares.

    Holds the share-independent tables of both groups (KL profile tables,
    subjective payoff stacks and the single-parameter rationalizer tensor
    ``ok``) and finds the shares where its state list can change; ``lps``
    holds both groups' belief-LP stores, fresh unless a ``SharePair`` passes its own.
    """

    def __init__(self, env: StageEnv, model_a, model_b, G, lps=None):
        _require_compatible(env, model_a, "A")
        _require_compatible(env, model_b, "B")
        gi = env.situation_index(G)
        self.situation = env.situations[gi]
        n = env.n_strategies
        params, split = model_a.params + model_b.params, model_a.n_params
        t = np.arange(len(params))
        own = np.repeat([0, 1], [split, model_b.n_params])              # each row's group
        cols = conjectures(params, n)                                   # [t, j, og]
        table = kl_profile_tables((model_a, model_b), env, gi, cols)    # [t, i, j, og]
        diag = table[t[:, None], np.arange(n), np.arange(n), own[:, None]]   # [t, x]
        cross = table[t, :, :, 1 - own]                                 # [t, y, z]
        # infinite terms are kept apart, so a zero share never meets 0 * inf
        inf = np.isinf(diag)[:, :, None, None] | np.isinf(cross)[:, None]
        diag, cross = (np.where(np.isinf(a), 0.0, a) for a in (diag, cross))
        # payoff of every own action against each parameter's conjectured
        # action of the row's own group, [t, x, a], and of the other, [t, z, a]
        pay = np.array([p.kernel.payoff_matrix(env.utility) for p in params])   # [t, a, c]
        v_own, v_cross = (pay[t[:, None, None], np.arange(n)[:, None], cols[t, :, og][:, None]]
                          .transpose(0, 2, 1) for og in (own, 1 - own))
        # ok[t, x, y, z]: parameter t alone makes x and y optimal, under the
        # verifier's tie slack scaled to both payoff columns
        tie = slack(np.maximum(np.abs(v_own).max(axis=2)[:, :, None],
                               np.abs(v_cross).max(axis=2)[:, None, :]))   # [t, x, z]
        gap_own = np.diagonal(v_own, axis1=1, axis2=2) - v_own.max(axis=2)
        gap_cross = v_cross - v_cross.max(axis=2, keepdims=True)   # [t, z, y]
        ok = ((gap_own[:, :, None, None] >= -tie[:, :, None, :])
              & (gap_cross.transpose(0, 2, 1)[:, None] >= -tie[:, :, None, :]))
        self.groups = tuple(_GroupTables(*(a[rows] for a in (inf, diag, cross, v_own, v_cross, ok)),
                                         store) for rows, store in
                            zip((slice(None, split), slice(split, None)), lps or ({}, {})))

    def share_cuts(self) -> np.ndarray:
        """Group A's shares at both groups' ``crossings``; B's own share is 1 - p_A."""
        cut_a, cut_b = (tables.crossings() for tables in self.groups)
        return np.concatenate([cut_a, 1.0 - cut_b])

    def solve(self, shares: tuple[float, float]) -> list[SituationOutcome]:
        """All self-confirming pure-play outcomes at one share pair."""
        return self.solve_many([shares])[0]

    def solve_many(self, shares_seq) -> list[list[SituationOutcome]]:
        """``solve`` at each share pair, bit for bit: the ``quadruples`` with
        both groups' beliefs and minimizer sets."""
        outcomes = []
        for cut_a, cut_b, hits in self._passes(shares_seq):
            chunk = [[] for _ in cut_a.feasible]
            for k, i, j, m, l in hits.tolist():
                belief_a, min_a, inf_a, mix_a = cut_a.support(k, i, j, m)
                belief_b, min_b, inf_b, mix_b = cut_b.support(k, l, m, j)
                chunk[k].append(SituationOutcome(
                    self.situation, (i, j, m, l), belief_a, belief_b, min_a, min_b,
                    inf_a, inf_b, mix_a, mix_b))
            outcomes += chunk
        return outcomes

    def quadruples(self, shares_seq) -> list[np.ndarray]:
        """The play quadruples at each share pair, as one (H, 4) int array
        per share in ``solve_many``'s order, without assembling beliefs."""
        quads = []
        for cut_a, _, hits in self._passes(shares_seq):
            counts = np.bincount(hits[:, 0], minlength=len(cut_a.feasible))
            quads += np.split(hits[:, 1:], np.cumsum(counts)[:-1])
        return quads

    def _passes(self, shares_seq):
        """Per chunk of shares, both groups' cuts and the compatible pairs of
        their feasible triples: rows (k, a_AA, a_AB, a_BA, a_BB) in order.

        Group A's constraints depend on (a_AA, a_AB, a_BA) only and group
        B's on (a_AB, a_BA, a_BB), so each group's triples are certified
        once.  A triple without a single-parameter rationalizer reaches
        the LP only when the other group has a triple that completes it and
        its minimizers share no preferred mix of one or two deviations
        beyond the tie slack.
        """
        shares = np.array([validate_shares(s) for s in shares_seq]).reshape(-1, 2)
        size = max(1, CHUNK_ELEMENTS // max(tables.inf.size for tables in self.groups))
        for p_a, p_b in (shares[start:start + size].T for start in range(0, len(shares), size)):
            cut_a = _GroupCut(self.groups[0], p_a, p_b)
            cut_b = _GroupCut(self.groups[1], p_b, p_a)
            # B's own frame [k, l, m, j] read on A's axes [k, j, m, l]
            maybe_b = (cut_b.has_single | cut_b.needs_lp).transpose(0, 3, 2, 1)
            feas_a = cut_a.run_lp(maybe_b.any(axis=3)[:, None])
            feas_b = cut_b.run_lp(feas_a.any(axis=1).swapaxes(1, 2)[:, None]).transpose(0, 3, 2, 1)
            yield cut_a, cut_b, np.argwhere(feas_a[..., None] & feas_b[:, None])


def enumerate_situation_ez(env: StageEnv, model_a, model_b, G,
                           shares: tuple[float, float]) -> list[SituationOutcome]:
    """All self-confirming pure-play outcomes of one situation.

    Builds the situation's problem and solves it once; to solve at several
    shares, build one ``SituationProblem`` and call ``solve_many`` on all.
    """
    return SituationProblem(env, model_a, model_b, G).solve(shares)


def compose_states(per_situation: list[list[SituationOutcome]],
                   shares: tuple[float, float]) -> list[Zeitgeist]:
    """States at ``shares``: the product of the situations' outcome lists.
    Share questions never form it; only ``enumerate_ez`` and ``ReversalResult`` do."""
    count = 1
    for lst in per_situation:
        count *= len(lst)
        if count > MAX_COMPOSED:
            raise ValueError(
                "too many combined states; enumerate per situation instead "
                "(enumerate_situation_ez)")
    return [Zeitgeist((float(shares[0]), float(shares[1])), combo)
            for combo in itertools.product(*per_situation)]


def enumerate_ez(env: StageEnv, model_a, model_b,
                 shares: tuple[float, float]) -> list[Zeitgeist]:
    """All self-confirming population states at the given group shares.

    Situations decouple, so the state list is the product of per-situation
    outcome lists.  Raises when that product would be unreasonably large.
    """
    return compose_states([enumerate_situation_ez(env, model_a, model_b, G, shares)
                           for G in env.situations], shares)


def match_payoffs(env: StageEnv, G, quadruple) -> np.ndarray:
    """m[..., g, h]: objective payoff of group g against group h in situation G
    under each play quadruple (a_AA, a_AB, a_BA, a_BB) on the last axis."""
    quads = np.asarray(quadruple, dtype=int)
    play = quads.reshape(*quads.shape[:-1], 2, 2) if quads.size else quads.reshape(0, 2, 2)
    return env.payoff_matrix(G)[play, np.swapaxes(play, -1, -2)]


def share_blend(m: np.ndarray, shares: tuple[float, float]) -> np.ndarray:
    """(fitness A, fitness B) of match payoffs ``m[..., g, h]`` under random matching."""
    return m[..., 0] * shares[0] + m[..., 1] * shares[1]


def situation_payoffs(env: StageEnv, quadruples, weights) -> np.ndarray:
    """Match payoffs summed as w_g m_g from zeros in situation order, of one
    quadruple, or one stack of them, per situation."""
    return sum((weights[gi] * match_payoffs(env, gi, quads)
                for gi, quads in enumerate(quadruples)), np.zeros((2, 2)))


def fitness(z: Zeitgeist, env: StageEnv, q=None) -> np.ndarray:
    """Objective expected payoffs (group A, group B): the situation-weighted
    share blends of each situation's match payoffs."""
    weights = as_weights(q, env.n_situations)
    out = np.zeros(2)
    for gi, o in enumerate(z.outcomes):
        out += weights[gi] * share_blend(match_payoffs(env, gi, o.quadruple), z.shares)
    return out


def conditional_fitness(z: Zeitgeist, env: StageEnv, G, group, versus) -> float:
    """Objective payoff of ``group`` when matched against ``versus`` in G."""
    gi = env.situation_index(G)
    m = match_payoffs(env, gi, z.outcomes[gi].quadruple)
    return float(m[_group_index(group), _group_index(versus)])


def _group_index(g) -> int:
    if g in (0, 1):
        return int(g)
    if isinstance(g, str) and g.upper() in ("A", "B"):
        return 0 if g.upper() == "A" else 1
    raise ValueError(f"unknown group {g!r}")


@dataclass(frozen=True)
class GroupCheck:
    situation: str
    group: str
    minimizers: tuple[int, ...]
    all_infinite: bool
    support_ok: bool
    stray_support: tuple[int, ...]
    belief_sum_ok: bool
    br_slack_own: float
    br_slack_cross: float
    ok: bool


@dataclass(frozen=True)
class EZCertificate:
    checks: tuple[GroupCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[GroupCheck]:
        return [c for c in self.checks if not c.ok]


def _check_group(env: StageEnv, model, group: int, outcome: SituationOutcome,
                 gi: int, shares: tuple[float, float]) -> GroupCheck:
    i, j, k, l = outcome.quadruple
    belief = outcome.belief_a if group == 0 else outcome.belief_b
    if group == 0:
        me_own, me_cross, opp_cross = i, j, k
    else:
        me_own, me_cross, opp_cross = l, k, j

    # evaluate only the P weighted objectives, never the full profile table
    ctx = DataContext(group, shares, gi, outcome.quadruple)
    fit = kl_minimizers(model, ctx, env)
    member = np.zeros(model.n_params, dtype=bool)
    member[list(fit.indices)] = True
    stray = np.flatnonzero((belief > TOL) & ~member)
    support_ok = stray.size == 0
    sum_ok = bool(abs(belief.sum() - 1.0) <= TOL and belief.min() >= -1e-12)

    sup = np.flatnonzero(belief > TOL)
    if sup.size == 0:
        return GroupCheck(env.situations[gi], "AB"[group], fit.indices,
                          fit.all_infinite, support_ok,
                          tuple(int(t) for t in stray), False,
                          -np.inf, -np.inf, False)
    # payoff columns only for the supported parameters
    n = env.n_strategies
    cols = conjectures([model.params[t] for t in sup], n)      # [r, j, og]
    own_cols, cross_cols = cols[:, me_own, group], cols[:, opp_cross, 1 - group]
    v_own = np.zeros(n)
    v_cross = np.zeros(n)
    for r, t in enumerate(sup):
        pay_t = model.params[t].kernel.payoff_matrix(env.utility)
        v_own += belief[t] * pay_t[:, own_cols[r]]
        v_cross += belief[t] * pay_t[:, cross_cols[r]]
    tie = tie_tolerance(np.concatenate([v_own, v_cross]))
    br_own = float(v_own[me_own] - v_own.max())
    br_cross = float(v_cross[me_cross] - v_cross.max())

    ok = support_ok and sum_ok and br_own >= -tie and br_cross >= -tie
    return GroupCheck(env.situations[gi], "AB"[group], fit.indices,
                      fit.all_infinite, support_ok,
                      tuple(int(t) for t in stray), sum_ok,
                      br_own, br_cross, ok)


def verify_ez(z: Zeitgeist, env: StageEnv, model_a,
              model_b) -> tuple[bool, EZCertificate]:
    """Independent check that a population state is self-confirming.

    Recomputes minimizer sets from scratch, confirms each belief is a
    distribution supported on them, and confirms all four directed actions
    are subjectively optimal.  Returns the verdict plus a per-group
    certificate with the binding slacks.  A state must hold one outcome per
    situation, in the environment's order.
    """
    if tuple(o.situation for o in z.outcomes) != env.situations:
        raise ValueError("a state needs one outcome per situation, in order")
    _require_compatible(env, model_a, "A")
    _require_compatible(env, model_b, "B")
    checks = []
    for gi, outcome in enumerate(z.outcomes):
        checks.append(_check_group(env, model_a, 0, outcome, gi, z.shares))
        checks.append(_check_group(env, model_b, 1, outcome, gi, z.shares))
    cert = EZCertificate(tuple(checks))
    return cert.ok, cert

