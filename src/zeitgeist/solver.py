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
rationalizers.  Its ``solve`` weights the tables by the shares, cuts every
triple's minimizer set at once, takes the first single-parameter
rationalizer as a degenerate belief, and runs the max-margin mixture LP
only for triples with none that the other group could complete."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .games import StageEnv, as_weights, tie_tolerance
from .inference import (ARGMIN_TOL, DataContext, conjecture_columns,
                        kl_minimizers, kl_profile_tables, validate_shares)

QUAD_KEYS = ("a_AA", "a_AB", "a_BA", "a_BB")

# composing per-situation results across situations multiplies counts;
# beyond this the caller should work situation by situation
MAX_COMPOSED = 200_000

SUPPORT_TOL = 1e-9


def _require_compatible(env: StageEnv, model, who: str) -> None:
    if model.strategic_certainty_form and not env.monitoring.is_perfect(1e-12):
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
    def play(self) -> np.ndarray:
        return np.array([o.quadruple for o in self.outcomes], dtype=int)

    @property
    def mixture_supported(self) -> bool:
        return any(o.mixture_supported for o in self.outcomes)

    def play_labels(self, env: StageEnv) -> list[dict]:
        rows = []
        for o in self.outcomes:
            rows.append({"situation": o.situation, **{
                k: env.strategies[a] for k, a in zip(QUAD_KEYS, o.quadruple)}})
        return rows


def _conjectured_columns(model, group: int, member_idx: np.ndarray,
                         default_own: int, default_cross: int) -> tuple[np.ndarray, np.ndarray]:
    """Opponent actions each parameter expects, vs own group and vs the other.

    Free conjectures (None) fall back to the actual play passed as defaults.
    """
    own_cols = np.empty(len(member_idx), dtype=int)
    cross_cols = np.empty(len(member_idx), dtype=int)
    for r, t in enumerate(member_idx):
        conj = model.params[t].conj_a
        c_own = conj[group]
        c_cross = conj[1 - group]
        own_cols[r] = default_own if c_own is None else c_own
        cross_cols[r] = default_cross if c_cross is None else c_cross
    return own_cols, cross_cols


def _mixture_belief(v_own: np.ndarray, v_cross: np.ndarray, a_own: int,
                    a_cross: int, tol: float) -> tuple[np.ndarray, bool] | None:
    """Mixture over the rows of ``v_own``/``v_cross`` making (a_own, a_cross)
    subjectively optimal, or None.

    Row r holds one parameter's payoff of every own action against its
    conjectured opponent action.  Returns (weights, used_mixture).
    """
    d_own = v_own[:, a_own][:, None] - v_own   # >= -slack required, all columns
    d_cross = v_cross[:, a_cross][:, None] - v_cross

    # maximize the worst optimality margin so the solution sits as far from
    # the boundary as the parameter set allows; a boundary-hugging belief
    # would be vulnerable to LP tolerance noise downstream
    m = len(v_own)
    d = np.hstack([d_own, d_cross])            # (m, alternatives)
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-d.T, np.ones((d.shape[1], 1))])   # t - w.d <= 0
    b_ub = np.zeros(d.shape[1])
    a_eq = np.append(np.ones(m), 0.0)[None, :]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0.0, 1.0)] * m + [(None, None)], method="highs")
    if not res.success:
        return None
    w = np.where(res.x[:m] <= SUPPORT_TOL, 0.0, res.x[:m])
    total = w.sum()
    if total <= 0.0:
        return None
    w /= total
    # same convention the verifier applies: slack scales with the
    # belief-blended payoffs, not the raw per-parameter stack
    s = tie_tolerance(np.concatenate([w @ v_own, w @ v_cross]), tol)
    if float((w @ d_own).min()) < -s or float((w @ d_cross).min()) < -s:
        return None
    return w, int(np.count_nonzero(w)) > 1


def _member_cut(obj: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimizer membership mask over axis 0 plus the all-infinite mask."""
    best = obj.min(axis=0)
    all_inf = np.isinf(best)
    cut = np.where(all_inf, np.inf, best + tol * np.maximum(1.0, np.abs(best)))
    members = (obj <= cut) | all_inf[None, ...]
    return members, all_inf


class _GroupTables:
    """Share-independent tables of one group in its own frame ``[t, x, y, z]``.

    ``t`` is a model parameter, ``x`` the group's action against its own
    group, ``y`` its action against the other group and ``z`` the other
    group's action against it: (a_AA, a_AB, a_BA) for group A and
    (a_BB, a_BA, a_AB) for group B.
    """

    def __init__(self, env: StageEnv, model, group: int, gi: int, tol: float):
        n = env.n_strategies
        self.n_params = model.n_params
        table = kl_profile_tables(model, env, gi)
        diag = table[:, np.arange(n), np.arange(n), group]      # [t, x]
        cross = table[:, :, :, 1 - group]                        # [t, y, z]
        # infinite terms are kept apart, so a zero share never meets 0 * inf
        self.inf_own, self.inf_cross = np.isinf(diag), np.isinf(cross)
        self.diag = np.where(self.inf_own, 0.0, diag)
        self.cross = np.where(self.inf_cross, 0.0, cross)

        # payoff of every own action against each parameter's conjectured
        # opponent action, [t, x, a] and [t, z, a]
        pay = np.stack([p.kernel.payoff_matrix(env.utility) for p in model.params])
        self.v_own, self.v_cross = (
            np.take_along_axis(pay, conjecture_columns(model, og, n)[:, None, :],
                               axis=2).transpose(0, 2, 1)
            for og in (group, 1 - group))

        # ok[t, x, y, z]: parameter t alone makes x and y optimal, under the
        # verifier's tie slack scaled to both payoff columns
        slack = tol * np.maximum(1.0, np.maximum(
            np.abs(self.v_own).max(axis=2)[:, :, None],
            np.abs(self.v_cross).max(axis=2)[:, None, :]))       # [t, x, z]
        gap_own = np.diagonal(self.v_own, axis1=1, axis2=2) - self.v_own.max(axis=2)
        gap_cross = self.v_cross - self.v_cross.max(axis=2, keepdims=True)   # [t, z, y]
        self.ok = ((gap_own[:, :, None, None] >= -slack[:, :, None, :])
                   & (gap_cross.transpose(0, 2, 1)[:, None] >= -slack[:, :, None, :]))

    def objective(self, w_own: float, w_cross: float) -> np.ndarray:
        """Weighted explanatory objective of every parameter and triple."""
        t_own = np.where(self.inf_own, np.inf, w_own * self.diag)
        t_cross = np.where(self.inf_cross, np.inf, w_cross * self.cross)
        return t_own[:, :, None, None] + t_cross[:, None, :, :]


class _GroupCut:
    """One group's minimizer sets and certified beliefs at given shares."""

    def __init__(self, tables: _GroupTables, w_own: float, w_cross: float, tol: float):
        self.tables = tables
        self.members, self.all_inf = _member_cut(tables.objective(w_own, w_cross), tol)
        single = self.members & tables.ok
        self.has_single = single.any(axis=0)
        self.first = single.argmax(axis=0)        # first rationalizer, index order
        self.needs_lp = ~self.has_single & (self.members.sum(axis=0) >= 2)
        self.feasible = self.has_single.copy()
        self.mixtures: dict[tuple[int, int, int], tuple[np.ndarray, bool]] = {}

    def run_lp(self, wanted: np.ndarray, tol: float) -> np.ndarray:
        """Certify the ``wanted`` LP triples; returns the feasibility mask."""
        v_own, v_cross = self.tables.v_own, self.tables.v_cross
        for x, y, z in np.argwhere(self.needs_lp & wanted):
            idx = np.flatnonzero(self.members[:, x, y, z])
            found = _mixture_belief(v_own[idx, x], v_cross[idx, z], x, y, tol)
            if found is not None:
                belief = np.zeros(self.tables.n_params)
                belief[idx] = found[0]
                self.mixtures[(int(x), int(y), int(z))] = (belief, found[1])
                self.feasible[x, y, z] = True
        return self.feasible

    def support(self, x: int, y: int, z: int) -> tuple[np.ndarray, tuple[int, ...], bool, bool]:
        """(belief, minimizers, all infinite, mixture) of a feasible triple."""
        if self.has_single[x, y, z]:
            belief, mixture = np.zeros(self.tables.n_params), False
            belief[self.first[x, y, z]] = 1.0
        else:
            belief, mixture = self.mixtures[(x, y, z)]
        members = tuple(int(t) for t in np.flatnonzero(self.members[:, x, y, z]))
        return belief.copy(), members, bool(self.all_inf[x, y, z]), mixture


class SituationProblem:
    """One situation of a model pair, prepared once and solved at any shares.

    Holds the share-independent tables of both groups (KL profile tables,
    subjective payoff stacks and the single-parameter rationalizer tensor
    ``ok``); ``tol`` is both the relative argmin cut and the tie slack.
    """

    def __init__(self, env: StageEnv, model_a, model_b, G, tol: float = ARGMIN_TOL):
        _require_compatible(env, model_a, "A")
        _require_compatible(env, model_b, "B")
        gi = env.situation_index(G)
        self.situation = env.situations[gi]
        self.tol = tol
        self.groups = (_GroupTables(env, model_a, 0, gi, tol),
                       _GroupTables(env, model_b, 1, gi, tol))

    def solve(self, shares: tuple[float, float]) -> list[SituationOutcome]:
        """All self-confirming pure-play outcomes at the given shares.

        Group A's constraints depend on (a_AA, a_AB, a_BA) only and group
        B's on (a_AB, a_BA, a_BB), so each group's triples are certified
        once and the quadruples are the compatible pairs, in lexicographic
        order.  A triple without a single-parameter rationalizer reaches
        the LP only when the other group has a triple that completes it.
        """
        p_a, p_b = validate_shares(shares)
        cut_a = _GroupCut(self.groups[0], p_a, p_b, self.tol)
        cut_b = _GroupCut(self.groups[1], p_b, p_a, self.tol)
        # B's own frame [l, k, j] read on A's axes [j, k, l]
        maybe_b = (cut_b.has_single | cut_b.needs_lp).transpose(2, 1, 0)
        feas_a = cut_a.run_lp(maybe_b.any(axis=2)[None], self.tol)
        feas_b = cut_b.run_lp(feas_a.any(axis=0).T[None], self.tol).transpose(2, 1, 0)

        outcomes = []
        for i, j, k, l in np.argwhere(feas_a[:, :, :, None] & feas_b[None]):
            i, j, k, l = int(i), int(j), int(k), int(l)
            belief_a, min_a, inf_a, mix_a = cut_a.support(i, j, k)
            belief_b, min_b, inf_b, mix_b = cut_b.support(l, k, j)
            outcomes.append(SituationOutcome(
                self.situation, (i, j, k, l), belief_a, belief_b, min_a, min_b,
                inf_a, inf_b, mix_a, mix_b))
        return outcomes


def enumerate_situation_ez(env: StageEnv, model_a, model_b, G,
                           shares: tuple[float, float],
                           tol: float = ARGMIN_TOL) -> list[SituationOutcome]:
    """All self-confirming pure-play outcomes of one situation.

    Builds the situation's problem and solves it once; to solve at several
    shares, build one ``SituationProblem`` and call ``solve`` for each.
    """
    return SituationProblem(env, model_a, model_b, G, tol).solve(shares)


def _compose(per_situation: list[list[SituationOutcome]],
             shares: tuple[float, float]) -> list[Zeitgeist]:
    count = 1
    for lst in per_situation:
        count *= len(lst)
        if count > MAX_COMPOSED:
            raise ValueError(
                "too many combined states; enumerate per situation instead "
                "(enumerate_situation_ez)")
    return [Zeitgeist((float(shares[0]), float(shares[1])), combo)
            for combo in itertools.product(*per_situation)]


def enumerate_ez(env: StageEnv, model_a, model_b, shares: tuple[float, float],
                 tol: float = ARGMIN_TOL) -> list[Zeitgeist]:
    """All self-confirming population states at the given group shares.

    Situations decouple, so the state list is the product of per-situation
    outcome lists.  Raises when that product would be unreasonably large.
    """
    return _compose([enumerate_situation_ez(env, model_a, model_b, G, shares, tol)
                     for G in env.situations], shares)


def solve_states(problems: list[SituationProblem],
                 shares: tuple[float, float]) -> list[Zeitgeist]:
    """``enumerate_ez`` over prebuilt problems, one per situation in order."""
    return _compose([p.solve(shares) for p in problems], shares)


def fitness(z: Zeitgeist, env: StageEnv, q=None) -> np.ndarray:
    """Objective expected payoffs (group A, group B) under random matching."""
    weights = as_weights(q, env.n_situations)
    p_a, p_b = z.shares
    out = np.zeros(2)
    for gi, o in enumerate(z.outcomes):
        a_aa, a_ab, a_ba, a_bb = o.quadruple
        pi = env.payoff_matrix(gi)
        out[0] += weights[gi] * (p_a * pi[a_aa, a_aa] + p_b * pi[a_ab, a_ba])
        out[1] += weights[gi] * (p_b * pi[a_bb, a_bb] + p_a * pi[a_ba, a_ab])
    return out


def situation_fitness(outcome: SituationOutcome, env: StageEnv, G,
                      shares: tuple[float, float]) -> np.ndarray:
    """Objective payoffs (group A, group B) within a single situation."""
    gi = env.situation_index(G)
    a_aa, a_ab, a_ba, a_bb = outcome.quadruple
    pi = env.payoff_matrix(gi)
    p_a, p_b = shares
    return np.array([p_a * pi[a_aa, a_aa] + p_b * pi[a_ab, a_ba],
                     p_b * pi[a_bb, a_bb] + p_a * pi[a_ba, a_ab]])


def conditional_fitness(z: Zeitgeist, env: StageEnv, G, group, versus) -> float:
    """Objective payoff of ``group`` when matched against ``versus`` in G."""
    gi = env.situation_index(G)
    g = _group_index(group)
    h = _group_index(versus)
    a = z.outcomes[gi].quadruple
    pi = env.payoff_matrix(gi)
    mine = a[2 * g + h]       # quadruple order: AA, AB, BA, BB
    theirs = a[2 * h + g]
    return float(pi[mine, theirs])


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
                 gi: int, shares: tuple[float, float], tol: float) -> GroupCheck:
    i, j, k, l = outcome.quadruple
    belief = outcome.belief_a if group == 0 else outcome.belief_b
    if group == 0:
        me_own, me_cross, opp_cross = i, j, k
    else:
        me_own, me_cross, opp_cross = l, k, j

    # evaluate only the P weighted objectives, never the full profile table
    ctx = DataContext(group, shares, gi, outcome.quadruple)
    fit = kl_minimizers(model, ctx, env, tol)
    member = np.zeros(model.n_params, dtype=bool)
    member[list(fit.indices)] = True
    stray = np.flatnonzero((belief > SUPPORT_TOL) & ~member)
    support_ok = stray.size == 0
    sum_ok = bool(abs(belief.sum() - 1.0) <= 1e-9 and belief.min() >= -1e-12)

    sup = np.flatnonzero(belief > SUPPORT_TOL)
    if sup.size == 0:
        return GroupCheck(env.situations[gi], "AB"[group], fit.indices,
                          fit.all_infinite, support_ok,
                          tuple(int(t) for t in stray), False,
                          -np.inf, -np.inf, False)
    # payoff columns only for the supported parameters
    own_cols, cross_cols = _conjectured_columns(model, group, sup,
                                                me_own, opp_cross)
    n = env.n_strategies
    v_own = np.zeros(n)
    v_cross = np.zeros(n)
    for r, t in enumerate(sup):
        pay_t = model.params[t].kernel.payoff_matrix(env.utility)
        v_own += belief[t] * pay_t[:, own_cols[r]]
        v_cross += belief[t] * pay_t[:, cross_cols[r]]
    slack = tie_tolerance(np.concatenate([v_own, v_cross]), tol)
    br_own = float(v_own[me_own] - v_own.max())
    br_cross = float(v_cross[me_cross] - v_cross.max())

    ok = support_ok and sum_ok and br_own >= -slack and br_cross >= -slack
    return GroupCheck(env.situations[gi], "AB"[group], fit.indices,
                      fit.all_infinite, support_ok,
                      tuple(int(t) for t in stray), sum_ok,
                      br_own, br_cross, ok)


def verify_ez(z: Zeitgeist, env: StageEnv, model_a, model_b,
              tol: float = ARGMIN_TOL) -> tuple[bool, EZCertificate]:
    """Independent check that a population state is self-confirming.

    Recomputes minimizer sets from scratch, confirms each belief is a
    distribution supported on them, and confirms all four directed actions
    are subjectively optimal.  Returns the verdict plus a per-group
    certificate with the binding slacks.
    """
    _require_compatible(env, model_a, "A")
    _require_compatible(env, model_b, "B")
    checks = []
    for gi, outcome in enumerate(z.outcomes):
        checks.append(_check_group(env, model_a, 0, outcome, gi, z.shares, tol))
        checks.append(_check_group(env, model_b, 1, outcome, gi, z.shares, tol))
    cert = EZCertificate(tuple(checks))
    return cert.ok, cert


def zeitgeist_summary(z: Zeitgeist, env: StageEnv, model_a, model_b,
                      q=None) -> dict:
    """JSON-ready description of one population state."""
    fit = fitness(z, env, q)
    rows = []
    for o in z.outcomes:
        def belief_map(model, w):
            return {model.params[t].label or f"param_{t}": round(float(w[t]), 12)
                    for t in np.flatnonzero(w > SUPPORT_TOL)}
        rows.append({
            "situation": o.situation,
            "play": {key: env.strategies[a] for key, a in zip(QUAD_KEYS, o.quadruple)},
            "play_indices": list(o.quadruple),
            "belief_a": belief_map(model_a, o.belief_a),
            "belief_b": belief_map(model_b, o.belief_b),
            "mixture_a": o.mixture_a,
            "mixture_b": o.mixture_b,
        })
    return {"shares": list(z.shares), "fitness": {"A": fit[0], "B": fit[1]},
            "mixture_supported": z.mixture_supported, "situations": rows}


def render_summaries(zeitgeists: list[Zeitgeist], env: StageEnv, model_a, model_b,
                     q=None) -> str:
    """Human-readable multi-state report."""
    lines = [f"{len(zeitgeists)} self-confirming state(s)"]
    for idx, z in enumerate(zeitgeists):
        s = zeitgeist_summary(z, env, model_a, model_b, q)
        lines.append(f"[{idx}] shares A={z.shares[0]:g} B={z.shares[1]:g} "
                     f"fitness A={s['fitness']['A']:.6g} B={s['fitness']['B']:.6g}"
                     + (" (mixture belief)" if z.mixture_supported else ""))
        for row in s["situations"]:
            play = row["play"]
            lines.append("    {}: AA={} AB={} BA={} BB={}".format(
                row["situation"], play["a_AA"], play["a_AB"], play["a_BA"], play["a_BB"]))
            lines.append(f"      belief A: {row['belief_a']}")
            lines.append(f"      belief B: {row['belief_b']}")
    return "\n".join(lines)
