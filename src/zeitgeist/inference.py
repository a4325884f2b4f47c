"""Weighted divergence objectives and their minimizers.

Beliefs in this framework concentrate on the model parameters minimizing a
population-share-weighted sum of two Kullback-Leibler terms: one for matches
inside the agent's own group, one for matches against the other group.  Each
term compares the true distribution of (consequence, monitoring signal) data
with the distribution the parameter predicts, and the product structure lets
the term split into a consequence part and a monitoring part.

Divergences live on the extended real line: ``float('inf')`` is a legal
value, and the convention ``0 * inf = inf`` applies to share weights, so a
zero-share group still rules out parameters its data would contradict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ARGMIN_TOL = 1e-9
SHARE_TOL = 1e-9


def kl_divergence(p, q) -> float:
    """KL divergence (nats) between two finite distributions on a common support.

    Returns ``inf`` when ``p`` puts mass where ``q`` does not.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must share a support")
    support = p > 0.0
    if np.any(q[support] <= 0.0):
        return float("inf")
    ps = p[support]
    return float(np.dot(ps, np.log(ps / q[support])))


def scale_kl(weight: float, value: float) -> float:
    """Share-weighted divergence with the 0 * inf = inf convention."""
    if np.isinf(value):
        return float("inf")
    return weight * value


def validate_shares(shares) -> tuple[float, float]:
    """The two group shares as floats; raises unless they are nonnegative
    and sum to one within ``SHARE_TOL``."""
    pa, pb = (float(s) for s in shares)
    if min(pa, pb) < 0.0 or abs(pa + pb - 1.0) > SHARE_TOL:
        raise ValueError("shares must be a two-point distribution over the groups")
    return pa, pb


@dataclass(frozen=True)
class DataContext:
    """What an agent's long-run data looks like under a fixed zeitgeist slice.

    ``play`` is the per-situation quadruple of strategy indices
    (a_AA, a_AB, a_BA, a_BB): group A vs itself, A vs B, B vs A, B vs itself.
    """

    own_group: int  # 0 = group A, 1 = group B
    shares: tuple[float, float]
    situation: int
    play: tuple[int, int, int, int]

    def __post_init__(self):
        if self.own_group not in (0, 1):
            raise ValueError("own_group must be 0 (A) or 1 (B)")
        validate_shares(self.shares)
        if len(self.play) != 4:
            raise ValueError("play must be a quadruple")

    @property
    def own_share(self) -> float:
        return self.shares[self.own_group]

    def profiles(self) -> tuple[tuple[int, int, int, float], tuple[int, int, int, float]]:
        """The two weighted data profiles: (own strategy, opponent strategy,
        opponent group, weight) for own-group and cross-group matches."""
        a_AA, a_AB, a_BA, a_BB = self.play
        if self.own_group == 0:
            own = (a_AA, a_AA, 0, self.shares[0])
            cross = (a_AB, a_BA, 1, self.shares[1])
        else:
            own = (a_BB, a_BB, 1, self.shares[1])
            cross = (a_BA, a_AB, 0, self.shares[0])
        return own, cross


def _param_term(param, env, G: int, i: int, j: int, opp_group: int) -> float:
    """One divergence term: data profile (i, j) explained by ``param``'s
    conjecture about ``opp_group``."""
    true_row = env.kernel(G).row(i, j)
    conj = param.conj_a[opp_group]
    if conj is None:
        # strategic-certainty form: conjecture tracks actual play, monitoring term vanishes
        return kl_divergence(true_row, param.kernel.row(i, j))
    ky = kl_divergence(true_row, param.kernel.row(i, conj))
    if np.isinf(ky):
        return ky
    km = kl_divergence(env.monitoring.row(j), env.monitoring.row(conj))
    return ky + km


def weighted_kl(param, ctx: DataContext, env) -> float:
    """Share-weighted KL objective of one parameter given a data context."""
    own, cross = ctx.profiles()
    total = 0.0
    for (i, j, og, w) in (own, cross):
        term = scale_kl(w, _param_term(param, env, ctx.situation, i, j, og))
        if np.isinf(term):
            return float("inf")
        total += term
    return total


@dataclass(frozen=True)
class MinimizerResult:
    indices: tuple[int, ...]
    values: np.ndarray
    all_infinite: bool


def kl_minimizers(model, ctx: DataContext, env, tol: float = ARGMIN_TOL) -> MinimizerResult:
    """Indices of the model parameters minimizing the weighted KL objective.

    When every parameter scores ``inf`` the whole index set is returned and
    flagged; this is legal data, not an error.
    """
    values = np.array([weighted_kl(p, ctx, env) for p in model.params])
    finite = np.isfinite(values)
    if not finite.any():
        return MinimizerResult(tuple(range(len(values))), values, True)
    m = values[finite].min()
    cut = m + tol * max(1.0, abs(m))
    return MinimizerResult(tuple(np.flatnonzero(values <= cut)), values, False)


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``kl_divergence`` along the last axis of two broadcastable arrays."""
    support = p > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(support, p * np.log(p / q), 0.0)
    out = terms.sum(axis=-1)
    out[np.any(support & (q <= 0.0), axis=-1)] = np.inf
    return out


def conjecture_columns(model, og: int, n: int) -> np.ndarray:
    """Opponent action each parameter conjectures for group ``og`` when the
    actual one is j, shape (P, n); free (None) conjectures track j."""
    conj = np.array([-1 if p.conj_a[og] is None else p.conj_a[og]
                     for p in model.params])
    return np.where(conj[:, None] < 0, np.arange(n), conj[:, None])


def kl_profile_tables(model, env, G) -> np.ndarray:
    """Per-parameter divergence of every data profile, shape (P, n, n, 2).

    ``table[t, i, j, og]`` is the divergence term when a data profile
    (own strategy i, opponent strategy j, opponent group og) is explained by
    parameter ``t``.  The weighted objective of any context is a two-term
    combination of entries, which is what the enumeration exploits.
    """
    gi = env.situation_index(G)
    n = env.n_strategies
    truth = env.kernel(gi)
    true_rows = np.stack([truth.rows_for_own(i) for i in range(n)])     # [i, j, y]
    rows = np.stack([np.stack([p.kernel.rows_for_own(i) for i in range(n)])
                     for p in model.params])                            # [t, i, j, y]
    mon = env.monitoring.rows
    kl_mon = _kl_rows(mon[:, None, :], mon[None, :, :])                 # [j, c]
    out = np.empty((len(model.params), n, n, 2))
    for og in (0, 1):
        # a free conjecture predicts the actual action, whose monitoring
        # term kl_mon[j, j] is exactly zero
        cols = conjecture_columns(model, og, n)                         # [t, j]
        predicted = np.take_along_axis(rows, cols[:, None, :, None], axis=2)
        out[..., og] = (_kl_rows(true_rows[None], predicted)
                        + kl_mon[np.arange(n), cols][:, None, :])
    return out


def minimizer_set(values: np.ndarray, tol: float = ARGMIN_TOL) -> tuple[np.ndarray, bool]:
    finite = np.isfinite(values)
    if not finite.any():
        return np.arange(len(values)), True
    m = values[finite].min()
    return np.flatnonzero(values <= m + tol * max(1.0, abs(m))), False
