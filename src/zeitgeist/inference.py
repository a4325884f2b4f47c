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

from .games import TOL, slack

# entries of a divergence temporary [t, i, j, og, y] or objective [t, k, x, y, z]
CHUNK_ELEMENTS = 2 ** 18


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


def validate_shares(shares) -> tuple[float, float]:
    """The two group shares as floats; raises unless they are nonnegative
    and sum to one within ``TOL``."""
    pa, pb = (float(s) for s in shares)
    if not (pa >= 0.0 and pb >= 0.0 and abs(pa + pb - 1.0) <= TOL):
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


def member_cut(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relative argmin cut along axis 0: the membership mask of the values
    within ``slack(|min|)`` of each column's minimum, and the mask of
    columns whose values are all infinite, which keep every member.  A
    vector is the one-column case."""
    best = values.min(axis=0)
    all_inf = np.isinf(best)
    members = (values <= best + slack(np.abs(best))) | all_inf
    return members, all_inf


@dataclass(frozen=True)
class MinimizerResult:
    indices: tuple[int, ...]
    values: np.ndarray
    all_infinite: bool


def _kl_stack(p: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``kl_divergence(p, q)`` for every row q of ``qs``, bit for bit: one
    1-D dot per row, over C-contiguous rows (a strided dot sums otherwise)."""
    support = p > 0.0
    ps = p[support]
    q = np.ascontiguousarray(qs[:, support])
    out = np.vecdot(np.log(ps / q), ps)
    out[np.any(q <= 0.0, axis=1)] = np.inf
    return out


def kl_minimizers(model, ctx: DataContext, env) -> MinimizerResult:
    """Indices of the model parameters minimizing the weighted KL objective,
    from one stack of every parameter's predicted rows per data profile.

    When every parameter scores ``inf`` the whole index set is returned and
    flagged; this is legal data, not an error.
    """
    truth = env.kernel(ctx.situation)
    mon = env.monitoring.rows
    terms = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, j, og, w in ctx.profiles():
            # a free conjecture predicts the actual action j, whose
            # monitoring term mon[j] against itself is exactly 0.0
            cols = [j if p.conj_a[og] is None else p.conj_a[og] for p in model.params]
            qs = np.stack([p.kernel.row(i, c) for p, c in zip(model.params, cols)])
            terms.append((w, _kl_stack(truth.row(i, j), qs) + _kl_stack(mon[j], mon[cols])))
        (w0, d0), (w1, d1) = terms
        # 0 * inf = inf: an infinite term rules a parameter out at any weight;
        # the sum starts from +0.0, so a -0.0 from a zero weight reads 0.0
        values = np.where(np.isinf(d0) | np.isinf(d1), np.inf, 0.0 + w0 * d0 + w1 * d1)
    members, all_inf = member_cut(values)
    return MinimizerResult(tuple(np.flatnonzero(members).tolist()), values,
                           bool(all_inf))


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``kl_divergence`` along the last axis of two broadcastable arrays."""
    support = p > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(support, p * np.log(p / q), 0.0)
    out = terms.sum(axis=-1)
    out[np.any(support & (q <= 0.0), axis=-1)] = np.inf
    return out


def conjectures(params, n: int) -> np.ndarray:
    """Opponent action each parameter conjectures when the actual one is j,
    for each opponent group og, shape (P, n, 2); free (None) conjectures track j."""
    conj = np.array([[-1 if c is None else c for c in p.conj_a] for p in params])   # [t, og]
    return np.where(conj[:, None] < 0, np.arange(n)[:, None], conj[:, None])


def kl_profile_tables(model, env, G, cols=None) -> np.ndarray:
    """Per-parameter divergence of every data profile, shape (P, n, n, 2).

    ``table[t, i, j, og]`` is the divergence term when a data profile
    (own strategy i, opponent strategy j, opponent group og) is explained by
    parameter ``t``.  The weighted objective of any context is a two-term
    combination of entries, which is what the enumeration exploits.  A
    sequence of models stacks its parameters along ``t``; ``cols`` are their
    ``conjectures``.  Slices of parameters keep each temporary [t, i, j, og,
    y] within ``CHUNK_ELEMENTS`` entries; the bits do not depend on them.
    """
    params = [p for m in (model if isinstance(model, (list, tuple)) else [model]) for p in m.params]
    n = env.n_strategies
    truth = env.kernel(env.situation_index(G))
    true_rows = np.array([truth.rows_for_own(i) for i in range(n)])[None, :, :, None]
    mon = env.monitoring.rows
    kl_mon = _kl_rows(mon[:, None, :], mon[None, :, :])                 # [j, c]
    # a free conjecture predicts the actual action, whose monitoring term
    # kl_mon[j, j] is exactly zero
    cols = conjectures(params, n) if cols is None else cols             # [t, j, og]
    table = np.empty((len(params), n, n, 2))
    step = max(1, CHUNK_ELEMENTS // (2 * true_rows.size))
    for part in (slice(s, s + step) for s in range(0, len(params), step)):
        rows = np.array([[p.kernel.rows_for_own(i) for i in range(n)] for p in params[part]])
        predicted = rows[np.arange(len(rows))[:, None, None, None],
                         np.arange(n)[:, None, None], cols[part, None]]  # [t, i, j, og, y]
        table[part] = (_kl_rows(true_rows, predicted)
                       + kl_mon[np.arange(n)[:, None], cols[part]][:, None])
    return table
