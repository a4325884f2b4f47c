"""Symmetric two-player stage games with situation-dependent consequence kernels.

A stage game here is played by two agents drawn from a large population.
Each agent picks a strategy, a consequence ``y`` is drawn from a kernel
``F(a_i, a_minus, G)`` that may depend on an unobserved situation ``G``,
and the agent collects utility ``u(a_i, y)``.  Agents additionally see a
monitoring signal about the opponent's strategy.

Kernels are stored per situation.  Because every expectation and every
divergence in this framework conditions on the agent's own strategy, the
consequence axis is allowed to mean "consequence given own strategy", and
utility may be a per-own-strategy table.  That keeps large quantity-grid
games representable without a product consequence space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# The one tolerance of the framework: a belief's parameters fit their data
# within it of the best fit, a played action is within it of the best
# reply, and a probability vector sums to one within it.
TOL = 1e-9


def slack(magnitude):
    """Absolute slack at ``magnitude``: ``TOL`` relative to it, and never
    less than ``TOL`` itself."""
    return TOL * np.maximum(1.0, magnitude)


def tie_tolerance(values: np.ndarray) -> float:
    """Absolute tie tolerance scaled to the magnitude of ``values``."""
    m = float(np.max(np.abs(values))) if np.size(values) else 1.0
    return float(slack(m))


def best_reply_mask(values: np.ndarray) -> np.ndarray:
    """Entries within tie tolerance of the maximum of their payoff column
    (axis 0), the tolerance scaled to that column's magnitude."""
    return values >= values.max(axis=0) - slack(np.abs(values).max(axis=0))


def validate_probability_row(rows: np.ndarray, where: str) -> None:
    """Raise unless every vector along the last axis of ``rows`` is a
    probability vector: no negative entry and a sum within ``TOL`` of one."""
    rows = np.asarray(rows, dtype=float)
    bad = (rows < 0.0).any(axis=-1) | ~(np.abs(rows.sum(axis=-1) - 1.0) <= TOL)
    if bad.any():
        at = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
        raise ValueError(f"{where}: entries must be nonnegative and sum to 1"
                         + (f" (bad row at {at})" if at else ""))


class DenseKernel:
    """Consequence kernel backed by an (n_strategies, n_strategies, n_consequences) array.

    ``table[i, j]`` is the distribution of consequences when the agent plays
    strategy ``i`` against an opponent playing ``j``.  Every kernel offers
    the five members below; outside ``config``, which serializes tables,
    no caller reads more of one.
    """

    __slots__ = ("table",)

    def __init__(self, table: np.ndarray):
        table = np.asarray(table, dtype=float)
        if table.ndim != 3 or table.shape[0] != table.shape[1]:
            raise ValueError("kernel table must have shape (n, n, n_consequences)")
        validate_probability_row(table, "kernel rows")
        self.table = table

    @property
    def n_strategies(self) -> int:
        return self.table.shape[0]

    @property
    def n_consequences(self) -> int:
        return self.table.shape[2]

    def row(self, i: int, j: int) -> np.ndarray:
        return self.table[i, j]

    def rows_for_own(self, i: int) -> np.ndarray:
        """All opponent rows for own strategy ``i``, shape (n, n_consequences)."""
        return self.table[i]

    def payoff_matrix(self, utility: np.ndarray) -> np.ndarray:
        """Expected-utility matrix ``U[i, j]`` under this kernel.

        ``utility`` has shape (n_strategies, n_consequences).
        """
        return np.einsum("ijy,iy->ij", self.table, utility)


@dataclass(frozen=True)
class MonitoringStructure:
    """Distribution of the opponent-strategy signal, one row per opponent strategy."""

    signals: tuple[str, ...]
    rows: np.ndarray  # (n_strategies, n_signals)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[1] != len(self.signals):
            raise ValueError("monitoring rows must have shape (n_strategies, n_signals)")
        validate_probability_row(rows, "monitoring rows")

    @staticmethod
    def perfect(strategies: Sequence[str]) -> "MonitoringStructure":
        n = len(strategies)
        return MonitoringStructure(tuple(strategies), np.eye(n))

    @staticmethod
    def noisy(strategies: Sequence[str], tau: float) -> "MonitoringStructure":
        """Reveal the opponent's strategy with probability tau, else a uniform signal."""
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        n = len(strategies)
        rows = tau * np.eye(n) + (1.0 - tau) / n
        return MonitoringStructure(tuple(strategies), rows)

    def is_perfect(self, tol: float = 0.0) -> bool:
        n = self.rows.shape[0]
        return self.rows.shape[1] == n and bool(np.max(np.abs(self.rows - np.eye(n))) <= tol)


def as_weights(q, n_situations: int) -> np.ndarray:
    if q is None:
        return np.full(n_situations, 1.0 / n_situations)
    w = np.asarray(q, dtype=float)
    validate_probability_row(w, "situation weights")
    if len(w) != n_situations:
        raise ValueError(f"expected {n_situations} situation weights, got {len(w)}")
    return w


class StageEnv:
    """Objective environment: labels, true kernels per situation, utility, monitoring.

    Parameters
    ----------
    strategies, consequences, situations : sequences of labels.
    kernels : one kernel per situation (arrays are wrapped in DenseKernel).
    utility : shape (n_consequences,) or (n_strategies, n_consequences).
    monitoring : optional; defaults to perfect monitoring of the opponent strategy.
    """

    def __init__(self, strategies, consequences, situations, kernels, utility,
                 monitoring: MonitoringStructure | None = None, meta: dict | None = None):
        self.strategies = tuple(str(s) for s in strategies)
        self.consequences = tuple(str(c) for c in consequences)
        self.situations = tuple(str(g) for g in situations)
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError("duplicate strategy labels")
        if len(set(self.situations)) != len(self.situations) or not self.situations:
            raise ValueError("need at least one situation, with distinct labels")
        if len(kernels) != len(self.situations):
            raise ValueError("need exactly one kernel per situation")
        self.kernels = tuple(k if hasattr(k, "row") else DenseKernel(k) for k in kernels)
        for k in self.kernels:
            if k.n_strategies != len(self.strategies):
                raise ValueError("kernel strategy dimension mismatch")

        u = np.asarray(utility, dtype=float)
        if u.ndim == 1:
            u = np.broadcast_to(u, (len(self.strategies), u.shape[0])).copy()
        if u.shape != (len(self.strategies), len(self.consequences)) or not np.isfinite(u).all():
            raise ValueError("utility must map consequences (optionally per own strategy) "
                             "to finite reals")
        self.utility = u

        self.monitoring = monitoring if monitoring is not None else MonitoringStructure.perfect(self.strategies)
        if self.monitoring.rows.shape[0] != len(self.strategies):
            raise ValueError("monitoring rows must align with strategies")
        self.meta = dict(meta or {})

    # -- index helpers -------------------------------------------------
    @property
    def n_strategies(self) -> int:
        return len(self.strategies)

    @property
    def n_situations(self) -> int:
        return len(self.situations)

    def strategy_index(self, a) -> int:
        if isinstance(a, (int, np.integer)):
            if not 0 <= int(a) < self.n_strategies:
                raise KeyError(f"strategy index {a} out of range")
            return int(a)
        try:
            return self.strategies.index(str(a))
        except ValueError:
            raise KeyError(f"unknown strategy {a!r}") from None

    def situation_index(self, G) -> int:
        if isinstance(G, (int, np.integer)):
            if not 0 <= int(G) < self.n_situations:
                raise KeyError(f"situation index {G} out of range")
            return int(G)
        try:
            return self.situations.index(str(G))
        except ValueError:
            raise KeyError(f"unknown situation {G!r}") from None

    def kernel(self, G):
        return self.kernels[self.situation_index(G)]

    # -- objective payoffs ---------------------------------------------
    def payoff_matrix(self, G) -> np.ndarray:
        """Expected-utility matrix ``U[i, j]`` under the true kernel of situation ``G``."""
        return self.kernels[self.situation_index(G)].payoff_matrix(self.utility)


def best_response_indices(env: StageEnv, G, j: int) -> np.ndarray:
    return np.flatnonzero(best_reply_mask(env.payoff_matrix(G)[:, j]))


def _followers(U: np.ndarray) -> np.ndarray:
    """Opponent best reply to every leader strategy i that is worst for i,
    ties to the lowest index: one best-reply mask, one ``tie_tolerance`` per row."""
    replies = best_reply_mask(U).T                      # [leader i, reply r]
    mine = np.where(replies, U, np.inf)
    worst = mine.min(axis=1) + slack(np.where(replies, np.abs(U), 0.0).max(axis=1))
    return np.argmax(replies & (mine <= worst[:, None]), axis=1)


@dataclass(frozen=True)
class SymmetricNashResult:
    """Symmetric pure Nash profiles of one situation.

    ``equilibria`` lists every strategy that best-replies to itself;
    ``best`` keeps those attaining the highest symmetric payoff ``value``.
    """

    equilibria: tuple[str, ...]
    best: tuple[str, ...]
    value: float | None

    @property
    def exists(self) -> bool:
        return bool(self.equilibria)


def symmetric_nash(env: StageEnv, G) -> SymmetricNashResult:
    """Find symmetric pure Nash equilibria of situation ``G``.

    An empty result is legal (flagged via ``exists``), not an error.
    """
    U = env.payoff_matrix(G)
    eq = np.flatnonzero(np.diagonal(best_reply_mask(U))).tolist()
    if not eq:
        return SymmetricNashResult((), (), None)
    vals = np.array([U[a, a] for a in eq])
    best = tuple(env.strategies[a] for a, keep in zip(eq, best_reply_mask(vals)) if keep)
    return SymmetricNashResult(tuple(env.strategies[a] for a in eq), best, float(vals.max()))


@dataclass(frozen=True)
class StackelbergResult:
    """Best commitment against adversarial tie-breaking in one situation."""

    strategy: str
    value: float
    follower: str


def stackelberg(env: StageEnv, G) -> StackelbergResult:
    """Commitment strategy maximizing payoff when the opponent best-replies,
    with opponent ties resolved against the committing agent (``_followers``)."""
    U = env.payoff_matrix(G)
    followers = _followers(U)
    values = U[np.arange(env.n_strategies), followers]
    lead = int(np.argmax(best_reply_mask(values)))
    return StackelbergResult(env.strategies[lead], float(values[lead]),
                             env.strategies[int(followers[lead])])
