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

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

TIE_TOL = 1e-9


def tie_tolerance(values: np.ndarray, tol: float = TIE_TOL) -> float:
    """Absolute tie tolerance scaled to the magnitude of ``values``."""
    m = float(np.max(np.abs(values))) if np.size(values) else 1.0
    return tol * max(1.0, m)


def best_reply_mask(values: np.ndarray, tol: float = TIE_TOL) -> np.ndarray:
    """Entries within tie tolerance of the maximum of one payoff column."""
    return values >= values.max() - tie_tolerance(values, tol)


def validate_probability_row(row: np.ndarray, where: str, tol: float = 1e-9) -> None:
    if np.any(row < -tol):
        raise ValueError(f"{where}: negative probability entry")
    s = float(row.sum())
    if abs(s - 1.0) > tol:
        raise ValueError(f"{where}: probabilities sum to {s!r}, expected 1")


class DenseKernel:
    """Consequence kernel backed by an (n_strategies, n_strategies, n_consequences) array.

    ``table[i, j]`` is the distribution of consequences when the agent plays
    strategy ``i`` against an opponent playing ``j``.
    """

    __slots__ = ("table", "_payoff_cache")

    def __init__(self, table: np.ndarray):
        table = np.asarray(table, dtype=float)
        if table.ndim != 3 or table.shape[0] != table.shape[1]:
            raise ValueError("kernel table must have shape (n, n, n_consequences)")
        sums = table.sum(axis=2)
        if np.any(table < -1e-9) or np.any(np.abs(sums - 1.0) > 1e-9):
            bad = np.argwhere(np.abs(sums - 1.0) > 1e-9)
            loc = tuple(bad[0]) if len(bad) else "negative entry"
            raise ValueError(f"kernel rows must be probability vectors (bad row at {loc})")
        self.table = table
        self._payoff_cache: tuple[np.ndarray, np.ndarray] | None = None

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
        # the cache holds the utility array itself, so its identity stays
        # a valid key for as long as the entry lives
        cached = self._payoff_cache
        if cached is None or cached[0] is not utility:
            cached = (utility, np.einsum("ijy,iy->ij", self.table, utility))
            self._payoff_cache = cached
        return cached[1]

    def opponent_independent(self, tol: float = 1e-9) -> bool:
        return bool(np.max(np.abs(self.table - self.table[:, :1, :])) <= tol)

    def __eq__(self, other) -> bool:
        return isinstance(other, DenseKernel) and np.array_equal(self.table, other.table)

    def __hash__(self):  # id-based; equality above is for dedup via explicit checks
        return id(self)


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
        for j in range(rows.shape[0]):
            validate_probability_row(rows[j], f"monitoring row {j}")

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

    def row(self, j: int) -> np.ndarray:
        return self.rows[j]

    def is_perfect(self, tol: float = 0.0) -> bool:
        n = self.rows.shape[0]
        return self.rows.shape[1] == n and bool(np.max(np.abs(self.rows - np.eye(n))) <= tol)


@dataclass(frozen=True)
class FitnessWeights:
    """Probability weights over situations used when aggregating fitness."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        validate_probability_row(w, "situation weights")

    @staticmethod
    def uniform(n: int) -> "FitnessWeights":
        return FitnessWeights(np.full(n, 1.0 / n))


def as_weights(q, n_situations: int) -> np.ndarray:
    if q is None:
        return np.full(n_situations, 1.0 / n_situations)
    if isinstance(q, FitnessWeights):
        w = q.weights
    else:
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
        if len(set(self.situations)) != len(self.situations):
            raise ValueError("duplicate situation labels")
        if len(kernels) != len(self.situations):
            raise ValueError("need exactly one kernel per situation")
        self.kernels = tuple(k if hasattr(k, "row") else DenseKernel(k) for k in kernels)
        for k in self.kernels:
            if k.n_strategies != len(self.strategies):
                raise ValueError("kernel strategy dimension mismatch")

        u = np.asarray(utility, dtype=float)
        if u.ndim == 1:
            u = np.broadcast_to(u, (len(self.strategies), u.shape[0])).copy()
        if u.shape != (len(self.strategies), len(self.consequences)):
            raise ValueError("utility must map consequences (optionally per own strategy) to reals")
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
    def payoff_matrix(self, G, kernel=None) -> np.ndarray:
        """Expected-utility matrix ``U[i, j]`` in situation ``G`` (objective kernel by default)."""
        gi = self.situation_index(G)
        if kernel is None:
            kernel = self.kernels[gi]
        return kernel.payoff_matrix(self.utility)


def expected_payoff(env: StageEnv, G, a_i, a_minus, kernel=None) -> float:
    """Expected utility of playing ``a_i`` against ``a_minus``.

    Uses the objective kernel of situation ``G`` unless ``kernel`` is given.
    """
    i = env.strategy_index(a_i)
    j = env.strategy_index(a_minus)
    return float(env.payoff_matrix(G, kernel)[i, j])


def best_responses(env: StageEnv, G, a_minus, kernel=None, tol: float = TIE_TOL) -> list[str]:
    """All strategies within tie tolerance of the best reply to ``a_minus``."""
    j = env.strategy_index(a_minus)
    return [env.strategies[i] for i in best_response_indices(env, G, j, kernel, tol)]


def best_response_indices(env: StageEnv, G, j: int, kernel=None, tol: float = TIE_TOL) -> np.ndarray:
    return np.flatnonzero(best_reply_mask(env.payoff_matrix(G, kernel)[:, j], tol))


def min_tiebreak_best_response(env: StageEnv, G, a_i, tol: float = TIE_TOL) -> str:
    """Opponent best reply to ``a_i`` that is worst for the ``a_i`` player.

    Among the opponent's best replies, picks the one minimizing the payoff of
    the agent playing ``a_i``; remaining ties break to the lowest strategy index.
    """
    i = env.strategy_index(a_i)
    U = env.payoff_matrix(G)
    replies = best_response_indices(env, G, i, tol=tol)
    mine = U[i, replies]
    worst = mine.min() + tie_tolerance(mine, tol)
    pick = replies[np.flatnonzero(mine <= worst)[0]]
    return env.strategies[int(pick)]


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


def symmetric_nash(env: StageEnv, G, tol: float = TIE_TOL) -> SymmetricNashResult:
    """Find symmetric pure Nash equilibria of situation ``G``.

    An empty result is legal (flagged via ``exists``), not an error.
    """
    U = env.payoff_matrix(G)
    eq = [a for a in range(env.n_strategies) if best_reply_mask(U[:, a], tol)[a]]
    if not eq:
        return SymmetricNashResult((), (), None)
    vals = np.array([U[a, a] for a in eq])
    best = tuple(env.strategies[a] for a, keep in zip(eq, best_reply_mask(vals, tol)) if keep)
    return SymmetricNashResult(tuple(env.strategies[a] for a in eq), best, float(vals.max()))


@dataclass(frozen=True)
class StackelbergResult:
    """Best commitment against adversarial tie-breaking in one situation."""

    strategy: str
    value: float
    follower: str
    unique: bool


def stackelberg(env: StageEnv, G, tol: float = TIE_TOL) -> StackelbergResult:
    """Commitment strategy maximizing payoff when the opponent best-replies,
    with opponent ties resolved against the committing agent."""
    U = env.payoff_matrix(G)
    followers = [min_tiebreak_best_response(env, G, a, tol=tol) for a in env.strategies]
    values = np.array([U[i, env.strategy_index(f)] for i, f in enumerate(followers)])
    winners = np.flatnonzero(best_reply_mask(values, tol))
    lead = int(winners[0])
    return StackelbergResult(env.strategies[lead], float(values[lead]),
                             followers[lead], unique=len(winners) == 1)
