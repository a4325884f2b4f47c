"""Shared builders for small hand-checkable environments."""

from __future__ import annotations

import numpy as np

from zeitgeist.games import DenseKernel, StageEnv
from zeitgeist.models import Model, Parameter


def coordination_env() -> StageEnv:
    """Two strategies, deterministic consequences, coordination payoffs.

    Consequence c0 when both pick s0, c1 when both pick s1, c2 on a miss.
    Payoffs 2, 3, 0: both symmetric profiles are equilibria, s1 is better.
    """
    table = np.zeros((2, 2, 3))
    table[0, 0, 0] = 1.0
    table[1, 1, 1] = 1.0
    table[0, 1, 2] = 1.0
    table[1, 0, 2] = 1.0
    return StageEnv(strategies=["s0", "s1"], consequences=["c0", "c1", "c2"],
                    situations=["G"], kernels=[table],
                    utility=np.array([2.0, 3.0, 0.0]))


def mismatch_env() -> StageEnv:
    """Anti-coordination: the only best reply is the other strategy, so no
    symmetric pure equilibrium exists."""
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = 1.0
    table[1, 1, 0] = 1.0
    table[0, 1, 1] = 1.0
    table[1, 0, 1] = 1.0
    return StageEnv(strategies=["s0", "s1"], consequences=["match", "miss"],
                    situations=["G"], kernels=[table],
                    utility=np.array([0.0, 1.0]))


def decision_env() -> StageEnv:
    """Opponent-independent kernel with a strictly dominant strategy."""
    table = np.zeros((2, 2, 2))
    table[0, :, 0] = 1.0
    table[1, :, 1] = 1.0
    return StageEnv(strategies=["lo", "hi"], consequences=["c_lo", "c_hi"],
                    situations=["G"], kernels=[table],
                    utility=np.array([1.0, 2.0]))


def random_env(rng: np.random.Generator, n_strategies=2, n_consequences=3,
               n_situations=1) -> StageEnv:
    kernels = [rng.dirichlet(np.ones(n_consequences),
                             size=(n_strategies, n_strategies))
               for _ in range(n_situations)]
    utility = rng.normal(size=(n_strategies, n_consequences))
    return StageEnv(
        strategies=[f"s{i}" for i in range(n_strategies)],
        consequences=[f"c{i}" for i in range(n_consequences)],
        situations=[f"G{i}" for i in range(n_situations)],
        kernels=kernels, utility=utility)


def tie_env(rng: np.random.Generator, n_strategies=3, n_situations=2,
            n_consequences=3, jitter=0.0) -> StageEnv:
    """Environment rich in ties: kernel masses are multiples of small
    fractions, utilities are 0 or 1 plus ``jitter`` times a standard normal
    (so nonzero jitter far below ``TOL`` gives ties within the slack), and
    the last situation copies about two thirds of the first one's rows."""
    shape = (n_strategies, n_strategies, n_consequences)
    kernels = []
    for _ in range(n_situations):
        counts = rng.integers(0, 2, size=shape).astype(float)
        counts[..., 0] += 1.0
        kernels.append(counts / counts.sum(axis=-1, keepdims=True))
    copied = rng.random(shape[:2]) < 2.0 / 3.0
    kernels[-1][copied] = kernels[0][copied]
    return StageEnv(
        strategies=[f"s{i}" for i in range(n_strategies)],
        consequences=[f"c{i}" for i in range(n_consequences)],
        situations=[f"G{i}" for i in range(n_situations)],
        kernels=kernels,
        utility=(rng.integers(0, 2, size=(n_strategies, n_consequences))
                 + jitter * rng.standard_normal((n_strategies, n_consequences))))


def random_model(rng: np.random.Generator, env: StageEnv, n_params: int,
                 label: str) -> Model:
    """Explicit model with random kernels and random (possibly free)
    conjectures, always including the truth so states exist often."""
    n, m = env.n_strategies, len(env.consequences)
    kernels, params = [], []
    for t in range(n_params):
        if t == 0:
            k = DenseKernel(env.kernels[0].table.copy())
        else:
            k = DenseKernel(rng.dirichlet(np.ones(m), size=(n, n)))
        kernels.append(k)
        conj = tuple(None if rng.random() < 0.5 else int(rng.integers(n))
                     for _ in range(2))
        params.append(Parameter(conj_a=conj, kernel=k, kernel_index=t,
                                label=f"{label}{t}"))
    return Model(label=label, params=params, strategic_certainty_form=False,
                 kernels=kernels, kernel_labels=[f"k{t}" for t in range(n_params)])
