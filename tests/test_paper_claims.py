"""Seeded checks of the source paper's claims on random environments."""

from collections import Counter

import numpy as np

from conftest import random_env
from zeitgeist.games import DenseKernel, symmetric_nash
from zeitgeist.models import minimal_correct_model, singleton_model
from zeitgeist.stability import classify_stability, singleton_fragility_check

KEPT = 100


def _separable_draws(rng):
    """Random environments with a symmetric pure equilibrium in every
    situation and situation weights that separate it, with those weights
    and the running counts of draws and of draws with such an equilibrium."""
    drawn = checked = 0
    while True:
        drawn += 1
        env = random_env(rng, n_strategies=int(rng.integers(2, 4)),
                         n_situations=int(rng.integers(2, 4)))
        if not all(symmetric_nash(env, G).exists for G in env.situations):
            continue
        checked += 1
        sep = singleton_fragility_check(env)
        if sep.separable:
            yield (drawn, checked), env, sep.separating_q


def test_dogmatic_entrants_never_destabilize_a_separated_correct_resident():
    """A correctly specified resident can only be destabilized by entrants
    whose models permit inference.

    Where situation weights q separate the symmetric-equilibrium payoffs
    from every reaction rule of a dogmatic single-kernel entrant
    (``singleton_fragility_check``), the correct resident is never
    ``Fragile`` under q against such an entrant: each situation's true
    kernel and three random kernels, each held dogmatically.  Every draw
    the check keeps is classified; none is filtered by its verdict.
    """
    rng = np.random.default_rng(12)
    labels = Counter()
    draws = _separable_draws(rng)
    for _ in range(KEPT):
        (drawn, checked), env, q = next(draws)
        resident = minimal_correct_model(env)
        n, m = env.n_strategies, len(env.consequences)
        kernels = list(env.kernels) + [DenseKernel(rng.dirichlet(np.ones(m), size=(n, n)))
                                       for _ in range(3)]
        for k in kernels:
            verdict = classify_stability(env, resident, singleton_model(env, k), q=q)
            assert verdict.label != "Fragile", (drawn, [e.max_gap for e in verdict.evidence])
            labels[verdict.label] += 1
    print(f"{drawn} environments drawn, {checked} with a symmetric pure equilibrium "
          f"in every situation, {KEPT} separable: {dict(sorted(labels.items()))}")
