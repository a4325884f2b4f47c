"""Every layer reaches a kernel through five members only.

A kernel is ``n_strategies``, ``n_consequences``, ``row``, ``rows_for_own``
and ``payoff_matrix``.  Environments whose kernels offer nothing else must
give the same bits as their ``DenseKernel`` twins in the model builders,
the solver, the verifier, the learning simulator and the separation check.
"""

import dataclasses

import numpy as np
import pytest

from zeitgeist import catalog
from zeitgeist.games import StageEnv
from zeitgeist.learning import SimConfig, run_learning
from zeitgeist.models import illusion_of_control_model, minimal_correct_model
from zeitgeist.solver import enumerate_ez, verify_ez
from zeitgeist.stability import singleton_fragility_check

INTERFACE = {"n_strategies", "n_consequences", "row", "rows_for_own", "payoff_matrix"}


def row_source(table):
    """A kernel with the five members and no reachable table."""
    table = np.asarray(table, dtype=float)

    class RowSource:
        __slots__ = ()
        n_strategies = table.shape[0]
        n_consequences = table.shape[2]

        def row(self, i, j):
            return table[i, j]

        def rows_for_own(self, i):
            return table[i]

        def payoff_matrix(self, utility):
            return np.einsum("ijy,iy->ij", table, utility)

    return RowSource()


def _twins(env: StageEnv) -> tuple[StageEnv, StageEnv]:
    tables = [np.stack([k.rows_for_own(i) for i in range(env.n_strategies)])
              for k in env.kernels]

    def build(kernels):
        return StageEnv(env.strategies, env.consequences, env.situations, kernels,
                        env.utility, monitoring=env.monitoring)

    return build([t.copy() for t in tables]), build([row_source(t) for t in tables])


def _bits(obj):
    if dataclasses.is_dataclass(obj):
        return tuple((f.name, _bits(getattr(obj, f.name))) for f in dataclasses.fields(obj))
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, (tuple, list)):
        return tuple(_bits(v) for v in obj)
    if isinstance(obj, float):
        return float(obj).hex()
    return obj


def _model_bits(model, n):
    return (model.label, tuple(model.kernel_labels), model.meta.get("perturb_eps"),
            tuple((p.conj_a, p.kernel_index, p.label) for p in model.params),
            tuple(k.rows_for_own(i).tobytes() for k in model.kernels for i in range(n)))


def _two_situation():
    return _twins(catalog.build_two_situation_game())


def _equal_situations():
    # two situations with equal rows held in distinct arrays
    env = catalog.build_two_situation_game()
    table = np.stack([env.kernels[1].rows_for_own(i) for i in range(env.n_strategies)])
    return _twins(StageEnv(env.strategies, env.consequences, env.situations,
                           [table, table.copy()], env.utility))


def _solve_bits(env, model_a, model_b, shares):
    states = enumerate_ez(env, model_a, model_b, shares)
    return _bits(states), _bits([verify_ez(z, env, model_a, model_b) for z in states])


def test_row_sources_expose_only_the_interface():
    _, rows = _two_situation()
    for k in rows.kernels:
        assert {m for m in dir(k) if not m.startswith("_")} == INTERFACE


@pytest.mark.parametrize("make", [_two_situation, _equal_situations])
def test_minimal_correct_model_compares_rows(make):
    dense, rows = make()
    n = dense.n_strategies
    want = minimal_correct_model(dense)
    assert _model_bits(minimal_correct_model(rows), n) == _model_bits(want, n)
    assert len(want.kernels) == (1 if make is _equal_situations else 2)


def test_illusion_of_control_model_reads_rows():
    dense, rows = _two_situation()
    n = dense.n_strategies
    for eps in (1e-3, 0.05):
        assert (_model_bits(illusion_of_control_model(rows, eps), n)
                == _model_bits(illusion_of_control_model(dense, eps), n))
    # the smallest positive mass of the two-situation game is 0.1
    for env in (dense, rows):
        with pytest.raises(ValueError, match="smallest positive kernel mass 0.1"):
            illusion_of_control_model(env, 0.1)


@pytest.mark.parametrize("shares", [(1.0, 0.0), (0.5, 0.5), (0.3, 0.7), (0.0, 1.0)])
def test_enumerate_and_verify_read_rows(shares):
    for make in (_two_situation, _equal_situations):
        dense, rows = make()
        got = _solve_bits(rows, minimal_correct_model(rows), minimal_correct_model(rows),
                          shares)
        want = _solve_bits(dense, minimal_correct_model(dense), minimal_correct_model(dense),
                           shares)
        assert got == want
        assert got[0], "expected at least one state"
    dense, rows = _two_situation()
    got = _solve_bits(rows, minimal_correct_model(rows), illusion_of_control_model(rows),
                      shares)
    want = _solve_bits(dense, minimal_correct_model(dense), illusion_of_control_model(dense),
                       shares)
    assert got == want


def test_run_learning_reads_rows():
    dense, rows = _two_situation()
    cfg = SimConfig(n_agents=24, shares=(0.5, 0.5), horizon=160, seed=7,
                    q=(0.4, 0.6), situation_period=20)

    def trajectory(env):
        return run_learning(env, minimal_correct_model(env),
                            illusion_of_control_model(env), cfg)

    got, want = trajectory(rows), trajectory(dense)
    fields = ("situations", "alpha", "nu_a", "nu_b", "payoff", "running_payoff", "restarts")
    for f in fields:
        assert getattr(got, f).tobytes() == getattr(want, f).tobytes(), f
    assert set(got.situations.tolist()) == {0, 1}


def test_singleton_fragility_check_reads_rows():
    dense, rows = _two_situation()
    assert _bits(singleton_fragility_check(rows)) == _bits(singleton_fragility_check(dense))
