import numpy as np
import pytest

from conftest import coordination_env, decision_env, mismatch_env
from zeitgeist.games import (
    DenseKernel,
    FitnessWeights,
    MonitoringStructure,
    StageEnv,
    as_weights,
    best_response_indices,
    best_responses,
    expected_payoff,
    min_tiebreak_best_response,
    stackelberg,
    symmetric_nash,
    tie_tolerance,
    validate_probability_row,
)


def test_tie_tolerance_scales_with_magnitude():
    small = tie_tolerance(np.array([0.0, 1.0]))
    large = tie_tolerance(np.array([0.0, 1e6]))
    assert large > small
    assert tie_tolerance(np.array([0.0, 0.0])) > 0.0


def test_validate_probability_row_rejects_bad_rows():
    validate_probability_row(np.array([0.25, 0.75]), "ok")
    with pytest.raises(ValueError):
        validate_probability_row(np.array([0.5, 0.6]), "sum")
    with pytest.raises(ValueError):
        validate_probability_row(np.array([-0.1, 1.1]), "negative")


class TestDenseKernel:
    def test_rows_and_payoff_matrix(self):
        rng = np.random.default_rng(0)
        table = rng.dirichlet(np.ones(4), size=(3, 3))
        utility = rng.normal(size=(3, 4))
        k = DenseKernel(table)
        assert np.array_equal(k.row(1, 2), table[1, 2])
        assert np.array_equal(k.rows_for_own(0), table[0])
        expected = np.einsum("ijc,ic->ij", table, utility)
        assert np.allclose(k.payoff_matrix(utility), expected, atol=1e-14)

    def test_validation(self):
        bad = np.full((2, 2, 2), 0.6)
        with pytest.raises(ValueError):
            DenseKernel(bad)

    def test_opponent_independent(self):
        dep = np.zeros((2, 2, 2))
        dep[:, 0, 0] = 1.0
        dep[:, 1, 1] = 1.0
        indep = np.zeros((2, 2, 2))
        indep[0, :, 0] = 1.0
        indep[1, :, 1] = 1.0
        assert not DenseKernel(dep).opponent_independent()
        assert DenseKernel(indep).opponent_independent()

    def test_equality_compares_tables(self):
        t = np.zeros((2, 2, 2))
        t[..., 0] = 1.0
        assert DenseKernel(t) == DenseKernel(t.copy())
        other = t.copy()
        other[0, 0] = [0.0, 1.0]
        assert DenseKernel(t) != DenseKernel(other)


class TestMonitoring:
    def test_perfect(self):
        m = MonitoringStructure.perfect(["a", "b", "c"])
        assert m.is_perfect()
        assert np.array_equal(m.row(1), [0.0, 1.0, 0.0])

    def test_noisy(self):
        m = MonitoringStructure.noisy(["a", "b"], tau=0.9)
        assert not m.is_perfect()
        assert np.allclose(m.row(0), [0.95, 0.05])
        assert np.allclose(m.row(1), [0.05, 0.95])

    def test_rows_must_be_distributions(self):
        with pytest.raises(ValueError):
            MonitoringStructure(("x", "y"), np.array([[0.5, 0.6], [0.5, 0.5]]))


class TestStageEnv:
    def test_duplicate_labels_rejected(self):
        t = np.zeros((2, 2, 1))
        t[..., 0] = 1.0
        with pytest.raises(ValueError):
            StageEnv(["a", "a"], ["c"], ["G"], [t], np.array([1.0]))
        with pytest.raises(ValueError):
            StageEnv(["a", "b"], ["c"], ["G", "G"], [t, t], np.array([1.0]))

    def test_kernel_count_must_match_situations(self):
        t = np.zeros((2, 2, 1))
        t[..., 0] = 1.0
        with pytest.raises(ValueError):
            StageEnv(["a", "b"], ["c"], ["G1", "G2"], [t], np.array([1.0]))

    def test_scalar_utility_broadcasts(self):
        env = coordination_env()
        assert env.utility.shape == (2, 3)
        assert np.array_equal(env.utility[0], env.utility[1])

    def test_payoff_matrix(self):
        env = coordination_env()
        assert np.allclose(env.payoff_matrix("G"), [[2.0, 0.0], [0.0, 3.0]])

    def test_index_lookups(self):
        env = coordination_env()
        assert env.strategy_index("s1") == 1
        assert env.situation_index("G") == 0
        with pytest.raises(KeyError):
            env.strategy_index("nope")
        with pytest.raises(KeyError):
            env.situation_index("nope")


def test_expected_payoff_and_best_responses():
    env = coordination_env()
    assert expected_payoff(env, "G", "s1", "s1") == pytest.approx(3.0)
    assert best_responses(env, "G", "s0") == ["s0"]
    assert best_responses(env, "G", "s1") == ["s1"]
    assert np.array_equal(best_response_indices(env, "G", 1), [1])


def test_min_tiebreak_best_response_breaks_against_leader():
    # follower indifferent between both replies; the pessimistic pick is the
    # one worse for the committing player
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = 1.0
    table[0, 1, 1] = 1.0
    table[1, 0, 1] = 1.0
    table[1, 1, 0] = 1.0
    env = StageEnv(["x", "y"], ["c0", "c1"], ["G"], [table],
                   np.array([[1.0, 1.0], [5.0, 0.0]]))
    # replying to x: both of the follower's options pay the follower 1 or 5
    # depending on role; against commitment to y the follower is indifferent
    assert min_tiebreak_best_response(env, "G", "y") in ("x", "y")


def test_symmetric_nash_exists_and_picks_best():
    res = symmetric_nash(coordination_env(), "G")
    assert res.exists
    assert res.equilibria == ("s0", "s1")
    assert res.best == ("s1",)
    assert res.value == pytest.approx(3.0)


def test_symmetric_nash_can_be_empty():
    res = symmetric_nash(mismatch_env(), "G")
    assert not res.exists
    assert res.value is None


def test_stackelberg_on_decision_problem():
    res = stackelberg(decision_env(), "G")
    assert res.strategy == "hi"
    assert res.value == pytest.approx(2.0)


def test_stackelberg_adversarial_ties():
    # leader commits, follower has two best replies; value takes the worse one
    table = np.zeros((2, 2, 3))
    table[0, 0, 0] = 1.0
    table[0, 1, 1] = 1.0
    table[1, 0, 1] = 1.0
    table[1, 1, 2] = 1.0
    utility = np.array([[4.0, 0.0, 0.0],
                        [0.0, 2.0, 2.0]])
    env = StageEnv(["a", "b"], ["c0", "c1", "c2"], ["G"], [table], utility)
    # against a: follower gets 4 from a, 0 from b -> replies a, leader earns 4
    # against b: follower gets 2 either way -> tie, leader earns 2 regardless
    res = stackelberg(env, "G")
    assert res.strategy == "a"
    assert res.value == pytest.approx(4.0)


def test_fitness_weights_validation():
    w = FitnessWeights.uniform(3)
    assert np.allclose(w.weights, [1 / 3] * 3)
    with pytest.raises(ValueError):
        FitnessWeights(np.array([0.5, 0.6]))
    assert np.allclose(as_weights(None, 2), [0.5, 0.5])
    assert np.allclose(as_weights([0.2, 0.8], 2), [0.2, 0.8])
    with pytest.raises(ValueError):
        as_weights([0.2, 0.2], 2)


def test_payoff_matrix_follows_a_new_utility_array():
    # a fresh utility array may reuse a freed one's address; the cached
    # matrix must still belong to the array passed in
    rng = np.random.default_rng(3)
    k = DenseKernel(rng.dirichlet(np.ones(3), size=(2, 2)))
    for _ in range(50):
        rows = rng.normal(size=(2, 3)).tolist()
        want = np.einsum("ijy,iy->ij", k.table, np.array(rows))
        assert np.array_equal(k.payoff_matrix(np.array(rows)), want)
