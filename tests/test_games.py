import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import zeitgeist
from conftest import coordination_env, decision_env, mismatch_env, tie_env
from zeitgeist.config import ConfigError, env_from_dict
from zeitgeist.games import (
    DenseKernel,
    MonitoringStructure,
    StageEnv,
    _followers,
    as_weights,
    best_reply_mask,
    best_response_indices,
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


def test_best_reply_mask_cuts_each_column_at_its_own_scale():
    # column 0's magnitude widens its slack to 1e-3; column 1 keeps 1e-9
    pay = np.array([[1e6, 1.0],
                    [1e6 - 1e-4, 1.0 - 1e-5]])
    mask = best_reply_mask(pay)
    assert mask.tolist() == [[True, True], [True, False]]
    for j in range(2):
        assert np.array_equal(best_reply_mask(pay[:, j]), mask[:, j])


def test_validate_probability_row_rejects_bad_rows():
    validate_probability_row(np.array([0.25, 0.75]), "ok")
    with pytest.raises(ValueError):
        validate_probability_row(np.array([0.5, 0.6]), "sum")
    with pytest.raises(ValueError):
        validate_probability_row(np.array([-0.1, 1.1]), "negative")


def test_probability_rows_reject_any_negative_entry():
    # one rule at every edge: no negative entry at all, sums within TOL
    tiny = np.array([1.0 + 1e-10, -1e-10])
    table = np.zeros((2, 2, 2))
    table[..., 0] = 1.0
    table[1, 0] = tiny
    with pytest.raises(ValueError, match=r"bad row at \(1, 0\)"):
        DenseKernel(table)
    with pytest.raises(ValueError, match=r"bad row at \(1,\)"):
        MonitoringStructure(("x", "y"), np.array([[1.0, 0.0], tiny]))
    with pytest.raises(ValueError):
        as_weights(tiny.tolist(), 2)
    with pytest.raises(ValueError):
        validate_probability_row(np.array([0.5, np.nan]), "nan")
    # sums still get the tolerance
    table[1, 0] = [0.5, 0.5 + 5e-10]
    DenseKernel(table)


def test_no_callable_takes_a_tolerance_parameter():
    # every fit, tie and sum check reads games.TOL; a per-call tolerance
    # would be a second rule.  is_perfect serves exact and near-exact
    # checks of monitoring, which differ on purpose.
    allowed = {"zeitgeist.games.MonitoringStructure.is_perfect"}
    found = []
    for info in pkgutil.iter_modules(zeitgeist.__path__):
        module = importlib.import_module(f"zeitgeist.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)
                           if attr == "__init__" or not attr.startswith("_")]
            for qualname, fn in members:
                if not inspect.isfunction(fn):
                    continue
                where = f"{module.__name__}.{qualname}"
                found += [f"{where}({p})" for p in inspect.signature(fn).parameters
                          if "tol" in p.lower() and where not in allowed]
    assert found == []


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


class TestMonitoring:
    def test_perfect(self):
        m = MonitoringStructure.perfect(["a", "b", "c"])
        assert m.is_perfect()
        assert np.array_equal(m.rows[1], [0.0, 1.0, 0.0])

    def test_noisy(self):
        m = MonitoringStructure.noisy(["a", "b"], tau=0.9)
        assert not m.is_perfect()
        assert np.allclose(m.rows[0], [0.95, 0.05])
        assert np.allclose(m.rows[1], [0.05, 0.95])

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

    def test_no_situations_rejected(self):
        # an empty environment once passed and died later in as_weights
        base = coordination_env()
        with pytest.raises(ValueError, match="at least one situation"):
            StageEnv(base.strategies, base.consequences, [], [], base.utility)
        doc = {"strategies": ["s0", "s1"], "consequences": ["c0"], "situations": [],
               "kernels": [], "utility": [1.0]}
        with pytest.raises(ConfigError, match="at least one situation"):
            env_from_dict(doc)

    def test_kernel_count_must_match_situations(self):
        t = np.zeros((2, 2, 1))
        t[..., 0] = 1.0
        with pytest.raises(ValueError):
            StageEnv(["a", "b"], ["c"], ["G1", "G2"], [t], np.array([1.0]))

    def test_kernel_shape_must_match_labels(self):
        # a kernel of 3 consequences under 2 labels once loaded and failed
        # later inside numpy
        table = coordination_env().kernels[0].table
        with pytest.raises(ValueError, match=r"situation G has a kernel of 2 strategies "
                                             r"and 3 consequences; the labels give \(2, 2\)"):
            StageEnv(["s0", "s1"], ["c0", "c1"], ["G"], [table], np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_utility_rejected(self, bad):
        # a NaN utility would empty every best-reply mask without an error
        base = coordination_env()
        with pytest.raises(ValueError, match="finite"):
            StageEnv(base.strategies, base.consequences, base.situations,
                     list(base.kernels), np.array([2.0, bad, 0.0]))

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
    assert env.payoff_matrix("G")[1, 1] == pytest.approx(3.0)
    assert np.array_equal(best_response_indices(env, "G", 0), [0])
    assert np.array_equal(best_response_indices(env, "G", 1), [1])


def test_min_tiebreak_best_response_breaks_against_leader():
    # consequence j follows the opponent's action j, so U = utility =
    # [[0, 1], [2, 1]]: against a leader committed to y, replies x and y
    # both pay the follower 1, and y leaves the leader 1 instead of 2
    table = np.zeros((2, 2, 2))
    table[:, 0, 0] = 1.0
    table[:, 1, 1] = 1.0
    env = StageEnv(["x", "y"], ["c0", "c1"], ["G"], [table],
                   np.array([[0.0, 1.0], [2.0, 1.0]]))
    U = env.payoff_matrix("G")
    assert U.tolist() == [[0.0, 1.0], [2.0, 1.0]]
    y = env.strategy_index("y")
    assert _followers(U)[y] == y


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

    # tie-heavy draws against a per-strategy walk over each reply set; odd
    # draws tie within the slack rather than exactly
    for k in range(150):
        rng = np.random.default_rng(300 + k)
        env = tie_env(rng, n_strategies=int(rng.integers(2, 6)),
                      n_situations=int(rng.integers(1, 4)), jitter=(k % 2) * 1e-12)
        for G in env.situations:
            U = env.payoff_matrix(G)
            pessimistic = _followers(U)
            followers = []
            for i in range(env.n_strategies):
                replies = best_response_indices(env, G, i)
                mine = U[i, replies]
                followers.append(int(replies[np.flatnonzero(
                    mine <= mine.min() + tie_tolerance(mine))[0]]))
                assert pessimistic[i] == followers[-1]
            values = np.array([U[i, f] for i, f in enumerate(followers)])
            lead = int(np.flatnonzero(best_reply_mask(values))[0])
            res = stackelberg(env, G)
            assert (res.strategy, res.value.hex(), res.follower) == (
                env.strategies[lead], float(values[lead]).hex(),
                env.strategies[followers[lead]])


def test_fitness_weights_validation():
    with pytest.raises(ValueError):
        as_weights(np.array([0.5, 0.6]), 2)
    assert np.allclose(as_weights(None, 2), [0.5, 0.5])
    assert np.allclose(as_weights([0.2, 0.8], 2), [0.2, 0.8])
    with pytest.raises(ValueError):
        as_weights([0.2, 0.2], 2)


def test_payoff_matrix_follows_a_new_utility_array():
    # a fresh utility array may reuse a freed one's address; the matrix
    # must still belong to the array passed in
    rng = np.random.default_rng(3)
    k = DenseKernel(rng.dirichlet(np.ones(3), size=(2, 2)))
    for _ in range(50):
        rows = rng.normal(size=(2, 3)).tolist()
        want = np.einsum("ijy,iy->ij", k.table, np.array(rows))
        assert np.array_equal(k.payoff_matrix(np.array(rows)), want)
