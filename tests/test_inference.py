import itertools
import math

import numpy as np
import pytest
from scipy.special import rel_entr

from conftest import coordination_env, random_env, random_model, tie_env
from zeitgeist import catalog
from zeitgeist.games import DenseKernel, MonitoringStructure, StageEnv
from zeitgeist.inference import (
    DataContext,
    MinimizerResult,
    kl_divergence,
    kl_minimizers,
    kl_profile_tables,
    member_cut,
    validate_shares,
)
from zeitgeist.models import Model, Parameter, minimal_correct_model, singleton_model
from zeitgeist.solver import enumerate_ez


@pytest.mark.parametrize("shares", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan),
                                    (-0.5, 1.5), (0.5, 0.6)])
def test_validate_shares_rejects_nan_and_bad_shares(shares):
    with pytest.raises(ValueError):
        validate_shares(shares)
    env = coordination_env()
    model = minimal_correct_model(env)
    with pytest.raises(ValueError):
        enumerate_ez(env, model, model, shares)


def test_kl_hand_value():
    got = kl_divergence([0.4, 0.6], [0.1, 0.9])
    want = 0.4 * math.log(4.0) + 0.6 * math.log(2.0 / 3.0)
    assert got == pytest.approx(want, abs=1e-15)


def test_kl_matches_scipy_on_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(m))
        assert kl_divergence(p, q) == pytest.approx(rel_entr(p, q).sum(),
                                                    abs=1e-12)


def test_kl_identity_and_nonnegativity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-14)
        q = rng.dirichlet(np.ones(4))
        assert kl_divergence(p, q) >= 0.0


def test_kl_support_mismatch():
    assert kl_divergence([0.5, 0.5, 0.0], [0.5, 0.0, 0.5]) == np.inf
    # q may have extra support without penalty
    assert np.isfinite(kl_divergence([1.0, 0.0], [0.5, 0.5]))


def test_minimizer_set_relative_cut():
    vals = np.array([1.0, 1.0 + 1e-12, 2.0])
    members, all_inf = member_cut(vals)
    assert list(np.flatnonzero(members)) == [0, 1]
    assert not all_inf
    members, all_inf = member_cut(np.array([np.inf, np.inf]))
    assert list(np.flatnonzero(members)) == [0, 1]
    assert all_inf


def test_data_context_profiles():
    ctx_a = DataContext(0, (0.3, 0.7), 0, (0, 1, 2, 3))
    own, cross = ctx_a.profiles()
    assert own == (0, 0, 0, 0.3)
    assert cross == (1, 2, 1, 0.7)
    ctx_b = DataContext(1, (0.3, 0.7), 0, (0, 1, 2, 3))
    own, cross = ctx_b.profiles()
    assert own == (3, 3, 1, 0.7)
    assert cross == (2, 1, 0, 0.3)
    with pytest.raises(ValueError):
        DataContext(2, (0.5, 0.5), 0, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        DataContext(0, (0.5, 0.6), 0, (0, 0, 0, 0))


def test_weighted_kl_zero_for_truth():
    env = coordination_env()
    model = minimal_correct_model(env)
    ctx = DataContext(0, (0.5, 0.5), 0, (0, 0, 1, 1))
    vals = kl_minimizers(model, ctx, env).values
    assert min(vals) == pytest.approx(0.0, abs=1e-12)


def test_kl_minimizers_pick_data_matching_parameter():
    env = coordination_env()
    # one correct kernel and one that swaps the coordination outcomes
    wrong = np.zeros((2, 2, 3))
    wrong[0, 0, 1] = 1.0
    wrong[1, 1, 0] = 1.0
    wrong[0, 1, 2] = 1.0
    wrong[1, 0, 2] = 1.0
    truth = DenseKernel(env.kernels[0].table.copy())
    from zeitgeist.models import Model
    model = Model("pair", [
        Parameter((None, None), truth, 0, "right"),
        Parameter((None, None), DenseKernel(wrong), 1, "swapped"),
    ], strategic_certainty_form=False,
        kernels=[truth, DenseKernel(wrong)], kernel_labels=["right", "swapped"])
    res = kl_minimizers(model, DataContext(0, (1.0, 0.0), 0, (0, 0, 0, 0)), env)
    assert list(res.indices) == [0]
    assert not res.all_infinite


def test_kl_minimizers_all_infinite_flagged():
    env = coordination_env()
    # kernel that rules out the observed consequence entirely
    impossible = np.zeros((2, 2, 3))
    impossible[..., 2] = 1.0
    k = DenseKernel(impossible)
    from zeitgeist.models import Model
    model = Model("impossible", [Parameter((None, None), k, 0, "never")],
                  strategic_certainty_form=False, kernels=[k],
                  kernel_labels=["never"])
    res = kl_minimizers(model, DataContext(0, (1.0, 0.0), 0, (0, 0, 0, 0)), env)
    assert res.all_infinite
    assert list(res.indices) == [0]


def test_profile_tables_match_direct_evaluation():
    # the solver's tables and the verifier's objective are separate code;
    # every context's objective is the share blend of two table entries
    rng = np.random.default_rng(11)
    env = random_env(rng, n_strategies=3, n_consequences=4)
    model = random_model(rng, env, 4, "m")
    table = kl_profile_tables(model, env, 0)
    assert table.shape == (4, 3, 3, 2)
    for quad in itertools.product(range(3), repeat=4):
        for group in (0, 1):
            ctx = DataContext(group, (0.3, 0.7), 0, quad)
            (i, j, og, w), (k, l, oh, v) = ctx.profiles()
            a, b = table[:, i, j, og], table[:, k, l, oh]
            want = np.where(np.isinf(a) | np.isinf(b), np.inf, w * a + v * b)
            got = kl_minimizers(model, ctx, env).values
            assert np.array_equal(np.isinf(got), np.isinf(want))
            assert got == pytest.approx(want, abs=1e-12)


def _objective_by_parameter(model, ctx, env) -> np.ndarray:
    """The weighted objective one parameter at a time from ``kl_divergence``:
    each profile's term, the monitoring term for a pinned conjecture, 0 * inf
    = inf, and a running sum from 0.0."""
    truth = env.kernel(ctx.situation)
    out = []
    for param in model.params:
        total = 0.0
        for i, j, og, w in ctx.profiles():
            conj = param.conj_a[og]
            if conj is None:
                term = kl_divergence(truth.row(i, j), param.kernel.row(i, j))
            else:
                term = kl_divergence(truth.row(i, j), param.kernel.row(i, conj))
                if not np.isinf(term):
                    term += kl_divergence(env.monitoring.rows[j], env.monitoring.rows[conj])
            if np.isinf(term):   # 0 * inf = inf
                total = math.inf
                break
            total += w * term
        out.append(total)
    return np.array(out)


def _assert_objective_bits(model, ctx, env) -> MinimizerResult:
    res = kl_minimizers(model, ctx, env)
    want = _objective_by_parameter(model, ctx, env)
    assert res.values.tobytes() == want.tobytes(), (ctx, res.values, want)
    return res


def _pinned_model(env, conj) -> Model:
    """Every parameter pins both opponent groups to ``conj``."""
    kernels = [DenseKernel(env.kernels[0].table.copy())]
    params = [Parameter((conj, conj), kernels[0], 0, "pinned")]
    return Model("pinned", params, strategic_certainty_form=False, kernels=kernels,
                 kernel_labels=["truth"])


@pytest.mark.parametrize("tau", [None, 0.6])
def test_objective_bits_match_per_parameter_reference(tau):
    rng = np.random.default_rng(31)
    shares = [(1.0, 0.0), (0.3, 0.7), (0.0, 1.0)]
    finite = infinite = all_inf = 0
    for draw in range(4):
        env = (random_env(rng, n_strategies=3, n_consequences=4) if draw % 2
               else tie_env(rng, n_strategies=3, n_situations=2))
        if tau is not None:
            env = StageEnv(env.strategies, env.consequences, env.situations,
                           env.kernels, env.utility,
                           MonitoringStructure.noisy(env.strategies, tau))
        for model in (random_model(rng, env, 5, "m"), _pinned_model(env, 2)):
            for quad in itertools.product(range(3), repeat=4):
                for group, sh, gi in itertools.product((0, 1), shares,
                                                       range(len(env.situations))):
                    res = _assert_objective_bits(model, DataContext(group, sh, gi, quad), env)
                    finite += int(np.isfinite(res.values).sum())
                    infinite += int(np.isinf(res.values).sum())
                    all_inf += res.all_infinite
    # sparse rows, and under perfect monitoring contradicted pinned
    # conjectures, give infinite terms and all-infinite contexts
    assert finite and infinite and all_inf


@pytest.mark.parametrize("shares", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)])
def test_duopoly_objective_bits_match_per_parameter_reference(shares):
    # 101 parameters of 200-bin rows: a dot over strided rows would sum them
    # in another order and change the last bit
    spec = catalog.CournotSpec(10.0, 2.0, 1.0, 0.5)
    env, model_a, model_b = catalog.build_cournot_discrete(
        spec, np.linspace(0.0, 8.0, 51), 200, 2.0)
    for quad in ((20, 25, 12, 20), (17, 25, 25, 20), (0, 50, 3, 44)):
        for group, model in enumerate((model_a, model_b)):
            res = _assert_objective_bits(model, DataContext(group, shares, 0, quad), env)
            assert model.n_params == 101 and not res.all_infinite


def test_singleton_model_truth_is_minimizer_at_any_share():
    env = coordination_env()
    model = singleton_model(env, env.kernels[0])
    for shares in [(1.0, 0.0), (0.5, 0.5), (0.2, 0.8)]:
        res = kl_minimizers(model, DataContext(0, shares, 0, (1, 1, 1, 1)), env)
        assert list(res.indices) == [0]
        assert not res.all_infinite
