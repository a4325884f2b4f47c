import numpy as np
import pytest

from conftest import coordination_env, decision_env, mismatch_env, tie_env
from zeitgeist import catalog
from zeitgeist.games import (DenseKernel, MonitoringStructure, StageEnv,
                             best_response_indices, stackelberg)
from zeitgeist.models import (
    IdentifiabilityReport,
    Model,
    Parameter,
    check_identifiability,
    illusion_of_control_model,
    minimal_correct_model,
    singleton_model,
)


def test_model_requires_parameters():
    with pytest.raises(ValueError):
        Model("empty", [], False, [], [])


def test_model_kernels_need_one_shape():
    two = coordination_env().kernels[0]
    three = catalog.build_two_situation_game().kernels[0]
    params = [Parameter((None, None), k, i) for i, k in enumerate((two, three))]
    with pytest.raises(ValueError, match="'mixed' needs kernels of one shape"):
        Model("mixed", params, True, [two, three], ["two", "three"])


def test_expand_product_order_and_labels():
    env = coordination_env()
    model = singleton_model(env, env.kernels[0], label="truth")
    assert model.strategic_certainty_form
    assert model.params[0].conj_a == (None, None)
    full = model.expand_product(env)
    assert not full.strategic_certainty_form
    assert full.n_params == 4  # 2x2 conjecture pairs, one kernel
    # conjecture-major order: (ca, cb) outer, kernels inner
    assert [p.conj_a for p in full.params] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert full.params[1].label.endswith("A:s0,B:s1")
    assert full.meta["expanded_from_certainty_form"]
    # idempotent on explicit models
    assert full.expand_product(env) is full


def test_kernel_marginal_collapses_conjectures():
    env = coordination_env()
    full = singleton_model(env, env.kernels[0]).expand_product(env)
    w = np.full(full.n_params, 1.0 / full.n_params)
    assert np.allclose(full.kernel_marginal(w), [1.0])


def test_minimal_correct_model_dedups_kernels():
    env = coordination_env()
    two = StageEnv(["s0", "s1"], ["c0", "c1", "c2"], ["G1", "G2"],
                   [env.kernels[0].table, env.kernels[0].table.copy()],
                   env.utility)
    model = minimal_correct_model(two)
    assert len(model.kernels) == 1
    assert model.strategic_certainty_form


def test_singleton_model_checks_dimensions():
    env = coordination_env()
    with pytest.raises(ValueError):
        singleton_model(env, np.zeros((3, 3, 3)))


def test_illusion_of_control_bakes_replies_into_fundamentals():
    from zeitgeist.games import _followers
    env = catalog.build_two_situation_game()
    eps = 1e-3
    warped = illusion_of_control_model(env, perturb_eps=eps)
    assert warped.meta["perturb_eps"] == pytest.approx(eps)
    assert len(warped.kernels) == env.n_situations
    ny = len(env.consequences)
    for gi, G in enumerate(env.situations):
        k = warped.kernels[gi]
        # opponent-independent: every opponent column holds the same row
        assert np.array_equal(k.table, np.broadcast_to(k.table[:, :1], k.table.shape))
        replies = _followers(env.payoff_matrix(G))
        for a in range(env.n_strategies):
            want = (1 - eps) * env.kernel(G).row(a, replies[a]) + eps / ny
            assert np.allclose(k.row(a, 0), want, atol=1e-15)
        assert np.allclose(k.table.sum(axis=2), 1.0, atol=1e-12)


def test_illusion_of_control_rejects_degenerate_perturbation():
    env = catalog.build_two_situation_game()
    with pytest.raises(ValueError):
        illusion_of_control_model(env, perturb_eps=0.0)
    with pytest.raises(ValueError):
        illusion_of_control_model(env, perturb_eps=1.0)


def test_identifiability_two_situation_env():
    env = catalog.build_two_situation_game()
    rep = check_identifiability(env)
    assert rep.situation_id and rep.stackelberg_id


def test_identifiability_fails_on_duplicate_situations():
    env = coordination_env()
    dup = StageEnv(["s0", "s1"], ["c0", "c1", "c2"], ["G1", "G2"],
                   [env.kernels[0].table, env.kernels[0].table.copy()],
                   env.utility)
    rep = check_identifiability(dup)
    assert not rep.situation_id
    assert rep.situation_witnesses


def test_identifiability_single_situation_is_vacuous():
    rep = check_identifiability(decision_env())
    assert rep.situation_id and rep.stackelberg_id


def test_commitment_data_can_alias_across_situations():
    # kernels differ at every profile, yet the second situation's rational
    # reply to the first situation's commitment reproduces its data exactly
    def dirac(assign):
        t = np.zeros((2, 2, 4))
        for (i, j), c in assign.items():
            t[i, j, c] = 1.0
        return t

    k1 = dirac({(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3})
    k2 = dirac({(0, 0): 1, (0, 1): 0, (1, 0): 3, (1, 1): 2})
    utility = np.array([[5.0, 1.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 2.0]])
    env = StageEnv(["x", "y"], ["c0", "c1", "c2", "c3"], ["G1", "G2"],
                   [k1, k2], utility)
    rep = check_identifiability(env)
    assert rep.situation_id
    assert not rep.stackelberg_id
    assert rep.stackelberg_witnesses

    # witnesses and their order against nested loops over kernel rows, on
    # draws whose situations share most rows
    with_witnesses = 0
    for k in range(120):
        rng = np.random.default_rng(600 + k)
        env = tie_env(rng, n_strategies=int(rng.integers(2, 5)),
                      n_situations=int(rng.integers(2, 4)))
        S, A, n = env.situations, env.strategies, env.n_strategies

        def same(g1, i, j1, g2, j2):
            return np.max(np.abs(env.kernels[g1].row(i, j1) - env.kernels[g2].row(i, j2))) <= 1e-12

        sit = [(S[g1], S[g2], A[i], A[j]) for g1 in range(len(S)) for g2 in range(g1 + 1, len(S))
               for i in range(n) for j in range(n) if same(g1, i, j, g2, j)]
        stack = []
        for g1, G1 in enumerate(S):
            lead = env.strategy_index(stackelberg(env, G1).strategy)
            stack += [(G1, G2, A[lead], A[r1], A[r2]) for g2, G2 in enumerate(S) if g2 != g1
                      for r1 in best_response_indices(env, G1, lead)
                      for r2 in best_response_indices(env, G2, lead) if same(g1, lead, r1, g2, r2)]
        rep = check_identifiability(env)
        assert rep == IdentifiabilityReport(not sit, not stack, tuple(sit), tuple(stack))
        with_witnesses += bool(sit) and bool(stack)
    assert with_witnesses >= 40


def test_mismatch_env_has_no_symmetric_fixture():
    # sanity for the fixtures used elsewhere
    from zeitgeist.games import symmetric_nash
    assert not symmetric_nash(mismatch_env(), "G").exists
