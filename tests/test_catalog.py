import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from zeitgeist import catalog
from zeitgeist.games import StageEnv, stackelberg, symmetric_nash
from zeitgeist.models import check_identifiability
from zeitgeist.solver import verify_ez


def test_cournot_spec_validation():
    with pytest.raises(ValueError):
        catalog.CournotSpec(2.0, 2.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        catalog.CournotSpec(10.0, 2.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        catalog.CournotSpec(10.0, 2.0, 1.0, -0.5)


def test_cournot_closed_forms_exact():
    form = catalog.cournot_closed_form(catalog.CournotSpec(10.0, 2.0, 1.0, 0.5))
    assert form.a_AA == pytest.approx(8.0 / 3.0, abs=1e-12)
    assert form.resident_fitness == pytest.approx(64.0 / 9.0, abs=1e-12)
    assert form.a_stack == pytest.approx(4.0, abs=1e-12)
    assert form.a_BA == pytest.approx(4.0, abs=1e-12)
    assert form.entrant_fitness == pytest.approx(8.0, abs=1e-12)
    # committing to the leader quantity is exactly what a half-slope
    # perceiver does, so the two fitness notions agree there
    assert form.entrant_fitness_at(0.5) == pytest.approx(
        form.entrant_profit(form.a_stack), abs=1e-12)


def test_entrant_profit_peaks_at_half_slope():
    spec = catalog.CournotSpec(10.0, 2.0, 1.0, 0.5)
    form = catalog.cournot_closed_form(spec)
    r_hats = np.linspace(0.05, 2.0, 79)
    vals = np.array([form.entrant_fitness_at(rh) for rh in r_hats])
    # unimodal in the perceived slope with the peak at r/2
    peak = r_hats[np.argmax(vals)]
    assert abs(peak - 0.5) <= (r_hats[1] - r_hats[0])
    left = vals[r_hats < 0.5]
    right = vals[r_hats > 0.5]
    assert np.all(np.diff(left) > 0)
    assert np.all(np.diff(right) < 0)
    assert form.entrant_fitness_at(0.5) >= vals.max()


def test_build_cournot_validates_inputs():
    spec = catalog.CournotSpec(10.0, 2.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        catalog.build_cournot_discrete(spec, [0.0, 0.0, 8.0], 100, 2.0)
    with pytest.raises(ValueError):
        catalog.build_cournot_discrete(spec, np.linspace(0.0, 5.0, 26), 100, 2.0)
    with pytest.raises(ValueError):
        catalog.build_cournot_discrete(spec, np.linspace(0.0, 8.0, 41), 100, 0.0)


@pytest.fixture(scope="module")
def cournot_51():
    spec = catalog.CournotSpec(10.0, 2.0, 1.0, 0.5)
    grid = np.linspace(0.0, 8.0, 51)
    env, model_a, model_b = catalog.build_cournot_discrete(spec, grid, 200, 2.0)
    return spec, grid, env, model_a, model_b


def test_discrete_duopoly_resident_world(cournot_51):
    spec, grid, env, model_a, model_b = cournot_51
    states = catalog.cournot_discrete_ez(env, model_a, model_b, (1.0, 0.0))
    assert states
    step = grid[1] - grid[0]
    quads = {tuple(float(grid[a]) for a in z.outcomes[0].quadruple) for z in states}
    for a_aa, a_ab, a_ba, a_bb in quads:
        assert abs(a_aa - 8.0 / 3.0) <= step
        assert abs(a_ba - 4.0) <= step
    # the scan certifies each state, but certify again from the outside
    for z in states:
        ok, cert = verify_ez(z, env, model_a, model_b)
        assert ok, cert.failures()


def test_discrete_duopoly_entrant_world(cournot_51):
    spec, grid, env, model_a, model_b = cournot_51
    states = catalog.cournot_discrete_ez(env, model_a, model_b, (0.0, 1.0))
    assert states
    # own-group data pins the entrant quantity: b + m-style drift contracts
    # the symmetric fixed point to 3.2 on this grid
    bb = {float(grid[z.outcomes[0].quadruple[3]]) for z in states}
    assert bb == {3.2}
    for z in states:
        ok, cert = verify_ez(z, env, model_a, model_b)
        assert ok, cert.failures()


def test_discrete_duopoly_interior_share_rejected(cournot_51):
    spec, grid, env, model_a, model_b = cournot_51
    with pytest.raises(ValueError):
        catalog.cournot_discrete_ez(env, model_a, model_b, (0.5, 0.5))


def test_discrete_duopoly_requires_builder_env(cournot_51):
    spec, grid, env, model_a, model_b = cournot_51
    bare = StageEnv(strategies=env.strategies, consequences=env.consequences,
                    situations=env.situations, kernels=list(env.kernels),
                    utility=env.utility)
    with pytest.raises(ValueError, match="unit cost"):
        catalog.cournot_discrete_ez(bare, model_a, model_b, (1.0, 0.0))


def test_discrete_duopoly_grid_refinement():
    spec = catalog.CournotSpec(10.0, 2.0, 1.0, 0.5)
    errs = []
    for n in (51, 101):
        grid = np.linspace(0.0, 8.0, n)
        env, model_a, model_b = catalog.build_cournot_discrete(spec, grid, 200, 2.0)
        states = catalog.cournot_discrete_ez(env, model_a, model_b, (1.0, 0.0))
        aa = {float(grid[z.outcomes[0].quadruple[0]]) for z in states}
        errs.append(max(abs(v - 8.0 / 3.0) for v in aa))
    # halving the quantity step halves the resident-quantity error
    assert errs[1] <= 0.5 * errs[0] + 1e-12


def test_investment_spec_validation():
    with pytest.raises(ValueError):
        catalog.InvestmentSpec(0.0, 5.5, 12.0)
    with pytest.raises(ValueError):
        catalog.InvestmentSpec(1.0, 5.5, 0.0)


def test_investment_data_matching_slopes():
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    assert spec.b_star(1, 1) == pytest.approx(7.0)
    assert spec.b_star(1, 2) == pytest.approx(5.0)
    assert spec.b_star(2, 2) == pytest.approx(4.0)


def test_investment_report_flags():
    _, _, _, good = catalog.build_investment_game(catalog.InvestmentSpec(1.0, 5.5, 12.0))
    assert good.dominance_ok and good.entry_play_ok
    assert good.flags == ()
    assert good.b_star_11 == pytest.approx(7.0)
    _, _, _, bad = catalog.build_investment_game(catalog.InvestmentSpec(1.0, 4.0, 12.0))
    assert not bad.dominance_ok
    assert any("dominate" in f for f in bad.flags)


def test_investment_payoff_matrix():
    env, _, _, _ = catalog.build_investment_game(catalog.InvestmentSpec(1.0, 5.5, 12.0))
    want = np.array([[2.0, 3.0], [0.5, 2.5]])
    assert env.payoff_matrix(0) == pytest.approx(want, abs=1e-9)


def test_two_situation_equilibria_and_commitment():
    env = catalog.build_two_situation_game()
    n1 = symmetric_nash(env, "G1")
    n2 = symmetric_nash(env, "G2")
    assert n1.best == ("a2",) and n1.value == pytest.approx(0.3)
    assert n2.best == ("a3",) and n2.value == pytest.approx(0.4)
    s1 = stackelberg(env, "G1")
    s2 = stackelberg(env, "G2")
    assert (s1.strategy, s1.value) == ("a2", pytest.approx(0.3))
    assert (s2.strategy, s2.value) == ("a1", pytest.approx(0.5))
    ident = check_identifiability(env)
    assert ident.situation_id and ident.stackelberg_id


def test_two_situation_tables_are_copies():
    t1, t2 = catalog.two_situation_tables()
    t1[0, 0] = 99.0
    u1, _ = catalog.two_situation_tables()
    assert u1[0, 0] != 99.0


def test_stopping_spec_validation():
    with pytest.raises(ValueError):
        catalog.CentipedeSpec(9, 1.0, 2.0)
    with pytest.raises(ValueError):
        catalog.CentipedeSpec(2, 1.0, 2.0)
    with pytest.raises(ValueError):
        catalog.CentipedeSpec(10, 0.0, 2.0)
    with pytest.raises(ValueError):
        catalog.CentipedeSpec(10, 1.0, -1.0)


def test_stopping_game_reference_point():
    report = catalog.centipede_analysis(catalog.CentipedeSpec(10, 1.0, 2.0))
    assert report.condition_holds
    assert report.maximal_continuation_verified
    assert report.binding_margin == pytest.approx(0.4, abs=1e-9)
    assert report.analogy_minimizer_x == pytest.approx(0.2, abs=1e-6)
    assert report.p_star_b == pytest.approx(0.75, abs=1e-9)
    want = np.array([[0.0, 5.5], [3.0, 4.5]])
    assert report.match_payoffs == pytest.approx(want, abs=1e-12)


def test_stopping_game_gap_is_affine():
    report = catalog.centipede_analysis(catalog.CentipedeSpec(12, 1.5, 2.5))
    g0 = report.gap(0.0)
    g1 = report.gap(1.0)
    for p in np.linspace(0.0, 1.0, 11):
        assert report.gap(p) == pytest.approx(g0 + p * (g1 - g0), abs=1e-12)


def test_stopping_game_without_growth_has_no_threshold():
    spec = catalog.CentipedeSpec(4, 1.0, 2.0)
    assert not spec.sustainable
    report = catalog.centipede_analysis(spec)
    assert not report.condition_holds
    assert report.p_star_b is None


def test_share_fitness_is_none_where_the_profile_does_not_apply():
    unverified = catalog.centipede_analysis(catalog.CentipedeSpec(4, 1.0, 2.0))
    assert not unverified.maximal_continuation_verified
    # growth exactly at the threshold: the profile verifies with zero
    # margin, but the growth condition is strict
    boundary = catalog.centipede_analysis(catalog.CentipedeSpec(4, 1.0, 1.0))
    assert boundary.maximal_continuation_verified and not boundary.condition_holds
    for report in (unverified, boundary):
        assert all(report.share_fitness(p) is None for p in np.linspace(0.0, 1.0, 101))


def test_pooled_rate_minimizes_the_pooled_stop_divergence():
    for K in range(4, 42, 2):
        report = catalog.centipede_analysis(catalog.CentipedeSpec(K, 1.0, 0.5))
        res = minimize_scalar(
            lambda x: -(K / 2.0 - 1.0) * np.log1p(-x) - np.log(x),
            bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12})
        assert res.success
        assert report.analogy_minimizer_x == pytest.approx(res.x, abs=1e-8)


def test_dollar_variant_validation_and_dominance():
    with pytest.raises(ValueError):
        catalog.dollar_analysis(4)
    with pytest.raises(ValueError):
        catalog.dollar_analysis(7)
    for K in (6, 8, 10, 12):
        report = catalog.dollar_analysis(K)
        assert report.maximal_continuation_verified
        assert report.dominance_flag
    r10 = catalog.dollar_analysis(10)
    want = np.array([[0.5, 9.5], [0.0, 5.0]])
    assert r10.match_payoffs == pytest.approx(want, abs=1e-12)


def test_grid_kernel_payoff_matrix_follows_a_new_utility_array():
    edges = np.linspace(-5.0, 15.0, 21)
    kern = catalog.GaussianGridKernel(np.array([0.0, 1.0, 2.0]), 1.0, 8.0, 2.0, edges)
    rng = np.random.default_rng(5)
    utilities = [rng.normal(size=(3, 20)).tolist() for _ in range(50)]
    wants = [np.array([kern.rows_for_own(i) @ np.array(rows[i]) for i in range(3)])
             for rows in utilities]
    # a fresh utility array may reuse a freed one's address
    for rows, want in zip(utilities, wants):
        assert np.array_equal(kern.payoff_matrix(np.array(rows)), want)
