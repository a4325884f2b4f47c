import numpy as np
import pytest

from conftest import coordination_env, decision_env, mismatch_env
from zeitgeist import catalog
from zeitgeist.models import illusion_of_control_model, minimal_correct_model
from zeitgeist.stability import (
    classify_stability,
    detect_reversal,
    first_ez_selector,
    scan_stable_shares,
    singleton_fragility_check,
    stable_shares,
)


def test_classify_same_model_never_fragile():
    # groups sharing a model can still settle on different conventions,
    # but for every state favoring one group the mirror state favors the
    # other, so the verdict can never be Fragile
    env = coordination_env()
    model = minimal_correct_model(env)
    verdict = classify_stability(env, model, model)
    assert verdict.label == "Ambiguous"
    assert not verdict.is_fragile
    for ev in verdict.evidence:
        assert ev.max_gap == pytest.approx(-ev.min_gap, abs=1e-12)
    # evidence is reported from the largest invasion down
    sizes = [ev.eps for ev in verdict.evidence]
    assert sizes == sorted(sizes, reverse=True)


def test_classify_unique_equilibrium_same_model_is_stable():
    env = decision_env()
    model = minimal_correct_model(env)
    verdict = classify_stability(env, model, model)
    assert verdict.label == "Stable"
    for ev in verdict.evidence:
        assert ev.min_gap == pytest.approx(0.0, abs=1e-12)
        assert ev.max_gap == pytest.approx(0.0, abs=1e-12)


def test_classify_rejects_bad_invasion_sizes():
    env = coordination_env()
    model = minimal_correct_model(env)
    with pytest.raises(ValueError):
        classify_stability(env, model, model, eps_list=())
    with pytest.raises(ValueError):
        classify_stability(env, model, model, eps_list=(0.1, 0.0))
    with pytest.raises(ValueError):
        classify_stability(env, model, model, eps_list=(1.0,))


def test_classify_reports_no_ez():
    env = mismatch_env()
    model = minimal_correct_model(env)
    verdict = classify_stability(env, model, model, eps_list=(0.05,))
    assert verdict.label == "NoEZ"
    ev = verdict.evidence[0]
    assert ev.empty
    assert np.isnan(ev.min_gap) and np.isnan(ev.max_gap)


def test_classify_commitment_illusion_is_fragile():
    env = catalog.build_two_situation_game()
    verdict = classify_stability(env, minimal_correct_model(env),
                                 illusion_of_control_model(env),
                                 q=(0.5, 0.5), eps_list=(0.01, 0.005, 0.001))
    assert verdict.label == "Fragile"
    for ev in verdict.evidence:
        assert not ev.empty
        assert ev.max_gap < 0.0


def test_detect_reversal_on_entry_game():
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    env, model_a, model_b, _ = catalog.build_investment_game(spec)
    res = detect_reversal(env, model_a, model_b)
    assert res.reversal
    assert res.condition_majority_a and res.condition_majority_b
    assert res.states_resident_a and res.states_resident_b
    assert not res.mixture_supported_present


def test_detect_reversal_needs_one_situation():
    env = catalog.build_two_situation_game()
    model = minimal_correct_model(env)
    with pytest.raises(ValueError):
        detect_reversal(env, model, model)


def test_no_reversal_between_identical_models():
    env = coordination_env()
    model = minimal_correct_model(env)
    res = detect_reversal(env, model, model)
    assert not res.reversal


def _affine_source(intercept, slope):
    def select(p):
        return intercept + slope * p, 0.0
    return select


def test_scan_finds_downward_crossing():
    res = scan_stable_shares(_affine_source(0.5, -1.0))
    assert len(res.thresholds) == 1
    assert res.thresholds[0] == pytest.approx(0.5, abs=1e-8)


def test_scan_ignores_upward_crossing():
    res = scan_stable_shares(_affine_source(-0.5, 1.0))
    assert res.thresholds == ()


def test_scan_ignores_touching_zero():
    def source(p):
        return (p - 0.5) ** 2, 0.0
    res = scan_stable_shares(source)
    assert res.thresholds == ()


def test_scan_skips_undefined_shares():
    def source(p):
        if 0.4 < p < 0.6:
            return None
        return 0.5 - p, 0.0
    res = scan_stable_shares(source)
    assert len(res.thresholds) == 1
    # the crossing hides inside the undefined band, so the estimate can only
    # be located to that band
    assert 0.39 <= res.thresholds[0] <= 0.61
    assert np.isnan(res.gaps[45])


def test_scan_matches_stopping_game_closed_form():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 20:
        K = int(rng.integers(2, 12)) * 2 + 2
        g = float(rng.uniform(0.5, 3.0))
        l = float(rng.uniform(0.1, 2.0))
        spec = catalog.CentipedeSpec(K, g, l)
        if not spec.sustainable:
            continue
        report = catalog.centipede_analysis(spec)
        if not report.maximal_continuation_verified:
            continue
        res = scan_stable_shares(report.share_fitness)
        assert len(res.thresholds) == 1
        assert res.thresholds[0] == pytest.approx(1.0 - report.p_star_b, abs=1e-8)
        checked += 1


def test_dollar_variant_never_crosses():
    res = scan_stable_shares(catalog.dollar_analysis(10).share_fitness)
    assert res.thresholds == ()
    assert np.all(res.gaps > 0.0)


def test_stable_shares_validation():
    env = coordination_env()
    model = minimal_correct_model(env)
    with pytest.raises(ValueError):
        stable_shares(env, model, model, grid_n=5)
    with pytest.raises(ValueError):
        stable_shares(env, model, model, ez_selector="nonsense")


def test_stable_shares_flat_gap_has_no_threshold():
    env = coordination_env()
    model = minimal_correct_model(env)
    res = stable_shares(env, model, model, grid_n=21)
    assert res.thresholds == ()
    assert np.nanmax(np.abs(res.gaps)) <= 1e-12


def test_selector_returns_none_without_states():
    env = mismatch_env()
    model = minimal_correct_model(env)
    select = first_ez_selector(env, model, model)
    assert select(0.5) is None


def test_commitment_payoffs_are_separable():
    env = catalog.build_two_situation_game()
    res = singleton_fragility_check(env)
    assert res.separable
    assert res.v_ne == pytest.approx([0.3, 0.4], abs=1e-12)
    assert res.separating_q is not None
    assert np.all(res.separating_q > 0.0)
    assert res.separating_q.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.margin > 0.0
    assert res.lp_margin >= res.margin
    # every rule point must sit strictly below the protected payoff
    base = float(res.separating_q @ res.v_ne)
    for vals in res.candidate_points:
        if np.all(np.isfinite(vals)):
            assert float(res.separating_q @ vals) < base


def test_dominant_strategy_payoff_cannot_be_separated():
    env = decision_env()
    res = singleton_fragility_check(env)
    # some reaction rule replicates the equilibrium payoff exactly, so no
    # weighting can create a strict margin
    assert not res.separable
    assert res.lp_margin == pytest.approx(0.0, abs=1e-9)
    assert res.eps_tilt == 0.0
