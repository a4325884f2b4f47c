import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from conftest import coordination_env, mismatch_env, random_env, random_model
from zeitgeist import catalog
from zeitgeist.games import MonitoringStructure, StageEnv
from zeitgeist.inference import DataContext, kl_minimizers, kl_profile_tables
from zeitgeist.models import Model, minimal_correct_model, singleton_model
from zeitgeist.solver import (
    SituationOutcome,
    SituationProblem,
    Zeitgeist,
    conditional_fitness,
    enumerate_ez,
    enumerate_situation_ez,
    fitness,
    situation_fitness,
    verify_ez,
    zeitgeist_summary,
)


def _one_hot(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def _singleton_state(env, model_a, model_b, situation, quad, i, j, shares):
    o = SituationOutcome(
        situation=situation, quadruple=quad,
        belief_a=_one_hot(model_a.n_params, i),
        belief_b=_one_hot(model_b.n_params, j),
        minimizers_a=(i,), minimizers_b=(j,),
        all_infinite_a=False, all_infinite_b=False,
        mixture_a=False, mixture_b=False)
    return Zeitgeist(tuple(shares), (o,))


def test_coordination_truth_models_reproduce_equilibria():
    env = coordination_env()
    model = minimal_correct_model(env)
    states = enumerate_ez(env, model, model, (0.5, 0.5))
    quads = sorted(z.outcomes[0].quadruple for z in states)
    # every directed matchup must be a mutual best reply, so within-group
    # play sits on an equilibrium and the cross pair coordinates on its own
    expected = sorted((i, j, j, l) for i in (0, 1) for j in (0, 1) for l in (0, 1))
    assert quads == expected
    for z in states:
        ok, cert = verify_ez(z, env, model, model)
        assert ok, cert.failures()


def test_no_state_is_legal():
    env = mismatch_env()
    model = minimal_correct_model(env)
    assert enumerate_ez(env, model, model, (0.5, 0.5)) == []


def test_enumerate_matches_brute_force_on_random_envs():
    # completeness/soundness sandwich against the independent verifier:
    # a quadruple appears in the enumeration exactly when some one-hot
    # belief pair certifies it
    rng = np.random.default_rng(7)
    for trial in range(12):
        env = random_env(rng, n_strategies=2, n_consequences=3)
        model_a = random_model(rng, env, 3, "a")
        model_b = random_model(rng, env, 3, "b")
        shares = (0.3, 0.7) if trial % 2 else (0.6, 0.4)
        found = {o.quadruple
                 for o in enumerate_situation_ez(env, model_a, model_b, "G0",
                                                 shares)}
        certified = set()
        for quad in np.ndindex(2, 2, 2, 2):
            for i in range(model_a.n_params):
                for j in range(model_b.n_params):
                    z = _singleton_state(env, model_a, model_b, "G0",
                                         tuple(int(x) for x in quad), i, j,
                                         shares)
                    ok, _ = verify_ez(z, env, model_a, model_b)
                    if ok:
                        certified.add(tuple(int(x) for x in quad))
                        break
                else:
                    continue
                break
        assert certified <= found, f"missing quadruples {certified - found}"
        # anything found beyond the one-hot certified set must be a
        # mixture-supported state and must itself verify
        for o in enumerate_situation_ez(env, model_a, model_b, "G0", shares):
            z = Zeitgeist(shares, (o,))
            ok, cert = verify_ez(z, env, model_a, model_b)
            assert ok, cert.failures()
            if o.quadruple not in certified:
                assert o.mixture_a or o.mixture_b


def test_investment_extreme_share_states():
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    env, model_a, model_b, _ = catalog.build_investment_game(spec)
    at_a = enumerate_ez(env, model_a, model_b, (1.0, 0.0))
    assert [z.outcomes[0].quadruple for z in at_a] == [(0, 0, 1, 1)]
    z = at_a[0]
    assert conditional_fitness(z, env, "market", "A", "A") == pytest.approx(2.0)
    assert conditional_fitness(z, env, "market", "B", "A") == pytest.approx(0.5)
    assert conditional_fitness(z, env, "market", "A", "B") == pytest.approx(3.0)
    assert conditional_fitness(z, env, "market", "B", "B") == pytest.approx(2.5)
    assert fitness(z, env) == pytest.approx((2.0, 0.5), abs=1e-12)
    at_b = enumerate_ez(env, model_a, model_b, (0.0, 1.0))
    assert [z.outcomes[0].quadruple for z in at_b] == [(0, 0, 0, 1)]
    assert fitness(at_b[0], env) == pytest.approx((2.0, 2.5), abs=1e-12)
    # entrant belief sits on the slope matching the data it sees
    idx = int(np.argmax(at_b[0].outcomes[0].belief_b))
    assert model_b.params[idx].label == "slope=4"


def test_fitness_decomposition():
    rng = np.random.default_rng(21)
    env = random_env(rng, n_strategies=2, n_consequences=3, n_situations=3)
    model_a = random_model(rng, env, 2, "a")
    model_b = random_model(rng, env, 2, "b")
    shares = (0.4, 0.6)
    states = enumerate_ez(env, model_a, model_b, shares)
    assert states, "fixture needs at least one state"
    q = np.array([0.2, 0.5, 0.3])
    for z in states[:5]:
        total = fitness(z, env, q)
        parts = np.zeros(2)
        for gi, G in enumerate(env.situations):
            sf = situation_fitness(z.outcomes[gi], env, G, shares)
            parts += q[gi] * sf
            # situation fitness is the share blend of conditional fitness
            blend = [shares[0] * conditional_fitness(z, env, G, "A", "A")
                     + shares[1] * conditional_fitness(z, env, G, "A", "B"),
                     shares[1] * conditional_fitness(z, env, G, "B", "B")
                     + shares[0] * conditional_fitness(z, env, G, "B", "A")]
            assert np.allclose(sf, blend, atol=1e-12)
        assert np.allclose(total, parts, atol=1e-12)


def test_singleton_models_make_play_share_invariant():
    env = coordination_env()
    model = singleton_model(env, env.kernels[0])
    reference = None
    for p in np.linspace(0.0, 1.0, 11):
        quads = sorted(z.outcomes[0].quadruple
                       for z in enumerate_ez(env, model, model, (p, 1 - p)))
        if reference is None:
            reference = quads
        assert quads == reference


def test_strategic_certainty_requires_perfect_monitoring():
    env = coordination_env()
    noisy = StageEnv(env.strategies, env.consequences, env.situations,
                     [env.kernels[0].table], env.utility,
                     monitoring=MonitoringStructure.noisy(env.strategies, 0.9))
    model = minimal_correct_model(noisy)
    with pytest.raises(ValueError):
        enumerate_ez(noisy, model, model, (0.5, 0.5))


def test_summary_is_json_ready():
    env = coordination_env()
    model = minimal_correct_model(env)
    z = enumerate_ez(env, model, model, (0.5, 0.5))[0]
    s = zeitgeist_summary(z, env, model, model)
    assert s["shares"] == [0.5, 0.5]
    assert set(s["situations"][0]["play"]) == {"a_AA", "a_AB", "a_BA", "a_BB"}


def test_shares_must_be_distribution():
    env = coordination_env()
    model = minimal_correct_model(env)
    with pytest.raises(ValueError):
        enumerate_ez(env, model, model, (0.7, 0.7))


def test_shares_off_by_more_than_the_tolerance_are_rejected_everywhere():
    # the enumerator and the verifier's data context apply one share rule,
    # so the enumerator never emits a state the verifier refuses to check
    env = coordination_env()
    model = minimal_correct_model(env)
    for bad in ((0.5, 0.5 + 5e-7), (1.0 + 1e-13, -1e-13)):
        with pytest.raises(ValueError):
            enumerate_ez(env, model, model, bad)
        with pytest.raises(ValueError):
            DataContext(0, bad, 0, (0, 0, 0, 0))
    near = (0.5, 0.5 + 5e-10)
    states = enumerate_ez(env, model, model, near)
    assert states
    assert all(verify_ez(z, env, model, model)[0] for z in states)


def test_zero_share_does_not_multiply_infinite_divergences():
    # under perfect monitoring a fixed conjecture is infinitely wrong off its
    # own column; a zero share must keep those terms infinite, not NaN
    rng = np.random.default_rng(4)
    env = random_env(rng, n_strategies=3)
    model_a = random_model(rng, env, 4, "a")
    model_b = random_model(rng, env, 4, "b")
    assert np.isinf(kl_profile_tables(model_a, env, 0)).any()
    assert np.isinf(kl_profile_tables(model_b, env, 0)).any()
    for shares in ((1.0, 0.0), (0.0, 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            states = enumerate_ez(env, model_a, model_b, shares)
        for z in states:
            ok, cert = verify_ez(z, env, model_a, model_b)
            assert ok, cert.failures()


def _problem(seed: int, n: int, n_params: int, noisy: bool, fixed: bool):
    """A random one-situation problem; ``fixed`` pins every conjecture, which
    under perfect monitoring leaves many profiles infinite for every
    parameter."""
    rng = np.random.default_rng(seed)
    env = random_env(rng, n_strategies=n)
    if noisy:
        env = StageEnv(env.strategies, env.consequences, env.situations,
                       [env.kernels[0].table], env.utility,
                       monitoring=MonitoringStructure.noisy(env.strategies, 0.8))
    models = []
    for label in "ab":
        m = random_model(rng, env, n_params, label)
        if fixed:
            params = [dataclasses.replace(p, conj_a=tuple(
                int(rng.integers(n)) if c is None else c for c in p.conj_a))
                for p in m.params]
            m = Model(m.label, params, False, m.kernels, m.kernel_labels)
        models.append(m)
    return env, models[0], models[1]


SHARE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       n_params=st.integers(1, 5), noisy=st.booleans(), fixed=st.booleans(),
       shares=st.lists(SHARE, min_size=1, max_size=6))
def test_problem_reused_across_shares_matches_fresh_enumeration(
        seed, n, n_params, noisy, fixed, shares):
    env, model_a, model_b = _problem(seed, n, n_params, noisy, fixed)
    problem = SituationProblem(env, model_a, model_b, "G0")
    for p in shares:
        got = problem.solve((p, 1.0 - p))
        want = enumerate_situation_ez(env, model_a, model_b, "G0", (p, 1.0 - p))
        assert [o.quadruple for o in got] == [o.quadruple for o in want]
        for o, w in zip(got, want):
            assert np.array_equal(o.belief_a, w.belief_a)
            assert np.array_equal(o.belief_b, w.belief_b)
            assert (o.minimizers_a, o.minimizers_b, o.all_infinite_a,
                    o.all_infinite_b, o.mixture_a, o.mixture_b) == \
                (w.minimizers_a, w.minimizers_b, w.all_infinite_a,
                 w.all_infinite_b, w.mixture_a, w.mixture_b)


def _one_hot_certified(env, model_a, model_b, shares) -> set:
    """Quadruples some one-hot belief pair certifies, by the verifier.

    The verifier checks each group's belief separately, so a pair exists
    exactly when each group has a one-hot belief passing its own check.
    """
    n = env.n_strategies
    certified = set()
    for quad in np.ndindex(n, n, n, n):
        quad = tuple(int(x) for x in quad)
        group_ok = [False, False]
        for g, size in enumerate((model_a.n_params, model_b.n_params)):
            for t in range(size):
                pair = (t, 0) if g == 0 else (0, t)
                z = _singleton_state(env, model_a, model_b, "G0", quad, *pair, shares)
                if verify_ez(z, env, model_a, model_b)[1].checks[g].ok:
                    group_ok[g] = True
                    break
            if not group_ok[g]:
                break
        if all(group_ok):
            certified.add(quad)
    return certified


def _strict_mixture_margin(env, model, group, quad, shares) -> float:
    """Largest margin by which some belief on the verifier's minimizer set
    makes the group's two actions strictly optimal (negative: none does)."""
    i, j, k, l = quad
    me_own, me_cross, opp_cross = (i, j, k) if group == 0 else (l, k, j)
    fit = kl_minimizers(model, DataContext(group, shares, 0, quad), env)
    rows = []
    for t in fit.indices:
        conj = model.params[t].conj_a
        col_own = me_own if conj[group] is None else conj[group]
        col_cross = opp_cross if conj[1 - group] is None else conj[1 - group]
        pay = model.params[t].kernel.payoff_matrix(env.utility)
        rows.append(np.concatenate([
            np.delete(pay[me_own, col_own] - pay[:, col_own], me_own),
            np.delete(pay[me_cross, col_cross] - pay[:, col_cross], me_cross)]))
    d = np.array(rows)                          # (members, alternatives)
    m = len(d)
    res = linprog(np.append(np.zeros(m), -1.0),
                  A_ub=np.hstack([-d.T, np.ones((d.shape[1], 1))]),
                  b_ub=np.zeros(d.shape[1]),
                  A_eq=np.append(np.ones(m), 0.0)[None, :], b_eq=[1.0],
                  bounds=[(0.0, 1.0)] * m + [(None, None)], method="highs")
    return float(res.x[-1])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3),
       n_params=st.integers(1, 4), noisy=st.booleans(), fixed=st.booleans(),
       p=SHARE)
def test_enumeration_sandwich_covers_noise_extremes_and_infinite_profiles(
        seed, n, n_params, noisy, fixed, p):
    # the brute-force sandwich of the random-environment test, over noisy
    # monitoring, extreme shares and pinned conjectures; an LP skipped for a
    # triple no partner completes must never drop a certified quadruple
    env, model_a, model_b = _problem(seed, n, n_params, noisy, fixed)
    shares = (p, 1.0 - p)
    outcomes = enumerate_situation_ez(env, model_a, model_b, "G0", shares)
    found = {o.quadruple for o in outcomes}
    certified = _one_hot_certified(env, model_a, model_b, shares)
    assert certified <= found, f"missing quadruples {certified - found}"
    for o in outcomes:
        ok, cert = verify_ez(Zeitgeist(shares, (o,)), env, model_a, model_b)
        assert ok, cert.failures()
        if o.quadruple not in certified:
            assert o.mixture_a or o.mixture_b
    # completeness beyond one-hot beliefs: a quadruple whose actions some
    # mixture makes strictly optimal for both groups must be enumerated
    for quad in np.ndindex(n, n, n, n):
        quad = tuple(int(x) for x in quad)
        if quad not in found:
            assert not all(_strict_mixture_margin(env, model, g, quad, shares) > 1e-9
                           for g, model in enumerate((model_a, model_b))), quad
