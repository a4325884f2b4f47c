"""End-to-end acceptance checks.

One test per delivery criterion, each timed against its runtime budget.
Run with ``pytest -v`` to get a pass/fail line per criterion; each test
prints the measured values so failures are diagnosable from the log.
"""

import time

import numpy as np
import pytest

from conftest import coordination_env, random_env, random_model
from zeitgeist import catalog
from zeitgeist.inference import kl_divergence
from zeitgeist.learning import SimConfig, compare_to_ez, run_learning
from zeitgeist.models import (check_identifiability, illusion_of_control_model,
                              minimal_correct_model)
from zeitgeist.games import stackelberg, symmetric_nash
from zeitgeist.solver import (conditional_fitness, enumerate_ez, fitness,
                              match_payoffs, share_blend, verify_ez)
from zeitgeist.stability import classify_stability, detect_reversal, \
    singleton_fragility_check


def test_criterion_1_duopoly_closed_forms():
    t0 = time.perf_counter()
    spec = catalog.CournotSpec(10.0, 2.0, 1.0, 0.5)
    form = catalog.cournot_closed_form(spec)
    assert form.a_AA == pytest.approx(8.0 / 3.0, abs=1e-12)
    assert form.resident_fitness == pytest.approx(64.0 / 9.0, abs=1e-12)
    assert form.a_stack == pytest.approx(4.0, abs=1e-12)
    assert form.a_BA == pytest.approx(4.0, abs=1e-12)
    assert form.entrant_fitness == pytest.approx(8.0, abs=1e-12)
    r_hats = np.linspace(0.05, 2.0, 196)
    step = r_hats[1] - r_hats[0]
    vals = [form.entrant_fitness_at(rh) for rh in r_hats]
    peak = float(r_hats[int(np.argmax(vals))])
    assert abs(peak - 0.5) <= step + 1e-12
    elapsed = time.perf_counter() - t0
    print(f"closed forms exact; fitness peak at r_hat={peak:.4f}; "
          f"{elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_2_discretized_duopoly_converges():
    t0 = time.perf_counter()
    spec = catalog.CournotSpec(10.0, 2.0, 1.0, 0.5)
    err_aa, err_ba, steps = [], [], []
    for n in (51, 101, 201):
        grid = np.linspace(0.0, 8.0, n)
        step = float(grid[1] - grid[0])
        env, ma, mb = catalog.build_cournot_discrete(spec, grid, 200, 2.0)
        states = catalog.cournot_discrete_ez(env, ma, mb, (1.0, 0.0))
        assert states, f"no states on the {n}-point grid"
        aa = {float(grid[z.outcomes[0].quadruple[0]]) for z in states}
        ba = {float(grid[z.outcomes[0].quadruple[2]]) for z in states}
        e_aa = max(abs(v - 8.0 / 3.0) for v in aa)
        e_ba = max(abs(v - 4.0) for v in ba)
        assert e_aa <= step + 1e-12
        assert e_ba <= step + 1e-12
        err_aa.append(e_aa)
        err_ba.append(e_ba)
        steps.append(step)
    # refining the grid tightens the resident quantity strictly and never
    # worsens the entrant quantity at the finer comparison
    assert err_aa[1] <= 0.5 * err_aa[0] + 1e-12
    assert err_aa[2] <= 0.5 * err_aa[1] + 1e-12
    assert err_ba[2] <= err_ba[1] + 1e-12
    elapsed = time.perf_counter() - t0
    print(f"a_AA errors {err_aa}, a_BA errors {err_ba}, steps {steps}; "
          f"{elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_3_commitment_example_end_to_end():
    t0 = time.perf_counter()
    env = catalog.build_two_situation_game()
    n1, n2 = symmetric_nash(env, "G1"), symmetric_nash(env, "G2")
    assert (n1.value, n2.value) == (pytest.approx(0.3), pytest.approx(0.4))
    s1, s2 = stackelberg(env, "G1"), stackelberg(env, "G2")
    assert (s1.strategy, s1.value) == ("a2", pytest.approx(0.3))
    assert (s2.strategy, s2.value) == ("a1", pytest.approx(0.5))
    ident = check_identifiability(env)
    assert ident.situation_id and ident.stackelberg_id

    sep = singleton_fragility_check(env)
    assert sep.separable
    assert sep.separating_q is not None and np.all(sep.separating_q > 0)
    assert sep.margin > 0
    # the three reaction-rule families are bounded by their case points,
    # and the separating hyperplane dominates every case point
    cases = {0: (0.1, 0.55), 1: (0.3, 0.14), 2: (0.2, 0.4)}
    for rule, vals in zip(sep.rules, sep.candidate_points):
        if np.all(np.isfinite(vals)):
            bound = cases[rule[2]]
            assert vals[0] <= bound[0] + 1e-12
            assert vals[1] <= bound[1] + 1e-12
    base = float(sep.separating_q @ sep.v_ne)
    for bound in cases.values():
        assert float(sep.separating_q @ np.asarray(bound)) < base

    verdict = classify_stability(env, minimal_correct_model(env),
                                 illusion_of_control_model(env),
                                 q=(0.5, 0.5), eps_list=(0.01, 0.005, 0.001))
    assert verdict.label == "Fragile"
    elapsed = time.perf_counter() - t0
    print(f"separating q={sep.separating_q}, margin={sep.margin:.4f}, "
          f"verdict={verdict.label}; {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_4_investment_reversal():
    t0 = time.perf_counter()
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    env, ma, mb, report = catalog.build_investment_game(spec)
    assert report.dominance_ok and report.entry_play_ok

    res = detect_reversal(env, ma, mb)
    assert res.reversal

    b, c = spec.b, spec.c
    at_a = enumerate_ez(env, ma, mb, (1.0, 0.0))
    assert at_a
    for z in at_a:
        assert z.outcomes[0].quadruple == (0, 0, 1, 1)
        assert conditional_fitness(z, env, 0, "A", "A") == pytest.approx(2 * b)
        assert conditional_fitness(z, env, 0, "B", "A") == pytest.approx(6 * b - c)
        assert conditional_fitness(z, env, 0, "A", "B") == pytest.approx(3 * b)
        assert conditional_fitness(z, env, 0, "B", "B") == pytest.approx(8 * b - c)
        idx = int(np.argmax(z.outcomes[0].belief_b))
        assert mb.params[idx].label == "slope=5"     # b + m/3

    at_b = enumerate_ez(env, ma, mb, (0.0, 1.0))
    assert [z.outcomes[0].quadruple for z in at_b] == [(0, 0, 0, 1)]
    f = fitness(at_b[0], env)
    assert f[0] == pytest.approx(2 * b)
    assert f[1] == pytest.approx(8 * b - c)
    idx = int(np.argmax(at_b[0].outcomes[0].belief_b))
    assert mb.params[idx].label == "slope=4"         # b + m/4
    elapsed = time.perf_counter() - t0
    print(f"reversal confirmed; fitness at (0,1) = {tuple(f)}; {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_5_stopping_games():
    t0 = time.perf_counter()
    report = catalog.centipede_analysis(catalog.CentipedeSpec(10, 1.0, 2.0))
    assert report.condition_holds and report.maximal_continuation_verified
    assert report.analogy_minimizer_x == pytest.approx(0.2, abs=1e-6)
    assert report.p_star_b == pytest.approx(0.75, abs=1e-9)

    # the crossing share moves the intuitive way in every primitive
    Ks = (6, 8, 10, 12, 14)
    gs = (1.0, 1.5, 2.0, 2.5, 3.0)
    ls = (0.2, 0.4, 0.6, 0.8, 1.0)
    p = np.empty((5, 5, 5))
    for i, K in enumerate(Ks):
        for j, g in enumerate(gs):
            for k, l in enumerate(ls):
                rep = catalog.centipede_analysis(catalog.CentipedeSpec(K, g, l))
                assert rep.p_star_b is not None, (K, g, l)
                p[i, j, k] = rep.p_star_b
    assert np.all(np.diff(p, axis=0) > 0)        # deeper ladder
    assert np.all(np.diff(p, axis=1) > 0)        # faster growth
    assert np.all(np.diff(p, axis=2) < 0)        # harsher stopping loss

    grid = np.linspace(0.0, 1.0, 101)
    for K in (6, 8, 10, 12):
        rep = catalog.dollar_analysis(K)
        assert rep.maximal_continuation_verified
        fit = np.array([share_blend(rep.match_payoffs, (p, 1.0 - p)) for p in grid])
        assert np.all(fit[:, 0] > fit[:, 1])
    elapsed = time.perf_counter() - t0
    print(f"x=0.2, p*={report.p_star_b}, lattice monotone, dollar dominant; "
          f"{elapsed:.3f}s")
    assert elapsed < 5.0


def test_criterion_6_population_learning_at_scale():
    t0 = time.perf_counter()
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    env, ma, mb, _ = catalog.build_investment_game(spec)
    shares = (0.01, 0.99)
    cfg = SimConfig(n_agents=1000, shares=shares, horizon=5000,
                    seed=20240901, tau=0.99)
    traj = run_learning(env, ma, mb, cfg)

    states = enumerate_ez(env, ma, mb, shares)
    window = 500
    rep = compare_to_ez(traj, states, window=window)
    assert rep.modal_play == (0, 0, 0, 1)
    assert rep.converged

    # beliefs: the entrant majority pins the slope its own prices imply
    bel = traj.model_b.kernel_marginal(traj.nu_b[-1])
    idx = int(np.argmax(bel))
    assert traj.model_b.kernel_labels[idx] == "slope=4"
    assert bel[idx] >= 0.95

    # realized payoffs sit within sampling error of the state's fitness
    f = fitness(states[rep.best_index], env)
    sl = slice(traj.horizon - window, traj.horizon)
    for g in range(2):
        sample = traj.payoff[sl, g]
        sem = sample.std(ddof=1) / np.sqrt(window)
        assert abs(sample.mean() - f[g]) <= 3.0 * sem, \
            f"group {'AB'[g]}: mean {sample.mean():.4f} vs fitness {f[g]:.4f}"
    elapsed = time.perf_counter() - t0
    print(f"modal play {rep.modal_play}, belief mass {bel[idx]:.3f} on "
          f"slope=4, payoffs within 3 sigma; {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240901)

    # divergence: nonnegative, zero exactly on identity
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        assert kl_divergence(p, q) >= 0.0
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-13)

    # fitness decomposes over situations and matchups
    for trial in range(10):
        env = random_env(rng, n_strategies=2, n_consequences=3,
                         n_situations=int(rng.integers(1, 4)))
        ma = random_model(rng, env, 2, "a")
        mb = random_model(rng, env, 2, "b")
        shares = (float(rng.uniform(0.1, 0.9)), 0.0)
        shares = (shares[0], 1.0 - shares[0])
        for z in enumerate_ez(env, ma, mb, shares):
            f = fitness(z, env)
            total = np.zeros(2)
            for gi, G in enumerate(env.situations):
                sf = share_blend(match_payoffs(env, G, z.outcomes[gi].quadruple), shares)
                blend = np.array(
                    [shares[0] * conditional_fitness(z, env, G, g, "A")
                     + shares[1] * conditional_fitness(z, env, G, g, "B")
                     for g in ("A", "B")])
                assert sf == pytest.approx(blend, abs=1e-12)
                total += sf / env.n_situations
            assert f == pytest.approx(total, abs=1e-12)

    # enumeration only emits states the verifier certifies
    checked = 0
    for trial in range(40):
        env = random_env(rng, n_strategies=int(rng.integers(2, 4)),
                         n_consequences=3, n_situations=1)
        ma = random_model(rng, env, int(rng.integers(1, 4)), "a")
        mb = random_model(rng, env, int(rng.integers(1, 4)), "b")
        p = float(rng.uniform(0.0, 1.0))
        for z in enumerate_ez(env, ma, mb, (p, 1.0 - p)):
            ok, cert = verify_ez(z, env, ma, mb)
            assert ok, cert.failures()
            checked += 1

    # the state set varies upper-hemicontinuously in the share
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    env, ma, mb, _ = catalog.build_investment_game(spec)
    for p in np.linspace(0.0, 1.0, 21):
        S = {z.outcomes[0].quadruple
             for z in enumerate_ez(env, ma, mb, (p, 1.0 - p))}
        for d in (-1e-6, 1e-6):
            pp = float(p) + d
            if not 0.0 <= pp <= 1.0:
                continue
            near = {z.outcomes[0].quadruple
                    for z in enumerate_ez(env, ma, mb, (pp, 1.0 - pp))}
            assert near <= S, f"p={p}: {near} escapes {S}"

    # identical seeds give byte-identical trajectories
    cenv = coordination_env()
    cm = minimal_correct_model(cenv)
    cfg = SimConfig(n_agents=20, shares=(0.5, 0.5), horizon=100, seed=13)
    t1 = run_learning(cenv, cm, cm, cfg)
    t2 = run_learning(cenv, cm, cm, cfg)
    assert t1.alpha.tobytes() == t2.alpha.tobytes()
    assert t1.nu_a.tobytes() == t2.nu_a.tobytes()
    assert t1.nu_b.tobytes() == t2.nu_b.tobytes()
    assert t1.payoff.tobytes() == t2.payoff.tobytes()

    elapsed = time.perf_counter() - t0
    print(f"properties hold ({checked} certified states); {elapsed:.1f}s")
    assert elapsed < 120.0
