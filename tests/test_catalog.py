import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from zeitgeist import catalog
from zeitgeist.games import StageEnv, stackelberg, symmetric_nash
from zeitgeist.inference import DataContext, kl_minimizers
from zeitgeist.models import check_identifiability
from zeitgeist.solver import enumerate_ez, share_blend, verify_ez
from zeitgeist.stability import affine_stable_shares


def test_cournot_spec_validation():
    with pytest.raises(ValueError):
        catalog.CournotSpec(2.0, 2.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        catalog.CournotSpec(10.0, 2.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        catalog.CournotSpec(10.0, 2.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        catalog.CournotSpec(10.0, 2.0, float("nan"), 0.5)
    with pytest.raises(ValueError):
        catalog.CournotSpec(10.0, 2.0, 1.0, float("nan"))


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
    with pytest.raises(ValueError):
        catalog.build_cournot_discrete(spec, np.linspace(0.0, 8.0, 41), 100, float("nan"))


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


def test_discrete_duopoly_needs_no_builder_metadata(cournot_51):
    # B's payoffs come from kernel rows and the utility, not from meta["cost"]
    spec, grid, env, model_a, model_b = cournot_51
    bare = StageEnv(strategies=env.strategies, consequences=env.consequences,
                    situations=env.situations, kernels=list(env.kernels),
                    utility=env.utility)
    assert not bare.meta
    for shares in ((1.0, 0.0), (0.0, 1.0)):
        got = catalog.cournot_discrete_ez(bare, model_a, model_b, shares)
        want = catalog.cournot_discrete_ez(env, model_a, model_b, shares)
        assert len(got) >= 1
        assert [(o.quadruple, o.belief_a.tobytes(), o.belief_b.tobytes())
                for z in got for o in z.outcomes] == \
            [(o.quadruple, o.belief_a.tobytes(), o.belief_b.tobytes())
             for z in want for o in z.outcomes]


@pytest.mark.parametrize("points, bins", [(11, 60), (11, 200), (21, 60)],
                         ids=["60", "200", "21-60"])
@pytest.mark.parametrize("shares", [(1.0, 0.0), (0.0, 1.0)])
def test_duopoly_scan_matches_generic_enumeration(points, bins, shares):
    # two independent code paths: the direct scan and the generic enumerator
    spec = catalog.CournotSpec(10.0, 2.0, 1.0, 0.5)
    env, model_a, model_b = catalog.build_cournot_discrete(
        spec, np.linspace(0.0, 8.0, points), bins, 2.0)
    direct = catalog.cournot_discrete_ez(env, model_a, model_b, shares)
    generic = enumerate_ez(env, model_a, model_b, shares)

    def keys(states):
        return sorted((o.quadruple, o.belief_a.tobytes(), o.belief_b.tobytes(),
                       tuple((c.br_slack_own, c.br_slack_cross)
                             for c in verify_ez(z, env, model_a, model_b)[1].checks))
                      for z in states for o in z.outcomes)

    assert len(direct) >= 2
    assert keys(direct) == keys(generic)


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
    with pytest.raises(ValueError):
        catalog.InvestmentSpec(float("nan"), 5.5, 12.0)
    with pytest.raises(ValueError):
        catalog.InvestmentSpec(1.0, 5.5, float("nan"))


def test_investment_rejects_nan_cost_and_noise():
    # NaN must fail at the edge: a NaN cost would reach both construction
    # warnings, and a NaN noise sd the lattice's int(floor(nan))
    with pytest.raises(ValueError, match="cost"):
        catalog.InvestmentSpec(1.0, float("nan"), 12.0)
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    for sd in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="noise_sd"):
            catalog.build_investment_game(spec, sd)


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


def test_stopping_spec_validation():
    with pytest.raises(ValueError):
        catalog.CentipedeSpec(9, 1.0, 2.0)
    with pytest.raises(ValueError):
        catalog.CentipedeSpec(2, 1.0, 2.0)
    with pytest.raises(ValueError):
        catalog.CentipedeSpec(10, 0.0, 2.0)
    with pytest.raises(ValueError):
        catalog.CentipedeSpec(10, 1.0, -1.0)
    with pytest.raises(ValueError):
        catalog.CentipedeSpec(10, float("nan"), 2.0)
    with pytest.raises(ValueError):
        catalog.CentipedeSpec(10, 1.0, float("nan"))


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

    def gap(p):
        fit = share_blend(report.match_payoffs, (p, 1.0 - p))
        return fit[0] - fit[1]

    g0 = gap(0.0)
    g1 = gap(1.0)
    for p in np.linspace(0.0, 1.0, 11):
        assert gap(p) == pytest.approx(g0 + p * (g1 - g0), abs=1e-12)


def test_stopping_game_without_growth_has_no_threshold():
    spec = catalog.CentipedeSpec(4, 1.0, 2.0)
    assert not spec.sustainable
    report = catalog.centipede_analysis(spec)
    assert not report.condition_holds
    assert report.p_star_b is None


def test_no_line_where_the_profile_does_not_apply():
    unverified = catalog.centipede_analysis(catalog.CentipedeSpec(4, 1.0, 2.0))
    assert not unverified.maximal_continuation_verified
    # growth exactly at the threshold: the profile verifies with zero
    # margin, but the growth condition is strict
    boundary = catalog.centipede_analysis(catalog.CentipedeSpec(4, 1.0, 1.0))
    assert boundary.maximal_continuation_verified and not boundary.condition_holds
    for report in (unverified, boundary):
        assert report.line_payoffs is None
        assert affine_stable_shares(report.line_payoffs).lines == (None,)


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


def _threshold_plans_verified(K, stops, z_end):
    """Is every prescribed plan of the maximal-continuation profile
    ex-ante optimal among all threshold plans under its group's conjecture?

    ``stops[k]`` is the (P1, P2) payoff pair if node k stops.  A plan is its
    first own stop node, K + 1 for never; its value is summed forward over
    the probability of reaching each node.
    """
    x, never = 2.0 / K, K + 1
    plans = {("A", "A"): (1, 2), ("A", "B"): (K - 1, K),
             ("B", "A"): (never, K), ("B", "B"): (never, K)}
    scale = max(1.0, *(abs(v) for pair in [*stops.values(), z_end] for v in pair))

    def hazard(viewer, opp, role, k):
        if viewer == "A":                    # the rival's actual plan
            return 1.0 if k >= plans[(opp, viewer)][1 - role] else 0.0
        if opp == "A":                       # pooled: stops seen at both parities
            return x
        return x if k % 2 == 0 else 0.0      # pooled: group B stops only at node K

    for (viewer, opp), prescribed in plans.items():
        for role in (0, 1):
            mine = [k for k in range(1, K + 1) if (k % 2 == 1) == (role == 0)]

            def value(first):
                reach, v = 1.0, 0.0
                for k in range(1, K + 1):
                    if k in mine:
                        if k >= first:
                            return v + reach * stops[k][role]
                    else:
                        h = hazard(viewer, opp, role, k)
                        v += reach * h * stops[k][role]
                        reach *= 1.0 - h
                return v + reach * z_end[role]

            best = max(value(first) for first in [*mine, never])
            if value(prescribed[role]) < best - 1e-9 * scale:
                return False
    return True


def test_verdicts_match_brute_force_over_threshold_plans():
    verdicts = []
    for K in (4, 6, 8, 10):
        for g in (0.1, 0.25, 0.5, 1.0, 2.0):
            for l in (0.2, 0.5, 1.0, 2.0, 4.0):
                stops = {k: ((k - 1) * g / 2, (k - 1) * g / 2) if k % 2
                         else ((k - 2) * g / 2 - l, k * g / 2 + l) for k in range(1, K + 1)}
                want = _threshold_plans_verified(K, stops, (K * g / 2, K * g / 2))
                got = catalog.centipede_analysis(catalog.CentipedeSpec(K, g, l))
                assert got.maximal_continuation_verified is want, (K, g, l)
                verdicts.append(want)
    for K in range(6, 31, 2):
        stops = {k: (float(k), 0.0) if k % 2 else (0.0, float(k)) for k in range(1, K + 1)}
        want = _threshold_plans_verified(K, stops, (K + 2.0, 0.0))
        assert catalog.dollar_analysis(K).maximal_continuation_verified is want, K
        verdicts.append(want)
    # the lattice holds unverified specs, so both verdicts are exercised
    assert 0 < sum(verdicts) < len(verdicts)
    # centipede tables with every payoff perturbed, read by _profile directly;
    # about half of them verify
    rng = np.random.default_rng(20261022)
    verdicts = []
    for _ in range(300):
        K = int(rng.choice([4, 6, 8, 10]))
        g, l = rng.uniform(0.1, 2.0), rng.uniform(0.2, 4.0)
        stops = np.zeros((K + 1, 2))
        for k in range(1, K + 1):
            stops[k] = ((k - 1) * g / 2, (k - 1) * g / 2) if k % 2 else \
                ((k - 2) * g / 2 - l, k * g / 2 + l)
        stops[1:] += rng.normal(scale=0.1 * g, size=(K, 2))
        z_end = tuple(K * g / 2 + rng.normal(scale=0.1 * g, size=2))
        want = _threshold_plans_verified(K, dict(enumerate(map(tuple, stops))), z_end)
        assert catalog._profile(stops, z_end)[0] is want, (K, stops, z_end)
        verdicts.append(want)
    assert 0.3 * len(verdicts) < sum(verdicts) < 0.7 * len(verdicts)


def test_grid_kernel_payoff_matrix_follows_a_new_utility_array():
    edges = np.linspace(-5.0, 15.0, 21)
    kern = catalog.GaussianGridKernel(np.array([0.0, 1.0, 2.0]), 1.0, 8.0,
                                      catalog.MassBank(edges, 2.0))
    rng = np.random.default_rng(5)
    utilities = [rng.normal(size=(3, 20)).tolist() for _ in range(50)]
    wants = [np.array([kern.rows_for_own(i) @ np.array(rows[i]) for i in range(3)])
             for rows in utilities]
    # a fresh utility array may reuse a freed one's address
    for rows, want in zip(utilities, wants):
        assert np.array_equal(kern.payoff_matrix(np.array(rows)), want)


def test_mass_bank_serves_rows_bit_equal_to_direct_masses(cournot_51):
    spec, grid, env, model_a, model_b = cournot_51
    truth = env.kernels[0]
    kernels = (truth, model_a.params[3].kernel, model_b.params[-2].kernel)
    mus = truth.intercept - truth.slope * (grid[7] + grid)
    with truth.bank:
        # a batch miss first, then single-row and overlapping batch hits
        batch = truth.bank.rows(mus[::2], truth.masses)
        served = [(k.rows_for_own(i), k.masses(k.intercept - k.slope * (grid[i] + grid)))
                  for k in kernels for i in (0, 7, 50)]
        singles = [(k.row(i, j), k.masses(k.mean(i, j))[0])
                   for k in kernels for i, j in ((0, 0), (7, 3), (50, 49))]
        again = truth.bank.rows(mus, truth.masses)
        assert len(truth.bank) > 0
    assert batch.tobytes() == truth.masses(mus[::2]).tobytes()
    assert again.tobytes() == truth.masses(mus).tobytes()
    for got, want in served + singles:
        assert got.tobytes() == want.tobytes()


def test_mass_bank_fill_computes_each_miss_once(cournot_51):
    spec, grid, env, model_a, model_b = cournot_51
    truth = env.kernels[0]
    mus = truth.intercept - truth.slope * (grid[7] + grid)
    calls = []

    def counted(m):
        calls.append(len(m))
        return truth.masses(m)

    assert truth.bank.fill(mus, counted) == mus.tolist() and calls == []   # no memo
    with truth.bank:
        truth.bank.fill(mus[::2], counted)
        truth.bank.fill(mus, counted)
        served = truth.bank.rows(mus, counted)
    assert calls == [26, 25]
    assert served.tobytes() == truth.masses(mus).tobytes()


def test_masses_in_chunks_equal_one_batch(cournot_51, monkeypatch):
    # 314 means, the largest per-state batch of the scan at (1, 0), go
    # through in five passes whose rows equal, byte for byte, one pass over
    # all of them and one pass per mean
    spec, grid, env, model_a, model_b = cournot_51
    truth = env.kernels[0]
    mus = np.concatenate([truth.intercept - truth.slope * (grid[i] + grid) for i in range(7)])[:314]
    chunked = truth.masses(mus)
    assert chunked.shape == (314, 200) and len(mus) > 4 * catalog.MASS_CHUNK
    monkeypatch.setattr(catalog, "MASS_CHUNK", len(mus))
    assert chunked.tobytes() == truth.masses(mus).tobytes()
    assert chunked.tobytes() == np.concatenate([truth.masses(mu) for mu in mus]).tobytes()


def _two_tail_masses(kernel, mus):
    """Bin masses from both tails at every edge, each bin taken from the
    tail its right edge lies in."""
    from scipy.special import ndtr
    z = (kernel.bank.edges[None, :] - mus[:, None]) / kernel.bank.sigma
    lower, upper = ndtr(z), ndtr(-z)
    mass = np.where(z[:, 1:] <= 0.0, lower[:, 1:] - lower[:, :-1],
                    upper[:, :-1] - upper[:, 1:])
    np.maximum(mass, 0.0, out=mass)
    return mass / mass.sum(axis=1, keepdims=True)


def test_masses_match_the_two_tail_formula(cournot_51):
    spec, grid, env, model_a, model_b = cournot_51
    truth = env.kernels[0]
    edges = truth.bank.edges
    width = edges[1] - edges[0]
    rng = np.random.default_rng(17)
    mus = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        edges - 1e-13, edges + 1e-13,
        # straddle bins: the mean inside a bin, near either edge and mid-bin
        (edges[:-1, None] + width * np.array([1e-9, 0.25, 0.5, 1.0 - 1e-9])).ravel(),
        # far tails: every edge on one side of the mean
        edges[0] - np.array([10.0, 24.0, 40.0]), edges[-1] + np.array([10.0, 24.0, 40.0]),
        rng.uniform(edges[0] - 30.0, edges[-1] + 30.0, 400),
        np.concatenate([truth.intercept - truth.slope * (grid[i] + grid) for i in range(51)]),
    ])
    got, want = truth.masses(mus), _two_tail_masses(truth, mus)
    assert np.all(np.isfinite(got))
    assert got.tobytes() == want.tobytes()


def _objective_bits(z, env, model_a, model_b):
    quad = z.outcomes[0].quadruple
    return [kl_minimizers(m, DataContext(g, z.shares, 0, quad), env).values.tobytes()
            for g, m in enumerate((model_a, model_b))]


def _scan_recording_certificates(monkeypatch, env, model_a, model_b, shares):
    """Run the scan; record each certificate it computes together with the
    number of rows its bank held at that moment, the ``masses`` calls the
    verification made, and both groups' objective values read right after."""
    seen, calls = [], []
    masses = catalog.GaussianGridKernel.masses

    def counted(self, mus):
        calls.append(len(np.atleast_1d(mus)))
        return masses(self, mus)

    def spy(z, *args):
        before = len(calls)
        ok, cert = verify_ez(z, *args)
        seen.append((z, cert, len(env.kernels[0].bank), calls[before:],
                     _objective_bits(z, *args)))
        return ok, cert

    with monkeypatch.context() as m:
        m.setattr(catalog, "verify_ez", spy)
        m.setattr(catalog.GaussianGridKernel, "masses", counted)
        states = catalog.cournot_discrete_ez(env, model_a, model_b, shares)
    return states, seen


@pytest.mark.parametrize("shares", [(1.0, 0.0), (0.0, 1.0)])
def test_mass_bank_memo_lasts_one_scan(cournot_51, monkeypatch, shares):
    spec, grid, env, model_a, model_b = cournot_51
    bank = env.kernels[0].bank
    assert all(p.kernel.bank is bank for p in model_a.params + model_b.params)
    states, seen = _scan_recording_certificates(monkeypatch, env, model_a, model_b,
                                                shares)
    assert states and len(seen) == len(states)
    assert all(rows > 0 for _, _, rows, _, _ in seen)
    # the scan fetches every row the verifier reads before it calls it
    assert [inside for _, _, _, inside, _ in seen] == [[]] * len(seen)
    assert len(bank) == 0


@pytest.mark.parametrize("shares", [(1.0, 0.0), (0.0, 1.0)])
def test_verify_without_memo_matches_the_scans_certificates(cournot_51, monkeypatch,
                                                             shares):
    spec, grid, env, model_a, model_b = cournot_51
    states, seen = _scan_recording_certificates(monkeypatch, env, model_a, model_b,
                                                shares)
    assert states

    def bits(cert):
        return [(c.minimizers, c.br_slack_own.hex(), c.br_slack_cross.hex())
                for c in cert.checks]

    # a fresh build caches no payoff matrix, so every row is computed anew
    fresh = catalog.build_cournot_discrete(spec, grid, 200, 2.0)
    for z, cert, _, _, values in seen:
        ok, again = verify_ez(z, *fresh)
        assert ok and bits(again) == bits(cert)
        assert _objective_bits(z, *fresh) == values
