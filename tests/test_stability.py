import dataclasses
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (coordination_env, decision_env, mismatch_env, random_env,
                      random_model, tie_env)
from zeitgeist import catalog, cli, inference, solver, stability
from zeitgeist.games import TOL, StageEnv, best_response_indices, slack, symmetric_nash
from zeitgeist.inference import kl_profile_tables
from zeitgeist.models import illusion_of_control_model, minimal_correct_model
from zeitgeist.solver import SituationProblem
from zeitgeist.stability import (
    affine_stable_shares,
    classify_stability,
    detect_reversal,
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
    assert verdict.label != "Fragile"
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


def test_classify_checks_every_invasion_size_before_any_work(monkeypatch):
    # a bad size anywhere in the list is refused before any situation
    # problem is built or any larger size is solved
    env = coordination_env()
    model = minimal_correct_model(env)
    builds = []
    build = stability.SituationProblem

    def counting(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(stability, "SituationProblem", counting)
    for bad in ((0.1, 0.0), (0.05, 1.0), (0.2, -0.1, 0.01)):
        with pytest.raises(ValueError):
            classify_stability(env, model, model, eps_list=bad)
    assert builds == []


def test_classify_reports_no_ez():
    env = mismatch_env()
    model = minimal_correct_model(env)
    verdict = classify_stability(env, model, model, eps_list=(0.05,))
    assert verdict.label == "NoEZ"
    ev = verdict.evidence[0]
    assert ev.empty
    assert np.isnan(ev.min_gap) and np.isnan(ev.max_gap)


def test_classify_counts_composed_states_without_wrapping():
    # 8 outcomes in each of 22 copied situations: 8^22 states, past int64
    env = _copies(coordination_env(), 22)
    model = minimal_correct_model(env)
    ev, = classify_stability(env, model, model, eps_list=(0.1,)).evidence
    assert ev.counts == (8,) * 22
    assert ev.ez_count == 8 ** 22


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


def test_reversal_flags_are_python_bools():
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    env, model_a, model_b, _ = catalog.build_investment_game(spec)
    coord = coordination_env()
    model = minimal_correct_model(coord)
    for res in (detect_reversal(env, model_a, model_b),
                detect_reversal(coord, model, model)):
        for flag in (res.reversal, res.condition_majority_a, res.condition_majority_b):
            assert type(flag) is bool


def _outcome_bytes(o):
    return o.quadruple, o.belief_a.tobytes(), o.belief_b.tobytes(), o.minimizers_a, o.minimizers_b


def _copies(env, k):
    # k equally weighted copies of the environment's situations
    return StageEnv(env.strategies, env.consequences,
                    [f"{G} copy {c}" for c in range(k) for G in env.situations],
                    env.kernels * k, env.utility, env.monitoring)


def test_reversal_with_a_duplicated_situation_matches_the_original():
    # two equally weighted copies of the investment game's one situation
    # give its flags, and its states in each copy
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    env, model_a, model_b, _ = catalog.build_investment_game(spec)
    one = detect_reversal(env, model_a, model_b)
    two = detect_reversal(_copies(env, 2), model_a, model_b)
    assert two.reversal
    for field in ("reversal", "condition_majority_a", "condition_majority_b",
                  "mixture_supported_present"):
        assert getattr(two, field) == getattr(one, field), field
    for got, want in ((two.states_resident_a, one.states_resident_a),
                      (two.states_resident_b, one.states_resident_b)):
        assert [[_outcome_bytes(o) for o in z.outcomes] for z in got] == [
            [_outcome_bytes(a.outcomes[0]), _outcome_bytes(b.outcomes[0])]
            for a in want for b in want]


def _reversal_pool():
    """(label, env, model A, model B): the commitment game against both
    entrants, the investment game once and copied twice, and 200 seeded
    random draws of 2-3 strategies and 2-3 situations."""
    env = catalog.build_two_situation_game()
    correct = minimal_correct_model(env)
    yield "commitment illusion", env, correct, illusion_of_control_model(env)
    yield "commitment correct", env, correct, correct
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    invest, model_a, model_b, _ = catalog.build_investment_game(spec)
    yield "investment", invest, model_a, model_b
    yield "investment twice", _copies(invest, 2), model_a, model_b
    rng = np.random.default_rng(2024)
    for draw in range(200):
        env = random_env(rng, n_strategies=int(rng.integers(2, 4)),
                         n_situations=int(rng.integers(2, 4)))
        model_a = random_model(rng, env, int(rng.integers(2, 6)), "a")
        yield draw, env, model_a, random_model(rng, env, int(rng.integers(2, 6)), "b")


def test_reversal_over_two_situations_matches_a_reference():
    # reference: each situation's outcome list composed in order, and both
    # conditions read from the equally weighted sum of match payoffs of
    # every composed state; at p_B = 1, B's total fitness is its payoff
    # against B.  A mixture counts only inside a composed state.  The
    # commitment game's illusion entrants have no state at p_B = 1, the
    # correct ones have 8.
    seen = {field: set() for field in ("reversal", "condition_majority_a",
                                       "condition_majority_b", "mixture_supported_present")}
    counts = {}
    for label, env, model_a, model_b in _reversal_pool():
        res = detect_reversal(env, model_a, model_b)
        w = 1.0 / env.n_situations
        want = {}
        for shares in ((1.0, 0.0), (0.0, 1.0)):
            per = [solver.enumerate_situation_ez(env, model_a, model_b, G, shares)
                   for G in env.situations]
            want[shares] = [(combo, sum(w * solver.match_payoffs(env, gi, o.quadruple)
                                        for gi, o in enumerate(combo)))
                            for combo in itertools.product(*per)]
        cond_a = bool(want[1.0, 0.0]) and all(np.all(m[0] > m[1] + TOL)
                                               for _, m in want[1.0, 0.0])
        cond_b = bool(want[0.0, 1.0]) and all(m[1, 1] > m[0, 1] + TOL
                                               for _, m in want[0.0, 1.0])
        mixture = any(o.mixture_supported for combos in want.values()
                      for combo, _ in combos for o in combo)
        got = {field: getattr(res, field) for field in seen}
        assert got == {"reversal": cond_a and cond_b, "condition_majority_a": cond_a,
                       "condition_majority_b": cond_b,
                       "mixture_supported_present": mixture}, label
        for field, value in got.items():
            seen[field].add(value)
        for states, shares in ((res.states_resident_a, (1.0, 0.0)),
                               (res.states_resident_b, (0.0, 1.0))):
            assert all(z.shares == shares for z in states)
            assert [[_outcome_bytes(o) for o in z.outcomes] for z in states] == [
                [_outcome_bytes(o) for o in combo] for combo, _ in want[shares]], label
        counts[label] = (len(res.states_resident_a), len(res.states_resident_b))
        if label == 92:
            # one situation has no outcome, another a mixture-supported one
            outcomes = res.outcomes_resident_a + res.outcomes_resident_b
            assert () in outcomes and any(o.mixture_supported for outs in outcomes for o in outs)
            assert not res.mixture_supported_present
    assert all(values == {False, True} for values in seen.values()), seen
    assert (counts["commitment illusion"], counts["commitment correct"]) == ((2, 0), (8, 8))


def test_reversal_does_not_compose_copied_situations():
    # six copies of one situation with 8 outcomes each would compose 8^6
    # states; per-situation extremes give the one-copy flags
    coord = coordination_env()
    model = minimal_correct_model(coord)
    one = detect_reversal(coord, model, model)
    six = detect_reversal(_copies(coord, 6), model, model)
    assert [len(outs) for outs in six.outcomes_resident_a] == [8] * 6
    for field in ("reversal", "condition_majority_a", "condition_majority_b",
                  "mixture_supported_present"):
        assert getattr(six, field) == getattr(one, field), field


def test_no_reversal_between_identical_models():
    env = coordination_env()
    model = minimal_correct_model(env)
    res = detect_reversal(env, model, model)
    assert not res.reversal


def _affine_source(intercept, slope):
    # match payoffs whose gap is intercept + slope * p at group A's share p
    return np.array([[intercept + slope, intercept], [0.0, 0.0]])


def test_scan_finds_downward_crossing():
    res = affine_stable_shares(_affine_source(0.5, -1.0))
    assert len(res.thresholds) == 1
    assert res.thresholds[0] == pytest.approx(0.5, abs=1e-8)


def test_scan_ignores_upward_crossing():
    res = affine_stable_shares(_affine_source(-0.5, 1.0))
    assert res.thresholds == ()


def test_scan_ignores_touching_zero():
    # two cells whose lines meet zero at their common end and rise again
    res = stability._scan_cells((0.0, 0.5, 1.0), ((0.5, -1.0), (-0.5, 1.0)))
    assert res.thresholds == ()


def test_scan_skips_undefined_shares():
    # the gap is positive, then undefined on (0.4, 0.6), then negative
    res = stability._scan_cells((0.0, 0.4, 0.6, 1.0),
                                ((0.5, -1.0), None, (0.5, -1.0)))
    assert len(res.thresholds) == 1
    # the crossing hides inside the undefined band, so the estimate can only
    # be located to that band
    assert 0.39 <= res.thresholds[0] <= 0.61
    assert res.labels == ("jump",)
    assert np.isnan(res.gaps[1]).all()
    assert res.no_state_bands == ((0.4, 0.6),)


def test_scan_labels_roots_and_jumps():
    # a root inside the first cell; then a positive cell ending at 0.7
    # followed by a negative one: a downward jump at their common end
    res = stability._scan_cells((0.0, 0.5, 0.7, 1.0),
                                ((0.2, -1.0), (-1.0, 2.0), (-1.0, 0.0)))
    assert res.thresholds == pytest.approx((0.2, 0.7))
    assert res.labels == ("root", "jump")


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
        res = affine_stable_shares(report.line_payoffs)
        assert len(res.thresholds) == 1
        assert res.thresholds[0] == pytest.approx(1.0 - report.p_star_b, abs=1e-8)
        checked += 1


def test_dollar_variant_never_crosses():
    res = affine_stable_shares(catalog.dollar_analysis(10).line_payoffs)
    assert res.thresholds == ()
    assert np.all(res.gaps > 0.0)


def test_stable_shares_flat_gap_has_no_threshold():
    env = coordination_env()
    model = minimal_correct_model(env)
    res = stable_shares(env, model, model)
    assert res.thresholds == ()
    assert np.nanmax(np.abs(res.gaps)) <= 1e-12


def test_stable_shares_without_states_is_one_band():
    env = mismatch_env()
    model = minimal_correct_model(env)
    res = stable_shares(env, model, model)
    assert res.thresholds == ()
    assert all(line is None for line in res.lines)
    assert res.no_state_bands == ((0.0, 1.0),)


def test_stable_shares_reads_each_situations_first_outcome():
    # constant utility makes every quadruple an outcome, 1296 per situation;
    # their product is past what enumerate_ez composes, but a cell's line
    # needs only each situation's first outcome
    rng = np.random.default_rng(0)
    n = 6
    env = StageEnv(strategies=[f"s{i}" for i in range(n)], consequences=["c0", "c1", "c2"],
                   situations=["G0", "G1"],
                   kernels=[rng.dirichlet(np.ones(3), size=(n, n)) for _ in range(2)],
                   utility=np.ones(3))
    model = minimal_correct_model(env)
    res = stable_shares(env, model, model)
    assert res.thresholds == ()
    assert res.lines and all(line == (0.0, 0.0) for line in res.lines)


def _scan_pairs():
    env_c = catalog.build_two_situation_game()
    env_i, ia, ib, _ = catalog.build_investment_game(catalog.InvestmentSpec(1.0, 5.5, 12.0))
    return [(env_c, minimal_correct_model(env_c), illusion_of_control_model(env_c)),
            (env_i, ia, ib)]


def _counted_builds(monkeypatch) -> list:
    """The ``SituationProblem`` builds ``stability`` makes from here on."""
    builds = []
    build = stability.SituationProblem

    def counting(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(stability, "SituationProblem", counting)
    return builds


def _result_bytes(result):
    """Every field of a share-question result, arrays and floats as bytes."""
    if dataclasses.is_dataclass(result):
        return tuple(_result_bytes(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (tuple, list)):
        return tuple(map(_result_bytes, result))
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, float):
        return float(result).hex()
    return type(result), result


def test_one_pair_builds_each_situation_once(monkeypatch):
    # classify, reversal and cells under two weightings all read the
    # problems the pair built on first use
    builds = _counted_builds(monkeypatch)
    for env, ma, mb in _scan_pairs():
        builds.clear()
        pair = stability.SharePair(env, ma, mb)
        pair.classify()
        pair.reversal()
        pair.cells()
        pair.cells(np.full(env.n_situations, 1.0 / env.n_situations))
        assert len(builds) == env.n_situations


def test_build_investment_builds_one_problem(monkeypatch, tmp_path, capsys):
    # the reversal and the share bands come from one pair's one situation
    builds = _counted_builds(monkeypatch)
    assert cli.main(["build-investment", "--out", str(tmp_path / "inv")]) == 0
    assert len(builds) == 1


def test_pair_answers_equal_the_module_functions():
    for env, ma, mb in _scan_pairs():
        q = np.arange(1.0, env.n_situations + 1.0) / sum(range(env.n_situations + 1))
        pair = stability.SharePair(env, ma, mb)
        assert _result_bytes(pair.classify(q, (0.2, 0.01))) == _result_bytes(
            classify_stability(env, ma, mb, q=q, eps_list=(0.2, 0.01)))
        assert _result_bytes(pair.classify()) == _result_bytes(classify_stability(env, ma, mb))
        assert _result_bytes(pair.reversal()) == _result_bytes(detect_reversal(env, ma, mb))
        for weights in (None, q):
            assert _result_bytes(pair.cells(weights)) == _result_bytes(
                stable_shares(env, ma, mb, q=weights))


def _cell_draws():
    """20 random problems of 2-4 strategies and 1-2 situations, from one seed."""
    rng = np.random.default_rng(1)
    draws = []
    for _ in range(20):
        env = random_env(rng, n_strategies=int(rng.integers(2, 5)),
                         n_situations=int(rng.integers(1, 3)))
        draws.append((env, random_model(rng, env, int(rng.integers(2, 7)), "a"),
                      random_model(rng, env, int(rng.integers(2, 7)), "b")))
    return draws


def _outcome_keys(problems, p):
    return [[(o.quadruple, o.belief_a.tobytes(), o.belief_b.tobytes(),
              o.minimizers_a, o.minimizers_b) for o in problem.solve((p, 1.0 - p))]
            for problem in problems]


def test_cells_hold_one_state_list():
    # at every grid share more than slack from every cell end, the states
    # equal those at the cell's midpoint, beliefs byte for byte.  Random
    # perfect-monitoring models with fixed conjectures give infinite terms.
    # The draw that reaches the belief LP most makes 13 LP calls and takes
    # about 0.05 s; the whole test takes about 0.3 s on a 2-vCPU x86_64 box.
    cases = [(*case, np.linspace(0.0, 1.0, 101)) for case in _scan_pairs()]
    cases += [(*case, np.linspace(0.0, 1.0, 11)) for case in _cell_draws()]
    compared = multi_cell = infinite = 0
    for env, ma, mb, grid in cases:
        problems = [SituationProblem(env, ma, mb, G) for G in env.situations]
        ends = np.array(stability.share_cell_ends(problems))
        multi_cell += len(ends) > 4
        infinite += any(np.isinf(kl_profile_tables(m, env, G)[..., 1 - g]).any()
                        for G in env.situations for g, m in enumerate((ma, mb)))
        at_mid = {}
        for p in grid:
            if np.min(np.abs(ends - p)) <= TOL:
                continue
            i = int(np.searchsorted(ends, p)) - 1
            if i not in at_mid:
                at_mid[i] = _outcome_keys(problems, 0.5 * (ends[i] + ends[i + 1]))
            assert _outcome_keys(problems, p) == at_mid[i]
            compared += 1
    assert multi_cell >= 16 and infinite >= 10 and compared >= 350


@pytest.fixture(scope="module")
def duopoly_11():
    return catalog.build_cournot_discrete(catalog.CournotSpec(10, 2, 1, 0.5),
                                          np.linspace(0.0, 8.0, 11), 60, 2.0)


def _solution_keys(outcomes):
    return [(o.quadruple, o.belief_a.tobytes(), o.belief_b.tobytes(), o.minimizers_a,
             o.minimizers_b, o.all_infinite_a, o.all_infinite_b, o.mixture_a, o.mixture_b)
            for o in outcomes]


def _tie_draws():
    """10 tie-rich problems of 2-4 strategies and 1-2 situations, from one seed."""
    rng = np.random.default_rng(77)
    draws = []
    for _ in range(10):
        env = tie_env(rng, n_strategies=int(rng.integers(2, 5)),
                      n_situations=int(rng.integers(1, 3)), jitter=1e-12)
        draws.append((env, random_model(rng, env, int(rng.integers(2, 6)), "a"),
                      random_model(rng, env, int(rng.integers(2, 6)), "b")))
    return draws


def test_batched_solve_equals_one_share_solves(duopoly_11, monkeypatch):
    # each share of one solve_many call gets, bit for bit, what a one-share
    # solve of a separately built problem gets.  Every batch holds the
    # shares 0 and 1; the pool problem reaches the belief LP at share 0,
    # and the duopoly's 21 shares span three chunks.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import enumerate_pool

    grid = np.linspace(0.0, 1.0, 11)
    cases = [(*case, grid) for case in _scan_pairs() + _cell_draws() + _tie_draws()]
    cases.append((*enumerate_pool()[3][:3], grid))
    cases.append((*duopoly_11, np.linspace(0.0, 1.0, 21)))
    compared = mixtures = chunked = 0
    for env, ma, mb, shares in cases:
        pairs = [(p, 1.0 - p) for p in shares]
        for G in env.situations:
            problem = SituationProblem(env, ma, mb, G)
            single = SituationProblem(env, ma, mb, G)
            chunked += len(pairs) > solver.CHUNK_ELEMENTS // max(
                tables.inf.size for tables in problem.groups)
            for pair, got in zip(pairs, problem.solve_many(pairs), strict=True):
                assert _solution_keys(got) == _solution_keys(single.solve(pair))
                compared += len(got)
                mixtures += sum(o.mixture_supported for o in got)
    assert chunked == 1 and mixtures >= 100 and compared >= 1500


def test_quadruples_equal_the_solved_outcomes(duopoly_11, monkeypatch):
    # per share, the quadruple path gives the quadruples of solve_many: the
    # same values in the same, strictly lexicographic, order, and a (0, 4)
    # array where a share has no state.  The duopoly's 21 shares span three
    # chunks; the pool problems are solved at 0, 0.37 and 1.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import enumerate_pool

    grid = np.linspace(0.0, 1.0, 11)
    cases = [(*case, grid) for case in _scan_pairs() + _cell_draws() + _tie_draws()]
    cases += [(*problem[:3], (0.0, 0.37, 1.0)) for problem in enumerate_pool()]
    cases.append((*duopoly_11, np.linspace(0.0, 1.0, 21)))
    compared = empty = 0
    for env, ma, mb, shares in cases:
        pairs = [(p, 1.0 - p) for p in shares]
        for G in env.situations:
            problem = SituationProblem(env, ma, mb, G)
            solved = problem.solve_many(pairs)
            for quads, outcomes in zip(problem.quadruples(pairs), solved, strict=True):
                rows = quads.tolist()
                assert quads.shape == (len(outcomes), 4) and quads.dtype.kind == "i"
                assert rows == [list(o.quadruple) for o in outcomes]
                assert rows == sorted(rows) and len(set(map(tuple, rows))) == len(rows)
                compared += len(quads)
                empty += not len(quads)
    assert compared >= 1600 and empty >= 80


def test_share_cells_solve_each_belief_lp_once(monkeypatch):
    # draw 27 of the reversal pool has 41 cells whose midpoints repeat
    # member sets, and its 3 situations repeat them too: the pair's one
    # store per group evaluates the belief LP once for each distinct
    # (group, triple, member set) over all cells and situations, so it makes
    # at most one LP call each, and solving the midpoints again through the
    # pair evaluates none.  Every midpoint's outcomes equal, beliefs byte
    # for byte, those of a fresh problem, which starts with no LP answers.
    env, ma, mb = next(case[1:] for case in _reversal_pool() if case[0] == 27)
    pair = stability.SharePair(env, ma, mb)
    keys, evaluated, lp_calls = set(), [], []
    run_lp, belief, real = solver._GroupCut.run_lp, solver._mixture_belief, solver.linprog

    def recording(cut, wanted):
        group = next(g for problem in pair.problems
                     for g, tables in enumerate(problem.groups) if tables is cut.tables)
        for k, x, y, z in np.argwhere(cut.needs_lp & wanted).tolist():
            keys.add((group, x, y, z, tuple(np.flatnonzero(cut.members[:, k, x, y, z]))))
        return run_lp(cut, wanted)

    monkeypatch.setattr(solver._GroupCut, "run_lp", recording)
    monkeypatch.setattr(solver, "_mixture_belief", lambda *a: evaluated.append(1) or belief(*a))
    monkeypatch.setattr(solver, "linprog", lambda *a, **k: lp_calls.append(1) or real(*a, **k))
    ends = np.array(pair.cells().ends)
    mids = [(p, 1.0 - p) for p in (ends[:-1] + ends[1:]) / 2.0]
    assert len(mids) >= 40 and len(evaluated) == len(keys) >= len(lp_calls) > 0
    again = [problem.solve_many(mids) for problem in pair.problems]
    assert len(evaluated) == len(keys)
    monkeypatch.undo()
    for G, solved in zip(env.situations, again, strict=True):
        for shares, got in zip(mids, solved, strict=True):
            assert _solution_keys(got) == _solution_keys(
                SituationProblem(env, ma, mb, G).solve(shares))


def _reference_tables(env, model, group, gi):
    """One group's tables from its own model, with the per-group formulas:
    one unsliced ``kl_profile_tables`` call and payoffs gathered per
    opponent group by ``take_along_axis``."""
    n = env.n_strategies
    table = kl_profile_tables(model, env, gi)
    diag = table[:, np.arange(n), np.arange(n), group]
    cross = table[:, :, :, 1 - group]
    pay = np.stack([p.kernel.payoff_matrix(env.utility) for p in model.params])

    def columns(og):
        conj = np.array([-1 if p.conj_a[og] is None else p.conj_a[og] for p in model.params])
        return np.where(conj[:, None] < 0, np.arange(n), conj[:, None])

    v_own, v_cross = (np.take_along_axis(pay, columns(og)[:, None, :], axis=2).transpose(0, 2, 1)
                      for og in (group, 1 - group))
    tie = slack(np.maximum(np.abs(v_own).max(axis=2)[:, :, None],
                           np.abs(v_cross).max(axis=2)[:, None, :]))
    gap_own = np.diagonal(v_own, axis1=1, axis2=2) - v_own.max(axis=2)
    gap_cross = v_cross - v_cross.max(axis=2, keepdims=True)
    ok = ((gap_own[:, :, None, None] >= -tie[:, :, None, :])
          & (gap_cross.transpose(0, 2, 1)[:, None] >= -tie[:, :, None, :]))
    return {"inf": np.isinf(diag)[:, :, None, None] | np.isinf(cross)[:, None],
            "diag": np.where(np.isinf(diag), 0.0, diag),
            "cross": np.where(np.isinf(cross), 0.0, cross),
            "v_own": v_own, "v_cross": v_cross, "ok": ok}


def test_stacked_tables_equal_per_model_tables(duopoly_11, monkeypatch):
    # each group's rows of the one stacked, sliced pass equal, byte for
    # byte, the tables built from that group's model alone in one slice.
    # The draws mix free and fixed conjectures, unequal parameter counts and
    # two situations; the duopoly's 42 stacked parameters take three slices
    # at the default bound, and every problem is also built one parameter
    # per slice.
    cases = _scan_pairs() + _cell_draws() + _tie_draws() + [duopoly_11]
    env, ma, mb = duopoly_11
    assert 2 * (ma.n_params + mb.n_params) * env.n_strategies ** 2 * len(env.consequences) \
        > 2 * inference.CHUNK_ELEMENTS
    built = []
    for bound in (inference.CHUNK_ELEMENTS, 1):
        monkeypatch.setattr(inference, "CHUNK_ELEMENTS", bound)
        built += [(env, ma, mb, gi, SituationProblem(env, ma, mb, gi))
                  for env, ma, mb in cases for gi in range(env.n_situations)]
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 2 ** 62)
    unequal = fixed = 0
    for env, ma, mb, gi, problem in built:
        unequal += ma.n_params != mb.n_params
        fixed += any(c is not None for m in (ma, mb) for p in m.params for c in p.conj_a)
        for group, (model, tables) in enumerate(zip((ma, mb), problem.groups)):
            want = _reference_tables(env, model, group, gi)
            assert tables.n_params == model.n_params
            for key, value in want.items():
                got = getattr(tables, key)
                assert got.dtype == value.dtype and got.shape == value.shape, key
                assert got.tobytes() == value.tobytes(), key
    assert len(built) >= 80 and unequal >= 40 and fixed >= 40


def test_problem_build_memory_stays_bounded(duopoly_11):
    # building both groups' tables of the 11-point duopoly in one pass, its
    # rows memoized, peaks near 7.2 MiB; one unsliced pass per group peaked
    # at 8798058 bytes (8.39 MiB), the bound
    env, ma, mb = duopoly_11
    with env.kernels[0].bank:
        SituationProblem(env, ma, mb, 0)
        tracemalloc.start()
        try:
            SituationProblem(env, ma, mb, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 8798058


def test_stable_shares_memory_stays_bounded(duopoly_11):
    # the duopoly's 1116 cell midpoints solved in one unchunked batch peak
    # near 371 MiB; in chunks the peak is the cell-end pass, near 36 MiB
    env, ma, mb = duopoly_11
    tracemalloc.start()
    try:
        with env.kernels[0].bank:
            result = stable_shares(env, ma, mb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.ends) == 1117 and peak < 40 * 2**20


def _line_tables(intercepts, slopes):
    """One group's tables with one line per parameter on a single triple:
    parameter t's objective at own share w is intercepts[t] + w slopes[t]."""
    tables = object.__new__(solver._GroupTables)
    tables.cross = np.asarray(intercepts, dtype=float)[:, None, None]          # [t, y, z]
    tables.diag = tables.cross[:, :, 0] + np.asarray(slopes, dtype=float)[:, None]    # [t, x]
    tables.n_params = len(tables.cross)
    tables.inf = np.zeros((tables.n_params, 1, 1, 1), bool)                     # [t, x, y, z]
    return tables


def test_cell_ends_merge_against_the_last_kept_end():
    # four lines whose lower envelope turns at 0.3, 0.3 + d and 0.3 + 2d,
    # d = 0.6 TOL; every other crossing lies at least 3 TOL above it.  The
    # middle turn merges into the first; the last is 1.2 TOL from it and
    # is its own end, although it lies within TOL of the middle one.
    c, d = 0.3, 0.6 * TOL
    turns = (c, c + d, c + 2 * d)
    slopes = [0.0, -10.0, -20.0, -30.0]
    intercepts = [0.0]
    for t, w in enumerate(turns):                # line t + 1 meets line t at w
        intercepts.append(intercepts[t] + w * (slopes[t] - slopes[t + 1]))
    problem = object.__new__(SituationProblem)     # its cuts come from the solver
    problem.groups = (_line_tables(intercepts, slopes), _line_tables([1.0], [0.0]))
    ends = stability.share_cell_ends([problem])
    assert len(ends) == 6
    assert ends[2:4] == pytest.approx((c, c + 2 * d), abs=1e-14)
    assert ends[3] - ends[2] > TOL


def test_investment_band_matches_the_paper():
    # entrants (group B) out-earn the residents only as a majority: below
    # the no-state band the gap is -0.5 + 0.5 p, negative until p_B < 5/9;
    # above it, 0.5 + p
    env, ia, ib = _scan_pairs()[1]
    res = stable_shares(env, ia, ib)
    assert res.thresholds == ()
    assert res.no_state_bands == (pytest.approx((4 / 9, 16 / 25), abs=TOL),)
    lo, hi = res.no_state_bands[0]
    for a, b, line in zip(res.ends[:-1], res.ends[1:], res.lines):
        if b <= lo:
            assert line == pytest.approx((-0.5, 0.5), abs=1e-12)
        elif a >= hi:
            assert line == pytest.approx((0.5, 1.0), abs=1e-12)
    assert res.ends[:4] == pytest.approx((0.0, 0.0, 1 / 9, 4 / 13), abs=TOL)
    assert res.ends[4:8] == pytest.approx((4 / 9, 5 / 9, 16 / 25, 8 / 9), abs=TOL)


def test_commitment_threshold_is_a_root():
    env, ma, mb = _scan_pairs()[0]
    res = stable_shares(env, ma, mb)
    assert res.thresholds == (pytest.approx(39 / 49, abs=TOL),)
    assert res.labels == ("root",)
    assert len(res.ends) == 14 + 4
    (band,) = res.no_state_bands
    assert band == pytest.approx((0.0, 0.404748), abs=1e-6)


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


def test_separation_lp_goes_through_solver_linprog(monkeypatch):
    calls = []
    real = solver.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "linprog", counting)
    singleton_fragility_check(catalog.build_two_situation_game())
    assert len(calls) >= 1


def _reference_rule_points(env):
    """Per-rule loop over best replies: rule b pins an outcome wherever the
    opponent's reply a_minus best-replies to b[a_minus]; the point is the
    worst such payoff, -inf where there is none."""
    n, m = env.n_strategies, env.n_situations
    replies = [[best_response_indices(env, G, a_i) for a_i in range(n)]
               for G in env.situations]
    pays = [env.payoff_matrix(G) for G in env.situations]
    rules, points = [], []
    for b in itertools.product(range(n), repeat=n):
        vals = np.full(m, -np.inf)
        for gi, pi in enumerate(pays):
            consistent = [pi[a_i, a_minus] for a_i in range(n)
                          for a_minus in replies[gi][a_i] if b[a_minus] == a_i]
            if consistent:
                vals[gi] = min(consistent)
        rules.append(b)
        points.append(vals)
    return rules, points


def _reference_margins(env, points):
    """The separation check's weights and margins with a per-rule walk:
    (separating_q, margin, eps_tilt, lp_margin)."""
    m = env.n_situations
    nash = np.array([symmetric_nash(env, G).value for G in env.situations])
    finite = [v for v in points if np.isfinite(v).all()]
    q_star, lp_margin = (solver.max_margin((nash - np.array(finite)).T) if finite
                         else (np.full(m, 1.0 / m), np.inf))

    def walk(qv):
        base, sup, worst = float(qv @ nash), qv > 0.0, np.inf
        for vals in points:
            if not np.isneginf(vals[sup]).any():
                worst = min(worst, base - float(qv[sup] @ vals[sup]))
        return worst

    if lp_margin > TOL:
        eps = 0.1
        while eps >= 1e-12:
            q_tilt = (1.0 - eps) * q_star + eps / m
            if walk(q_tilt) > TOL:
                return q_tilt, walk(q_tilt), eps, lp_margin
            eps *= 0.5
    return None, walk(q_star), 0.0, lp_margin


def test_rule_points_match_a_per_rule_loop():
    checked = tilted = 0
    for k in range(70):                  # draws 50 to 69 have 3125 rules each
        rng = np.random.default_rng(900 + k)
        env = random_env(rng, n_strategies=int(rng.integers(2, 5)) if k < 50 else 5,
                         n_situations=int(rng.integers(1, 4)))
        try:
            res = singleton_fragility_check(env)
        except ValueError:
            continue                       # no symmetric pure equilibrium
        rules, points = _reference_rule_points(env)
        assert res.rules == tuple(rules)
        assert all(type(r) is tuple and all(type(a) is int for a in r) for r in res.rules)
        assert len(res.candidate_points) == len(points)
        for got, want in zip(res.candidate_points, points):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        q, margin, eps, lp_margin = _reference_margins(env, points)
        assert (res.separating_q is None) == (q is None)
        if q is not None:
            assert res.separating_q.tobytes() == q.tobytes()
            tilted += 1
        assert (type(res.margin), res.margin.hex(), res.eps_tilt, res.lp_margin) == (
            type(margin), margin.hex(), eps, lp_margin)
        checked += 1
    assert checked >= 45 and tilted >= 6
