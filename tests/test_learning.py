import hashlib
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from conftest import coordination_env
from zeitgeist import catalog, learning
from zeitgeist.games import StageEnv, as_weights
from zeitgeist.learning import Policy, SimConfig, compare_to_ez, run_learning
from zeitgeist.models import (Model, Parameter, illusion_of_control_model,
                              minimal_correct_model, singleton_model)
from zeitgeist.solver import enumerate_ez


def _small_config(**overrides):
    base = dict(n_agents=20, shares=(0.5, 0.5), horizon=120, seed=7)
    base.update(overrides)
    return SimConfig(**base)


@pytest.fixture(scope="module")
def coordination_run():
    env = coordination_env()
    model = minimal_correct_model(env)
    traj = run_learning(env, model, model, _small_config(horizon=300))
    return env, model, traj


def test_config_validation():
    with pytest.raises(ValueError):
        _small_config(shares=(0.6, 0.6))
    with pytest.raises(ValueError):
        _small_config(shares=(-0.1, 1.1))
    with pytest.raises(ValueError):
        _small_config(tau=1.0)
    with pytest.raises(ValueError):
        _small_config(horizon=-1)
    with pytest.raises(ValueError):
        _small_config(situation_period=0)
    with pytest.raises(ValueError):
        _small_config(n_agents=10, shares=(0.05, 0.95)).group_sizes()


def test_run_is_deterministic():
    env = coordination_env()
    model = minimal_correct_model(env)
    cfg = _small_config()
    t1 = run_learning(env, model, model, cfg)
    t2 = run_learning(env, model, model, cfg)
    assert np.array_equal(t1.situations, t2.situations)
    assert np.array_equal(t1.alpha, t2.alpha)
    assert np.array_equal(t1.nu_a, t2.nu_a)
    assert np.array_equal(t1.nu_b, t2.nu_b)
    assert np.array_equal(t1.payoff, t2.payoff)


def test_seed_moves_the_trajectory():
    env = coordination_env()
    model = minimal_correct_model(env)
    t1 = run_learning(env, model, model, _small_config(seed=7))
    t2 = run_learning(env, model, model, _small_config(seed=8))
    assert not np.array_equal(t1.alpha, t2.alpha)


def test_posteriors_stay_normalized(coordination_run):
    _, _, traj = coordination_run
    for nu in (traj.nu_a, traj.nu_b):
        assert np.all(nu >= -1e-15)
        assert np.max(np.abs(nu.sum(axis=1) - 1.0)) <= 1e-9
    # play tallies are distributions too
    sums = traj.alpha.sum(axis=-1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-9


def test_running_payoff_is_cumulative_mean(coordination_run):
    _, _, traj = coordination_run
    want = np.cumsum(traj.payoff, axis=0) / np.arange(1, traj.horizon + 1)[:, None]
    assert traj.running_payoff == pytest.approx(want, abs=1e-12)


def test_converges_to_an_enumerated_state(coordination_run):
    env, model, traj = coordination_run
    states = enumerate_ez(env, model, model, (0.5, 0.5))
    report = compare_to_ez(traj, states, window=60)
    assert report.converged
    assert report.play_mismatch == 0
    assert report.belief_tv <= 0.05
    assert report.modal_play == states[report.best_index].outcomes[0].quadruple


def test_compare_window_validation(coordination_run):
    env, model, traj = coordination_run
    states = enumerate_ez(env, model, model, (0.5, 0.5))
    with pytest.raises(ValueError):
        compare_to_ez(traj, states, window=0)
    with pytest.raises(ValueError):
        compare_to_ez(traj, states, window=traj.horizon + 1)


def test_compare_rejects_mismatched_belief_length(coordination_run):
    env, model, traj = coordination_run
    states = enumerate_ez(env, model, model, (0.5, 0.5))
    from dataclasses import replace
    # length matching neither the expanded grid nor the kernel list
    width = traj.model_a.n_params + len(traj.model_a.kernels) + 1
    bad_outcome = replace(states[0].outcomes[0],
                          belief_a=np.ones(width) / width)
    bad = replace(states[0], outcomes=(bad_outcome,))
    with pytest.raises(ValueError, match="belief length"):
        compare_to_ez(traj, [bad], window=10)


def test_horizon_zero_is_legal_and_empty():
    env = coordination_env()
    model = minimal_correct_model(env)
    traj = run_learning(env, model, model, _small_config(horizon=0))
    assert traj.horizon == 0
    assert traj.alpha.shape[0] == 0
    with pytest.raises(ValueError):
        compare_to_ez(traj, [], window=1)


def test_situation_redraw_blocks():
    env = catalog.build_two_situation_game()
    model = minimal_correct_model(env)
    cfg = _small_config(horizon=100, situation_period=25, seed=3)
    traj = run_learning(env, model, model, cfg)
    blocks = traj.situations.reshape(4, 25)
    assert np.all(blocks == blocks[:, :1])
    # a window that straddles a redraw cannot be summarized
    if len(np.unique(blocks[:, 0])) > 1:
        states = enumerate_ez(env, model, model, (0.5, 0.5))
        with pytest.raises(ValueError, match="redraw"):
            compare_to_ez(traj, states, window=60)


def test_single_situation_is_never_redrawn(coordination_run):
    _, _, traj = coordination_run
    assert np.all(traj.situations == 0)


def test_write_text_subsampling(tmp_path, coordination_run):
    _, _, traj = coordination_run
    path = tmp_path / "traj.txt"
    traj.write_text(path, every=50)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# period")
    assert len(lines) == 1 + 2 * len(range(0, traj.horizon, 50))
    with pytest.raises(ValueError):
        traj.write_text(path, every=0)


def test_exploration_policy_decays():
    pol = Policy(burn_in=5, eps0=0.4, kappa=10.0)
    eps = [pol.eps_at(t) for t in range(0, 100, 10)]
    assert eps[0] == pytest.approx(0.4)
    assert all(a > b for a, b in zip(eps, eps[1:]))


@pytest.mark.parametrize("field, value", [
    ("kappa", 0.0), ("kappa", -1.0), ("kappa", float("nan")), ("kappa", float("inf")),
    ("eps0", float("nan")), ("eps0", -0.1), ("eps0", 1.5),
    ("burn_in", -1), ("burn_in", 2.5)])
def test_policy_rejects_invalid_schedule(field, value):
    # kappa = 0 would divide by zero in eps_at at period 1
    with pytest.raises(ValueError, match=field):
        Policy(**{field: value})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_prior_is_rejected(bad):
    env = coordination_env()
    model = minimal_correct_model(env)
    prior = np.full(model.n_params, 1.0 / model.n_params)
    prior[0] = bad
    with pytest.raises(ValueError, match="prior"):
        run_learning(env, model, model, _small_config(prior_a=prior))


def test_entrant_world_learning_reaches_discount_belief():
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    env, model_a, model_b, _ = catalog.build_investment_game(spec)
    cfg = SimConfig(n_agents=60, shares=(0.05, 0.95), horizon=400, seed=11)
    traj = run_learning(env, model_a, model_b, cfg)
    states = enumerate_ez(env, model_a, model_b, (0.0, 1.0))
    report = compare_to_ez(traj, states, window=80)
    # the entrant majority settles on high investment and the slope that
    # rationalizes the prices it generates
    assert report.modal_play[3] == 1
    idx = int(np.argmax(report.kernel_belief_b))
    assert model_b.kernel_labels[idx] == "slope=4"


# ---------------------------------------------------------------------------
# the update step: a plain row-wise log-sum-exp and inverse-CDF sampling

_TRAJECTORY_FIELDS = ("situations", "alpha", "nu_a", "nu_b", "payoff",
                      "running_payoff", "restarts")


def _assert_same_trajectory(t1, t2):
    for name in _TRAJECTORY_FIELDS:
        assert getattr(t1, name).tobytes() == getattr(t2, name).tobytes(), name


def test_logsumexp_matches_scipy_on_hard_rows():
    ninf = -np.inf
    a = np.array([[0.0, 0.0, 0.0, 0.0],            # tied maxima
                  [1e3, 1e3, -2.5, ninf],          # tied large maxima, -inf
                  [-1e3, ninf, -1e3 + 1e-9, 1.0],  # scattered -inf
                  [ninf, ninf, ninf, ninf],        # whole row -inf
                  [1e3, -1e3, 999.0, 0.5],         # magnitudes up to 1e3
                  [-1e3, -1e3, -1e3, -999.5],
                  [ninf, 3.0, ninf, ninf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = learning.logsumexp(a, ((slice(None), a.shape[1]),))
        # -inf columns past each block's width do not move a bit
        padded = np.hstack([a, np.full((len(a), 3), ninf)])
        assert learning.logsumexp(padded, ((slice(0, 3), 4), (slice(3, None), 4))) \
            .tobytes() == got.tobytes()
    assert got.shape == (a.shape[0], 1)
    assert got[3, 0] == -np.inf
    np.testing.assert_allclose(got, scipy_logsumexp(a, axis=1, keepdims=True),
                               rtol=1e-12)


def test_exp_skips_only_certain_underflow():
    x = np.concatenate([np.linspace(-800.0, -700.0, 200_001),
                        [-np.inf, 0.0, -750.0, np.nextafter(-750.0, -np.inf),
                         np.nextafter(-750.0, 0.0)]])
    assert learning._exp(x).tobytes() == np.exp(x).tobytes()
    grid = x[:-5].reshape(-1, 1)
    assert learning._exp(grid).tobytes() == np.exp(grid).tobytes()
    # a NaN still reaches np.exp rather than becoming 0
    assert np.isnan(learning._exp(np.array([np.nan, -1e4]))).tolist() == [True, False]


def _trajectory_digest(traj):
    h = hashlib.sha256()
    for name in ("situations", "alpha", "payoff", "running_payoff", "restarts"):
        h.update(getattr(traj, name).tobytes())
    return h.hexdigest()


def _pinned_runs(run=run_learning):
    env, model_a, model_b, _ = catalog.build_investment_game(
        catalog.InvestmentSpec(1.0, 5.5, 12.0))
    yield "investment", run(env, model_a, model_b, SimConfig(
        n_agents=200, shares=(0.01, 0.99), horizon=300, seed=1))
    # group A holds the wider (24-parameter) grid, group B the 4-parameter one
    yield "investment_swapped", run(env, model_b, model_a, SimConfig(
        n_agents=200, shares=(0.9, 0.1), horizon=300, seed=2, tau=0.7))
    cenv = coordination_env()
    table = np.zeros((2, 2, 3))
    table[0, :, 0] = 1.0
    table[1, :, 1] = 1.0
    no_miss = singleton_model(cenv, table, label="no_miss")
    yield "traps", run(cenv, no_miss, no_miss, _small_config(horizon=60))
    two = catalog.build_two_situation_game()
    model = minimal_correct_model(two)
    yield "redraws", run(two, model, model, _small_config(
        horizon=100, situation_period=25, seed=3))
    model = minimal_correct_model(cenv)
    yield "exploration", run(cenv, model, model, _small_config(
        policy=Policy(burn_in=3, eps0=0.3, kappa=20)))


# sha256 of situations, alpha, payoff, running_payoff and restarts; once
# actions are fixed none of these needs a libm call, so the digests hold
# on any platform that breaks no argmax tie differently
_PINNED_DIGESTS = {
    "investment": "7bf3f876bd466d9ed3e6b3ee62e588cc5ea53041aea4329237ba4249803be920",
    "investment_swapped": "4f9f8b762b347cec2579452821a4def05802c9e242f37fa1ce2e826d4a8484aa",
    "traps": "c18cd63952fa9ed1d8e23806f3cf07b25141cd474141358b2e87bcb445714a37",
    "redraws": "e288ad87c7aa6f80f40cbc646e42bbba0b7fb43f18b93b1e138c1a7eac029429",
    "exploration": "35e1f801070fd2ea62822c777b8a5f7edd4288aed49e81d4f79347b9323f3f11",
}


def test_pinned_trajectory_digests():
    got = {name: _trajectory_digest(traj) for name, traj in _pinned_runs()}
    assert got == _PINNED_DIGESTS


def _reference_logsumexp(a):
    a_max = a.max(axis=1, keepdims=True)
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - shift).sum(axis=1, keepdims=True)) + shift


def _reference_run(env, model_a, model_b, cfg):
    """The earlier period loop, kept as a reference: each group normalized
    on its own, the consequence drawn by counting CDF entries below the
    draw and clamping, plain ``np.exp`` and a running payoff sum."""
    exp_a = model_a.expand_product(env)
    exp_b = model_b.expand_product(env)
    prior = (learning._expanded_prior(model_a, exp_a, cfg.prior_a),
             learning._expanded_prior(model_b, exp_b, cfg.prior_b))
    n_a, n_b = cfg.group_sizes()
    sizes = np.array((n_a, n_b))
    n_all = n_a + n_b
    group_of = np.concatenate([np.zeros(n_a, dtype=int), np.ones(n_b, dtype=int)])
    rows = (slice(0, n_a), slice(n_a, n_all))
    n = env.n_strategies
    n_p = (exp_a.n_params, exp_b.n_params)
    weights = as_weights(cfg.q, env.n_situations)
    rng = np.random.default_rng(cfg.seed)
    T = cfg.horizon
    redraw = cfg.situation_period

    log_prior = np.full((2, max(n_p)), -np.inf)
    ll_all = np.zeros((2, 2, n, len(env.consequences), max(n_p)))
    lm_all = np.zeros((2, 2, n, max(n_p)))
    pay2 = []
    for g, model in enumerate((exp_a, exp_b)):
        ll, lm, pay = learning._model_tables(model, env, cfg.tau)
        log_prior[g, :n_p[g]] = np.log(prior[g])
        ll_all[g, ..., :n_p[g]], lm_all[g, ..., :n_p[g]] = ll, lm
        pay2.append(pay)
    cdfs = {}

    log_post = log_prior[group_of]
    counts = np.zeros((n_all, 2), dtype=int)
    alpha_bin = (2 * group_of[:, None] + np.arange(2)) * n

    traj_sit = np.zeros(T, dtype=int)
    traj_alpha = np.zeros((T, 2, 2, n))
    traj_nu = [np.zeros((T, p)) for p in n_p]
    traj_pay = np.zeros((T, 2))
    traj_run = np.zeros((T, 2))
    traj_restarts = np.zeros((T, 2), dtype=int)

    gi = 0
    pay_sum = np.zeros(2)
    for t in range(T):
        if t == 0 or (redraw is not None and t % redraw == 0):
            u = rng.random()
            gi = int(np.searchsorted(np.cumsum(weights), u, side="right"))
            gi = min(gi, env.n_situations - 1)
            if t > 0:
                log_post[:] = log_prior[group_of]
                counts[:] = 0
            if gi not in cdfs:
                cdfs[gi] = np.cumsum(
                    [env.kernels[gi].rows_for_own(a) for a in range(n)], axis=2)
            cdf = cdfs[gi]

        explore = rng.integers(0, n, size=(n_all, 2))
        uniform = rng.random(6 * n_all)
        eps_u = uniform[:2 * n_all].reshape(n_all, 2)
        og_u, oi_u, y_u, m_v = uniform[2 * n_all:].reshape(4, n_all)
        m_w = rng.integers(0, n, size=n_all)

        post = np.exp(log_post)
        myopic = np.empty((n_all, 2), dtype=int)
        for g in range(2):
            view = post[rows[g], :n_p[g]]
            myopic[rows[g]] = np.argmax((view @ pay2[g]).reshape(-1, 2, n), axis=2)
            traj_nu[g][t] = view.sum(axis=0) / sizes[g]
        explored = (counts < cfg.policy.burn_in) | (eps_u < cfg.policy.eps_at(t))
        act = np.where(explored, explore, myopic)
        traj_alpha[t] = np.bincount((alpha_bin + act).ravel(), minlength=4 * n) \
            .reshape(2, 2, n) / sizes[:, None, None]

        opp_group = (og_u >= cfg.shares[0]).astype(int)
        pool = sizes[opp_group]
        opp_idx = np.minimum((oi_u * pool).astype(int), pool - 1) + n_a * opp_group
        a_own = act[np.arange(n_all), opp_group]
        a_opp = act[opp_idx, group_of]

        cum = cdf[a_own, a_opp]
        y = np.minimum((y_u[:, None] > cum).sum(axis=1), cum.shape[1] - 1)
        m = np.where(m_v < cfg.tau, a_opp, m_w)

        realized = env.utility[a_own, y]
        log_post += ll_all[group_of, opp_group, a_own, y] + lm_all[group_of, opp_group, m]
        norm = np.concatenate([_reference_logsumexp(log_post[r, :p])
                               for r, p in zip(rows, n_p)])
        traj_pay[t] = [realized[r].sum() / size for r, size in zip(rows, sizes)]
        dead = ~np.isfinite(norm[:, 0])
        if dead.any():
            log_post[dead] = log_prior[group_of[dead]]
            norm[dead] = 0.0
            traj_restarts[t] = np.bincount(group_of[dead], minlength=2)
        log_post -= norm
        counts[np.arange(n_all), opp_group] += 1

        pay_sum += traj_pay[t]
        traj_sit[t] = gi
        traj_run[t] = pay_sum / (t + 1)

    return learning.LearningTrajectory(traj_sit, traj_alpha, traj_nu[0], traj_nu[1],
                                       traj_pay, traj_run, traj_restarts, exp_a, exp_b, cfg)


def _zero_mass_env():
    # three strategies, five consequences, a third of the masses zero and
    # the last consequence impossible after strategy s0
    rng = np.random.default_rng(5)
    masses = rng.dirichlet(np.ones(5), size=(3, 3))
    masses[rng.random(masses.shape) < 0.35] = 0.0
    masses[..., 0] += 0.1
    masses[0, :, -1] = 0.0
    masses /= masses.sum(axis=-1, keepdims=True)
    return StageEnv([f"s{i}" for i in range(3)], [f"c{i}" for i in range(5)], ["G"],
                    [masses], rng.normal(size=(3, 5)))


def _oracle_runs(run):
    yield from _pinned_runs(run)
    env = _zero_mass_env()
    yield "zero_mass", run(env, illusion_of_control_model(env, 1e-4),
                           minimal_correct_model(env),
                           SimConfig(n_agents=30, shares=(0.4, 0.6), horizon=200, seed=4,
                                     tau=0.6, policy=Policy(burn_in=2, eps0=0.1, kappa=30)))


def test_period_loop_matches_the_reference_loop_bit_for_bit():
    # every field, nu included: the pinned digests leave nu out for
    # portability, this test covers it on the machine it runs on
    for (name, got), (_, want) in zip(_oracle_runs(run_learning),
                                       _oracle_runs(_reference_run)):
        for field in _TRAJECTORY_FIELDS:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), \
                (name, field)


def test_capped_cdf_draw_equals_the_clamped_count():
    # the first entry >= u of a CDF row whose last entry is +inf is the
    # count of entries below u clamped to n_y - 1, however the row's
    # rounded last entry falls
    rng = np.random.default_rng(11)
    for _ in range(60):
        n, n_y = int(rng.integers(2, 9)), int(rng.integers(2, 101))
        masses = rng.dirichlet(np.ones(n_y), size=(n, n))
        masses[rng.random(masses.shape) < 0.3] = 0.0
        cum = np.cumsum(masses, axis=2)
        last = rng.integers(0, 3, size=(n, n))
        cum[..., -1] = np.where(last == 0, np.nextafter(1.0, 0.0),
                                np.where(last == 1, np.nextafter(1.0, 2.0), cum[..., -1]))
        capped = cum.copy()
        capped[..., -1] = np.inf
        values = np.unique(cum)
        u = np.concatenate([rng.random(500), values, np.nextafter(values, np.inf)])
        a_own = rng.integers(0, n, size=len(u))
        a_opp = rng.integers(0, n, size=len(u))
        want = np.minimum((u[:, None] > cum[a_own, a_opp]).sum(axis=1), n_y - 1)
        got = learning._inverse_cdf(capped[a_own, a_opp], u)
        assert np.array_equal(got, want)


def _investment_run(env=None):
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    inv_env, model_a, model_b, _ = catalog.build_investment_game(spec)
    cfg = SimConfig(n_agents=60, shares=(0.05, 0.95), horizon=150, seed=11)
    return run_learning(env or inv_env, model_a, model_b, cfg)


class _RowsOnlyKernel:
    """A true kernel that serves rows but has no dense ``table``."""

    def __init__(self, dense):
        self._dense = dense
        self.n_strategies = dense.n_strategies

    def row(self, i, j):
        return self._dense.row(i, j)

    def rows_for_own(self, i):
        return self._dense.rows_for_own(i)

    def payoff_matrix(self, utility):
        return self._dense.payoff_matrix(utility)


def _rows_only_twin(env):
    return StageEnv(env.strategies, env.consequences, env.situations,
                    [_RowsOnlyKernel(k) for k in env.kernels], env.utility,
                    env.monitoring)


def test_kernel_without_table_samples_like_its_dense_twin():
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    env, _, _, _ = catalog.build_investment_game(spec)
    _assert_same_trajectory(_investment_run(_rows_only_twin(env)), _investment_run(env))

    env = catalog.build_two_situation_game()
    model = minimal_correct_model(env)
    cfg = _small_config(horizon=100, situation_period=25, seed=3)
    _assert_same_trajectory(run_learning(_rows_only_twin(env), model, model, cfg),
                            run_learning(env, model, model, cfg))


def test_zero_likelihood_traps_are_counted_and_restarted():
    env = coordination_env()
    # consequence follows own action only, so a miss (c2) has zero mass
    # under every parameter and wipes every posterior that sees one
    table = np.zeros((2, 2, 3))
    table[0, :, 0] = 1.0
    table[1, :, 1] = 1.0
    model = singleton_model(env, table, label="no_miss")
    traj = run_learning(env, model, model, _small_config(horizon=60))
    assert traj.restarts.shape == (60, 2)
    assert np.issubdtype(traj.restarts.dtype, np.integer)
    assert traj.restarts.sum() > 0
    for nu in (traj.nu_a, traj.nu_b):
        assert np.all(np.isfinite(nu))
        assert np.max(np.abs(nu.sum(axis=1) - 1.0)) <= 1e-9


def test_explicit_model_with_free_conjecture_is_rejected():
    env = coordination_env()
    correct = minimal_correct_model(env)
    kernel = correct.kernels[0]
    params = [Parameter((0, 1), kernel, 0, "fixed"), Parameter((None, 1), kernel, 0, "free")]
    free = Model("half_free", params, strategic_certainty_form=False,
                 kernels=[kernel], kernel_labels=["k0"])
    with pytest.raises(ValueError, match=r"model 'half_free' parameter 1 .*free"):
        run_learning(env, correct, free, _small_config())
