import re

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from conftest import coordination_env, random_env, random_model
from zeitgeist import catalog, cli, config
from zeitgeist.games import MonitoringStructure, StageEnv
from zeitgeist.learning import Policy, SimConfig
from zeitgeist.models import minimal_correct_model


def test_dense_env_round_trip_is_bit_exact(tmp_path):
    env = coordination_env()
    path = tmp_path / "env.yaml"
    config.save_env(env, path)
    back = config.load_env(path)
    assert back.strategies == env.strategies
    assert back.consequences == env.consequences
    assert back.situations == env.situations
    assert np.array_equal(back.utility, env.utility)
    for k1, k2 in zip(back.kernels, env.kernels):
        assert np.array_equal(k1.table, k2.table)
    assert back.monitoring.is_perfect()


def test_noisy_monitoring_round_trip(tmp_path):
    base = coordination_env()
    env = StageEnv(strategies=base.strategies, consequences=base.consequences,
                   situations=base.situations, kernels=list(base.kernels),
                   utility=base.utility,
                   monitoring=MonitoringStructure.noisy(base.strategies, 0.9))
    path = tmp_path / "env.yaml"
    config.save_env(env, path)
    back = config.load_env(path)
    assert not back.monitoring.is_perfect()
    assert np.array_equal(back.monitoring.rows, env.monitoring.rows)


def test_builder_env_round_trip_reruns_construction(tmp_path):
    spec = catalog.CournotSpec(10.0, 2.0, 1.0, 0.5)
    env, _, _ = catalog.build_cournot_discrete(spec, np.linspace(0, 8, 41), 80, 2.0)
    path = tmp_path / "env.yaml"
    config.save_env(env, path)
    doc = config.read_document(path)
    # computed kernels persist as the builder call, not as tables
    assert doc["builder"] == "cournot_discrete"
    assert "kernels" not in doc
    back = config.load_env(path)
    assert back.strategies == env.strategies
    assert np.array_equal(back.utility, env.utility)
    assert np.array_equal(back.kernel(0).payoff_matrix(back.utility),
                          env.kernel(0).payoff_matrix(env.utility))
    assert back.meta["cost"] == env.meta["cost"]
    assert back.meta["intercept_step"] == env.meta["intercept_step"]


def test_computed_kernels_need_a_builder_stamp(tmp_path):
    spec = catalog.CournotSpec(10.0, 2.0, 1.0, 0.5)
    env, _, _ = catalog.build_cournot_discrete(spec, np.linspace(0, 8, 41), 80, 2.0)
    bare = StageEnv(strategies=env.strategies, consequences=env.consequences,
                    situations=env.situations, kernels=list(env.kernels),
                    utility=env.utility)
    with pytest.raises(config.ConfigError, match="builder"):
        config.env_to_dict(bare)


def test_builder_model_round_trip(tmp_path):
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    _, _, model_b, _ = catalog.build_investment_game(spec)
    path = tmp_path / "model.yaml"
    config.save_model(model_b, path)
    back = config.load_model(path)
    assert back.label == model_b.label
    assert back.kernel_labels == model_b.kernel_labels
    assert back.n_params == model_b.n_params
    for k1, k2 in zip(back.kernels, model_b.kernels):
        assert np.array_equal(k1.table, k2.table)


def test_dense_model_round_trip_keeps_conjectures(tmp_path):
    rng = np.random.default_rng(4)
    env = random_env(rng)
    model = random_model(rng, env, 3, "sample")
    path = tmp_path / "model.yaml"
    config.save_model(model, path)
    back = config.load_model(path)
    assert back.label == model.label
    assert not back.strategic_certainty_form
    for p1, p2 in zip(back.params, model.params):
        assert p1.conj_a == p2.conj_a
        assert p1.kernel_index == p2.kernel_index
        assert np.array_equal(p1.kernel.table, p2.kernel.table)


def test_certainty_form_round_trip(tmp_path):
    spec = catalog.CournotSpec(10.0, 2.0, 1.0, 0.5)
    _, model_a, _ = catalog.build_cournot_discrete(
        spec, np.linspace(0, 8, 41), 80, 2.0)
    assert model_a.strategic_certainty_form
    path = tmp_path / "model.yaml"
    config.save_model(model_a, path)
    back = config.load_model(path)
    assert back.strategic_certainty_form
    assert back.kernel_labels == model_a.kernel_labels


def test_sim_round_trip_with_all_options(tmp_path):
    cfg = SimConfig(n_agents=50, shares=(1.0 / 3.0, 2.0 / 3.0), horizon=250,
                    seed=99, tau=0.97,
                    policy=Policy(burn_in=7, eps0=0.2, kappa=40.0),
                    prior_a=np.array([0.25, 0.75]),
                    prior_b=np.array([0.1, 0.2, 0.7]),
                    q=(0.3, 0.7), situation_period=25)
    path = tmp_path / "sim.yaml"
    config.save_sim(cfg, path)
    back = config.load_sim(path)
    assert back.n_agents == cfg.n_agents
    assert back.shares == cfg.shares
    assert back.horizon == cfg.horizon and back.seed == cfg.seed
    assert back.tau == cfg.tau
    assert back.policy == cfg.policy
    assert np.array_equal(back.prior_a, cfg.prior_a)
    assert np.array_equal(back.prior_b, cfg.prior_b)
    assert back.q == cfg.q
    assert back.situation_period == cfg.situation_period


_UNIT = st.floats(0.0, 1.0)
_MASSES = st.lists(st.floats(1e-12, 1.0), min_size=1, max_size=6)
_SIM_CONFIGS = st.builds(
    SimConfig,
    n_agents=st.integers(4, 10_000),
    shares=_UNIT.map(lambda a: (a, 1.0 - a)),
    horizon=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
    tau=st.floats(0.0, 1.0, exclude_max=True),
    policy=st.builds(Policy, burn_in=st.integers(0, 100), eps0=_UNIT,
                     kappa=st.floats(1e-3, 1e6)),
    prior_a=st.none() | _MASSES.map(np.array),
    prior_b=st.none() | _MASSES.map(np.array),
    q=st.none() | _MASSES.map(tuple),
    situation_period=st.none() | st.integers(1, 1000))


def _same_array(x, y):
    """Same shape, dtype and bytes; None matches only None."""
    if x is None or y is None:
        return x is y
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cfg=_SIM_CONFIGS, seed=st.integers(0, 2**32 - 1),
       shape=st.tuples(st.integers(2, 3), st.integers(2, 4), st.integers(1, 2)),
       noise=st.floats(0.0, 1.0, exclude_max=True), n_params=st.integers(1, 3))
def test_save_load_round_trip_is_bit_exact(tmp_path_factory, cfg, seed, shape,
                                           noise, n_params):
    path = tmp_path_factory.mktemp("round_trip") / "doc.yaml"

    config.save_sim(cfg, path)
    back = config.load_sim(path)
    for name in ("n_agents", "shares", "horizon", "seed", "tau", "policy", "q",
                 "situation_period"):
        assert getattr(back, name) == getattr(cfg, name), name
    assert _same_array(back.prior_a, cfg.prior_a)
    assert _same_array(back.prior_b, cfg.prior_b)

    rng = np.random.default_rng(seed)
    n, n_y, n_sit = shape
    base = random_env(rng, n, n_y, n_sit)
    env = StageEnv(strategies=base.strategies, consequences=base.consequences,
                   situations=base.situations, kernels=list(base.kernels),
                   utility=base.utility,
                   monitoring=MonitoringStructure.noisy(base.strategies, noise))
    config.save_env(env, path)
    env_back = config.load_env(path)
    assert env_back.strategies == env.strategies
    assert env_back.consequences == env.consequences
    assert env_back.situations == env.situations
    assert _same_array(env_back.utility, env.utility)
    for k1, k2 in zip(env_back.kernels, env.kernels, strict=True):
        assert _same_array(k1.table, k2.table)
    assert env_back.monitoring.signals == env.monitoring.signals
    assert _same_array(env_back.monitoring.rows, env.monitoring.rows)

    model = random_model(rng, env, n_params, "m")
    config.save_model(model, path)
    model_back = config.load_model(path)
    assert model_back.label == model.label
    assert model_back.kernel_labels == model.kernel_labels
    assert not model_back.strategic_certainty_form
    for p1, p2 in zip(model_back.params, model.params, strict=True):
        assert (p1.conj_a, p1.kernel_index, p1.label) == \
            (p2.conj_a, p2.kernel_index, p2.label)
        assert _same_array(p1.kernel.table, p2.kernel.table)


def test_sim_defaults(tmp_path):
    path = tmp_path / "sim.yaml"
    path.write_text("kind: sim\nn_agents: 10\nshares: [0.5, 0.5]\n"
                    "horizon: 5\nseed: 1\n")
    cfg = config.load_sim(path)
    assert cfg.tau == 0.99
    assert cfg.policy == Policy()
    assert cfg.prior_a is None and cfg.q is None


def test_missing_file_is_a_config_error(tmp_path):
    missing = tmp_path / "nope.yaml"
    with pytest.raises(config.ConfigError, match="nope.yaml"):
        config.load_env(missing)


def test_yaml_syntax_error_carries_line_number(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("kind: env\nstrategies: [a, b\n")
    with pytest.raises(config.ConfigError, match=r"broken\.yaml:\d+"):
        config.read_document(path)


def test_non_mapping_document_rejected(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(config.ConfigError, match="mapping"):
        config.read_document(path)


def test_kind_mismatch_rejected(tmp_path):
    env = coordination_env()
    path = tmp_path / "env.yaml"
    config.save_env(env, path)
    with pytest.raises(config.ConfigError, match="kind"):
        config.load_model(path)


def test_unknown_builder_lists_choices():
    with pytest.raises(config.ConfigError, match="two_situation"):
        config.env_from_dict({"kind": "env", "builder": "nope"}, "doc")


def test_builder_without_requested_role():
    with pytest.raises(config.ConfigError, match="component"):
        config.env_from_dict(
            {"kind": "env", "builder": "two_situation", "role": "model_a"}, "doc")


def test_model_validation_errors():
    k = [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]
    base = {"kind": "model", "label": "m", "kernels": [k],
            "kernel_labels": ["k0", "extra"]}
    with pytest.raises(config.ConfigError, match="kernel_labels"):
        config.model_from_dict(base, "doc")
    with pytest.raises(config.ConfigError, match="out of range"):
        config.model_from_dict(
            {"kind": "model", "kernels": [k],
             "params": [{"conj_a": [0, 0], "kernel": 3}]}, "doc")
    with pytest.raises(config.ConfigError, match="two entries"):
        config.model_from_dict(
            {"kind": "model", "kernels": [k],
             "params": [{"conj_a": [0, 0, 0], "kernel": 0}]}, "doc")


def test_non_finite_utility_is_a_config_error():
    doc = config.env_to_dict(coordination_env())
    doc["utility"][0][1] = float("nan")
    with pytest.raises(config.ConfigError, match="doc: .*finite"):
        config.env_from_dict(doc, "doc")


@pytest.mark.parametrize("policy", ["{kappa: 0}", "{kappa: -2}", "{kappa: .inf}",
                                    "{eps0: .nan}", "{eps0: 1.5}", "{burn_in: -1}"])
def test_invalid_policy_is_a_config_error(tmp_path, policy):
    path = tmp_path / "sim.yaml"
    path.write_text("kind: sim\nn_agents: 10\nshares: [0.5, 0.5]\n"
                    f"horizon: 5\nseed: 1\npolicy: {policy}\n")
    key = policy[1:policy.index(":")]
    with pytest.raises(config.ConfigError, match=key):
        config.load_sim(path)


def _sim_with(tmp_path, key, value):
    doc = {"n_agents": "10", "shares": "[0.5, 0.5]", "horizon": "5", "seed": "1", key: value}
    path = tmp_path / "sim.yaml"
    path.write_text("kind: sim\n" + "".join(f"{k}: {v}\n" for k, v in doc.items()))
    return path


@pytest.mark.parametrize("key, value", [("n_agents", "10.7"), ("horizon", "5.9"),
                                        ("seed", "3.2"), ("seed", ".inf"),
                                        ("n_agents", ".nan"), ("n_agents", "true"),
                                        ("horizon", "'5'"), ("situation_period", "2.5")])
def test_fractional_integer_fields_are_config_errors(tmp_path, key, value):
    path = _sim_with(tmp_path, key, value)
    with pytest.raises(config.ConfigError, match=f"{path}: {key} must be an integer"):
        config.load_sim(path)
    loaded = getattr(config.load_sim(_sim_with(tmp_path, key, "4.0")), key)
    assert type(loaded) is int and loaded == 4


def test_fractional_burn_in_is_a_config_error(tmp_path):
    path = _sim_with(tmp_path, "policy", "{burn_in: 2.5}")
    with pytest.raises(config.ConfigError, match=f"{path}: policy.burn_in must be an integer"):
        config.load_sim(path)
    assert config.load_sim(_sim_with(tmp_path, "policy", "{burn_in: 2.0}")).policy.burn_in == 2


@pytest.mark.parametrize("param", [{"conj_a": [0, 0], "kernel": 1.5},
                                   {"conj_a": [0, 0], "kernel": True},
                                   {"conj_a": [0.7, None], "kernel": 0}])
def test_fractional_model_indices_are_config_errors(param):
    k = [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]
    doc = {"kind": "model", "kernels": [k, k], "params": [param]}
    with pytest.raises(config.ConfigError, match="doc: params.0..* must be an integer"):
        config.model_from_dict(doc, "doc")
    ok = config.model_from_dict({**doc, "params": [{"conj_a": [1.0, None], "kernel": 1.0}]}, "doc")
    assert ok.params[0].conj_a == (1, None) and ok.params[0].kernel_index == 1


def test_errors_carry_a_single_location_prefix(tmp_path):
    path = tmp_path / "sim.yaml"
    path.write_text("kind: sim\nn_agents: 10\nshares: [0.5, 0.5]\n"
                    "horizon: 5\nseed: 1\ntau: 1.5\n")
    with pytest.raises(config.ConfigError) as err:
        config.load_sim(path)
    msg = str(err.value)
    assert msg.count(str(path)) == 1
    assert "tau" in msg


def test_env_kernel_that_misfits_its_labels_is_a_config_error(tmp_path):
    doc = config.env_to_dict(coordination_env())
    doc["consequences"], doc["utility"] = ["c0", "c1"], [2.0, 3.0]
    path = tmp_path / "env.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(config.ConfigError, match=f"{re.escape(str(path))}: situation G "
                                                 "has a kernel of 2 strategies and 3"):
        config.load_env(path)


def test_model_config_errors_name_their_file(tmp_path, capsys):
    env = coordination_env()
    doc = config.model_to_dict(minimal_correct_model(env))
    doc["kernels"][0][0][0] = [0.5, 0.6, 0.0]
    path = tmp_path / "model.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(config.ConfigError, match=f"{re.escape(str(path))}: kernel rows"):
        config.load_model(path)
    env_path = tmp_path / "env.yaml"
    config.save_env(env, env_path)
    assert cli.main(["solve-ez", "--env", str(env_path), "--model-a", str(path),
                     "--model-b", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"{path}: kernel rows" in capsys.readouterr().err
    # a builder's own check names the file too
    path.write_text("kind: model\nbuilder: investment\nrole: model_b\n"
                    "args: {b: -1.0, c: 5.5, m: 12.0}\n")
    with pytest.raises(config.ConfigError, match=f"{re.escape(str(path))}: price slope"):
        config.load_model(path)
