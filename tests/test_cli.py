import filecmp

import pytest
import yaml

from conftest import coordination_env, mismatch_env
from zeitgeist import cli, config
from zeitgeist.models import minimal_correct_model


def _save_pair(env, tmp_path, stem="game"):
    env_path = tmp_path / f"{stem}_env.yaml"
    model_path = tmp_path / f"{stem}_model.yaml"
    config.save_env(env, env_path)
    config.save_model(minimal_correct_model(env), model_path)
    return str(env_path), str(model_path)


def _read_manifest(out_dir):
    with open(out_dir / "manifest.yaml") as fh:
        return yaml.safe_load(fh)


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error(capsys):
    assert cli.main(["solve-ez"]) == 1


def test_missing_input_file(tmp_path, capsys):
    rc = cli.main(["solve-ez", "--env", str(tmp_path / "nope.yaml"),
                   "--model-a", "x", "--model-b", "y",
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "nope.yaml" in capsys.readouterr().err


def test_solve_ez_outputs_and_manifest(tmp_path, capsys):
    env_path, model_path = _save_pair(coordination_env(), tmp_path)
    out = tmp_path / "run"
    rc = cli.main(["solve-ez", "--env", env_path, "--model-a", model_path,
                   "--model-b", model_path, "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "state" in stdout.lower()
    man = _read_manifest(out)
    assert man["command"].startswith("solve-ez")
    assert sorted(man["outputs"]) == ["ez.txt", "ez.yaml"]
    assert man["tool_version"] == "0.1.0"
    assert set(man["config_paths"]) == {env_path, model_path}
    for name in man["outputs"]:
        assert (out / name).exists()
    # the machine-readable mirror carries the same states
    with open(out / "ez.yaml") as fh:
        doc = yaml.safe_load(fh)
    assert doc["states"]
    assert doc["shares"] == [0.5, 0.5]


def test_solve_ez_without_states_exits_two(tmp_path, capsys):
    env_path, model_path = _save_pair(mismatch_env(), tmp_path)
    out = tmp_path / "run"
    rc = cli.main(["solve-ez", "--env", env_path, "--model-a", model_path,
                   "--model-b", model_path, "--out", str(out)])
    assert rc == 2
    # legal-but-empty still documents itself
    assert (out / "ez.txt").exists()
    with open(out / "ez.yaml") as fh:
        assert yaml.safe_load(fh)["states"] == []


def test_each_output_file_belongs_to_one_manifest(tmp_path):
    env_path, model_path = _save_pair(coordination_env(), tmp_path)
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        assert cli.main(["solve-ez", "--env", env_path, "--model-a", model_path,
                         "--model-b", model_path, "--out", str(out)]) == 0
    claimed = {}
    for out in outs:
        man = _read_manifest(out)
        for name in man["outputs"]:
            path = (out / name).resolve()
            assert path not in claimed, f"{path} claimed twice"
            claimed[path] = out
            assert path.exists()
    # manifests never list themselves
    for out in outs:
        assert "manifest.yaml" not in _read_manifest(out)["outputs"]


def test_invalid_shares_flag(tmp_path, capsys):
    env_path, model_path = _save_pair(coordination_env(), tmp_path)
    rc = cli.main(["solve-ez", "--env", env_path, "--model-a", model_path,
                   "--model-b", model_path, "--shares", "0.5,oops",
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "shares" in capsys.readouterr().err


def test_classify_prints_verdict(tmp_path, capsys):
    env_path, model_path = _save_pair(coordination_env(), tmp_path)
    rc = cli.main(["classify", "--env", env_path, "--model-a", model_path,
                   "--model-b", model_path, "--eps-list", "0.1,0.01"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Ambiguous" in out
    assert "0.1" in out and "0.01" in out


def test_build_cournot_small_grid(tmp_path, capsys):
    out = tmp_path / "cournot"
    rc = cli.main(["build-cournot", "--grid", "41", "--price-bins", "80",
                   "--out", str(out)])
    assert rc == 0
    man = _read_manifest(out)
    assert {"env.yaml", "model_a.yaml", "model_b.yaml",
            "report.txt", "report.yaml"} <= set(man["outputs"])
    env = config.load_env(out / "env.yaml")
    assert env.meta["cost"] == 2.0
    with open(out / "report.yaml") as fh:
        rep = yaml.safe_load(fh)
    assert rep["closed_form"]["a_BA"] == pytest.approx(4.0)


def test_centipede_command(capsys):
    assert cli.main(["centipede", "--k", "10", "--g", "1", "--ell", "2"]) == 0
    out = capsys.readouterr().out
    assert "0.75" in out
    assert "0.25" in out


def test_learn_is_deterministic_across_runs(tmp_path, capsys):
    env_path, model_path = _save_pair(coordination_env(), tmp_path)
    sim_path = tmp_path / "sim.yaml"
    sim_path.write_text("kind: sim\nn_agents: 16\nshares: [0.5, 0.5]\n"
                        "horizon: 80\nseed: 5\n")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        rc = cli.main(["learn", "--env", env_path, "--model-a", model_path,
                       "--model-b", model_path, "--sim", str(sim_path),
                       "--window", "20", "--out", str(out)])
        assert rc == 0
    assert filecmp.cmp(outs[0] / "trajectory.txt", outs[1] / "trajectory.txt",
                       shallow=False)
    man = _read_manifest(outs[0])
    assert man["seed"] == 5
    assert "trajectory.txt" in man["outputs"]


def test_learn_seed_override(tmp_path):
    env_path, model_path = _save_pair(coordination_env(), tmp_path)
    sim_path = tmp_path / "sim.yaml"
    sim_path.write_text("kind: sim\nn_agents: 16\nshares: [0.5, 0.5]\n"
                        "horizon: 40\nseed: 5\n")
    out = tmp_path / "o"
    rc = cli.main(["learn", "--env", env_path, "--model-a", model_path,
                   "--model-b", model_path, "--sim", str(sim_path),
                   "--seed", "77", "--out", str(out)])
    assert rc == 0
    assert _read_manifest(out)["seed"] == 77


def test_learn_zero_horizon_exits_two(tmp_path, capsys):
    env_path, model_path = _save_pair(coordination_env(), tmp_path)
    sim_path = tmp_path / "sim.yaml"
    sim_path.write_text("kind: sim\nn_agents: 16\nshares: [0.5, 0.5]\n"
                        "horizon: 0\nseed: 5\n")
    rc = cli.main(["learn", "--env", env_path, "--model-a", model_path,
                   "--model-b", model_path, "--sim", str(sim_path),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "horizon 0" in capsys.readouterr().out


def test_reproduce_subset(capsys):
    rc = cli.main(["reproduce", "--only", "cournot,dollar"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2/2 checks passed" in out


def test_reproduce_unknown_check(capsys):
    rc = cli.main(["reproduce", "--only", "bogus"])
    assert rc == 1
    assert "cournot" in capsys.readouterr().err
