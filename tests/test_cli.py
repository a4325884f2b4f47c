import filecmp
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from conftest import coordination_env, mismatch_env
from zeitgeist import catalog, cli, config, reproduce
from zeitgeist.games import TOL, MonitoringStructure, StageEnv
from zeitgeist.models import illusion_of_control_model, minimal_correct_model
from zeitgeist.solver import enumerate_situation_ez, match_payoffs, share_blend


def _save_pair(env, tmp_path, stem="game"):
    env_path = tmp_path / f"{stem}_env.yaml"
    model_path = tmp_path / f"{stem}_model.yaml"
    config.save_env(env, env_path)
    config.save_model(minimal_correct_model(env), model_path)
    return str(env_path), str(model_path)


def _read_manifest(out_dir):
    with open(out_dir / "manifest.yaml") as fh:
        return yaml.safe_load(fh)


def _read_yaml(path):
    with open(path) as fh:
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
    # the machine-readable mirror carries the same outcomes
    with open(out / "ez.yaml") as fh:
        doc = yaml.safe_load(fh)
    assert list(doc) == ["shares", "counts", "count", "outcomes"]
    assert doc["outcomes"]
    assert doc["shares"] == [0.5, 0.5]


def test_solve_ez_text_is_rendered_from_its_yaml(tmp_path, capsys):
    env = catalog.build_two_situation_game()
    env_path, model_a = _save_pair(env, tmp_path)
    model_b = str(tmp_path / "entrant_model.yaml")
    config.save_model(illusion_of_control_model(env), model_b)
    out = tmp_path / "run"
    assert cli.main(["solve-ez", "--env", env_path, "--model-a", model_a,
                     "--model-b", model_b, "--shares", "0.9,0.1",
                     "--out", str(out)]) == 0
    doc = _read_yaml(out / "ez.yaml")
    assert doc["count"] == math.prod(doc["counts"]) > 0
    assert len(doc["outcomes"]) == sum(doc["counts"])
    text = (out / "ez.txt").read_text()
    assert text == capsys.readouterr().out
    # a heading line, then three lines per outcome row of the YAML
    lines = text.splitlines()
    assert lines[0].startswith(f"{doc['count']} self-confirming state(s)")
    assert len(lines) == 1 + 3 * len(doc["outcomes"])
    for row, line in zip(doc["outcomes"], lines[1::3]):
        assert line.startswith("  {}: AA={} AB={} BA={} BB={} payoffs A={:.6g} B={:.6g}".format(
            row["situation"], *row["play"], *row["payoffs"]))


def test_solve_ez_without_states_exits_two(tmp_path, capsys):
    env_path, model_path = _save_pair(mismatch_env(), tmp_path)
    out = tmp_path / "run"
    rc = cli.main(["solve-ez", "--env", env_path, "--model-a", model_path,
                   "--model-b", model_path, "--out", str(out)])
    assert rc == 2
    # legal-but-empty still documents itself
    assert (out / "ez.txt").exists()
    doc = _read_yaml(out / "ez.yaml")
    assert (doc["counts"], doc["count"], doc["outcomes"]) == ([0], 0, [])


def test_solve_ez_reports_outcomes_per_situation(tmp_path, capsys):
    # six copies of one situation have 8 outcomes each and 8**6 states;
    # the report lists the 48 outcomes and never forms the product
    base = coordination_env()
    env = StageEnv(base.strategies, base.consequences, [f"G{i}" for i in range(6)],
                   [base.kernels[0].table] * 6, base.utility)
    env_path, model_path = _save_pair(env, tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve-ez", "--env", env_path, "--model-a", model_path,
                     "--model-b", model_path, "--out", str(out)]) == 0
    doc = _read_yaml(out / "ez.yaml")
    assert doc["counts"] == [8] * 6 and doc["count"] == 8 ** 6 == 262144
    model = config.load_model(model_path)
    want = [(gi, o) for gi, G in enumerate(env.situations)
            for o in enumerate_situation_ez(env, model, model, G, (0.5, 0.5))]
    assert len(doc["outcomes"]) == len(want) == 48
    for row, (gi, o) in zip(doc["outcomes"], want):
        assert row["situation"] == o.situation
        assert row["play_indices"] == list(o.quadruple)
        assert row["play"] == [env.strategies[a] for a in o.quadruple]
        for key, w in (("belief_a", o.belief_a), ("belief_b", o.belief_b)):
            assert row[key] == {model.params[t].label or f"param_{t}": round(float(w[t]), 12)
                                for t in np.flatnonzero(w > TOL)}
        assert (row["mixture_a"], row["mixture_b"]) == (o.mixture_a, o.mixture_b)
        assert row["payoffs"] == share_blend(match_payoffs(env, gi, o.quadruple),
                                             (0.5, 0.5)).tolist()


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


def test_nan_inputs_are_input_errors(tmp_path, capsys):
    env_path, model_path = _save_pair(coordination_env(), tmp_path)
    assert cli.main(["solve-ez", "--env", env_path, "--model-a", model_path,
                     "--model-b", model_path, "--shares", "nan,1",
                     "--out", str(tmp_path / "run")]) == 1
    assert cli.main(["centipede", "--k", "10", "--g", "nan", "--ell", "2"]) == 1
    assert "nan" not in capsys.readouterr().out


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


def test_learn_on_six_situations_compares_per_situation(tmp_path, capsys):
    # six copies of one situation give 8 outcomes each and 8**6 states; the
    # command never composes them: it ranks the window situation's outcomes
    base = coordination_env()
    env = StageEnv(base.strategies, base.consequences, [f"G{i}" for i in range(6)],
                   [base.kernels[0].table] * 6, base.utility)
    env_path, model_path = _save_pair(env, tmp_path)
    sim_path = tmp_path / "sim.yaml"
    sim_path.write_text("kind: sim\nn_agents: 16\nshares: [0.5, 0.5]\n"
                        "horizon: 40\nseed: 5\n")
    out = tmp_path / "o"
    rc = cli.main(["learn", "--env", env_path, "--model-a", model_path,
                   "--model-b", model_path, "--sim", str(sim_path), "--out", str(out)])
    assert rc == 0
    assert "states found: 262144" in capsys.readouterr().out
    doc = _read_yaml(out / "comparison.yaml")
    assert doc["ez_count"] == 8 ** 6 and 0 <= doc["best_index"] < 8
    assert "trajectory.txt" in _read_manifest(out)["outputs"]


def test_learn_solver_error_writes_no_file(tmp_path, capsys):
    # a certainty-form model under noisy monitoring is refused by the solver,
    # which runs before the simulation, so nothing is simulated or written
    base = coordination_env()
    env = StageEnv(base.strategies, base.consequences, base.situations,
                   [base.kernels[0].table], base.utility,
                   monitoring=MonitoringStructure.noisy(base.strategies, 0.9))
    env_path, model_path = _save_pair(env, tmp_path)
    sim_path = tmp_path / "sim.yaml"
    sim_path.write_text("kind: sim\nn_agents: 16\nshares: [0.5, 0.5]\n"
                        "horizon: 40\nseed: 5\n")
    out = tmp_path / "o"
    rc = cli.main(["learn", "--env", env_path, "--model-a", model_path,
                   "--model-b", model_path, "--sim", str(sim_path), "--out", str(out)])
    assert rc == 1
    assert "strategic-certainty form" in capsys.readouterr().err
    assert not out.exists()


class _FullStdout:
    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


def test_outputs_are_written_before_stdout(tmp_path, monkeypatch):
    # a stdout that cannot be written still exits 1, but only after every
    # output file and the manifest that lists them are on disk
    env_path, model_path = _save_pair(coordination_env(), tmp_path)
    sim_path = tmp_path / "sim.yaml"
    sim_path.write_text("kind: sim\nn_agents: 16\nshares: [0.5, 0.5]\n"
                        "horizon: 40\nseed: 5\n")
    configs = ["--env", env_path, "--model-a", model_path, "--model-b", model_path]
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    for argv, outputs in (
            (["solve-ez", *configs], ["ez.txt", "ez.yaml"]),
            (["learn", *configs, "--sim", str(sim_path)],
             ["comparison.txt", "comparison.yaml", "trajectory.txt"])):
        out = tmp_path / argv[0]
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert _read_manifest(out)["outputs"] == outputs
        assert all((out / name).exists() for name in outputs)


@pytest.mark.parametrize("flag", ["--q", "--eps-list"])
def test_classify_refuses_an_empty_list(tmp_path, capsys, flag):
    # an empty value is an input error, not a request for the default
    env_path, model_path = _save_pair(coordination_env(), tmp_path)
    rc = cli.main(["classify", "--env", env_path, "--model-a", model_path,
                   "--model-b", model_path, flag, ""])
    assert rc == 1
    assert flag in capsys.readouterr().err


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


@pytest.mark.parametrize("extra, key", [("policy: {kappa: 0}\n", "kappa"),
                                        ("prior_a: [.nan]\n", "prior")],
                         ids=["zero_kappa", "nan_prior"])
def test_learn_rejects_invalid_sim_inputs(tmp_path, capsys, extra, key):
    # kappa = 0 would divide by zero in eps_at, and a NaN prior would run
    # to completion with NaN posteriors
    env_path, model_path = _save_pair(coordination_env(), tmp_path)
    sim_path = tmp_path / "sim.yaml"
    sim_path.write_text("kind: sim\nn_agents: 16\nshares: [0.5, 0.5]\n"
                        "horizon: 40\nseed: 5\n" + extra)
    rc = cli.main(["learn", "--env", env_path, "--model-a", model_path,
                   "--model-b", model_path, "--sim", str(sim_path),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert key in capsys.readouterr().err


def test_learn_rejects_a_fractional_agent_count(tmp_path, capsys):
    env_path, model_path = _save_pair(coordination_env(), tmp_path)
    sim_path = tmp_path / "sim.yaml"
    sim_path.write_text("kind: sim\nn_agents: 16.5\nshares: [0.5, 0.5]\n"
                        "horizon: 40\nseed: 5\n")
    rc = cli.main(["learn", "--env", env_path, "--model-a", model_path,
                   "--model-b", model_path, "--sim", str(sim_path),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "n_agents must be an integer, got 16.5" in capsys.readouterr().err


def test_reproduce_subset(capsys):
    rc = cli.main(["reproduce", "--only", "cournot,dollar"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2/2 checks passed" in out


def test_reproduce_table_catches_a_broken_fixture(monkeypatch):
    # the second situation made a shifted copy of the first: commitment no
    # longer pays anywhere, so only the rows reading that fixture fail
    s1 = catalog.build_two_situation_game().kernels[0].table[:, :, 0]
    kernels = [np.stack([t, 1.0 - t], axis=2) for t in (s1, s1 + 0.05)]
    broken = StageEnv(["a1", "a2", "a3"], ["success", "failure"], ["G1", "G2"],
                      kernels, np.array([1.0, 0.0]))
    monkeypatch.setattr(catalog, "build_two_situation_game", lambda: broken)
    rows = reproduce.run_all()
    assert {r.name: r.ok for r in rows} == {
        "cournot": True, "separation": False, "fragility": False, "reversal": True,
        "centipede": True, "dollar": True, "learning": True}
    failed = {r.name: r.actual for r in rows if not r.ok}
    assert "separable=False" in failed["separation"]
    assert failed["fragility"] == "label=Ambiguous"


def test_reproduce_unknown_check(capsys):
    rc = cli.main(["reproduce", "--only", "bogus"])
    assert rc == 1
    assert "cournot" in capsys.readouterr().err


def test_learn_reports_posterior_restarts(tmp_path, capsys):
    env_path, model_path = _save_pair(coordination_env(), tmp_path)
    sim_path = tmp_path / "sim.yaml"
    sim_path.write_text("kind: sim\nn_agents: 16\nshares: [0.5, 0.5]\n"
                        "horizon: 40\nseed: 5\n")
    out = tmp_path / "o"
    rc = cli.main(["learn", "--env", env_path, "--model-a", model_path,
                   "--model-b", model_path, "--sim", str(sim_path),
                   "--out", str(out)])
    assert rc == 0
    # deterministic consequences: an agent that meets both opponent actions
    # of one group during burn-in rules out every conjecture about it
    stats = _read_manifest(out)["stats"]
    counts = stats["posterior_restarts"]
    # the simulation's own wall time and size, so a slow run explains itself
    assert stats["agent_periods"] == 16 * 40
    assert isinstance(stats["simulate_s"], float) and stats["simulate_s"] >= 0.0
    assert counts["A"] > 0 and counts["B"] > 0
    assert (f"posterior restarts: A={counts['A']} B={counts['B']}"
            in capsys.readouterr().out)
    with open(out / "comparison.yaml") as fh:
        assert yaml.safe_load(fh)["restarts"] == [counts["A"], counts["B"]]


def test_separate_writes_report(tmp_path, capsys):
    env_path = tmp_path / "two_env.yaml"
    config.save_env(catalog.build_two_situation_game(), env_path)
    out = tmp_path / "sep"
    assert cli.main(["separate", "--env", str(env_path), "--out", str(out)]) == 0
    man = _read_manifest(out)
    assert man["outputs"] == ["separate.txt", "separate.yaml"]
    assert man["config_paths"] == [str(env_path)]
    doc = _read_yaml(out / "separate.yaml")
    assert list(doc) == ["separable", "v_ne", "candidate_points", "rules",
                         "separating_q", "margin", "lp_margin", "eps_tilt"]
    assert doc["separable"] is True
    assert len(doc["rules"]) == 27
    assert doc["separating_q"] == pytest.approx([0.7, 0.3])
    assert "reaction rules checked: 27" in capsys.readouterr().out


def test_dollar_writes_report(tmp_path, capsys):
    out = tmp_path / "dollar"
    assert cli.main(["dollar", "--k", "10", "--out", str(out)]) == 0
    assert _read_manifest(out)["outputs"] == ["report.txt", "report.yaml"]
    doc = _read_yaml(out / "report.yaml")
    assert list(doc) == ["K", "verified", "binding_margin", "match_payoffs",
                         "dominance"]
    assert doc["K"] == 10 and doc["verified"] is True
    assert doc["dominance"] is True
    assert doc["match_payoffs"] == [[0.5, 9.5], [0.0, 5.0]]
    assert ("fine group dominant at every share: True"
            in (out / "report.txt").read_text())


def test_centipede_writes_report(tmp_path, capsys):
    out = tmp_path / "centipede"
    assert cli.main(["centipede", "--k", "10", "--g", "1", "--ell", "2",
                     "--out", str(out)]) == 0
    assert _read_manifest(out)["outputs"] == ["report.txt", "report.yaml"]
    doc = _read_yaml(out / "report.yaml")
    assert list(doc) == ["spec", "condition_holds", "verified",
                         "binding_margin", "pooled_rate", "match_payoffs",
                         "p_star_b", "scan_thresholds"]
    assert doc["spec"] == {"K": 10, "g": 1.0, "l": 2.0}
    assert doc["condition_holds"] is True and doc["verified"] is True
    assert doc["p_star_b"] == 0.75
    assert doc["scan_thresholds"] == [pytest.approx(0.25)]
    assert (out / "report.txt").read_text() == capsys.readouterr().out


def test_classify_writes_report(tmp_path, capsys):
    env_path, model_path = _save_pair(coordination_env(), tmp_path)
    out = tmp_path / "cls"
    assert cli.main(["classify", "--env", env_path, "--model-a", model_path,
                     "--model-b", model_path, "--eps-list", "0.1,0.01",
                     "--out", str(out)]) == 0
    man = _read_manifest(out)
    assert man["outputs"] == ["classify.txt", "classify.yaml"]
    assert man["config_paths"] == [env_path, model_path, model_path]
    doc = _read_yaml(out / "classify.yaml")
    assert list(doc) == ["verdict", "q", "evidence"]
    assert doc["verdict"] == "Ambiguous"
    assert [ev["eps"] for ev in doc["evidence"]] == [0.1, 0.01]
    assert list(doc["evidence"][0]) == ["eps", "shares", "counts", "ez_count",
                                        "empty", "min_gap", "max_gap"]
    assert doc["evidence"][1]["shares"] == [0.99, 0.01]


def test_build_investment_reports_reversal(tmp_path, capsys):
    out = tmp_path / "inv"
    assert cli.main(["build-investment", "--out", str(out)]) == 0
    assert _read_manifest(out)["outputs"] == [
        "env.yaml", "model_a.yaml", "model_b.yaml", "report.txt", "report.yaml"]
    doc = _read_yaml(out / "report.yaml")
    assert list(doc) == ["spec", "b_star", "dominance_ok", "entry_play_ok",
                         "flags", "reversal", "play_resident_a",
                         "play_resident_b", "no_state_bands"]
    assert doc["b_star"] == {"s11": 7.0, "s12": 5.0, "s22": 4.0}
    assert doc["dominance_ok"] is True and doc["entry_play_ok"] is True
    assert doc["reversal"] is True and doc["flags"] == []
    assert doc["play_resident_a"] == [[0, 0, 1, 1]]
    assert doc["play_resident_b"] == [[0, 0, 0, 1]]
    # the paper's share result: no state while residents hold 4/9 to 16/25
    (band,) = doc["no_state_bands"]
    assert (band["lo"], band["hi"]) == (pytest.approx(4 / 9), pytest.approx(16 / 25))
    assert "no state for group-A share in (0.444444, 0.64)" in capsys.readouterr().out


def test_build_two_situation_identifies_situations(tmp_path, capsys):
    out = tmp_path / "two"
    assert cli.main(["build-two-situation", "--out", str(out)]) == 0
    assert _read_manifest(out)["outputs"] == ["env.yaml", "report.txt",
                                              "report.yaml"]
    doc = _read_yaml(out / "report.yaml")
    assert list(doc) == ["situations", "situation_id", "stackelberg_id"]
    assert doc["situation_id"] is True and doc["stackelberg_id"] is True
    assert [(s["situation"], s["nash"], s["commitment"])
            for s in doc["situations"]] == [("G1", ["a2"], "a2"),
                                            ("G2", ["a3"], "a1")]
    assert list(config.load_env(out / "env.yaml").situations) == ["G1", "G2"]


@pytest.mark.parametrize("flag, value", [("--window", "0"),
                                         ("--window", "500"),
                                         ("--window", "-3"),
                                         ("--every", "0")])
def test_learn_rejects_bad_window_before_running(tmp_path, capsys, flag, value):
    env_path, model_path = _save_pair(coordination_env(), tmp_path)
    sim_path = tmp_path / "sim.yaml"
    sim_path.write_text("kind: sim\nn_agents: 16\nshares: [0.5, 0.5]\n"
                        "horizon: 80\nseed: 5\n")
    out = tmp_path / "o"
    rc = cli.main(["learn", "--env", env_path, "--model-a", model_path,
                   "--model-b", model_path, "--sim", str(sim_path),
                   flag, value, "--out", str(out)])
    assert rc == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_build_cournot_rejects_one_price_bin(tmp_path, capsys):
    out = tmp_path / "cournot"
    rc = cli.main(["build-cournot", "--grid", "41", "--price-bins", "1",
                   "--out", str(out)])
    assert rc == 1
    assert "price_bins" in capsys.readouterr().err
    assert not out.exists()


def test_import_defers_scipy_solvers():
    # only a few situation solves reach an LP; loading scipy.optimize and
    # scipy.special up front would triple every command's start-up time
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, zeitgeist, zeitgeist.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.special') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def _two_situation_sim(tmp_path, seed):
    env_path, model_path = _save_pair(catalog.build_two_situation_game(), tmp_path,
                                      stem="two")
    sim_path = tmp_path / "sim.yaml"
    sim_path.write_text("kind: sim\nn_agents: 16\nshares: [0.5, 0.5]\n"
                        f"horizon: 80\nsituation_period: 10\nseed: {seed}\n")
    return ["learn", "--env", env_path, "--model-a", model_path,
            "--model-b", model_path, "--sim", str(sim_path)]


@pytest.mark.parametrize("seed", [1, 3])
def test_learn_default_window_stays_in_last_situation_block(tmp_path, seed):
    # horizon 80 redrawn every 10 periods: the last block is periods 70-79,
    # shorter than the default window of horizon / 5 = 16
    out = tmp_path / "o"
    assert cli.main(_two_situation_sim(tmp_path, seed) + ["--out", str(out)]) == 0
    assert sorted(_read_manifest(out)["outputs"]) == ["comparison.txt", "comparison.yaml",
                                                      "trajectory.txt"]
    assert _read_yaml(out / "comparison.yaml")["window"] == 10


def test_learn_rejects_window_spanning_a_redraw_before_running(tmp_path, capsys):
    out = tmp_path / "o"
    rc = cli.main(_two_situation_sim(tmp_path, 3) + ["--window", "11", "--out", str(out)])
    assert rc == 1
    assert "--window must lie in [1, 10]" in capsys.readouterr().err
    assert not out.exists()


def test_misfit_model_is_refused_by_every_solving_command(tmp_path, capsys):
    env_path, model_path = _save_pair(mismatch_env(), tmp_path)
    _, misfit_path = _save_pair(catalog.build_two_situation_game(), tmp_path, stem="misfit")
    configs = ["--env", env_path, "--model-a", model_path, "--model-b", misfit_path]
    want = ("model B has a kernel of 3 strategies and 2 consequences; "
            "the environment has (2, 2)")
    runs = [["solve-ez", *configs], ["classify", *configs]]
    for horizon in (40, 0):
        sim_path = tmp_path / f"sim{horizon}.yaml"
        sim_path.write_text(f"kind: sim\nn_agents: 16\nshares: [0.5, 0.5]\n"
                            f"horizon: {horizon}\nseed: 5\n")
        runs.append(["learn", *configs, "--sim", str(sim_path)])
    for argv in runs:
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 1, argv
        assert want in capsys.readouterr().err, argv
        assert not (tmp_path / "o").exists()
