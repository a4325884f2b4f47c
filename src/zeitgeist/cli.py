"""Command-line front door.

Subcommands cover the solver (``solve-ez``), the stability analyses
(``classify``, ``separate``), the worked environments (``build-cournot``,
``build-investment``, ``build-two-situation``, ``centipede``, ``dollar``),
the population learning simulator (``learn``), and the consolidated
reference checks (``reproduce``).  Each command computes one document:
its human-readable table goes to stdout and is rendered from the YAML
document it mirrors, so the two cannot disagree.  Under ``--out`` both are
written next to any configs the command saved, and a ``manifest.yaml``
records the run, listing each output exactly once.

Exit codes: 0 success, 1 usage or config error (an invalid ``--window``,
``--every`` or ``--q`` is caught before any work is done), 2 legal-but-empty
result (a solve that finds no self-confirming state, or a zero-horizon run).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np
import yaml

from . import __version__, catalog
from .config import ConfigError, load_env, load_model, load_sim, \
    save_env, save_model
from .games import TOL, stackelberg, symmetric_nash
from .learning import compare_to_ez, run_learning
from .models import check_identifiability
from .reproduce import render_table, rows_to_dicts, run_all
from .solver import enumerate_ez, enumerate_situation_ez, match_payoffs, share_blend
from .stability import DEFAULT_EPS_LIST, SharePair, affine_stable_shares, \
    classify_stability, singleton_fragility_check

EXIT_OK, EXIT_ERROR, EXIT_EMPTY = 0, 1, 2


def _floats(text: str, name: str, count: int | None = None) -> tuple[float, ...]:
    try:
        vals = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"{name} expects comma-separated numbers, got {text!r}")
    if count is not None and len(vals) != count:
        raise ConfigError(f"{name} expects {count} comma-separated numbers, "
                          f"got {text!r}")
    return vals


def _plain(obj):
    """Recursively strip numpy scalar/array types for YAML output."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


class Manifest:
    """Collects the files a command writes and records the run."""

    def __init__(self, command: str, out_dir: str | None, config_paths=()):
        self.command = command
        self.out_dir = out_dir
        self.seed = None          # set by a command that draws random numbers
        self.config_paths = [str(p) for p in config_paths]
        self.outputs: list[str] = []
        self.stats: dict = {}     # run counters, written when any are set
        self.t0 = time.time()

    def path_for(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        self.outputs.append(name)
        return os.path.join(self.out_dir, name)

    def write(self) -> None:
        doc = {"command": self.command,
               "config_paths": self.config_paths,
               "seed": self.seed,
               "tool_version": __version__,
               "outputs": sorted(self.outputs),
               "wall_clock_s": round(time.time() - self.t0, 3)}
        if self.stats:
            doc["stats"] = self.stats
        with open(os.path.join(self.out_dir, "manifest.yaml"), "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)


def _report(fields) -> tuple[str, dict]:
    """The YAML document of a command's fields and the text rendered from it.

    A field is ``(yaml_key, value, template)``.  A format template sees the
    field's YAML-ready value as ``{}`` and, by name, the keys of that value
    when it is a dict and the document's other keys; a list of dicts, or a
    dict of dicts, gives one line per dict and an empty list no line.  A
    callable template renders the value itself; an empty result gives no
    line.  A field without a template is YAML-only.
    """
    doc = {key: _plain(value) for key, value, _ in fields}
    lines = []
    for key, _, template in fields:
        value = doc[key]
        if callable(template):
            lines.append(template(value))
            continue
        rows = list(value.values()) if isinstance(value, dict) else value
        if not (isinstance(rows, list) and all(isinstance(r, dict) for r in rows)):
            rows = [value]
        if template:
            lines += [template.format(
                r, **{**doc, **(r if isinstance(r, dict) else {})}) for r in rows]
    return "\n".join(line for line in lines if line), doc


# ---------------------------------------------------------------- commands
# Each returns (stem, fields, exit code) for ``main`` to render and write.

def _load_configs(args):
    return load_env(args.env), load_model(args.model_a), load_model(args.model_b)


def cmd_solve_ez(args, man):
    env, model_a, model_b = _load_configs(args)
    shares = _floats(args.shares, "--shares", 2)
    per_situation = [enumerate_situation_ez(env, model_a, model_b, G, shares)
                     for G in env.situations]
    counts = [len(outcomes) for outcomes in per_situation]

    def belief_map(model, w):
        return {model.params[t].label or f"param_{t}": round(float(w[t]), 12)
                for t in np.flatnonzero(w > TOL)}

    rows = [{"situation": o.situation,
             "play": [env.strategies[a] for a in o.quadruple],
             "play_indices": o.quadruple,
             "belief_a": belief_map(model_a, o.belief_a), "belief_b": belief_map(model_b, o.belief_b),
             "mixture_a": o.mixture_a, "mixture_b": o.mixture_b,
             "payoffs": share_blend(match_payoffs(env, gi, o.quadruple), shares)}
            for gi, outcomes in enumerate(per_situation) for o in outcomes]
    return "ez", [
        ("shares", shares, None),
        ("counts", counts, None),
        ("count", math.prod(counts),
         "{} self-confirming state(s) at shares A={shares[0]:g} B={shares[1]:g}, "
         "the product of outcomes per situation {counts}"),
        ("outcomes", rows,
         "  {situation}: AA={play[0]} AB={play[1]} BA={play[2]} BB={play[3]} "
         "payoffs A={payoffs[0]:.6g} B={payoffs[1]:.6g} "
         "mixture A={mixture_a} B={mixture_b}\n"
         "    belief A: {belief_a}\n    belief B: {belief_b}"),
    ], EXIT_OK if all(counts) else EXIT_EMPTY


def cmd_classify(args, man):
    env, model_a, model_b = _load_configs(args)
    q = _floats(args.q, "--q") if args.q else None
    eps_list = _floats(args.eps_list, "--eps-list") if args.eps_list else DEFAULT_EPS_LIST
    verdict = classify_stability(env, model_a, model_b, q=q, eps_list=eps_list)
    return "classify", [
        ("verdict", verdict.label, "verdict: {}"),
        ("q", verdict.q, None),
        ("evidence", [vars(ev) for ev in verdict.evidence],
         "  eps={eps:g} shares=({shares[0]:g}, {shares[1]:g}) states={ez_count} "
         "min_gap={min_gap:.6g} max_gap={max_gap:.6g}"),
    ], EXIT_OK


def cmd_separate(args, man):
    res = singleton_fragility_check(load_env(args.env))
    sep = res.separable
    return "separate", [
        ("separable", sep, "separable: {}"),
        ("v_ne", res.v_ne, lambda v: f"equilibrium values: {np.round(v, 9).tolist()}"),
        ("candidate_points", res.candidate_points, None),
        ("rules", res.rules, lambda rules: f"reaction rules checked: {len(rules)}"),
        ("separating_q", res.separating_q,
         (lambda q: f"weights: {np.round(q, 9).tolist()}") if sep else None),
        ("margin", res.margin, None),
        ("lp_margin", res.lp_margin, None),
        ("eps_tilt", res.eps_tilt, "margin: {margin:.9g} (lp optimum {lp_margin:.9g}, "
                                   "tilt {eps_tilt:g})" if sep else None),
    ], EXIT_OK


def cmd_build_cournot(args, man):
    spec = catalog.CournotSpec(args.beta, args.cost, args.r, args.r_hat)
    closed = catalog.cournot_closed_form(spec)
    grid = np.linspace(0.0, (spec.beta - spec.c) / spec.r, args.grid)
    env, model_a, model_b = catalog.build_cournot_discrete(
        spec, grid, args.price_bins, args.noise_sd)
    save_env(env, man.path_for("env.yaml"))
    save_model(model_a, man.path_for("model_a.yaml"))
    save_model(model_b, man.path_for("model_b.yaml"))
    extremes = {}
    for label, shares in (("resident_a", (1.0, 0.0)), ("resident_b", (0.0, 1.0))):
        states = catalog.cournot_discrete_ez(env, model_a, model_b, shares)
        play = {tuple(float(grid[a]) for a in z.outcomes[0].quadruple) for z in states}
        extremes[label] = {"shares": shares, "count": len(states), "play": sorted(play)}
    return "report", [
        ("spec", vars(spec), None),
        ("closed_form", {key: getattr(closed, key) for key in (
            "a_AA", "resident_fitness", "a_stack", "a_BA", "entrant_fitness")},
         "closed form: a_AA={a_AA:.9g} resident_fitness={resident_fitness:.9g} "
         "a_stack={a_stack:.9g} a_BA={a_BA:.9g} entrant_fitness={entrant_fitness:.9g}"),
        ("grid_step", grid[1] - grid[0], None),
        ("grid", {"points": args.grid, "price_bins": args.price_bins,
                  "noise_sd": args.noise_sd},
         "grid: {points} quantities, step {grid_step:.6g}, {price_bins} price bins, "
         "noise sd {noise_sd:g}"),
        ("extremes", extremes,
         "shares {shares}: {count} state(s), (a_AA, a_AB, a_BA, a_BB) in {play}"),
    ], EXIT_OK


def cmd_build_investment(args, man):
    spec = catalog.InvestmentSpec(args.b, args.cost, args.m)
    env, model_a, model_b, report = catalog.build_investment_game(spec, args.noise_sd)
    save_env(env, man.path_for("env.yaml"))
    save_model(model_a, man.path_for("model_a.yaml"))
    save_model(model_b, man.path_for("model_b.yaml"))
    pair = SharePair(env, model_a, model_b)
    rev = pair.reversal()
    return "report", [
        ("spec", vars(spec), None),
        ("b_star", {"s11": report.b_star_11, "s12": report.b_star_12,
                    "s22": report.b_star_22},
         "data-matching slopes: b*(1,1)={s11:g} b*(1,2)={s12:g} b*(2,2)={s22:g}"),
        ("dominance_ok", report.dominance_ok, "low investment objectively dominant: {}"),
        ("entry_play_ok", report.entry_play_ok, "entrants invest high: {}"),
        ("flags", report.flags, lambda flags: "\n".join(f"warning: {f}" for f in flags)),
        ("reversal", rev.reversal, "fitness reversal between extreme shares: {}"),
        ("play_resident_a",
         sorted({o.quadruple for o in rev.outcomes_resident_a[0]}), None),
        ("play_resident_b",
         sorted({o.quadruple for o in rev.outcomes_resident_b[0]}), None),
        ("no_state_bands", [{"lo": lo, "hi": hi} for lo, hi in pair.cells().no_state_bands],
         "no state for group-A share in ({lo:.6g}, {hi:.6g})"),
    ], EXIT_OK


def cmd_build_two_situation(args, man):
    env = catalog.build_two_situation_game()
    save_env(env, man.path_for("env.yaml"))
    ident = check_identifiability(env)
    rows = []
    for G in env.situations:
        nash, stack = symmetric_nash(env, G), stackelberg(env, G)
        rows.append({"situation": G, "nash": nash.best, "nash_value": nash.value,
                     "commitment": stack.strategy, "commitment_value": stack.value,
                     "follower": stack.follower})
    return "report", [
        ("situations", rows,
         "{situation}: symmetric equilibrium {nash} value {nash_value:g}; "
         "commitment {commitment} value {commitment_value:g} (follower {follower})"),
        ("situation_id", ident.situation_id, None),
        ("stackelberg_id", ident.stackelberg_id,
         "situations identified: {situation_id}; commitment identified: {}"),
    ], EXIT_OK


def cmd_centipede(args, man):
    spec = catalog.CentipedeSpec(args.k, args.g, args.ell)
    rep = catalog.centipede_analysis(spec)
    return "report", [
        ("spec", vars(spec), None),
        ("condition_holds", rep.condition_holds, "condition (K-2)g > 2l holds: {}"),
        ("verified", rep.maximal_continuation_verified,
         "maximal-continuation profile verified: {}"),
        ("binding_margin", rep.binding_margin, "binding one-deviation margin: {:.9g}"),
        ("pooled_rate", rep.analogy_minimizer_x, "pooled stopping rate: {:.9g}"),
        ("match_payoffs", rep.match_payoffs, "match payoffs [[AA, AB], [BA, BB]]: {}"),
        ("p_star_b", rep.p_star_b, "minimal stable share of the coarse group: {}"),
        ("scan_thresholds", affine_stable_shares(rep.line_payoffs).thresholds,
         "scan agrees: gap falls through zero at fine-group share {0[0]:.9g}"),
    ], EXIT_OK


def cmd_dollar(args, man):
    rep = catalog.dollar_analysis(args.k)
    return "report", [
        ("K", rep.K, None),
        ("verified", rep.maximal_continuation_verified,
         "maximal-continuation profile verified: {}"),
        ("binding_margin", rep.binding_margin, "binding one-deviation margin: {:.9g}"),
        ("match_payoffs", rep.match_payoffs, "match payoffs [[AA, AB], [BA, BB]]: {}"),
        ("dominance", rep.dominance_flag, "fine group dominant at every share: {}"),
    ], EXIT_OK


def cmd_learn(args, man):
    env, model_a, model_b = _load_configs(args)
    cfg = load_sim(args.sim)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.every < 1:
        raise ConfigError(f"--every must be at least 1, got {args.every}")
    # the comparison window must not span a redraw: it fits the last situation block
    block = cfg.horizon
    if cfg.situation_period and cfg.horizon:
        block -= (cfg.horizon - 1) // cfg.situation_period * cfg.situation_period
    if args.window is not None and not 1 <= args.window <= block:
        raise ConfigError(f"--window must lie in [1, {block}], got {args.window}")
    man.seed = cfg.seed
    # compose the states first: a composition failure writes no file
    ez = enumerate_ez(env, model_a, model_b, cfg.shares) if cfg.horizon else None
    t0 = time.perf_counter()
    traj = run_learning(env, model_a, model_b, cfg)
    man.stats.update(simulate_s=round(time.perf_counter() - t0, 3),
                     agent_periods=cfg.n_agents * cfg.horizon)
    traj.write_text(man.path_for("trajectory.txt"), every=args.every)
    if traj.horizon == 0:
        return "comparison", [
            ("horizon", 0, None),
            ("converged", False, "horizon 0: empty trajectory, not converged"),
        ], EXIT_EMPTY

    window = args.window or min(max(1, traj.horizon // 5), block)
    rep = compare_to_ez(traj, ez, window=window)
    restarts = traj.restarts.sum(axis=0)
    man.stats["posterior_restarts"] = {"A": int(restarts[0]), "B": int(restarts[1])}
    return "comparison", [
        ("converged", rep.converged, "converged: {}"),
        ("window", rep.window, None),
        ("situation", rep.situation, None),
        ("situation_name", env.situations[rep.situation],
         "window: final {window} periods, situation {}"),
        ("modal_play", rep.modal_play, None),
        ("modal_play_names", [env.strategies[i] for i in rep.modal_play],
         "modal play (AA, AB, BA, BB): {}"),
        ("mean_payoff", rep.mean_payoff, "mean payoff: A={0[0]:.6g} B={0[1]:.6g}"),
        ("kernel_belief_a", rep.kernel_belief_a, None),
        ("kernel_belief_b", rep.kernel_belief_b, None),
        ("ez_count", len(ez), None),
        ("best_index", rep.best_index, None),
        ("play_mismatch", rep.play_mismatch, None),
        ("belief_tv", rep.belief_tv,
         "states found: {ez_count}; best match: {best_index} (play mismatches "
         "{play_mismatch}, belief distance {belief_tv:.6g})"),
        ("restarts", restarts, "posterior restarts: A={0[0]} B={0[1]}"),
    ], EXIT_OK


def cmd_reproduce(args, man):
    only = tuple(name for chunk in args.only or () for name in chunk.split(","))
    rows = run_all(only=only or None)
    return "report", [("rows", rows_to_dicts(rows), render_table)], \
        EXIT_OK if all(r.ok for r in rows) else EXIT_ERROR


# ------------------------------------------------------------------ parser

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage errors exit 1; argparse's default of 2 is reserved for
        # legal-but-empty results
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="zeitgeist",
                description="Solve, analyze, and simulate population states "
                            "with misspecified learners.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, help_text, out_required=False):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--out", required=out_required)
        return sp

    def add_configs(sp):
        sp.add_argument("--env", required=True)
        sp.add_argument("--model-a", required=True,
                        help="group A's model config (the resident in classify)")
        sp.add_argument("--model-b", required=True,
                        help="group B's model config (the entrant in classify)")

    sp = add("solve-ez", cmd_solve_ez,
             "Enumerate all self-confirming states of an environment.", True)
    add_configs(sp)
    sp.add_argument("--shares", default="0.5,0.5", metavar="pA,pB")

    sp = add("classify", cmd_classify,
             "Stability verdict for a resident model against an entrant.")
    add_configs(sp)
    sp.add_argument("--q", metavar="w1,w2,...")
    sp.add_argument("--eps-list", metavar="e1,e2,...")

    sp = add("separate", cmd_separate,
             "Hyperplane test: can situation weights make every "
             "commitment-entrant reaction rule unprofitable?")
    sp.add_argument("--env", required=True)

    sp = add("build-cournot", cmd_build_cournot,
             "Discretized duopoly: env and model configs plus closed-form "
             "and extreme-share analysis.", True)
    sp.add_argument("--beta", type=float, default=10.0)
    sp.add_argument("--cost", type=float, default=2.0)
    sp.add_argument("--r", type=float, default=1.0)
    sp.add_argument("--r-hat", type=float, default=0.5)
    sp.add_argument("--grid", type=int, default=201,
                    help="number of quantity grid points")
    sp.add_argument("--price-bins", type=int, default=200)
    sp.add_argument("--noise-sd", type=float, default=2.0)

    sp = add("build-investment", cmd_build_investment,
             "Two-level investment game: env and model configs plus "
             "reversal analysis.", True)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--cost", type=float, default=5.5)
    sp.add_argument("--m", type=float, default=12.0)
    sp.add_argument("--noise-sd", type=float, default=2.0)

    add("build-two-situation", cmd_build_two_situation,
        "Two-situation commitment example: env config plus analysis.", True)

    sp = add("centipede", cmd_centipede,
             "Centipede ladder: verified profile, pooled stopping rate, "
             "minimal stable share.")
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument("--g", type=float, default=1.0)
    sp.add_argument("--ell", type=float, default=2.0)

    sp = add("dollar", cmd_dollar,
             "Dollar-splitting ladder: verified profile and dominance.")
    sp.add_argument("--k", type=int, default=10)

    sp = add("learn", cmd_learn,
             "Run the population learning simulator and compare against "
             "the enumerated states.", True)
    add_configs(sp)
    sp.add_argument("--sim", required=True, help="simulation config")
    sp.add_argument("--seed", type=int, help="override the config seed")
    sp.add_argument("--every", type=int, default=1,
                    help="subsample the trajectory every k periods")
    sp.add_argument("--window", type=int,
                    help="comparison window (default: horizon / 5)")

    sp = add("reproduce", cmd_reproduce,
             "Run the reference checks and print the pass/fail table.")
    sp.add_argument("--only", action="append", metavar="NAME",
                    help="run a named subset (repeatable, comma-separated)")

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:       # --help or a usage error
        return int(exc.code or 0)
    paths = (getattr(args, key, None) for key in ("env", "model_a", "model_b", "sim"))
    man = Manifest(args.command, args.out, [path for path in paths if path])
    try:
        stem, fields, code = args.func(args, man)
        text, doc = _report(fields)
        print(text)
        if args.out:
            with open(man.path_for(stem + ".txt"), "w") as fh:
                fh.write(text + "\n")
            with open(man.path_for(stem + ".yaml"), "w") as fh:
                yaml.safe_dump(doc, fh, sort_keys=False)
            man.write()
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    raise SystemExit(main())
