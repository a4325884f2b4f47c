"""Command-line front door.

Subcommands cover the solver (``solve-ez``), the stability analyses
(``classify``, ``separate``), the worked environments (``build-cournot``,
``build-investment``, ``build-two-situation``, ``centipede``, ``dollar``),
the population learning simulator (``learn``), and the consolidated
reference checks (``reproduce``).  Human-readable tables go to stdout;
commands that write files mirror every table as YAML next to it and
record the run in a ``manifest.yaml`` listing each output exactly once.

Exit codes: 0 success, 1 usage or config error, 2 legal-but-empty result
(a solve that finds no self-confirming state, or a zero-horizon run).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np
import yaml

from . import __version__, catalog
from .config import ConfigError, load_env, load_model, load_sim, \
    save_env, save_model
from .games import stackelberg, symmetric_nash
from .learning import compare_to_ez, run_learning
from .models import check_identifiability
from .reproduce import render_table, rows_to_dicts, run_all
from .solver import enumerate_ez, render_summaries, zeitgeist_summary
from .stability import DEFAULT_EPS_LIST, classify_stability, detect_reversal, \
    scan_stable_shares, singleton_fragility_check

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
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


class Manifest:
    """Collects the files a command writes and records the run."""

    def __init__(self, command: str, out_dir: str, seed=None, config_paths=()):
        self.command = command
        self.out_dir = out_dir
        self.seed = seed
        self.config_paths = [str(p) for p in config_paths]
        self.outputs: list[str] = []
        self.stats: dict = {}     # run counters, written when any are set
        self.t0 = time.time()

    def path_for(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        self.outputs.append(name)
        return os.path.join(self.out_dir, name)

    def write(self) -> str:
        doc = {"command": self.command,
               "config_paths": self.config_paths,
               "seed": self.seed,
               "tool_version": __version__,
               "outputs": sorted(self.outputs),
               "wall_clock_s": round(time.time() - self.t0, 3)}
        if self.stats:
            doc["stats"] = self.stats
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, "manifest.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)
        return path


def _emit(man: Manifest, stem: str, text: str, data) -> None:
    """Write the human-readable table and its machine-readable mirror."""
    with open(man.path_for(stem + ".txt"), "w") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")
    with open(man.path_for(stem + ".yaml"), "w") as fh:
        yaml.safe_dump(_plain(data), fh, sort_keys=False)


# ---------------------------------------------------------------- commands

def cmd_solve_ez(args) -> int:
    env = load_env(args.env)
    model_a = load_model(args.model_a)
    model_b = load_model(args.model_b)
    shares = _floats(args.shares, "--shares", 2)
    q = _floats(args.q, "--q") if args.q else None
    man = Manifest("solve-ez", args.out, None,
                   [args.env, args.model_a, args.model_b])
    states = enumerate_ez(env, model_a, model_b, shares)
    text = render_summaries(states, env, model_a, model_b, q)
    data = {"shares": list(shares), "count": len(states),
            "states": [zeitgeist_summary(z, env, model_a, model_b, q)
                       for z in states]}
    _emit(man, "ez", text, data)
    man.write()
    print(text)
    return EXIT_OK if states else EXIT_EMPTY


def cmd_classify(args) -> int:
    env = load_env(args.env)
    model_a = load_model(args.model_a)
    model_b = load_model(args.model_b)
    q = _floats(args.q, "--q") if args.q else None
    eps_list = _floats(args.eps_list, "--eps-list") if args.eps_list \
        else DEFAULT_EPS_LIST
    verdict = classify_stability(env, model_a, model_b, q=q, eps_list=eps_list)
    lines = [f"verdict: {verdict.label}"]
    rows = []
    for ev in verdict.evidence:
        lines.append(f"  eps={ev.eps:g} shares=({ev.shares[0]:g}, "
                     f"{ev.shares[1]:g}) states={ev.ez_count} "
                     f"min_gap={ev.min_gap:.6g} max_gap={ev.max_gap:.6g}")
        rows.append({"eps": ev.eps, "shares": list(ev.shares),
                     "counts": list(ev.counts), "ez_count": ev.ez_count,
                     "empty": ev.empty, "min_gap": ev.min_gap,
                     "max_gap": ev.max_gap})
    text = "\n".join(lines)
    print(text)
    if args.out:
        man = Manifest("classify", args.out, None,
                       [args.env, args.model_a, args.model_b])
        _emit(man, "classify", text,
              {"verdict": verdict.label, "q": verdict.q, "evidence": rows})
        man.write()
    return EXIT_OK


def cmd_separate(args) -> int:
    env = load_env(args.env)
    res = singleton_fragility_check(env)
    lines = [f"separable: {res.separable}",
             f"equilibrium values: {np.round(res.v_ne, 9).tolist()}",
             f"reaction rules checked: {len(res.rules)}"]
    if res.separable:
        lines.append(f"weights: {np.round(res.separating_q, 9).tolist()}")
        lines.append(f"margin: {res.margin:.9g} (lp optimum {res.lp_margin:.9g},"
                     f" tilt {res.eps_tilt:g})")
    text = "\n".join(lines)
    print(text)
    if args.out:
        man = Manifest("separate", args.out, None, [args.env])
        _emit(man, "separate", text,
              {"separable": res.separable, "v_ne": res.v_ne,
               "candidate_points": [list(map(float, v))
                                    for v in res.candidate_points],
               "rules": [list(map(int, r)) for r in res.rules],
               "separating_q": res.separating_q, "margin": res.margin,
               "lp_margin": res.lp_margin, "eps_tilt": res.eps_tilt})
        man.write()
    return EXIT_OK


def cmd_build_cournot(args) -> int:
    spec = catalog.CournotSpec(args.beta, args.cost, args.r, args.r_hat)
    closed = catalog.cournot_closed_form(spec)
    monopoly = (spec.beta - spec.c) / spec.r
    grid = np.linspace(0.0, monopoly, args.grid)
    env, model_a, model_b = catalog.build_cournot_discrete(
        spec, grid, args.price_bins, args.noise_sd)
    man = Manifest("build-cournot", args.out)
    save_env(env, man.path_for("env.yaml"))
    save_model(model_a, man.path_for("model_a.yaml"))
    save_model(model_b, man.path_for("model_b.yaml"))

    step = float(grid[1] - grid[0])
    q = env.kernels[0].quantities
    lines = [f"closed form: a_AA={closed.a_AA:.9g} "
             f"resident_fitness={closed.resident_fitness:.9g} "
             f"a_stack={closed.a_stack:.9g} a_BA={closed.a_BA:.9g} "
             f"entrant_fitness={closed.entrant_fitness:.9g}",
             f"grid: {args.grid} quantities, step {step:.6g}, "
             f"{args.price_bins} price bins, noise sd {args.noise_sd:g}"]
    data = {"spec": {"beta": spec.beta, "c": spec.c, "r": spec.r,
                     "r_hat": spec.r_hat},
            "closed_form": {"a_AA": closed.a_AA,
                            "resident_fitness": closed.resident_fitness,
                            "a_stack": closed.a_stack, "a_BA": closed.a_BA,
                            "entrant_fitness": closed.entrant_fitness},
            "grid_step": step, "extremes": {}}
    for label, shares in (("resident_a", (1.0, 0.0)), ("resident_b", (0.0, 1.0))):
        states = catalog.cournot_discrete_ez(env, model_a, model_b, shares)
        vals = sorted({tuple(float(q[a]) for a in z.outcomes[0].quadruple)
                       for z in states})
        lines.append(f"shares {shares}: {len(states)} state(s), "
                     f"(a_AA, a_AB, a_BA, a_BB) in {vals}")
        data["extremes"][label] = {"shares": list(shares),
                                   "count": len(states), "play": vals}
    text = "\n".join(lines)
    _emit(man, "report", text, data)
    man.write()
    print(text)
    return EXIT_OK


def cmd_build_investment(args) -> int:
    spec = catalog.InvestmentSpec(args.b, args.cost, args.m)
    env, model_a, model_b, report = catalog.build_investment_game(
        spec, args.noise_sd)
    man = Manifest("build-investment", args.out)
    save_env(env, man.path_for("env.yaml"))
    save_model(model_a, man.path_for("model_a.yaml"))
    save_model(model_b, man.path_for("model_b.yaml"))
    rev = detect_reversal(env, model_a, model_b)
    lines = [f"data-matching slopes: b*(1,1)={report.b_star_11:g} "
             f"b*(1,2)={report.b_star_12:g} b*(2,2)={report.b_star_22:g}",
             f"low investment objectively dominant: {report.dominance_ok}",
             f"entrants invest high: {report.entry_play_ok}",
             f"fitness reversal between extreme shares: {rev.reversal}"]
    for flag in report.flags:
        lines.append(f"warning: {flag}")
    data = {"spec": {"b": spec.b, "c": spec.c, "m": spec.m},
            "b_star": {"s11": report.b_star_11, "s12": report.b_star_12,
                       "s22": report.b_star_22},
            "dominance_ok": report.dominance_ok,
            "entry_play_ok": report.entry_play_ok,
            "flags": list(report.flags),
            "reversal": rev.reversal,
            "play_resident_a": sorted({z.outcomes[0].quadruple
                                       for z in rev.states_resident_a}),
            "play_resident_b": sorted({z.outcomes[0].quadruple
                                       for z in rev.states_resident_b})}
    text = "\n".join(lines)
    _emit(man, "report", text, data)
    man.write()
    print(text)
    return EXIT_OK


def cmd_build_two_situation(args) -> int:
    env = catalog.build_two_situation_game()
    man = Manifest("build-two-situation", args.out)
    save_env(env, man.path_for("env.yaml"))
    ident = check_identifiability(env)
    lines, sit_rows = [], []
    for G in env.situations:
        nash = symmetric_nash(env, G)
        stack = stackelberg(env, G)
        lines.append(f"{G}: symmetric equilibrium {nash.best} value "
                     f"{nash.value:g}; commitment {stack.strategy} value "
                     f"{stack.value:g} (follower {stack.follower})")
        sit_rows.append({"situation": G, "nash": list(nash.best),
                         "nash_value": nash.value,
                         "commitment": stack.strategy,
                         "commitment_value": stack.value,
                         "follower": stack.follower})
    lines.append(f"situations identified: {ident.situation_id}; "
                 f"commitment identified: {ident.stackelberg_id}")
    text = "\n".join(lines)
    _emit(man, "report", text,
          {"situations": sit_rows,
           "situation_id": ident.situation_id,
           "stackelberg_id": ident.stackelberg_id})
    man.write()
    print(text)
    return EXIT_OK


def cmd_centipede(args) -> int:
    spec = catalog.CentipedeSpec(args.k, args.g, args.ell)
    rep = catalog.centipede_analysis(spec)
    scan = scan_stable_shares(catalog.make_centipede_selector(spec))
    lines = [f"condition (K-2)g > 2l holds: {rep.condition_holds}",
             f"maximal-continuation profile verified: "
             f"{rep.maximal_continuation_verified}",
             f"binding one-deviation margin: {rep.binding_margin:.9g}",
             f"pooled stopping rate: {rep.analogy_minimizer_x:.9g}",
             f"match payoffs [[AA, AB], [BA, BB]]: "
             f"{rep.match_payoffs.tolist()}",
             f"minimal stable share of the coarse group: {rep.p_star_b}"]
    if scan.thresholds:
        lines.append("scan agrees: gap falls through zero at fine-group "
                     f"share {scan.thresholds[0]:.9g}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        man = Manifest("centipede", args.out)
        _emit(man, "report", text,
              {"spec": {"K": spec.K, "g": spec.g, "l": spec.l},
               "condition_holds": rep.condition_holds,
               "verified": rep.maximal_continuation_verified,
               "binding_margin": rep.binding_margin,
               "pooled_rate": rep.analogy_minimizer_x,
               "match_payoffs": rep.match_payoffs,
               "p_star_b": rep.p_star_b,
               "scan_thresholds": list(scan.thresholds)})
        man.write()
    return EXIT_OK


def cmd_dollar(args) -> int:
    rep = catalog.dollar_analysis(args.k)
    lines = [f"maximal-continuation profile verified: "
             f"{rep.maximal_continuation_verified}",
             f"binding one-deviation margin: {rep.binding_margin:.9g}",
             f"match payoffs [[AA, AB], [BA, BB]]: "
             f"{rep.match_payoffs.tolist()}",
             f"coarse group dominant at every share: {rep.dominance_flag}"]
    text = "\n".join(lines)
    print(text)
    if args.out:
        man = Manifest("dollar", args.out)
        _emit(man, "report", text,
              {"K": rep.K, "verified": rep.maximal_continuation_verified,
               "binding_margin": rep.binding_margin,
               "match_payoffs": rep.match_payoffs,
               "dominance": rep.dominance_flag})
        man.write()
    return EXIT_OK


def cmd_learn(args) -> int:
    env = load_env(args.env)
    model_a = load_model(args.model_a)
    model_b = load_model(args.model_b)
    cfg = load_sim(args.sim)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    man = Manifest("learn", args.out, cfg.seed,
                   [args.env, args.model_a, args.model_b, args.sim])
    traj = run_learning(env, model_a, model_b, cfg)
    traj.write_text(man.path_for("trajectory.txt"), every=args.every)

    if traj.horizon == 0:
        text = "horizon 0: empty trajectory, not converged"
        _emit(man, "comparison", text, {"horizon": 0, "converged": False})
        man.write()
        print(text)
        return EXIT_EMPTY

    window = args.window if args.window else max(1, traj.horizon // 5)
    ez = enumerate_ez(env, model_a, model_b, cfg.shares)
    rep = compare_to_ez(traj, ez, window=window)
    play = tuple(env.strategies[i] for i in rep.modal_play)
    restarts = [int(r) for r in traj.restarts.sum(axis=0)]
    man.stats["posterior_restarts"] = {"A": restarts[0], "B": restarts[1]}
    lines = [f"converged: {rep.converged}",
             f"window: final {rep.window} periods, situation "
             f"{env.situations[rep.situation]}",
             f"modal play (AA, AB, BA, BB): {play}",
             f"mean payoff: A={rep.mean_payoff[0]:.6g} "
             f"B={rep.mean_payoff[1]:.6g}",
             f"states found: {len(ez)}; best match: {rep.best_index} "
             f"(play mismatches {rep.play_mismatch}, "
             f"belief distance {rep.belief_tv:.6g})",
             f"posterior restarts: A={restarts[0]} B={restarts[1]}"]
    text = "\n".join(lines)
    _emit(man, "comparison", text,
          {"converged": rep.converged, "window": rep.window,
           "situation": rep.situation, "modal_play": list(rep.modal_play),
           "mean_payoff": list(rep.mean_payoff),
           "kernel_belief_a": rep.kernel_belief_a,
           "kernel_belief_b": rep.kernel_belief_b,
           "best_index": rep.best_index,
           "play_mismatch": rep.play_mismatch,
           "belief_tv": rep.belief_tv,
           "restarts": restarts})
    man.write()
    print(text)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    only = None
    if args.only:
        only = tuple(name for chunk in args.only for name in chunk.split(","))
    rows = run_all(only=only)
    text = render_table(rows)
    print(text, end="")
    if args.out:
        man = Manifest("reproduce", args.out)
        _emit(man, "report", text, {"rows": rows_to_dicts(rows)})
        man.write()
    return EXIT_OK if all(r.ok for r in rows) else EXIT_ERROR


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
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, help_text):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.set_defaults(func=func)
        return sp

    sp = add("solve-ez", cmd_solve_ez,
             "Enumerate all self-confirming states of an environment.")
    sp.add_argument("--env", required=True)
    sp.add_argument("--model-a", required=True)
    sp.add_argument("--model-b", required=True)
    sp.add_argument("--shares", default="0.5,0.5", metavar="pA,pB")
    sp.add_argument("--q", metavar="w1,w2,...",
                    help="situation weights for the fitness table")
    sp.add_argument("--out", required=True)

    sp = add("classify", cmd_classify,
             "Stability verdict for a resident model against an entrant.")
    sp.add_argument("--env", required=True)
    sp.add_argument("--model-a", required=True,
                    help="resident model config")
    sp.add_argument("--model-b", required=True,
                    help="entrant model config")
    sp.add_argument("--q", metavar="w1,w2,...")
    sp.add_argument("--eps-list", metavar="e1,e2,...")
    sp.add_argument("--out")

    sp = add("separate", cmd_separate,
             "Hyperplane test: can situation weights make every "
             "commitment-entrant reaction rule unprofitable?")
    sp.add_argument("--env", required=True)
    sp.add_argument("--out")

    sp = add("build-cournot", cmd_build_cournot,
             "Discretized duopoly: env and model configs plus closed-form "
             "and extreme-share analysis.")
    sp.add_argument("--beta", type=float, default=10.0)
    sp.add_argument("--cost", type=float, default=2.0)
    sp.add_argument("--r", type=float, default=1.0)
    sp.add_argument("--r-hat", type=float, default=0.5)
    sp.add_argument("--grid", type=int, default=201,
                    help="number of quantity grid points")
    sp.add_argument("--price-bins", type=int, default=200)
    sp.add_argument("--noise-sd", type=float, default=2.0)
    sp.add_argument("--out", required=True)

    sp = add("build-investment", cmd_build_investment,
             "Two-level investment game: env and model configs plus "
             "reversal analysis.")
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--cost", type=float, default=5.5)
    sp.add_argument("--m", type=float, default=12.0)
    sp.add_argument("--noise-sd", type=float, default=2.0)
    sp.add_argument("--out", required=True)

    sp = add("build-two-situation", cmd_build_two_situation,
             "Two-situation commitment example: env config plus analysis.")
    sp.add_argument("--out", required=True)

    sp = add("centipede", cmd_centipede,
             "Centipede ladder: verified profile, pooled stopping rate, "
             "minimal stable share.")
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument("--g", type=float, default=1.0)
    sp.add_argument("--ell", type=float, default=2.0)
    sp.add_argument("--out")

    sp = add("dollar", cmd_dollar,
             "Dollar-splitting ladder: verified profile and dominance.")
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument("--out")

    sp = add("learn", cmd_learn,
             "Run the population learning simulator and compare against "
             "the enumerated states.")
    sp.add_argument("--env", required=True)
    sp.add_argument("--model-a", required=True)
    sp.add_argument("--model-b", required=True)
    sp.add_argument("--sim", required=True, help="simulation config")
    sp.add_argument("--seed", type=int, help="override the config seed")
    sp.add_argument("--every", type=int, default=1,
                    help="subsample the trajectory every k periods")
    sp.add_argument("--window", type=int,
                    help="comparison window (default: horizon / 5)")
    sp.add_argument("--out", required=True)

    sp = add("reproduce", cmd_reproduce,
             "Run the reference checks and print the pass/fail table.")
    sp.add_argument("--only", action="append", metavar="NAME",
                    help="run a named subset (repeatable, comma-separated)")
    sp.add_argument("--out")

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:       # --help or a usage error
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
