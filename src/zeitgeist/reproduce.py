"""One-command reproduction of the package's reference results.

Each check pins a worked environment to its independently derived
numbers: closed forms for the duopoly, enumeration plus separation for
the two-situation game, reversal for the investment game, stable-share
and dominance analyses for the stopping games, and a scaled-down
learning run cross-checked against the enumerated outcomes.  The runner
returns a row per check with expected-vs-actual strings so a failure
reads as a diff, and it never stops early: a broken fixture still
produces the full table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import catalog
from .games import TOL, stackelberg, symmetric_nash
from .learning import SimConfig, compare_to_outcomes, run_learning
from .models import check_identifiability, illusion_of_control_model, \
    minimal_correct_model
from .solver import enumerate_situation_ez
from .stability import affine_stable_shares, classify_stability, detect_reversal, \
    singleton_fragility_check

LEARNING_SEED = 20240901


@dataclass(frozen=True)
class CheckRow:
    name: str
    source: str                 # closed-form | enumeration | analysis | simulation
    expected: str
    actual: str
    ok: bool
    seconds: float


def _row(name, source, expected, actual, ok, t0) -> CheckRow:
    return CheckRow(name, source, expected, actual, bool(ok),
                    round(time.time() - t0, 3))


def _check_cournot() -> CheckRow:
    t0 = time.time()
    spec = catalog.CournotSpec(10.0, 2.0, 1.0, 0.5)
    cf = catalog.cournot_closed_form(spec)
    r_grid = np.linspace(0.05, 2.0, 79)
    fits = [cf.entrant_fitness_at(r) for r in r_grid]
    best = float(r_grid[int(np.argmax(fits))])
    got = (cf.a_AA, cf.resident_fitness, cf.a_stack, cf.a_BA,
           cf.entrant_fitness, best)
    want = (8.0 / 3.0, 64.0 / 9.0, 4.0, 4.0, 8.0, 0.5)
    ok = all(abs(g - w) <= 1e-12 for g, w in zip(got[:5], want[:5])) \
        and abs(best - 0.5) <= float(r_grid[1] - r_grid[0])
    fmt = "a_AA={:.6f} fit={:.6f} stack={:g} a_BA={:g} entrant_fit={:g} argmax_rhat={:g}"
    return _row("cournot", "closed-form", fmt.format(*want), fmt.format(*got),
                ok, t0)


def _check_separation() -> CheckRow:
    t0 = time.time()
    env = catalog.build_two_situation_game()
    nash = [symmetric_nash(env, G).value for G in env.situations]
    stack = [(s.strategy, s.value) for s in (stackelberg(env, G) for G in env.situations)]
    ident = check_identifiability(env)
    sep = singleton_fragility_check(env)
    got = (tuple(round(v, 6) for v in nash), tuple(stack),
           (ident.situation_id, ident.stackelberg_id),
           sep.separable, round(sep.margin, 6))
    want = ((0.3, 0.4), (("a2", 0.3), ("a1", 0.5)), (True, True), True)
    ok = (got[0] == want[0] and got[1] == want[1] and got[2] == want[2]
          and sep.separable and sep.margin > 0)
    return _row("separation", "enumeration",
                f"v_ne={want[0]} stackelberg={want[1]} ident={want[2]} "
                f"separable=True margin>0",
                f"v_ne={got[0]} stackelberg={got[1]} ident={got[2]} "
                f"separable={got[3]} margin={got[4]}", ok, t0)


def _check_fragility() -> CheckRow:
    t0 = time.time()
    env = catalog.build_two_situation_game()
    verdict = classify_stability(env, minimal_correct_model(env),
                                 illusion_of_control_model(env),
                                 q=(0.5, 0.5), eps_list=(0.01, 0.005, 0.001))
    return _row("fragility", "enumeration", "label=Fragile",
                f"label={verdict.label}", verdict.label == "Fragile", t0)


def _check_reversal() -> CheckRow:
    t0 = time.time()
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    env, ma, mb, _ = catalog.build_investment_game(spec)
    res = detect_reversal(env, ma, mb)
    quads_a, quads_b = ({o.quadruple for o in per[0]}
                        for per in (res.outcomes_resident_a, res.outcomes_resident_b))
    got = (res.reversal, sorted(quads_a), sorted(quads_b))
    ok = (res.reversal and quads_a == {(0, 0, 1, 1)} and quads_b == {(0, 0, 0, 1)})
    return _row("reversal", "enumeration",
                "reversal=True quads_a=[(0, 0, 1, 1)] quads_b=[(0, 0, 0, 1)]",
                f"reversal={got[0]} quads_a={got[1]} quads_b={got[2]}", ok, t0)


def _check_centipede() -> CheckRow:
    t0 = time.time()
    spec = catalog.CentipedeSpec(10, 1.0, 2.0)
    rep = catalog.centipede_analysis(spec)
    scan = affine_stable_shares(rep.line_payoffs)
    p_b = 1.0 - scan.thresholds[0] if scan.thresholds else float("nan")
    got = (rep.maximal_continuation_verified, rep.analogy_minimizer_x, p_b)
    ok = (rep.maximal_continuation_verified
          and abs(rep.analogy_minimizer_x - 0.2) <= 1e-6
          and len(scan.thresholds) == 1 and abs(p_b - 0.75) <= 1e-6
          and rep.p_star_b is not None and abs(rep.p_star_b - 0.75) <= TOL)
    return _row("centipede", "analysis",
                "verified=True x=0.2 p_star_b=0.75",
                f"verified={got[0]} x={got[1]:.7f} p_star_b={got[2]:.7f}", ok, t0)


def _check_dollar() -> CheckRow:
    t0 = time.time()
    flags = {K: catalog.dollar_analysis(K).dominance_flag
             for K in (6, 8, 10, 12)}
    ok = all(flags.values())
    return _row("dollar", "analysis", "dominance at K in {6, 8, 10, 12}",
                f"dominance={flags}", ok, t0)


def _check_learning() -> CheckRow:
    # scaled-down twin of the full simulation check: fewer agents and
    # periods, same environment, shares, and accuracy
    t0 = time.time()
    spec = catalog.InvestmentSpec(1.0, 5.5, 12.0)
    env, ma, mb, _ = catalog.build_investment_game(spec)
    cfg = SimConfig(n_agents=200, shares=(0.01, 0.99), horizon=1500,
                    seed=LEARNING_SEED, tau=0.99)
    traj = run_learning(env, ma, mb, cfg)
    per_situation = [enumerate_situation_ez(env, ma, mb, G, cfg.shares) for G in env.situations]
    rep = compare_to_outcomes(traj, per_situation, window=300)
    got = (rep.modal_play, rep.converged)
    ok = rep.modal_play == (0, 0, 0, 1) and rep.converged
    return _row("learning", "simulation",
                "modal=(0, 0, 0, 1) converged=True",
                f"modal={got[0]} converged={got[1]}", ok, t0)


CHECKS = {
    "cournot": _check_cournot,
    "separation": _check_separation,
    "fragility": _check_fragility,
    "reversal": _check_reversal,
    "centipede": _check_centipede,
    "dollar": _check_dollar,
    "learning": _check_learning,
}


def run_all(only=None) -> list[CheckRow]:
    """Run the reference checks, optionally a named subset."""
    names = list(CHECKS) if only is None else list(only)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; expected {sorted(CHECKS)}")
    rows = []
    for name in names:
        try:
            rows.append(CHECKS[name]())
        except Exception as exc:   # a crashed check is a failed row, not a crash
            rows.append(CheckRow(name, "-", "no exception",
                                 f"{type(exc).__name__}: {exc}", False, 0.0))
    return rows


def render_table(rows: list[dict]) -> str:
    """Pass/fail table of the rows ``rows_to_dicts`` returns."""
    headers = ("check", "source", "status", "seconds", "expected", "actual")
    cells = [(r["check"], r["source"], "pass" if r["ok"] else "FAIL",
              f"{r['seconds']:.3f}", r["expected"], r["actual"]) for r in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "-+-".join("-" * w for w in widths)]
    for c in cells:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(c, widths)))
    lines.append("")
    n_fail = sum(not r["ok"] for r in rows)
    lines.append(f"{len(rows) - n_fail}/{len(rows)} checks passed")
    return "\n".join(lines)


def rows_to_dicts(rows) -> list[dict]:
    return [{"check": r.name, "source": r.source, "ok": r.ok,
             "seconds": r.seconds, "expected": r.expected, "actual": r.actual}
            for r in rows]
