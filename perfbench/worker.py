"""One workload in one fresh single-threaded process; started by run.py.

The process imports zeitgeist, builds the inputs of the warm-up operation
and of the first round (that is set-up, timed from process start), then
either exits (``--setup-only``) or runs the warm-up untimed and timed
rounds until ``--seconds`` have passed, checking each round's outputs
outside its timed segments, and timing a fixed calibration loop before
every round and after the last one.  With ``--trace 1`` every round runs
twice, untraced and traced on freshly built copies of the same inputs, in
alternating order, so the tracing overhead compares equal work and the
per-layer figures include building each operation's inputs.  The result
is one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time

# IQR over median of a run's calibration times above which the machine's
# speed moved during the run
CALIBRATION_STEADY = 0.10


def _parse():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True,
                    help="parent's time.monotonic() just before starting this process")
    ap.add_argument("--trace-file", default="")
    return ap.parse_args()


def _timed(fn, *args):
    """(seconds, result, error message or None); a raising call is caught."""
    t = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # an operation that raises counts as failed
        return time.perf_counter() - t, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t, out, None


def _calibration(np, linprog) -> float:
    """Seconds of a fixed mix of interpreter, numpy and LP work.

    It does not touch zeitgeist, so it reads the machine's speed, not the
    program's: a run whose calibration moved, or two runs whose
    calibrations differ, ran at different machine speeds.  The converse
    does not hold, since the program's code may slow more than this loop.
    """
    rng = np.random.default_rng(0)
    a_ub = rng.normal(size=(16, 9))
    x = rng.normal(size=(200, 50))
    t = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    for _ in range(200):
        np.exp(x - x.max(axis=1, keepdims=True)).sum(axis=1)
    for _ in range(10):
        linprog(np.r_[np.zeros(8), -1.0], A_ub=a_ub, b_ub=np.zeros(16),
                A_eq=np.r_[np.ones(8), 0.0][None], b_eq=[1.0],
                bounds=[(0.0, 1.0)] * 8 + [(None, None)], method="highs")
    return time.perf_counter() - t


def main() -> int:
    args = _parse()
    t_import = time.perf_counter()
    import zeitgeist  # noqa: F401
    import zeitgeist.catalog  # noqa: F401  (the package does not load it)
    import_s = time.perf_counter() - t_import
    import numpy
    import scipy
    from scipy.optimize import linprog

    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    tracer = spans.Tracer() if args.trace else None

    warm_inp = workload.build_warmup(args.seed)
    inputs = workload.build_round(args.seed, 0)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    _, warm_out, warm_err = _timed(workload.op, warm_inp)
    if workload.extra is not None:
        _timed(workload.extra)

    ops: list[float] = []            # seconds per untraced operation
    calibrations: list[float] = []   # seconds of the calibration loop
    walls: list[float] = []          # timed seconds per untraced round
    traced_walls: list[float] = []   # the same rounds again, traced
    attempted = failed = traced_ops = 0
    errors: list[str] = []           # operations that raised
    wrong: list[str] = []            # outputs that failed a check
    if warm_err:
        wrong.append(f"warm-up: {warm_err}")

    def run_round(inputs, record):
        nonlocal attempted, failed
        results = [(inp, *_timed(workload.op, inp)) for inp in inputs]
        if record:
            ops.extend(dt for _, dt, _, _ in results)
        wall = sum(dt for _, dt, _, _ in results)
        if workload.extra is not None:
            dt, extra, extra_err = _timed(workload.extra)
            wall += dt
        if tracer:
            tracer.uninstall()      # checks run untraced
        for inp, dt, out, err in results:
            attempted += 1
            if err is not None:
                failed += 1
                errors.append(err)
                continue
            bad = workload.check(inp, out)
            if bad:
                failed += 1
                wrong.extend(bad)
        if workload.extra is not None:
            wrong.extend([extra_err] if extra_err else workload.check_extra(extra))
        return wall

    def run_traced(r):
        # the same round once more on identically built fresh inputs, traced,
        # so that the overhead compares equal work; which copy runs first
        # alternates between rounds
        tracer.install()
        again = workload.build_round(args.seed, r)
        traced_walls.append(run_round(again, record=False))
        return len(again)

    t_phase = time.perf_counter()
    r = 0
    while True:
        if r > 0:
            inputs = workload.build_round(args.seed, r)
        calibrations.append(_calibration(numpy, linprog))
        if tracer and r % 2:
            traced_ops += run_traced(r)
        walls.append(run_round(inputs, record=True))
        if tracer and not r % 2:
            traced_ops += run_traced(r)
        r += 1
        if time.perf_counter() - t_phase >= args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibrations.append(_calibration(numpy, linprog))
    quartiles = statistics.quantiles(calibrations, n=4)
    calibration_spread = (quartiles[2] - quartiles[0]) / statistics.median(calibrations)
    wrong.extend(workload.final_checks(args.seed, warm_inp, warm_out))

    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "op_times_s": ops,
        "round_walls_s": walls,
        "attempted": attempted,
        "failed": failed,
        "correct": not wrong,
        "problems": (wrong + errors)[:20],
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibrations,
        "calibration_spread": calibration_spread,
        "steady": calibration_spread <= CALIBRATION_STEADY,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer:
        overhead = sum(traced_walls) / sum(walls) - 1.0
        result["traced_round_walls_s"] = traced_walls
        result["layers"] = spans.layer_metrics(tracer, traced_ops, import_s, overhead)
        if args.trace_file:
            tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                           "traced_ops": traced_ops})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
