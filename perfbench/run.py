#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload runs in a fresh
single-threaded Python process (worker.py) that imports zeitgeist from
this checkout's ``src``.  With ``--trace 0`` the last line of standard
output carries the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics, and the spans go to
``perfbench/out/trace-<workload>-seed<seed>.json``.  Every run also writes
``perfbench/out/result-<workload>-seed<seed>-trace<0|1>.json`` with the raw
times, the calibration times that read the machine's speed, the library
versions, the thread settings, nproc and the git SHA.

Set-up time is the median over SETUP_PROBES extra processes that only set
up, plus the measuring process itself, each timed from just before it
starts to its inputs being ready.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("enumerate", "scan", "learn", "catalog")
SETUP_PROBES = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a run lasts about --seconds untraced and twice that traced, plus set-up
# probes, warm-up, the last round's overrun and the checks
DEADLINE_MARGIN_S = 60.0


def child_env() -> dict:
    """Environment of a measuring process: one thread, this checkout's src."""
    env = {k: v for k, v in os.environ.items() if k != "ZEITGEIST_THREADS"}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


def _worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker ran past the run's deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env={**os.environ,
                                   "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_MARGIN_S + 3.0 * args.seconds

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "zeitgeist", "__init__.py")) \
            or not os.path.isfile(spec_path):
        print(f"run.py: no zeitgeist sources under {SRC} or no BENCHMARK.json; "
              "run it from a checkout of the repository", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    main_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        main_args += ["--trace-file", os.path.join(OUT, f"trace-{tag}.json")]
    try:
        setups = [] if args.trace else [
            _worker(common + ["--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        res = _worker(main_args, deadline)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    if args.trace:
        values = res["layers"]
    else:
        values = {
            "wall_s": statistics.fmean(res["round_walls_s"]),
            "op_p50_ms": 1000.0 * statistics.median(res["op_times_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "setup_samples_s": setups,
        "git_sha": _git_sha(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: child_env().get(k) for k in (*THREAD_VARS, "ZEITGEIST_THREADS")},
        **{k: v for k, v in res.items() if k != "layers"},
    }
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in res["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload} calibration = "
          f"{1000.0 * statistics.median(res['calibration_s']):.1f} ms median, spread "
          f"{res['calibration_spread']:.3f}"
          + ("" if res["steady"] else ": the machine's speed moved during this run"),
          file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
