#!/usr/bin/env python3
"""Re-measure the baseline rows quoted in ROADMAP.md, once each.

    python3 perfbench/baseline.py

Rows: ``zeitgeist reproduce`` end to end (a fresh process, import
included), ``enumerate_situation_ez`` on a random n=24, P=16 problem,
``run_learning`` with 1000 agents for 1000 periods on the investment game,
and ``cournot_discrete_ez`` on the 201-point grid at both extremes.  Every
row runs single-threaded in its own process.  These are single runs for
orientation; the workloads in run.py are what later changes are judged by.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from run import HERE, ROOT, child_env

ROWS = {
    "enumerate n=24 P=16": """
import numpy as np, time
from zeitgeist import solver
from workloads import random_problem
env, ma, mb = random_problem(np.random.default_rng(0), 24, 16, noisy=False)
t = time.perf_counter()
solver.enumerate_situation_ez(env, ma, mb, "G0", (0.5, 0.5))
print(time.perf_counter() - t)
""",
    "run_learning 1000 agents x 1000 periods": """
import time
from zeitgeist import catalog, learning
env, ma, mb, _ = catalog.build_investment_game(catalog.InvestmentSpec(1.0, 5.5, 12.0))
cfg = learning.SimConfig(n_agents=1000, shares=(0.01, 0.99), horizon=1000, seed=20240901)
t = time.perf_counter()
learning.run_learning(env, ma, mb, cfg)
print(time.perf_counter() - t)
""",
    "cournot_discrete_ez 201-point grid, both extremes": """
import numpy as np, time
from zeitgeist import catalog
grid = np.linspace(0.0, 8.0, 201)
env, ma, mb = catalog.build_cournot_discrete(catalog.CournotSpec(10.0, 2.0, 1.0, 0.5),
                                             grid, 200, 2.0)
t = time.perf_counter()
catalog.cournot_discrete_ez(env, ma, mb, (1.0, 0.0))
catalog.cournot_discrete_ez(env, ma, mb, (0.0, 1.0))
print(time.perf_counter() - t)
""",
}


def main() -> int:
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; from zeitgeist.cli import main; sys.exit(main(['reproduce']))"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=300)
    print(f"zeitgeist reproduce: {time.perf_counter() - t:.2f} s wall, "
          f"exit {proc.returncode}")
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + HERE
    for name, code in ROWS.items():
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"{name}: failed\n{proc.stderr}")
            continue
        print(f"{name}: {float(proc.stdout.split()[-1]):.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
