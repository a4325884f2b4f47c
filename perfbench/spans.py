"""In-memory tracing of zeitgeist's layers from outside the package.

The tracer wraps module-level names of the program (functions, and methods
on classes) with thin wrappers that record a span (name, start, end,
parent span) and a call count, then call the original with the same
arguments and return its result unchanged.  A function is wrapped in every
``zeitgeist`` module that holds it, so a name imported into another module
(``enumerate_situation_ez`` into ``stability``, ``verify_ez`` into
``catalog``) is traced on both paths.  A name the program no longer has is
skipped and reads as zero calls.

Self time is a span's length minus the time its child spans cover.  Spans
of one name nested inside each other count once in that name's total.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute path).  A zeitgeist function is wrapped in
# every loaded zeitgeist module that holds it; a library function (scipy's
# linprog, logsumexp) only in the module named, since its other call sites
# belong to other layers; a method on its class.
SPANS = (
    ("games.payoff_matrix", "zeitgeist.games", "DenseKernel.payoff_matrix"),
    ("games.payoff_matrix", "zeitgeist.games", "StageEnv.payoff_matrix"),
    ("inference.kl_profile_tables", "zeitgeist.inference", "kl_profile_tables"),
    ("inference.kl_minimizers", "zeitgeist.inference", "kl_minimizers"),
    ("solver.enumerate_ez", "zeitgeist.solver", "enumerate_ez"),
    ("solver.enumerate_situation_ez", "zeitgeist.solver", "enumerate_situation_ez"),
    ("solver.linprog", "zeitgeist.solver", "linprog"),
    ("solver.verify_ez", "zeitgeist.solver", "verify_ez"),
    ("stability.classify_stability", "zeitgeist.stability", "classify_stability"),
    ("stability.stable_shares", "zeitgeist.stability", "stable_shares"),
    ("stability.scan_stable_shares", "zeitgeist.stability", "scan_stable_shares"),
    ("stability.detect_reversal", "zeitgeist.stability", "detect_reversal"),
    ("models.expand_product", "zeitgeist.models", "Model.expand_product"),
    ("models.illusion_of_control_model", "zeitgeist.models", "illusion_of_control_model"),
    ("learning.run_learning", "zeitgeist.learning", "run_learning"),
    ("learning.logsumexp", "zeitgeist.learning", "logsumexp"),
    ("learning.compare_to_ez", "zeitgeist.learning", "compare_to_ez"),
    ("catalog.build_cournot_discrete", "zeitgeist.catalog", "build_cournot_discrete"),
    ("catalog.masses", "zeitgeist.catalog", "GaussianGridKernel.masses"),
    ("catalog.cournot_discrete_ez", "zeitgeist.catalog", "cournot_discrete_ez"),
    ("catalog.centipede_analysis", "zeitgeist.catalog", "centipede_analysis"),
    ("catalog.dollar_analysis", "zeitgeist.catalog", "dollar_analysis"),
)

# called thousands of times per operation for microseconds each: counted,
# not timed, so the wrapper stays cheap and adds no span
COUNTS = (
    ("inference.kl_divergence", "zeitgeist.inference", "kl_divergence"),
)

SPAN_CAP = 50_000          # spans kept for the trace file; totals never stop


class Tracer:
    """Counters, totals and a bounded span log, filled while installed."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.depth = defaultdict(int)
        self.events = defaultdict(float)   # derived counts, see the hooks
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.dropped = 0
        self._stack: list[list] = []       # [name, start, child time, span index]
        self._patches: list[tuple] = []

    # -- installation --------------------------------------------------
    def install(self) -> None:
        if self._patches:
            return
        for name, module, attr in SPANS:
            self._patch(module, attr, lambda fn, n=name: self._span_wrapper(n, fn))
        for name, module, attr in COUNTS:
            self._patch(module, attr, lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, attr: str, make) -> None:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return
        owner = mod
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return
        original = owner.__dict__.get(last) if isinstance(owner, type) else getattr(owner, last, None)
        if original is None:
            return
        wrapper = make(original)
        owners = [owner]
        if not path and (getattr(original, "__module__", None) or "").startswith("zeitgeist"):
            owners = [m for key, m in list(sys.modules.items())
                      if key == "zeitgeist" or key.startswith("zeitgeist.")]
        for holder in owners:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapper)

    # -- wrappers --------------------------------------------------------
    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook.before(tracer, args, kwargs)
            start = time.perf_counter()
            frame = [name, start, 0.0, tracer._open(name, start)]
            tracer._stack.append(frame)
            tracer.depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(frame, end)
            if hook is not None:
                hook.after(tracer, args, kwargs, result)
            return result
        return spanned

    def _open(self, name: str, start: float) -> int:
        if len(self.sp_start) >= SPAN_CAP:
            self.dropped += 1
            return -1
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][3] if self._stack else -1
        self.sp_name.append(nid)
        self.sp_parent.append(parent)
        self.sp_start.append(start - self.t0)
        self.sp_end.append(-1.0)
        return len(self.sp_start) - 1

    def _close(self, frame: list, end: float) -> None:
        name, start, child, idx = frame
        self._stack.pop()
        self.depth[name] -= 1
        dur = end - start
        self.calls[name] += 1
        if self.depth[name] == 0:
            self.total[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.sp_end[idx] = end - self.t0

    # -- output ------------------------------------------------------------
    def summary(self) -> dict:
        names = sorted(set(self.calls) | set(self.total))
        return {n: {"calls": self.calls[n], "total_s": self.total[n],
                    "self_s": self.self_s[n]} for n in names}

    def write(self, path: str, extra: dict) -> None:
        doc = {
            **extra,
            "summary": self.summary(),
            "events": dict(self.events),
            "span_names": self.names,
            "spans": {"name": list(self.sp_name), "parent": list(self.sp_parent),
                      "start_s": [round(v, 7) for v in self.sp_start],
                      "end_s": [round(v, 7) for v in self.sp_end]},
            "spans_dropped": self.dropped,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


class _Hook:
    """Reads a traced call's arguments and result to derive a count.

    ``before`` may swap a callable argument for a counting proxy of it; the
    proxy forwards every call and returns the same value.
    """

    def before(self, tracer, args, kwargs):
        return args, kwargs

    def after(self, tracer, args, kwargs, result):
        pass


class _EnumerateSituation(_Hook):
    # mixture-supported beliefs in emitted outcomes, for the LP yield, and
    # the situation solves that made at least one LP call
    def before(self, tracer, args, kwargs):
        self.lp_calls = tracer.calls["solver.linprog"]
        return args, kwargs

    def after(self, tracer, args, kwargs, result):
        tracer.events["mixture_beliefs"] += sum(
            int(bool(o.mixture_a)) + int(bool(o.mixture_b)) for o in result)
        tracer.events["situation_solves"] += 1
        if tracer.calls["solver.linprog"] > self.lp_calls:
            tracer.events["situation_solves_with_lp"] += 1


class _KlTables(_Hook):
    def after(self, tracer, args, kwargs, result):
        if tracer.depth["stability.stable_shares"] > 0:
            tracer.events["kl_tables_in_stable_shares"] += 1


class _StableShares(_Hook):
    # one KL table per model per situation is all a share scan needs
    def before(self, tracer, args, kwargs):
        env = args[0] if args else kwargs.get("env")
        tracer.events["stable_shares_problems"] += 2 * env.n_situations
        return args, kwargs


class _ScanStableShares(_Hook):
    def before(self, tracer, args, kwargs):
        if tracer.depth["stability.stable_shares"] == 0:
            return args, kwargs
        events = tracer.events

        def counting(source):
            @functools.wraps(source)
            def evaluate(p):
                events["share_evals"] += 1
                return source(p)
            return evaluate

        if args:
            args = (counting(args[0]),) + tuple(args[1:])
        elif "gap_source" in kwargs:
            kwargs = {**kwargs, "gap_source": counting(kwargs["gap_source"])}
        return args, kwargs


class _RunLearning(_Hook):
    def before(self, tracer, args, kwargs):
        cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
        tracer.events["agent_periods"] += cfg.n_agents * cfg.horizon
        return args, kwargs


_HOOKS = {
    "solver.enumerate_situation_ez": _EnumerateSituation(),
    "inference.kl_profile_tables": _KlTables(),
    "stability.stable_shares": _StableShares(),
    "stability.scan_stable_shares": _ScanStableShares(),
    "learning.run_learning": _RunLearning(),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, n_ops: int, import_s: float,
                  overhead_ratio: float) -> dict:
    """Per-layer metric values, per operation unless named as a ratio."""
    per = lambda v: _ratio(v, n_ops)
    ev = tr.events
    return {
        "setup.import_s": import_s,
        "games.payoff_matrix.s": per(tr.total["games.payoff_matrix"]),
        "inference.kl_profile_tables.calls": per(tr.calls["inference.kl_profile_tables"]),
        "inference.kl_profile_tables.s": per(tr.total["inference.kl_profile_tables"]),
        "inference.kl_divergence.calls": per(tr.calls["inference.kl_divergence"]),
        "inference.kl_minimizers.s": per(tr.total["inference.kl_minimizers"]),
        "solver.enumerate_situation_ez.self_s": per(tr.self_s["solver.enumerate_situation_ez"]),
        "solver.linprog.calls": per(tr.calls["solver.linprog"]),
        "solver.linprog.s": per(tr.total["solver.linprog"]),
        "solver.lp_yield": _ratio(ev["mixture_beliefs"], tr.calls["solver.linprog"]),
        "solver.lp_reach_share": _ratio(ev["situation_solves_with_lp"],
                                        ev["situation_solves"]),
        "solver.verify_ez.s": per(tr.total["solver.verify_ez"]),
        "stability.share_evals": _ratio(ev["share_evals"], tr.calls["stability.stable_shares"]),
        "stability.kl_tables_per_problem": _ratio(ev["kl_tables_in_stable_shares"],
                                                  ev["stable_shares_problems"]),
        "stability.classify_stability.s": per(tr.total["stability.classify_stability"]),
        "stability.stable_shares.s": per(tr.total["stability.stable_shares"]),
        "stability.detect_reversal.s": per(tr.total["stability.detect_reversal"]),
        "models.expand_product.s": per(tr.total["models.expand_product"]),
        "models.illusion_of_control_model.s": per(tr.total["models.illusion_of_control_model"]),
        "learning.run_learning.s": per(tr.total["learning.run_learning"]),
        "learning.agent_periods_per_s": _ratio(ev["agent_periods"],
                                               tr.total["learning.run_learning"]),
        "learning.logsumexp.calls": per(tr.calls["learning.logsumexp"]),
        "learning.logsumexp.s": per(tr.total["learning.logsumexp"]),
        "learning.compare_to_ez.s": per(tr.total["learning.compare_to_ez"]),
        "catalog.build_cournot_discrete.s": per(tr.total["catalog.build_cournot_discrete"]),
        "catalog.masses.calls": per(tr.calls["catalog.masses"]),
        "catalog.masses.s": per(tr.total["catalog.masses"]),
        "catalog.cournot_discrete_ez.s": per(tr.total["catalog.cournot_discrete_ez"]),
        "catalog.centipede_analysis.s": per(tr.total["catalog.centipede_analysis"]),
        "trace.overhead_ratio": overhead_ratio,
    }
