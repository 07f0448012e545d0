"""Per-layer timing for the benchmark's traced runs, installed from outside.

Each hook replaces one public function of upfmec through the module
attribute, registry entry or class attribute its callers look it up by,
so no file of the program changes. The wrapper records a span per call:
its duration and, through a stack of open spans, the part of it spent in
other wrapped calls, which gives each layer's self time. Some hooks also
read counts from the call's arguments or result.

A wrapper costs time of its own, and a nested wrapper's cost lands in
the spans that enclose it: a bestfit assignment holds up to five
wrapped calls. The tracer measures that cost once, on a no-op with and
without an observer, and subtracts it from each span per wrapped call
nested in it, so span times estimate the untraced program's.

A hook whose attribute no longer exists, or that a workload should call
but did not, is reported as missing rather than as zero work.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

CALIBRATION_CALLS = 20000

SCHEME_KEYS = ("baseline", "bestfit_upf_no_pe", "bestfit_upf_pe", "bestfit_upf_mec")
WRITERS = ("write_summary_csv", "write_summary_json", "write_cdf_csv",
           "write_events_csv", "write_trace_csv", "write_capex_csv")

class Patches:
    """Attribute and registry replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set owner.attr (or owner[attr] for a dict) to make(current value)."""
        if isinstance(owner, dict):
            old = owner[attr]
            owner[attr] = make(old)
            self._undo.append(lambda: owner.__setitem__(attr, old))
        else:
            old = vars(owner)[attr]
            setattr(owner, attr, make(old))
            self._undo.append(lambda: setattr(owner, attr, old))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0  # s, including wrapped children, less their wrappers' cost
    self_time: float = 0.0  # s, excluding wrapped children and their wrappers' cost
    durations: List[float] = field(default_factory=list)


class Tracer:
    """Spans and counts of every hooked call while installed."""

    def __init__(self, costs: Optional[Tuple[float, float]] = None) -> None:
        self.spans: Dict[str, Span] = {}
        self.counts: Counter = Counter()
        self.unavailable: List[str] = []  # hooks whose attribute was not found
        self.top_level = 0.0  # s spent in spans no other span encloses, wrappers included
        # [child time, direct children's wrapper cost, all nested wrapper cost] of each open span
        self._open: List[list] = []
        self._last_optimum: Optional[float] = None
        # s one wrapped call adds to its enclosing spans, and s its observer adds
        self.wrapper_s, self.observer_s = calibrate() if costs is None else costs

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        span = self.spans.setdefault(name, Span())
        open_spans = self._open
        cost = self.wrapper_s + (self.observer_s if observe is not None else 0.0)

        def traced(*args, **kwargs):
            open_spans.append([0.0, 0.0, 0.0])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child_s, direct_cost, nested_cost = open_spans.pop()
                if open_spans:
                    parent = open_spans[-1]
                    parent[0] += dt
                    parent[1] += cost
                    parent[2] += nested_cost + cost
                else:
                    self.top_level += dt
                span.calls += 1
                span.total += dt - nested_cost
                span.self_time += dt - child_s - direct_cost
                span.durations.append(dt - nested_cost)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ observers

    def _on_step(self, args, kwargs, report) -> None:
        generate = args[1] if len(args) > 1 else kwargs.get("generate", True)
        c = self.counts
        c["drain_epochs"] += not generate
        c["arrivals"] += report.arrivals
        c["admitted"] += report.admitted
        c["dropped"] += report.dropped

    def _on_run(self, args, kwargs, result) -> None:
        self.counts["generated"] += result.generated
        self.counts["completed"] += result.completed

    def _on_net_delay(self, args, kwargs, result) -> None:
        self.counts["link_entries"] += 1
        self.counts["link_sharers"] += args[0] if args else kwargs["n_share"]

    def _on_snapshot(self, args, kwargs, result) -> None:
        self.counts["snapshot_entries"] += len(result)

    def _on_optimum(self, args, kwargs, result) -> None:
        n, buckets = args
        k = len(buckets)
        self.counts["compositions"] += math.comb(n + k - 1, k - 1)
        self._last_optimum = result[1]

    def _on_heuristic(self, args, kwargs, result) -> None:
        self.counts["instances"] += 1
        self.counts["exact"] += result[1] == self._last_optimum

    # ----------------------------------------------------------- installing

    def hooks(self, program):
        """(hook name, owner, attribute, observer) of every traced call."""
        eng, sch, met, cli = program.engine, program.schemes, program.metrics, program.cli
        specs = [(f"schemes.assign.{k}", sch.SCHEME_FUNCS, k, None) for k in SCHEME_KEYS]
        specs += [
            ("schemes.upf_bucket_snapshot", sch, "upf_bucket_snapshot", self._on_snapshot),
            ("schemes.mec_snapshot", sch, "mec_snapshot", self._on_snapshot),
            ("schemes.find_bestfit_upf", sch, "find_bestfit_upf", None),
            ("schemes.find_bestfit_mec", sch, "find_bestfit_mec", None),
            ("engine.generate_arrivals", eng, "generate_arrivals", None),
            ("engine.validate_scenario", eng, "validate_scenario", None),
            ("engine.net_delay", eng, "net_delay", self._on_net_delay),
            ("engine.transit_epochs", eng, "transit_epochs", None),
            ("engine.SimulationRun.step_epoch", eng.SimulationRun, "step_epoch", self._on_step),
            ("engine.SimulationRun.__init__", eng.SimulationRun, "__init__", None),
            ("engine.run_to_completion", eng, "run_to_completion", self._on_run),
            ("cli.run_to_completion", cli, "run_to_completion", self._on_run),
            ("metrics.run_to_completion", met, "run_to_completion", self._on_run),
            ("metrics.summarize", met, "summarize", None),
            ("metrics.build_cdf", met, "build_cdf", None),
            ("metrics.build_pair_scenario", met, "build_pair_scenario", None),
            ("metrics.capex_sweep", met, "capex_sweep", None),
            ("cli.minmax_batch_optimum", cli, "minmax_batch_optimum", self._on_optimum),
            ("cli.sequential_heuristic_batch", cli, "sequential_heuristic_batch",
             self._on_heuristic),
        ]
        specs += [(f"metrics.{w}", met, w, None) for w in WRITERS]
        return specs

    def install(self, program, patches: Patches) -> None:
        for name, owner, attr, observe in self.hooks(program):
            try:
                patches.replace(owner, attr, lambda fn, n=name, o=observe: self.wrap(n, fn, o))
            except (AttributeError, KeyError):
                if name not in self.unavailable:
                    self.unavailable.append(name)

    def missing(self, expected) -> List[str]:
        """Expected hooks that could not be installed or saw no call."""
        return sorted(h for h in expected if h not in self.spans or not self.spans[h].calls)

    # -------------------------------------------------------------- metrics

    def _sum(self, names, attr: str = "total") -> float:
        return sum(getattr(self.spans[n], attr) for n in names if n in self.spans)

    def _durations(self, names) -> List[float]:
        return [d for n in names if n in self.spans for d in self.spans[n].durations]

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric the spans and counts give; no work reads 0."""
        c = self.counts
        assign = [f"schemes.assign.{k}" for k in SCHEME_KEYS]
        step = ["engine.SimulationRun.step_epoch"]
        assign_s = self._sum(assign)
        assign_calls = sum(self.spans[n].calls for n in assign if n in self.spans)
        step_s = self._sum(step)
        epochs = sorted(self._durations(step))
        drops_upf = c["arrivals"] - c["admitted"]
        minmax = self._durations(["cli.minmax_batch_optimum"])
        heuristic = self._durations(["cli.sequential_heuristic_batch"])
        return {
            "schemes.assign_s": assign_s,
            "schemes.assign_us_mean": _div(assign_s, assign_calls) * 1e6,
            "schemes.assign_calls": assign_calls,
            "schemes.assign_share": _div(assign_s, step_s),
            "schemes.snapshot_s": self._sum(["schemes.upf_bucket_snapshot", "schemes.mec_snapshot"]),
            "schemes.argmin_s": self._sum(
                ["schemes.find_bestfit_upf", "schemes.find_bestfit_mec"], "self_time"),
            "schemes.snapshot_entries": c["snapshot_entries"],
            "engine.epochs": len(epochs),
            "engine.epoch_ms_p50": nearest_rank(epochs, 50.0) * 1e3,
            "engine.epoch_ms_p99": nearest_rank(epochs, 99.0) * 1e3,
            "engine.step_self_s": self._sum(step, "self_time"),
            "engine.arrivals_s": self._sum(["engine.generate_arrivals"]),
            "engine.init_ms_p50": nearest_rank(
                sorted(self._durations(["engine.SimulationRun.__init__"])), 50.0) * 1e3,
            "model.validate_ms": _mean(self._durations(["engine.validate_scenario"])) * 1e3,
            "metrics.build_pair_ms": _mean(self._durations(["metrics.build_pair_scenario"])) * 1e3,
            "engine.requests": c["generated"],
            "engine.admitted": c["admitted"],
            "engine.drops_upf_admission": drops_upf,
            "engine.drops_mec_arrival": c["dropped"] - drops_upf,
            "engine.completed": c["completed"],
            "engine.drain_epochs": c["drain_epochs"],
            "engine.link_entries": c["link_entries"],
            "engine.link_sharers_mean": _div(c["link_sharers"], c["link_entries"]),
            "delay.transit_s": self._sum(["engine.net_delay", "engine.transit_epochs"]),
            "metrics.summarize_ms_p50": nearest_rank(
                sorted(self._durations(["metrics.summarize"])), 50.0) * 1e3,
            "metrics.build_cdf_ms": _mean(self._durations(["metrics.build_cdf"])) * 1e3,
            "metrics.write_s": self._sum([f"metrics.{w}" for w in WRITERS]),
            "metrics.sweep_self_s": self._sum(["metrics.capex_sweep"], "self_time"),
            "oracle.minmax_ms_mean": _mean(minmax) * 1e3,
            "oracle.heuristic_ms_mean": _mean(heuristic) * 1e3,
            "oracle.compositions": c["compositions"],
            "oracle.exact_ratio": _div(c["exact"], c["instances"]),
        }


def calibrate(repeats: int = 5) -> Tuple[float, float]:
    """Seconds a wrapped call adds to its enclosing span, and seconds its observer adds.

    Times loops of calls to a two-argument no-op inside an open span: bare,
    wrapped, and wrapped with an observer that counts the result's length
    as the snapshot hooks do. The least of several repeats is the cost.
    """
    probe = Tracer(costs=(0.0, 0.0))
    probe._open.append([0.0, 0.0, 0.0])
    call_args = ((), None)

    def noop(a, b):
        return a

    def observe(args, kwargs, result):
        probe.counts["entries"] += len(result)

    def loop(fn) -> float:
        t0 = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            fn(*call_args)
        return perf_counter() - t0

    wrapped = probe.wrap("calibration", noop)
    observed = probe.wrap("calibration.observed", noop, observe)
    samples = [(loop(noop), loop(wrapped), loop(observed)) for _ in range(repeats)]
    wrapper = min(w - b for b, w, _ in samples)
    observer = min(o - w for _, w, o in samples)
    return max(0.0, wrapper / CALIBRATION_CALLS), max(0.0, observer / CALIBRATION_CALLS)


def _div(a: float, b: float) -> float:
    """a / b, or 0 when b is 0 (the layer did no work)."""
    return a / b if b else 0.0


def _mean(values) -> float:
    return _div(sum(values), len(values))


def nearest_rank(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sample; 0 for an empty one."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]
