"""upfmec benchmark: host cost per simulated request, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs the workload's units in a closed loop for S
seconds, and until enough cells are timed to leave ten beyond the
workload's tail percentile; it checks every unit's output digest against
``reference.json`` and every cell's request conservation, and reports
the end-to-end metrics, each time scaled to the reference speed that
``speed.py`` measures next to it. With ``--trace 1`` it runs a fixed number of unit
pairs, each once untraced and once with the per-layer hooks of
``tracing.py`` installed, and reports the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import speed
import workloads
from tracing import Patches, Tracer, nearest_rank
from workloads import Cells, ProgramMissing, UnitResult, Workload

SETUP_PROBES = 7


# ------------------------------------------------------------------ set-up


def setup_probe(workload: Workload) -> None:
    """Child side of a set-up sample: import, prepare, say so, exit."""
    workload.prepare(workloads.import_program())
    print("ready", flush=True)


def setup_seconds(name: str) -> float:
    """Time from starting a fresh interpreter until it is ready for the first cell."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe for {name} failed with exit code {rc}")
    return seconds


# ---------------------------------------------------------------- measuring


class NoCells(RuntimeError):
    """Every unit failed before timing a cell, so there is nothing to report."""


class Run:
    """Units run so far and what their checks found."""

    def __init__(self, workload: Workload, program, reference: Dict[str, str], out: Path):
        self.workload = workload
        self.program = program
        self.reference = reference
        self.out = out
        self.cells = Cells()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._n = 0

    def unit(self, key: int, tracer: Optional[Tracer] = None) -> Tuple[float, int]:
        """Run one unit; returns its timed seconds, less speed probes, and simulated requests."""
        patches = Patches()
        for owner, attr, factory in self.workload.cell_bindings(self.program):
            patches.replace(owner, attr, lambda fn, f=factory: f(fn, self.cells))
        if tracer is not None:
            tracer.install(self.program, patches)
        first, probe_s = len(self.cells.items), self.cells.probe_s
        out = self.out / f"u{self._n}"
        self._n += 1
        result: Optional[UnitResult] = None
        error = ""
        try:
            result = self.workload.run_unit(self.program, key, out)
        except Exception as exc:  # a failed unit is counted, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        finally:
            patches.undo()
            shutil.rmtree(out, ignore_errors=True)
        cells = self.cells.items[first:]
        n = max(1, len(cells))
        self.attempted += n
        expected = self.reference.get(str(key))
        if result is None:
            bad, why = n, error
        elif result.digest != expected:
            bad, why = n, f"digest {result.digest[:12]} != reference {str(expected)[:12]}"
        else:
            bad = sum(not c.ok for c in cells)
            why = f"{bad} cell(s) broke request conservation"
        if bad:
            self.failed += bad
            self.failures.append(f"unit {key}: {why}")
        seconds = result.seconds - (self.cells.probe_s - probe_s) if result is not None else 0.0
        return seconds, sum(c.requests for c in cells)


def cells_for(pct: float) -> int:
    """Fewest cells that leave ten beyond the pct-th nearest-rank percentile."""
    return math.ceil(round(10.0 / (1.0 - pct / 100.0), 6))


def time_metrics(units: List[Tuple[float, int]], cells: List[float], setup: List[float],
                 pct: float) -> Dict[str, float]:
    """The time metrics from timed units (seconds, requests), cell ms and set-up s."""
    per_req = [s / r * 1e6 for s, r in units if r]
    if not per_req:
        raise NoCells("no timed unit generated a request")
    ms = sorted(cells)
    return {
        "setup_s": statistics.median(setup),
        "us_per_req": statistics.median(per_req),
        "cell_ms_p50": statistics.median(ms),
        "cell_ms_tail": nearest_rank(ms, pct),
    }


def measure(run: Run, seed: int, seconds: float, min_cells: int,
            probes: int) -> Dict[str, float]:
    """Closed loop of units; set-up probes are spread over the run, between units.

    The loop runs for the given seconds and until min_cells cells are timed.
    A speed probe runs before the first unit, after every unit and set-up
    probe, and, on workloads that ask for it, before every cell. Each cell
    and set-up probe is scaled by the two speed probes around it, and the
    rest of a unit by all the probes around and inside it.
    """
    keys = run.workload.keys(seed)
    cells, speeds = run.cells, run.cells.probes
    units: List[Tuple[float, int, int, int, int, int]] = []  # s, requests, cells and probes from, to
    setup: List[Tuple[float, int]] = []  # s, the probe before
    speeds.append(speed.probe())
    cells.probe_each = run.workload.probe_cells
    t0 = perf_counter()
    while perf_counter() - t0 < seconds or len(cells.items) < min_cells:
        if len(setup) < probes and perf_counter() - t0 >= len(setup) * seconds / probes:
            setup.append((setup_seconds(run.workload.name), len(speeds) - 1))
            speeds.append(speed.probe())
        else:
            first, probe = len(cells.items), len(speeds) - 1
            s, r = run.unit(next(keys))
            speeds.append(speed.probe())
            units.append((s, r, first, len(cells.items), probe, len(speeds) - 1))
        if perf_counter() - t0 > 150.0:
            break
    cells.probe_each = False
    while len(setup) < probes:
        setup.append((setup_seconds(run.workload.name), len(speeds) - 1))
        speeds.append(speed.probe())
    if not sum(c.requests for c in cells.items):
        raise NoCells(run.failures)

    def factor(a: int, b: int) -> float:
        return speed.factor(speeds[a:b + 1])

    host = {"units": [], "cells": [], "setup": [s for s, _ in setup]}
    scaled = {"units": [], "cells": [], "setup": [s * factor(p, p + 1) for s, p in setup]}
    for s, r, first, end, p0, p1 in units:
        unit_cells = cells.items[first:end]
        cell_ms = [c.ms * factor(c.probe, c.probe + 1) for c in unit_cells]
        rest = s - sum(c.ms for c in unit_cells) / 1e3
        host["units"].append((s, r))
        host["cells"].extend(c.ms for c in unit_cells)
        scaled["units"].append((sum(cell_ms) / 1e3 + rest * factor(p0, p1), r))
        scaled["cells"].extend(cell_ms)
    pct = run.workload.tail_pct
    values = time_metrics(scaled["units"], scaled["cells"], scaled["setup"], pct)
    raw = time_metrics(host["units"], host["cells"], host["setup"], pct)
    beyond = sum(m > values["cell_ms_tail"] for m in scaled["cells"])
    factors = [speed.NOMINAL_CHUNK_MS / statistics.median(p) for p in speeds]
    print(f"cells: {len(scaled['cells'])}; cell_ms_tail is their p{pct:g}, {beyond} cells beyond it")
    print(f"speed (reference / host) of {len(speeds)} probes: median {statistics.median(factors):.3f}, "
          f"range {min(factors):.3f}-{max(factors):.3f}")
    print("unscaled host time: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def retained_bytes_per_req(run: Run) -> float:
    scenario = run.workload.memory_cell(run.program)
    if scenario is None:
        return 0.0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run.program.engine.run_to_completion(scenario, seed=1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / result.generated


def measure_traced(run: Run, seed: int, units: int) -> Dict[str, float]:
    tracer = Tracer()
    plain_s = traced_s = traced_top = 0.0
    plain_req = traced_req = 0
    for key in islice(run.workload.keys(seed), units):
        s, r = run.unit(key)
        plain_s, plain_req = plain_s + s, plain_req + r
        top = tracer.top_level
        s, r = run.unit(key, tracer)
        traced_s, traced_req = traced_s + s, traced_req + r
        traced_top += tracer.top_level - top
    if not (plain_req and traced_req):
        raise NoCells(run.failures)
    metrics = tracer.layer_metrics()
    missing = tracer.missing(run.workload.hooks)
    metrics["cli.self_s"] = traced_s - traced_top
    metrics["engine.retained_bytes_per_req"] = retained_bytes_per_req(run)
    metrics["trace.overhead_us_per_req"] = (traced_s / traced_req - plain_s / plain_req) * 1e6
    metrics["trace.missing_hooks"] = len(missing)
    for name in sorted(tracer.spans):
        span = tracer.spans[name]
        if span.calls:
            print(f"hook {name}: {span.calls} calls, {span.total:.6f} s, self {span.self_time:.6f} s")
    for name in tracer.unavailable:
        print(f"hook {name}: not found in the program")
    for name in missing:
        print(f"hook {name}: missing (expected on {run.workload.name}, saw no call)")
    print(f"tracing overhead: {metrics['trace.overhead_us_per_req']:.3f} us/req "
          f"({traced_s / traced_req * 1e6:.3f} traced vs {plain_s / plain_req * 1e6:.3f} untraced); "
          f"{tracer.wrapper_s * 1e9:.0f} ns per wrapped call and {tracer.observer_s * 1e9:.0f} ns "
          f"per observer, subtracted from enclosing spans")
    return metrics


# ------------------------------------------------------------ command line


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", choices=sorted(workloads.WORKLOADS), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        p.error("--workload is required")
    return args


def benchmark(name: str, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES,
              min_cells: Optional[int] = None, trace_units: Optional[int] = None) -> dict:
    """Run one workload and return the result object the last line prints.

    probes, min_cells and trace_units shrink a run for the self-tests.
    """
    workload = workloads.WORKLOADS[name]
    units = workloads.metric_units("per_layer" if trace else "end_to_end")
    program = workloads.import_program()
    workload.prepare(program)
    reference = workloads.load_reference()[name]
    out = workloads.OUT / f"{name}.{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    run = Run(workload, program, reference, out)
    try:
        if trace:
            values = measure_traced(run, seed, trace_units or workload.trace_units)
        else:
            if min_cells is None:
                min_cells = cells_for(workload.tail_pct)
            values = measure(run, seed, seconds, min_cells, probes)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for line in run.failures:
        print(f"FAILED {line}")
    print(f"{name}: {run.attempted} cells attempted, {run.failed} failed "
          f"(failed_frac {run.failed / run.attempted:.4f})")
    for metric, unit in units.items():
        print(f"{metric}: {values[metric]:.6g} {unit}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("UPFMEC_MAX_WORKERS", None)  # capex stays in this process, serial
    try:
        if args.setup_probe:
            setup_probe(workloads.WORKLOADS[args.setup_probe])
            return 0
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ProgramMissing, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except NoCells as exc:
        print(f"perfbench: no cell completed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
