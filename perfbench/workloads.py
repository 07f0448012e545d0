"""The benchmark's four workloads, and how each checks its outputs.

A workload is a closed loop of units. A unit is one call into the program
(one simulated cell for ``wide_bestfit``, one ``upfmec`` command for the
others), keyed by the simulation seed or seed range it runs. Every unit's
outputs are reduced to a sha256 digest and compared with the digest
recorded for the same key in ``reference.json``.

A cell is one ``run_to_completion`` call, or for ``oracle_gap`` one
instance scored by both the exhaustive optimum and the heuristic. Cells
are timed by wrappers the benchmark puts around the module attribute the
program calls them through, with two clock reads per cell.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass, field, replace
from importlib import import_module, resources
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"  # where the metrics' names and units are read from
OUT = ROOT / ".perfbench_out"  # the commands' output files, deleted after digesting


class ProgramMissing(RuntimeError):
    """The checkout holds no upfmec sources to benchmark."""


@dataclass
class Program:
    """The upfmec modules, imported from this checkout's ``src/``."""

    cli: object
    engine: object
    metrics: object
    model: object
    schemes: object

    def bundled(self, name: str):
        path = resources.files("upfmec").joinpath(f"scenarios/{name}.yaml")
        return self.model.load_scenario(str(path))


def import_program() -> Program:
    """Import upfmec from ``src/`` next to the benchmark, and from nowhere else."""
    package = SRC / "upfmec"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no upfmec sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import upfmec

    if Path(upfmec.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"upfmec was imported from {upfmec.__file__}, not {package}")
    mods = {m: import_module(f"upfmec.{m}") for m in ("cli", "engine", "metrics", "model", "schemes")}
    return Program(**mods)


@dataclass
class Cell:
    ms: float
    requests: int
    ok: bool
    probe: int  # index in Cells.probes of the last speed probe before the cell


@dataclass
class Cells:
    """Cells timed so far, appended to by the cell wrappers, and the speed probes between them."""

    items: List[Cell] = field(default_factory=list)
    probes: List[List[float]] = field(default_factory=list)  # speed.probe() results, in time order
    probe_each: bool = False  # probe before every cell, not only between units
    probe_s: float = 0.0  # host time spent in probes taken inside units
    _t0: float = 0.0
    _probe: int = -1

    def open(self) -> int:
        """Probe the host's speed before a cell if asked; the index of the probe before it."""
        if self.probe_each:
            t0 = perf_counter()
            self.probes.append(speed.probe())
            self.probe_s += perf_counter() - t0
        return len(self.probes) - 1


def _conserved(result) -> bool:
    return (
        result.generated == result.completed + result.dropped
        and result.residual == 0
        and not result.truncated
    )


def time_runs(fn: Callable, cells: Cells) -> Callable:
    """Wrap a run_to_completion binding: one cell per call."""

    def run_to_completion(*args, **kwargs):
        probe = cells.open()
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        t1 = perf_counter()
        cells.items.append(Cell((t1 - t0) * 1e3, result.generated, _conserved(result), probe))
        return result

    return run_to_completion


def time_optimum(fn: Callable, cells: Cells) -> Callable:
    """Wrap the exhaustive optimum: its start opens an oracle_gap cell."""

    def minmax_batch_optimum(*args, **kwargs):
        cells._probe = cells.open()
        cells._t0 = perf_counter()
        return fn(*args, **kwargs)

    return minmax_batch_optimum


def time_heuristic(fn: Callable, cells: Cells) -> Callable:
    """Wrap the heuristic: its return closes the cell; n requests were placed."""

    def sequential_heuristic_batch(n, buckets):
        result = fn(n, buckets)
        t1 = perf_counter()
        cells.items.append(Cell((t1 - cells._t0) * 1e3, n, True, cells._probe))
        return result

    return sequential_heuristic_batch


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        h.update((path / name).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class UnitResult:
    seconds: float  # host time of the timed call(s)
    digest: str


class Workload:
    """One named workload: its inputs, its timed unit and its checks."""

    name: str
    pool: Sequence[int]  # unit keys with recorded reference digests
    tail_pct: float  # percentile reported as cell_ms_tail
    trace_units: int  # unit pairs (untraced, traced) in a traced run
    hooks: frozenset  # traced hooks this workload must call
    probe_cells = False  # probe the host's speed before every cell, not only between units

    def prepare(self, program: Program) -> None:
        """Set-up before the first timed cell."""

    def cell_bindings(self, program: Program):
        """(owner, attribute, wrapper factory) of the calls that are cells."""
        raise NotImplementedError

    def run_unit(self, program: Program, key: int, out: Path) -> UnitResult:
        raise NotImplementedError

    def memory_cell(self, program: Program):
        """A scenario whose run_to_completion shows retained bytes, or None."""
        return None

    def keys(self, seed: int):
        """The endless unit sequence for a benchmark seed: pool permutations."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            order = list(self.pool)
            rng.shuffle(order)
            yield from order


class CliWorkload(Workload):
    """A unit is one ``upfmec`` command; the digest covers every file it writes."""

    scenario_name: Optional[str] = None  # bundled scenario the command loads

    def argv(self, key: int, out: Path) -> List[str]:
        raise NotImplementedError

    def prepare(self, program: Program) -> None:
        if self.scenario_name:
            self.scenario = program.bundled(self.scenario_name)

    def run_unit(self, program: Program, key: int, out: Path) -> UnitResult:
        out.mkdir(parents=True)
        argv = self.argv(key, out)
        sink = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = program.cli.main(argv)
        seconds = perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"upfmec {' '.join(argv)} exited with {rc}")
        return UnitResult(seconds, digest_dir(out))


SIM_HOOKS = frozenset({
    "schemes.upf_bucket_snapshot", "schemes.mec_snapshot",
    "schemes.find_bestfit_upf", "schemes.find_bestfit_mec",
    "engine.generate_arrivals", "engine.validate_scenario", "engine.net_delay",
    "engine.transit_epochs", "engine.SimulationRun.step_epoch",
    "engine.SimulationRun.__init__",
})


class WideBestfit(Workload):
    name = "wide_bestfit"
    pool = range(1, 41)
    tail_pct = 50.0  # about 20 cells a run support no higher percentile
    trace_units = 4
    hooks = SIM_HOOKS | {"schemes.assign.bestfit_upf_mec", "metrics.summarize"}
    PAIRS = 50

    def prepare(self, program: Program) -> None:
        base = program.bundled("metro")
        scaled = program.metrics.build_pair_scenario(base, self.PAIRS)
        self.scenario = replace(scaled, scheme=program.model.Scheme.BESTFIT_UPF_MEC)

    def cell_bindings(self, program: Program):
        return [(program.engine, "run_to_completion", time_runs)]

    def run_unit(self, program: Program, key: int, out: Path) -> UnitResult:
        t0 = perf_counter()
        result = program.engine.run_to_completion(self.scenario, seed=key)
        report = program.metrics.summarize(result)
        seconds = perf_counter() - t0
        doc = json.dumps(program.metrics.summary_to_dict(report), sort_keys=True)
        return UnitResult(seconds, hashlib.sha256(doc.encode()).hexdigest())

    def memory_cell(self, program: Program):
        return self.scenario


class CampusCompare(CliWorkload):
    name = "campus_compare"
    scenario_name = "campus5"
    SEEDS_PER_UNIT = 4
    pool = range(1, 97, SEEDS_PER_UNIT)
    tail_pct = 90.0
    trace_units = 4
    probe_cells = True  # 16 cells of 50-200 ms in a unit of about 2 s
    hooks = SIM_HOOKS | {
        "schemes.assign.baseline", "schemes.assign.bestfit_upf_no_pe",
        "schemes.assign.bestfit_upf_pe", "schemes.assign.bestfit_upf_mec",
        "cli.run_to_completion", "metrics.summarize", "metrics.build_cdf",
        "metrics.write_cdf_csv",
    }

    def argv(self, key: int, out: Path) -> List[str]:
        seeds = f"{key}-{key + self.SEEDS_PER_UNIT - 1}"
        return ["compare", "--scenario", "campus5", "--schemes", "all",
                "--seeds", seeds, "--out", str(out)]

    def cell_bindings(self, program: Program):
        return [(program.cli, "run_to_completion", time_runs)]

    def memory_cell(self, program: Program):
        return replace(self.scenario, scheme=program.model.Scheme.BESTFIT_UPF_MEC)


class MetroCapex(CliWorkload):
    name = "metro_capex"
    scenario_name = "metro"
    pool = range(1, 25)
    tail_pct = 90.0
    trace_units = 2
    probe_cells = True  # 20 cells of 30-400 ms in a unit of about 4 s
    hooks = SIM_HOOKS | {
        "schemes.assign.baseline", "schemes.assign.bestfit_upf_mec",
        "metrics.run_to_completion", "metrics.build_pair_scenario",
        "metrics.capex_sweep", "metrics.write_capex_csv",
    }

    def argv(self, key: int, out: Path) -> List[str]:
        return ["capex", "--scenario", "metro", "--pairs", "1-10",
                "--seeds", str(key), "--out", str(out)]

    def cell_bindings(self, program: Program):
        return [(program.metrics, "run_to_completion", time_runs)]

    def memory_cell(self, program: Program):
        return program.metrics.build_pair_scenario(self.scenario, 10)


class OracleGap(CliWorkload):
    name = "oracle_gap"
    TRIALS = 100
    pool = range(1, 129)
    # Batch sizes are uniform over 1-12, so p95 lies inside the largest batches
    # (the top twelfth); above p99 lie the slowest of those, which the host's
    # short stalls set more than the program does.
    tail_pct = 95.0
    trace_units = 24
    hooks = frozenset({"cli.minmax_batch_optimum", "cli.sequential_heuristic_batch"})

    def argv(self, key: int, out: Path) -> List[str]:
        return ["oracle-gap", "--upfs", "5", "--n-max", "12",
                "--trials", str(self.TRIALS), "--seed", str(key), "--out", str(out)]

    def cell_bindings(self, program: Program):
        return [
            (program.cli, "minmax_batch_optimum", time_optimum),
            (program.cli, "sequential_heuristic_batch", time_heuristic),
        ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (WideBestfit(), CampusCompare(), MetroCapex(), OracleGap())
}


def load_reference() -> Dict[str, Dict[str, str]]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}
