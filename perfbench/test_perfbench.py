"""Self-tests of the benchmark: python3 -m pytest perfbench

Each workload runs in a tiny configuration (one unit, one set-up probe),
once untraced and once traced, and its result must satisfy the output
contract that BENCHMARK.json describes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
import workloads

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def tiny(name: str, trace: bool) -> dict:
    return run.benchmark(name, seed=1, seconds=0.0, trace=trace, probes=1,
                         min_cells=1, trace_units=1)


@pytest.fixture(scope="module")
def results():
    return {(name, trace): tiny(name, trace)
            for name in workloads.WORKLOADS for trace in (False, True)}


@pytest.fixture(scope="module")
def bench():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def validate(result: dict, specs: list) -> None:
    """The last-line contract: exact keys, whole counts, every metric with its unit."""
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    for key in ("attempted", "failed"):
        assert isinstance(result[key], int) and not isinstance(result[key], bool)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool)
    json.dumps(result, allow_nan=False)


def test_benchmark_json_names_the_workloads_and_bounds(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_metric_and_unit_names_are_well_formed(bench):
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in bench[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tiny_run_is_correct_and_valid(results, bench, name, trace):
    result = results[(name, trace)]
    assert result["correct"] and result["failed"] == 0
    validate(result, bench["per_layer" if trace else "end_to_end"])
    assert all(NAME.match(m) for m in result["metrics"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.missing_hooks"]["value"] == 0


def test_traced_counts_show_which_paths_run(results):
    def layer(name, metric):
        return results[(name, True)]["metrics"][metric]["value"]

    sims = ("wide_bestfit", "campus_compare", "metro_capex")
    for name in sims:
        requests = layer(name, "engine.requests")
        assert requests > 0
        assert requests == (layer(name, "engine.completed")
                            + layer(name, "engine.drops_upf_admission")
                            + layer(name, "engine.drops_mec_arrival"))
    assert layer("metro_capex", "engine.drops_upf_admission") > 0
    assert layer("campus_compare", "engine.drops_upf_admission") == 0
    assert layer("oracle_gap", "oracle.compositions") > 0
    assert layer("oracle_gap", "engine.requests") == 0
    shares = {name: layer(name, "schemes.assign_share") for name in sims}
    assert max(shares, key=shares.get) == "wide_bestfit"


def test_altered_reference_digest_is_a_failure(monkeypatch):
    good = workloads.load_reference()
    bad = {name: dict(digests) for name, digests in good.items()}
    bad["oracle_gap"] = {key: "0" * 64 for key in good["oracle_gap"]}
    monkeypatch.setattr(workloads, "load_reference", lambda: bad)
    result = tiny("oracle_gap", trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_gap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", ["campus_compare", "oracle_gap"])
def test_times_are_scaled_by_the_speed_probes(monkeypatch, capsys, name):
    """A host that runs the kernel at half the reference speed halves every reported time."""
    monkeypatch.setattr(speed, "probe", lambda chunks=8: [2 * speed.NOMINAL_CHUNK_MS] * chunks)
    result = tiny(name, trace=False)
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("unscaled host time:"))
    host = dict(pair.split() for pair in line.split(":", 1)[1].split(","))
    for metric in ("setup_s", "us_per_req", "cell_ms_p50", "cell_ms_tail"):
        assert result["metrics"][metric]["value"] == pytest.approx(float(host[metric]) / 2, rel=1e-5)
