from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from upfmec import metrics
from upfmec.cli import ALL_SCHEMES, _parse_int_list, build_parser, main
from upfmec.engine import run_to_completion
from upfmec.model import QosClass, Scheme, load_scenario, save_scenario

from conftest import field_paths, make_scenario


def test_parse_int_list_forms():
    assert _parse_int_list("1,2,5") == [1, 2, 5]
    assert _parse_int_list("1-4") == [1, 2, 3, 4]
    assert _parse_int_list("1-3,7") == [1, 2, 3, 7]
    with pytest.raises(ValueError):
        _parse_int_list(" , ")


def test_run_bundled_scenario_writes_reports(tmp_path, capsys):
    rc = main(["run", "--scenario", "campus5", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    for report, ext in (("summary", "csv"), ("summary", "json"), ("cdf", "csv")):
        assert (tmp_path / f"campus5.baseline.3.{report}.{ext}").is_file()
    out = capsys.readouterr().out
    assert "campus5 scheme=baseline seed=3" in out


def test_run_with_trace_writes_event_log(tmp_path):
    rc = main([
        "run", "--scenario", "campus5", "--scheme", "bestfit_upf_mec",
        "--seed", "1", "--out", str(tmp_path), "--trace",
    ])
    assert rc == 0
    assert (tmp_path / "campus5.bestfit_upf_mec.1.trace.csv").is_file()
    assert (tmp_path / "campus5.bestfit_upf_mec.1.events.csv").is_file()


def test_run_with_trace_builds_one_view_of_its_run(tmp_path, monkeypatch):
    # the summary, the trace and the event log all read the one view
    built = []

    class Counted(metrics.RunView):
        def __init__(self, run):
            built.append(run)
            super().__init__(run)

    monkeypatch.setattr(metrics, "RunView", Counted)
    assert main(["run", "--scenario", "campus5", "--seed", "1", "--out", str(tmp_path),
                 "--trace"]) == 0
    assert len(built) == 1 and len(list(tmp_path.iterdir())) == 5


@pytest.mark.parametrize("horizon", [0, 3], ids=["horizon_0", "zero_traffic"])
def test_run_trace_of_a_run_without_requests_writes_zero_queue_rows(tmp_path, horizon):
    # no request arrives: trace.csv holds its header and one all-zero row per
    # epoch (none at horizon 0), and both queue peaks are 0
    scenario = make_scenario(name="idle", num_upfs=2, lam=0.0, horizon=horizon)
    upf, mec = metrics.RunView(run_to_completion(scenario)).queue_lengths()
    assert upf.shape == (horizon, 8) and mec.shape == (horizon, 2)
    assert not (upf.any() or mec.any())
    path = tmp_path / "idle.yaml"
    save_scenario(scenario, str(path))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out), "--trace"]) == 0
    with open(out / "idle.baseline.1.trace.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    classes = ("embb", "mmtc", "regular", "urllc")
    assert header[8:] == ([f"upf{i}.{q}.queue" for i in (1, 2) for q in classes]
                          + ["mec1.queue", "mec2.queue"])
    assert rows == [[str(e)] + ["0"] * 17 for e in range(horizon)]
    summary = json.loads((out / "idle.baseline.1.summary.json").read_text())
    assert summary["peak_upf_queue"] == summary["peak_mec_queue"] == 0


def test_run_accepts_scenario_files(tmp_path):
    path = tmp_path / "tiny.yaml"
    save_scenario(make_scenario(lam=2.0, horizon=5, upf_queue_cap=10, mec_queue_cap=10), str(path))
    assert load_scenario(str(path)).name == "tiny"
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0


def test_python_m_upfmec_runs_from_a_checkout():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "upfmec", "--help"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: upfmec")


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # no command uses multiprocessing; importing it would cost every command
    # about 2 MB and 15 ms of start-up
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, upfmec.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def _campus5_file(tmp_path, edit):
    """A copy of campus5's document, edited, as a scenario file."""
    doc = yaml.safe_load(
        resources.files("upfmec").joinpath("scenarios/campus5.yaml").read_text(encoding="utf-8")
    )
    edit(doc)
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_misspelt_scenario_key_is_a_usage_error(tmp_path, capsys):
    # read as its default, the misspelt cap would drain for ten horizons with exit 0
    path = _campus5_file(tmp_path, lambda d: d.update(drain_cap_epoch=0))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"invalid scenario: {path}: unknown key drain_cap_epoch\n"
    assert not (tmp_path / "out").exists()


def test_a_key_given_twice_is_a_usage_error(tmp_path, capsys):
    # read as PyYAML reads it, the second delta_ms would run with exit 0
    path = _campus5_file(tmp_path, lambda d: None)
    path.write_text(path.read_text() + "delta_ms: 5.0\n")
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid scenario: {path}: key delta_ms given twice, again at line ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_yaml_syntax_error_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("horizon_epochs: [1\n")
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"upfmec: error: {path}: not valid YAML ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_missing_scenario_is_a_usage_error(tmp_path, capsys):
    rc = main(["run", "--scenario", "no-such-scenario", "--out", str(tmp_path)])
    assert rc == 2
    assert "no scenario" in capsys.readouterr().err


def test_invalid_scenario_is_a_usage_error(tmp_path, capsys):
    bad = make_scenario(skew=[0.7, 0.5])
    path = tmp_path / "bad.yaml"
    save_scenario(bad, str(path))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "invalid scenario" in capsys.readouterr().err


def _drop_mmtc_queue_cap(doc):
    doc["upfs"][0]["queue_cap"] = {"urllc": 4, "embb": 4, "regular": 4}


def _nan_queue_cap(doc):
    doc["upfs"][0]["queue_cap"] = {"urllc": float("nan"), "embb": 4, "mmtc": 4, "regular": 4}


def _inf_mec_queue_cap(doc):
    doc["mecs"][0]["queue_cap"] = float("inf")


def _no_bandwidths(doc):
    doc["links"] = {}


def _fractional_horizon(doc):
    doc["horizon_epochs"] = 2.5


def _fractional_drain_cap(doc):
    doc["drain_cap_epochs"] = 1.5


def _fractional_seed(doc):
    doc["seed"] = 1.5


def _quoted_delta(doc):
    doc["delta_ms"] = "1"


def _quoted_skew_entry(doc):
    doc["traffic"]["skew"][0] = "0.5"


# the keys of earlier versions, and topologies that are not lists of records
def _stale_headroom_factor(doc):
    doc["headroom_factor"] = 10.0


def _stale_num_upfs(doc):
    doc["num_upfs"] = 2


def _stale_record_id(doc):
    doc["upfs"][0]["id"] = 1


def _empty_upfs(doc):
    doc["upfs"] = []


def _scalar_upfs(doc):
    doc["upfs"] = 5


def _scalar_mec_record(doc):
    doc["mecs"][1] = 3


def _scalar_upf_capacity(doc):
    doc["upfs"][0]["capacity"] = 5


def _scalar_qos_mix(doc):
    doc["traffic"]["qos_mix"] = 3


def _scalar_traffic(doc):
    doc["traffic"] = 7


def _scalar_bandwidth_row(doc):
    doc["links"]["bandwidth_mbps"][1] = 3


def _scalar_thresholds(doc):
    doc["thresholds_ms"] = 5


def _zero_thresholds(doc):
    doc["thresholds_ms"] = 0


def _list_thresholds(doc):
    doc["thresholds_ms"] = []


def _scalar_links(doc):
    doc["links"] = 3


@pytest.mark.parametrize(
    "breaks",
    [
        _drop_mmtc_queue_cap, _nan_queue_cap, _inf_mec_queue_cap, _no_bandwidths,
        _fractional_horizon, _fractional_drain_cap, _fractional_seed,
        _stale_headroom_factor, _stale_num_upfs, _stale_record_id, _empty_upfs, _scalar_upfs,
        _scalar_mec_record, _quoted_delta, _quoted_skew_entry,
        _scalar_upf_capacity, _scalar_qos_mix, _scalar_traffic,
        _scalar_bandwidth_row, _scalar_thresholds, _zero_thresholds, _list_thresholds,
        _scalar_links,
    ],
)
def test_malformed_scenario_file_is_a_usage_error(tmp_path, capsys, breaks):
    path = tmp_path / "bad.yaml"
    save_scenario(make_scenario(lam=2.0), str(path))
    doc = yaml.safe_load(path.read_text())
    breaks(doc)
    path.write_text(yaml.safe_dump(doc))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def _bundled_doc(name):
    """A bundled scenario's document, cut to 3 epochs."""
    doc = yaml.safe_load(
        resources.files("upfmec").joinpath(f"scenarios/{name}.yaml").read_text(encoding="utf-8")
    )
    doc["horizon_epochs"] = 3
    return doc


# campus5 states no queue_cap; metro states one for every UPF bucket and MEC
BUNDLED_DOCS = {name: _bundled_doc(name) for name in ("campus5", "metro")}
DELETE = object()
FIELD_VALUES = [None, True, 0, -1, 2.5, "x", "1", [], [1], {}, {"a": 1}, math.nan, DELETE]


@settings(max_examples=200, deadline=None)
@given(
    where=st.sampled_from([(name, path) for name, doc in BUNDLED_DOCS.items()
                           for path in field_paths(doc)]),
    value=st.sampled_from(FIELD_VALUES),
)
def test_any_one_field_mutation_runs_or_is_a_usage_error(where, value):
    name, path = where
    doc = copy.deepcopy(BUNDLED_DOCS[name])
    *parents, key = path
    node = doc
    for k in parents:
        node = node[k]
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        scenario = os.path.join(tmp, "mutated.yaml")
        with open(scenario, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["run", "--scenario", scenario, "--out", tmp])
    assert rc in (0, 2)
    if rc == 2:
        # one line naming the violation, with no Python exception text in it
        line, = err.getvalue().splitlines()
        assert line.startswith("invalid scenario: ")
        for leak in ("object is not", "cannot be interpreted", "indices must be", "is not a valid"):
            assert leak not in line
        assert not re.search(r"\('[^']*'\)", line)


def test_run_refuses_a_name_that_leaves_the_output_directory(tmp_path, capsys):
    # at --out d/inner the output files of "../escaped" would land in d/
    path = tmp_path / "escape.yaml"
    save_scenario(make_scenario(name="../escaped", lam=2.0, horizon=3), str(path))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "d" / "inner")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario: name must be ")
    assert len(err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["escape.yaml"]


@pytest.mark.parametrize("breaks", [_scalar_traffic, _scalar_bandwidth_row])
def test_capex_rejects_a_malformed_base_before_scaling_it(tmp_path, capsys, breaks):
    path = tmp_path / "bad.yaml"
    save_scenario(make_scenario(upf_queue_cap=4, mec_queue_cap=4), str(path))
    doc = yaml.safe_load(path.read_text())
    breaks(doc)
    path.write_text(yaml.safe_dump(doc))
    rc = main(["capex", "--scenario", str(path), "--pairs", "1-2", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--seeds", "5-1"],
        ["compare", "--seeds", "x"],
        ["capex", "--scenario", "metro", "--pairs", "0"],
        ["capex", "--scenario", "metro", "--pairs", "1-2", "--seeds", "3,y"],
        ["compare", "--schemes", "baseline,baseline", "--seeds", "1"],
        ["compare", "--seeds", "1,1"],
        ["capex", "--scenario", "metro", "--pairs", "1-3,2"],
        ["run", "--scenario", "campus5", "--seed", "-1"],
        ["compare", "--seeds", "-3"],
        ["capex", "--scenario", "metro", "--pairs", "1", "--seeds", "-2"],
    ],
)
def test_malformed_lists_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("upfmec: error: ")
    assert "Traceback" not in err
    assert not out.exists()


def _skew_over_one(tmp_path):
    path = tmp_path / "skew.yaml"
    save_scenario(make_scenario(skew=[0.7, 0.5]), str(path))
    return ["--scenario", str(path), "--schemes", "all"]


def _co_located_scheme_last(tmp_path):
    # bestfit_upf_mec accepts 2 UPFs and 1 MEC, baseline does not
    path = tmp_path / "rectangular.yaml"
    save_scenario(make_scenario(num_upfs=2, num_mecs=1, scheme=Scheme.BESTFIT_UPF_MEC), str(path))
    return ["--scenario", str(path), "--schemes", "bestfit_upf_mec,baseline"]


@pytest.mark.parametrize("scenario", [_skew_over_one, _co_located_scheme_last])
def test_compare_checks_every_scheme_before_it_writes(tmp_path, capsys, scenario):
    out = tmp_path / "out"
    rc = main(["compare", *scenario(tmp_path), "--seeds", "1-2", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--scenario", "campus5", "--seed", "-1"], "--seed"),
        (["compare", "--seeds", "-3"], "--seeds"),
        (["capex", "--scenario", "metro", "--pairs", "1", "--seeds", "2,-2"], "--seeds"),
        (["oracle-gap", "--seed", "-7"], "--seed"),
    ],
)
def test_a_negative_seed_is_refused_by_its_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"upfmec: error: {flag} must be >= 0, got -")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--scenario", "campus5", "--seed", "9" * 240], "--seed"),
        (["compare", "--seeds", str(2**64)], "--seeds"),
        (["capex", "--scenario", "metro", "--pairs", "1", "--seeds", f"1,{2**64}"], "--seeds"),
        (["oracle-gap", "--seed", "9" * 240], "--seed"),
    ],
    ids=["run", "compare", "capex", "oracle-gap"],
)
def test_a_seed_that_cannot_stem_a_report_file_is_refused_by_its_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"upfmec: error: {flag} must be below 2**64, got ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "name, seed, named",
    [
        ("n" * 300, 1, "name is 300 bytes as a file name, at most 200 allowed"),
        ("a\0b", 1, "name must not hold a NUL character"),
        ("tiny", 10**240, "seed must be below 2**64"),
    ],
    ids=["name_300_bytes", "name_nul", "seed_240_digits"],
)
def test_a_scenario_whose_name_or_seed_cannot_stem_a_report_file_is_a_usage_error(
    tmp_path, capsys, name, seed, named
):
    path = tmp_path / "stem.yaml"
    save_scenario(make_scenario(name=name, seed=seed, lam=2.0, horizon=3), str(path))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"invalid scenario: {named}\n"
    assert not out.exists()


def test_the_longest_name_and_seed_write_every_report(tmp_path, capsys):
    # the longest report name adds 52 bytes: .bestfit_upf_no_pe.<20 digits>.summary.json
    path = tmp_path / "longest.yaml"
    save_scenario(make_scenario(name="n" * 200, lam=2.0, horizon=3), str(path))
    out = tmp_path / "out"
    argv = ["run", "--scenario", str(path), "--scheme", "bestfit_upf_no_pe",
            "--seed", str(2**64 - 1), "--trace", "--out", str(out)]
    assert main(argv) == 0
    assert max(len(p.name) for p in out.iterdir()) == 252


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", "campus5", "--seed", "1"],
        ["compare", "--schemes", "baseline", "--seeds", "1"],
        ["capex", "--scenario", "metro", "--pairs", "1", "--seeds", "1"],
        ["oracle-gap", "--trials", "2"],
    ],
)
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
def test_an_out_that_cannot_be_a_directory_is_a_usage_error(tmp_path, capsys, argv, under):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / "out" if under else taken
    reason = "Not a directory" if under else "File exists"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"upfmec: error: --out {out}: {reason}\n"
    assert taken.read_text() == "keep\n"


def _a_directory(tmp_path):
    path = tmp_path / "scenarios"
    path.mkdir()
    return path, "cannot read the scenario file"


def _latin1_text(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"name: \xff\n")
    return path, "not UTF-8 text: byte 0xff at offset 6"


@pytest.mark.parametrize("make", [_a_directory, _latin1_text])
def test_unreadable_scenario_file_is_a_usage_error(tmp_path, capsys, make):
    path, reason = make(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"upfmec: error: {path}: {reason}")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_compare_rejects_unknown_scheme(tmp_path, capsys):
    rc = main([
        "compare", "--scenario", "campus5", "--schemes", "bestfit_upf_mec,warp",
        "--seeds", "1", "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "unknown scheme" in capsys.readouterr().err


def test_compare_writes_pooled_table(tmp_path):
    rc = main([
        "compare", "--scenario", "campus5", "--schemes", "baseline,bestfit_upf_mec",
        "--seeds", "1-2", "--out", str(tmp_path),
    ])
    assert rc == 0
    table = tmp_path / "campus5.compare.pooled.summary.csv"
    assert table.is_file()
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "scheme"
    schemes = {r[0] for r in rows[1:] if r}
    assert {"baseline", "bestfit_upf_mec"} <= schemes
    assert (tmp_path / "campus5.baseline.pooled.cdf.csv").is_file()


@pytest.mark.parametrize("case", ["campus5", "metro-p1-undrained"])
def test_compare_rows_are_what_summarize_reports(tmp_path, campus5, metro, case):
    if case == "campus5":
        scenario, ref = campus5, "campus5"
    else:
        scenario = replace(metrics.build_pair_scenario(metro, 1), drain_cap_epochs=0)
        ref = str(tmp_path / "metro-p1.yaml")
        save_scenario(scenario, ref)
    assert main(["compare", "--scenario", ref, "--seeds", "1", "--out", str(tmp_path)]) == 0
    with open(tmp_path / f"{scenario.name}.compare.pooled.summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    per_seed = rows[1:rows.index([])]
    assert [r[0] for r in per_seed] == ALL_SCHEMES
    for scheme, seed, *row in per_seed:
        run = run_to_completion(replace(scenario, scheme=Scheme(scheme)), seed=int(seed))
        assert run.truncated == (case != "campus5")
        rep = metrics.summarize(run)
        d = rep.e2e_overall
        assert row == [str(rep.generated), str(rep.completed), str(rep.dropped), repr(d.max),
                       repr(d.percentiles[99.0]), repr(d.mean), str(rep.peak_upf_queue),
                       str(rep.peak_mec_queue)]


def test_compare_builds_no_summary_tables(tmp_path, monkeypatch):
    calls = dict.fromkeys(("_slices", "_dist"), 0)
    for name in calls:
        def counted(*args, name=name, fn=getattr(metrics, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(metrics, name, counted)
    rc = main(["compare", "--scenario", "campus5", "--schemes", "baseline,bestfit_upf_mec",
               "--seeds", "1-2", "--out", str(tmp_path)])
    assert rc == 0
    # one overall distribution per run, and no per-UPF, per-MEC or per-class table
    assert calls == {"_slices": 0, "_dist": 4}


def test_capex_writes_sweep_and_analysis(tmp_path):
    rc = main([
        "capex", "--scenario", "metro", "--pairs", "1-2", "--seeds", "1",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "metro.capex.csv").is_file()
    assert (tmp_path / "metro.capex_analysis.urllc.json").is_file()
    assert (tmp_path / "metro.capex_analysis.embb.json").is_file()


def test_capex_refuses_a_pair_count_before_any_run(tmp_path, capsys, monkeypatch):
    runs = []
    run_to_completion = metrics.run_to_completion

    def counted(*args, **kwargs):
        runs.append(args)
        return run_to_completion(*args, **kwargs)

    monkeypatch.setattr(metrics, "run_to_completion", counted)
    out = tmp_path / "out"
    rc = main(["capex", "--scenario", "metro", "--pairs", "10,0", "--seeds", "1-3",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "upfmec: error: pairs must be >= 1, got 0\n"
    assert runs == []
    assert not out.exists()


def test_capex_refuses_a_pair_count_whose_upfs_draw_no_traffic(tmp_path, capsys, monkeypatch):
    # campus5 runs with its first UPF idle, but one pair of it would draw nothing
    runs = []
    run_to_completion = metrics.run_to_completion

    def counted(*args, **kwargs):
        runs.append(args)
        return run_to_completion(*args, **kwargs)

    monkeypatch.setattr(metrics, "run_to_completion", counted)
    skew = [0.0, 0.24, 0.30, 0.15, 0.31]
    path = _campus5_file(tmp_path, lambda d: d["traffic"].update(skew=skew))
    out = tmp_path / "out"
    rc = main(["capex", "--scenario", str(path), "--pairs", "2,1", "--seeds", "1",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "upfmec: error: pairs 1: every UPF of the 1-pair deployment has a skew share of 0\n")
    assert runs == []
    assert not out.exists()


# (baseline, MEC-IA) percent under threshold at the largest size: a gain of
# exactly 0 prints as one; only a baseline at 0 leaves the gain undefined
@pytest.mark.parametrize("baseline, mecia, shown", [(60.0, 0.0, "0.00x"), (0.0, 40.0, "n/a")])
def test_capex_prints_the_gain_at_the_largest_size(
    tmp_path, capsys, monkeypatch, baseline, mecia, shown
):
    points = [
        metrics.CapexPoint(1, "baseline", 10, 0, {QosClass.URLLC: 20.0}),
        metrics.CapexPoint(2, "baseline", 10, 0, {QosClass.URLLC: baseline}),
        metrics.CapexPoint(1, "bestfit_upf_mec", 10, 0, {QosClass.URLLC: 0.0}),
        metrics.CapexPoint(2, "bestfit_upf_mec", 10, 0, {QosClass.URLLC: mecia}),
    ]
    monkeypatch.setattr(metrics, "capex_sweep", lambda *args: points)
    path = _campus5_file(tmp_path, lambda d: d.update(thresholds_ms={"urllc": 5.0}))
    rc = main(["capex", "--scenario", str(path), "--pairs", "1-2", "--out", str(tmp_path)])
    assert rc == 0
    assert f" gain at 2 pairs {shown}\n" in capsys.readouterr().out


def test_oracle_gap_reports_exact_singleton_ratios(tmp_path, capsys):
    rc = main([
        "oracle-gap", "--upfs", "3", "--n-max", "1", "--trials", "40",
        "--seed", "5", "--out", str(tmp_path),
    ])
    assert rc == 0
    path = tmp_path / "oracle_gap.u3.n1.seed5.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance", "n", "optimum_epochs", "heuristic_epochs", "ratio"]
    assert len(rows) == 41
    assert all(float(r[4]) == 1.0 for r in rows[1:])
    assert "40 exact" in capsys.readouterr().out


def test_oracle_gap_refuses_oversized_search(tmp_path, capsys):
    # each size out of the search's bounds is refused before any output exists
    for flag, value in [
        ("--upfs", "6"), ("--upfs", "0"), ("--upfs", "-1"),
        ("--n-max", "0"), ("--n-max", "13"), ("--trials", "-3"),
    ]:
        rc = main(["oracle-gap", flag, value, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and flag in err
        assert list(tmp_path.iterdir()) == []


def test_run_outputs_are_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = main([
            "run", "--scenario", "campus5", "--scheme", "bestfit_upf_pe",
            "--seed", "7", "--out", str(out), "--trace",
        ])
        assert rc == 0
    files = sorted(os.listdir(out_a))
    assert files == sorted(os.listdir(out_b))
    for name in files:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def _subcommand_options():
    """Each subcommand's option strings, read from the parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings} for name, p in sub.choices.items()}


def test_readme_flags_are_options_of_the_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    options = _subcommand_options()
    commands = 0
    for line in readme.splitlines():
        m = re.match(r"upfmec (\S+)", line)
        if m:
            commands += 1
            assert m.group(1) in options, line
            stale = set(re.findall(r"--[a-z][a-z-]*", line)) - options[m.group(1)]
            assert not stale, line
    assert commands >= len(options)
    known = set().union(*options.values())
    backticked = re.findall(r"`(--[a-z][a-z-]*)`", readme)
    assert backticked and set(backticked) <= known
