"""Golden output digests: the commands write the same bytes as the recorded commit.

Criterion 09 compares two runs of one commit, and the benchmark hashes only
summaries and CDFs; these digests also cover ``trace.csv`` and
``events.csv``, the only file that shows each request's projected delays.
They were recorded before the per-request projection was stored as its
inputs and derived from them on read, first per row and now on arrays, and
a change that moves any byte of these files must say why and re-record
them.

``COMMAND_GOLDEN`` pins the pooled ``compare`` reports, the ``capex`` sweep
and its analyses, and the ``oracle-gap`` table, recorded before the
sequential heuristic placed through the engine's cost vector.

``SCENARIO_GOLDEN`` pins three scenarios the bundled files never reach:
campus5 with 0.5 ms epochs and every capacity scaled by 0.7 (fractional
capacities at ``delta_ms`` != 1), and a rectangular 3 UPF x 2 MEC
deployment over 2 ms epochs, both recorded before per-run constants were
checked once at build time instead of on every price; and metro scaled to
one pair under ``baseline`` and stopped at its horizon
(``drain_cap_epochs: 0``), the only pinned event log with drops at the MEC
door and requests left in a UPF queue, on a link and in a MEC queue,
recorded before ``events.csv`` was written from arrays.

``SCENARIO_OUTCOME_GOLDEN`` pins what reading, validating and writing make
of every one-field mutation of campus5's and metro's documents: each of
their 182 field paths, deleted or set to each value of ``MUTATIONS``,
gives the read error, or the violations and the document written back.  It was
recorded before the scenario reader was rewritten as plain code.  No
value is a name or a seed too long to stem a report file.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import math
import os
from dataclasses import replace
from importlib import resources

import pytest
import yaml

from upfmec.cli import main
from upfmec.metrics import build_pair_scenario
from upfmec.model import ScenarioError, scenario_from_dict, scenario_to_dict, validate_scenario

from conftest import field_paths, make_scenario

SCHEMES = ("baseline", "bestfit_upf_no_pe", "bestfit_upf_pe", "bestfit_upf_mec")
CELLS = [("campus5", k) for k in SCHEMES] + [("metro", "baseline"), ("metro", "bestfit_upf_mec")]

GOLDEN = {
    "campus5.baseline.1.cdf.csv":
        "7d3880b51a9b502bd57eccf1f9bd996542606a4811ee47a76c2b1a2b4c271b3d",
    "campus5.baseline.1.events.csv":
        "4429b45d29d26808449bd318a3995fa9bba39e16bcf9ed0bb9296d5e7cb16f7e",
    "campus5.baseline.1.summary.csv":
        "9bcda24cac57c5110f6d6cdcba9eee1bb6a9e69bb88db39322148ca934eddba8",
    "campus5.baseline.1.summary.json":
        "0239dd3d18e61a7058b9caea11b9e6c94e4da2dfd65edb5e1faef4c78d51db33",
    "campus5.baseline.1.trace.csv":
        "658e7c18cc42cc7f891c889e2d27e9f9f4efaf456e6629da0c40c834e629974f",
    "campus5.bestfit_upf_no_pe.1.cdf.csv":
        "7cb529f7610f6f2d254ddc48052a17663b4bae4524912ba3b8a56610da90504d",
    "campus5.bestfit_upf_no_pe.1.events.csv":
        "f38aa77b26a7fc1dc5f081e368877bfbd7ec9533fa01f426e54998b54fbc745d",
    "campus5.bestfit_upf_no_pe.1.summary.csv":
        "352dd6edddff30dffa489f0d5b483c1ce8b97f80bf3102f55018f5ad06093ed1",
    "campus5.bestfit_upf_no_pe.1.summary.json":
        "36ef0f0c4e8454d941c1dc11a295a5dfdc4836e7b00c81abee64ffbae83eef2e",
    "campus5.bestfit_upf_no_pe.1.trace.csv":
        "b002d7485a3a190a2ebbd202f43f3faae809b1ad31e8c3f0c0fdb79c5256e930",
    "campus5.bestfit_upf_pe.1.cdf.csv":
        "7bfee5d6f4f15d0f0d9b6d8dc2a6c298dd6beca0ebee52a20f9f1f0f8923f46b",
    "campus5.bestfit_upf_pe.1.events.csv":
        "eb7df64dd588f7066b788ee565c294fd5ef656057a3fe293f3e5ed18bb61ddf3",
    "campus5.bestfit_upf_pe.1.summary.csv":
        "5b37c557bf0f3c090cdec977bd493be5e27491ec44b348d749a1ddc89484be0c",
    "campus5.bestfit_upf_pe.1.summary.json":
        "e0a550af43b1b14b0e2f1e89d8acdd8191ac952ed5f3bb9e5a25db25c8653b32",
    "campus5.bestfit_upf_pe.1.trace.csv":
        "652b3a7ea8eacf74db109d652f92eb9241250da86c709d951e3fa9e48158d384",
    "campus5.bestfit_upf_mec.1.cdf.csv":
        "da807d642bb3743030250146256e7132eea1e3f9e3010d8d7fd3864909f83f07",
    "campus5.bestfit_upf_mec.1.events.csv":
        "e8d558dd7e4ca9470c4baf2887ac8e51d3adb8629200ad3116249e8f0bc62ec8",
    "campus5.bestfit_upf_mec.1.summary.csv":
        "a0c76674964b017772d7be9d60072df8b7a373ccc7f7789d4a95651d78f795ac",
    "campus5.bestfit_upf_mec.1.summary.json":
        "62853a6a27007e41bce3fc4e325d656963a6e6ea32a22f5e23bfac1fc62c24b7",
    "campus5.bestfit_upf_mec.1.trace.csv":
        "7e60982f2abe93bc52e6e35df12762fddea61eab3682b326ba2f8e021a17890b",
    "metro.baseline.1.cdf.csv":
        "1ee9897b6496cc28908099dd4774d7bfe171d9d6d41452d3ec0c5f8c7acd2a7b",
    "metro.baseline.1.events.csv":
        "c18ce64ed563c8b6550f13be36f3294e36bd5233a4a37e915bee53f1f002aabc",
    "metro.baseline.1.summary.csv":
        "253ca2bef36739a15c40a2a905b996aac7f8ae2fc9079b1707d7637a330d648c",
    "metro.baseline.1.summary.json":
        "9c50e32340c0f2e2d452f32497bd90278f87968f320cd274cabc6359f5bf82e8",
    "metro.baseline.1.trace.csv":
        "560fb71e1245946d8be47ef037edc9d4ab80255542f0864f83870ef05b7fe826",
    "metro.bestfit_upf_mec.1.cdf.csv":
        "ff5f00b2f824bc8fb2e37396d64126f44608b9a93c921ebaab4542c0ccf3776c",
    "metro.bestfit_upf_mec.1.events.csv":
        "eddd400d0eeaa832f7a6ed6850be1ff6cf65256271c15747c4ae6cfe763268ba",
    "metro.bestfit_upf_mec.1.summary.csv":
        "1a5a323fd6e1d5ebc455a4f272be0dc551e7eb7980143b78804df84c10666f9e",
    "metro.bestfit_upf_mec.1.summary.json":
        "c072c730118e313650407d7a490bc95b3b3cddf17ca89562946cbf6518ddae26",
    "metro.bestfit_upf_mec.1.trace.csv":
        "e548b02ac619d6fa776b5b72701dcb9db39fe4ba3e6d1656a5842b13a300e464",
}


def _digests(argv, out):
    """Run one command writing into out; the sha256 of every file it wrote."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in os.listdir(out)}


@pytest.mark.parametrize("scenario,scheme", CELLS)
def test_run_trace_outputs_match_golden_digests(tmp_path, scenario, scheme):
    argv = ["run", "--scenario", scenario, "--scheme", scheme, "--seed", "1", "--trace"]
    prefix = f"{scenario}.{scheme}.1."
    assert _digests(argv, tmp_path) == {k: v for k, v in GOLDEN.items() if k.startswith(prefix)}


COMMANDS = {
    "compare": ["compare", "--scenario", "campus5", "--seeds", "1-2"],
    "capex": ["capex", "--scenario", "metro", "--pairs", "1-3", "--seeds", "1"],
    "oracle-gap": ["oracle-gap", "--upfs", "5", "--n-max", "12", "--trials", "100", "--seed", "1"],
}

COMMAND_GOLDEN = {
    "compare": {
        "campus5.baseline.pooled.cdf.csv":
            "15074ce92444670e8118b3f70101184ccdf9a23a55057f26ff1f6160141acd5c",
        "campus5.bestfit_upf_mec.pooled.cdf.csv":
            "4a941b841d037780f2d16ee3f4c6b99b83abeebc0d459ac4002705775c968e16",
        "campus5.bestfit_upf_no_pe.pooled.cdf.csv":
            "c9b6be328b275c24bc9ac3013a0792da1c7db1052f1f52c59e6c3769fe4343af",
        "campus5.bestfit_upf_pe.pooled.cdf.csv":
            "4870aade4506459ec6388145e8229b765bd6b844bb11346663b19a8957f78b13",
        "campus5.compare.pooled.summary.csv":
            "a9beef5fac6cdd2c53a555269a3cda339528aa64266d071b4fc57eba3ee8e72f",
    },
    "capex": {
        "metro.capex.csv":
            "d27f36ba369f7c0256defd099f4d6bc440aacd826c4fa3f984be1a549d8649a6",
        "metro.capex_analysis.embb.json":
            "c930f7c56bf3c07866513185fec32c9e5150d27725501fd05c9893b5634c1045",
        "metro.capex_analysis.urllc.json":
            "c7e17451bf81cfff0e2ed1e08dbe8b614868ae9f2bf0bab4098059708450c509",
    },
    "oracle-gap": {
        "oracle_gap.u5.n12.seed1.csv":
            "d8ed545f1bb9babc714beb74c11805f08ba2f62d0c611fdfd99c3be7a361d554",
    },
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_outputs_match_golden_digests(tmp_path, command):
    assert _digests(COMMANDS[command], tmp_path) == COMMAND_GOLDEN[command]


def _campus5_fractional(campus5):
    """campus5 at half-ms epochs with every capacity scaled by 0.7."""
    s = replace(campus5, name="campus5_fractional", delta_ms=0.5)
    s.upfs = [
        replace(u, capacity={q: c * 0.7 for q, c in u.capacity.items()}) for u in campus5.upfs
    ]
    s.mecs = [replace(m, capacity=m.capacity * 0.7) for m in campus5.mecs]
    return s


def _rectangular(_bundled):
    """Three UPFs feeding two MECs over 2 ms epochs at fractional UPF capacity."""
    return make_scenario(
        name="rect3x2", num_upfs=3, num_mecs=2, delta=2.0, upf_capacity=1.5, lam=9.0, horizon=30
    )


def _metro_p1_undrained(metro):
    """metro at one pair, stopped at its horizon with requests at every stage."""
    return replace(build_pair_scenario(metro, 1), name="metro_p1_undrained", drain_cap_epochs=0)


SCENARIO_GOLDEN = {
    "campus5_fractional": ("campus5", _campus5_fractional, "bestfit_upf_mec", {
        "campus5_fractional.bestfit_upf_mec.1.cdf.csv":
            "874507cb0770e0c0a4e6b6ce8fe9190f5f372d83bb390a06c79d45dc6d1e4b4b",
        "campus5_fractional.bestfit_upf_mec.1.events.csv":
            "8ade6c643eefd05b01ec64aba6e0998c250c97dd0fcd97ee53bedd6088988939",
        "campus5_fractional.bestfit_upf_mec.1.summary.csv":
            "e8f496f89111688d98678bee9a8ff36340735e68fed8f89c1588d106a0a49d21",
        "campus5_fractional.bestfit_upf_mec.1.summary.json":
            "88c1179786751079b0efdf114bb166ce8cfae109311edddb2c15a7ec485588b1",
        "campus5_fractional.bestfit_upf_mec.1.trace.csv":
            "9e90c27e70bc3eed5030c96264eec69f5243de76e7eb3469ac17e82de22e8cd5",
    }),
    "rect3x2": ("campus5", _rectangular, "bestfit_upf_mec", {
        "rect3x2.bestfit_upf_mec.1.cdf.csv":
            "e428cb0b3023e01cbbedfde8d73def304c3a1da85aef2d663b9e0514897a1b7f",
        "rect3x2.bestfit_upf_mec.1.events.csv":
            "5d5f38f644d7080e27a542edd78676c9f0d98d34753cda37b9109d2067bb67a8",
        "rect3x2.bestfit_upf_mec.1.summary.csv":
            "b0957e5cfd5c88a90f4cf6a169a265297b888b6bc16951a5c958bc8bf52ade17",
        "rect3x2.bestfit_upf_mec.1.summary.json":
            "678d1622e91edba3889d8055a055d94631fc694a77357770cb76e3e6cdb7f2dc",
        "rect3x2.bestfit_upf_mec.1.trace.csv":
            "768896dfa29f27208ef1b4a83ea6a6b359c1fa0490795e6df251ff0611086b61",
    }),
    "metro_p1_undrained": ("metro", _metro_p1_undrained, "baseline", {
        "metro_p1_undrained.baseline.1.cdf.csv":
            "3686e819a5ae0ed4f0ca2871c90642bbe7f16c91ce09abb0c7e940ab7fdab161",
        "metro_p1_undrained.baseline.1.events.csv":
            "939cf19f46702a5cd3b1521a21b184eceb228d49d33078bcbd30c514e7fbd909",
        "metro_p1_undrained.baseline.1.summary.csv":
            "79ed02768b51bb82dfff48d373296d29e577a90d42e36b7cedb1072d0d4b9134",
        "metro_p1_undrained.baseline.1.summary.json":
            "cbfaeaf78a80f88d44c7f8a9f4342b24bd193b6ffb4deae48fd2ea7294f81152",
        "metro_p1_undrained.baseline.1.trace.csv":
            "abf053b248fee3253c12fe2182dce2ade555631206a4d1577342f7a335d3ec8d",
    }),
}


@pytest.mark.parametrize("name", sorted(SCENARIO_GOLDEN))
def test_unbundled_scenario_outputs_match_golden_digests(tmp_path, request, name):
    # epochs other than 1 ms, fractional capacities, a rectangular deployment
    # and an undrained run, which neither bundled scenario reaches
    bundled, build, scheme, golden = SCENARIO_GOLDEN[name]
    scenario = build(request.getfixturevalue(bundled))
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(scenario_to_dict(scenario), sort_keys=False))
    out = tmp_path / "out"
    out.mkdir()
    argv = ["run", "--scenario", str(path), "--scheme", scheme, "--seed", "1", "--trace"]
    assert _digests(argv, out) == golden


DELETE = object()
MUTATIONS = [
    DELETE, None, True, 0, -1, 1, 2.5, 1e300, math.nan, math.inf, -math.inf,
    "x", "1", "..", "a/b", "deterministic", "bestfit_upf_mec",
    [], [1], [0.5, 0.5], {}, {"a": 1}, {"urllc": 1.0},
    {"urllc": 1, "embb": 1, "mmtc": 1, "regular": 1},
]

SCENARIO_OUTCOME_GOLDEN = {
    "campus5":
        "faeccb33b927e13f7cab90c1233ea4a5eb4753588a9b9c241a479658b9bf16ec",
    "metro":
        "da62c2249a8224486771bde38bfe1f2c4ea7d1295eae9d878e6992291f1fcbfe",
}


def _outcome(doc) -> str:
    try:
        s = scenario_from_dict(doc)
    except ScenarioError as exc:
        return f"read: {exc}"
    return repr((validate_scenario(s), scenario_to_dict(s)))


def _outcomes_digest(name: str) -> str:
    """sha256 of the outcome of every one-field mutation of the bundled document name."""
    base = yaml.safe_load(resources.files("upfmec").joinpath(f"scenarios/{name}.yaml").read_text())
    h = hashlib.sha256()
    for path in field_paths(base):
        for value in MUTATIONS:
            doc = copy.deepcopy(base)
            *parents, key = path
            node = doc
            for k in parents:
                node = node[k]
            if value is DELETE:
                del node[key]
            else:
                node[key] = copy.deepcopy(value)
            shown = "deleted" if value is DELETE else repr(value)
            h.update(f"{path!r} {shown}: {_outcome(doc)}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIO_OUTCOME_GOLDEN))
def test_scenario_outcomes_match_golden_digest(name):
    assert _outcomes_digest(name) == SCENARIO_OUTCOME_GOLDEN[name]
