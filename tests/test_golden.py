"""Golden output digests: ``run --trace`` writes the same bytes as the recorded commit.

Criterion 09 compares two runs of one commit, and the benchmark hashes only
summaries and CDFs; these digests also cover ``trace.csv`` and
``events.csv``, the only file that shows each request's projected delays.
They were recorded before the per-request projection was stored as its
inputs and composed on read, and a change that moves any byte of these
files must say why and re-record them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import pytest

from upfmec.cli import main

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


@pytest.mark.parametrize("scenario,scheme", CELLS)
def test_run_trace_outputs_match_golden_digests(tmp_path, scenario, scheme):
    argv = ["run", "--scenario", scenario, "--scheme", scheme, "--seed", "1", "--trace",
            "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    written = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(tmp_path))
    }
    prefix = f"{scenario}.{scheme}.1."
    assert written == {k: v for k, v in GOLDEN.items() if k.startswith(prefix)}
