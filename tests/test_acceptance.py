"""End-to-end acceptance checks.

One test per criterion, ordered; each prints a single PASS/FAIL line with
the measured numbers so `pytest -v` doubles as the acceptance report.
The campus5 scenario carries the delay-regime checks, metro the
deployment-size sweep.
"""
from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np
import pytest

from upfmec.cli import main
from upfmec.delay import net_delay, projected_delay, worst_case_batch_delay
from upfmec.engine import SimulationRun, run_to_completion
from upfmec.metrics import RunView, capex_analysis, capex_sweep, summarize
from upfmec.model import QosClass, RequestStatus, Scheme
from upfmec.oracle import (
    minmax_batch_optimum,
    pair_enumeration_optimum,
    sequential_heuristic_batch,
)
from upfmec.schemes import assign_bestfit_upf_mec

from conftest import decide, link_index, make_scenario, reprice
from test_oracle import _oracle_inputs, _stuffed_run, random_buckets

SEEDS = tuple(range(1, 11))
ORDERED_SCHEMES = (
    Scheme.BASELINE,
    Scheme.BESTFIT_UPF_NO_PE,
    Scheme.BESTFIT_UPF_PE,
    Scheme.BESTFIT_UPF_MEC,
)


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def campus_results(campus5) -> Tuple[Dict[Scheme, List[SimulationRun]], float]:
    t0 = time.perf_counter()
    results = {
        scheme: [run_to_completion(replace(campus5, scheme=scheme), seed=s) for s in SEEDS]
        for scheme in ORDERED_SCHEMES
    }
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def campus_reports(campus_results):
    results, elapsed = campus_results
    return {s: [summarize(r) for r in runs] for s, runs in results.items()}, elapsed


def _mean_of_max(reports) -> float:
    return float(np.mean([rep.e2e_overall.max for rep in reports]))


@pytest.fixture(scope="module")
def capex_points(metro):
    t0 = time.perf_counter()
    points = capex_sweep(metro, range(1, 11), range(1, 6))
    return points, time.perf_counter() - t0


def test_criterion_01_scheme_ordering(campus_reports):
    reports, elapsed = campus_reports
    mm = {s: _mean_of_max(reports[s]) for s in ORDERED_SCHEMES}
    bm, no_pe, pe, pair = (mm[s] for s in ORDERED_SCHEMES)
    reduction = 100.0 * (bm - pair) / bm
    ok = bm > no_pe >= pe > pair and reduction >= 40.0 and elapsed < 60.0
    check(
        "criterion 01 scheme ordering",
        ok,
        f"mean-of-max e2e ms: baseline={bm:.2f} > no_pe={no_pe:.2f} >= "
        f"pe={pe:.2f} > upf_mec={pair:.2f}; upf_mec reduction {reduction:.1f}% "
        f">= 40%; {len(SEEDS)} seeds x 4 schemes in {elapsed:.1f}s < 60s",
    )


def test_criterion_02_intermediate_scheme_reductions(campus_reports):
    reports, _ = campus_reports
    bm = _mean_of_max(reports[Scheme.BASELINE])
    red_no_pe = 100.0 * (bm - _mean_of_max(reports[Scheme.BESTFIT_UPF_NO_PE])) / bm
    red_pe = 100.0 * (bm - _mean_of_max(reports[Scheme.BESTFIT_UPF_PE])) / bm
    ok = 20.0 <= red_no_pe <= 55.0 and 30.0 <= red_pe <= 65.0
    check(
        "criterion 02 intermediate reductions",
        ok,
        f"no_pe reduction {red_no_pe:.1f}% in [20, 55]; "
        f"pe reduction {red_pe:.1f}% in [30, 65]",
    )


def _pooled_upf_qos_means(reports) -> Dict[Tuple[int, QosClass], float]:
    """Mean d_upf of each (UPF, QoS) slice over the runs, each run weighted by its count."""
    sums: Dict[Tuple[int, QosClass], List[float]] = {}
    for rep in reports:
        for key, st in rep.per_upf_qos.items():
            total, count = sums.setdefault(key, [0.0, 0])
            sums[key] = [total + st.mean * st.count, count + st.count]
    return {k: total / count for k, (total, count) in sums.items()}


def test_criterion_03_upf_delay_slices(campus_reports):
    reports, _ = campus_reports
    pair_means = _pooled_upf_qos_means(reports[Scheme.BESTFIT_UPF_MEC])
    base_means = _pooled_upf_qos_means(reports[Scheme.BASELINE])
    worst_pair = max(pair_means.values())
    worst_base = max(base_means.values())
    hot = sum(1 for v in base_means.values() if v > 15.0)
    ok = worst_pair < 10.0 and hot >= 1
    check(
        "criterion 03 upf delay slices",
        ok,
        f"upf_mec worst per-(upf, qos) mean d_upf {worst_pair:.2f} ms < 10; "
        f"baseline has {hot} slice(s) > 15 ms (worst {worst_base:.2f} ms)",
    )


def test_criterion_04_queue_peaks(campus_reports):
    reports, _ = campus_reports
    ratios = [
        b.peak_upf_queue / max(1, p.peak_upf_queue)
        for b, p in zip(reports[Scheme.BASELINE], reports[Scheme.BESTFIT_UPF_MEC])
    ]
    ok = all(r >= 2.0 for r in ratios)
    check(
        "criterion 04 queue peaks",
        ok,
        f"baseline/upf_mec peak UPF queue ratio per seed min {min(ratios):.1f}, "
        f"max {max(ratios):.1f}, all >= 2",
    )


def test_criterion_05_oracle_agreement():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        buckets = random_buckets(rng, int(rng.integers(1, 6)))
        opt = minmax_batch_optimum(1, buckets)
        heur = sequential_heuristic_batch(1, buckets)
        assert opt == heur
        costs = [projected_delay(*b, 1.0) for b in buckets]
        assert opt[0][costs.index(min(costs))] == 1
    worst_ratio = 1.0
    for _ in range(1000):
        buckets = random_buckets(rng, 3)
        n = int(rng.integers(2, 7))
        _, opt_val = minmax_batch_optimum(n, buckets)
        _, heur_val = sequential_heuristic_batch(n, buckets)
        assert heur_val >= opt_val - 1e-12
        if opt_val > 0.0:
            worst_ratio = max(worst_ratio, heur_val / opt_val)
        else:
            assert heur_val == 0.0
    check(
        "criterion 05 batch oracle agreement",
        True,
        "1000/1000 single-request instances exact; 1000/1000 batch instances "
        f"(n in 2..6, U=3) heuristic >= optimum, worst ratio {worst_ratio:.4f}",
    )


def test_criterion_06_pair_oracle():
    rng = np.random.default_rng(211)
    exact = 0
    trials = 250
    for _ in range(trials):
        run = _stuffed_run(rng)
        qos = [QosClass.URLLC, QosClass.EMBB, QosClass.MMTC][int(rng.integers(0, 3))]
        origin = int(rng.integers(1, 4))
        upf_id, mec_id, projected = decide(run, qos, origin, assign_bestfit_upf_mec)
        i, j, value = pair_enumeration_optimum(*_oracle_inputs(run, qos), run.delta)
        assert (upf_id - 1, mec_id - 1) == (i, j)
        assert projected.d_e2e == value
        exact += 1

    # non-uniform links: independent per-tier argmins miss the joint optimum
    gap_run = SimulationRun(make_scenario(num_upfs=2, scheme=Scheme.BESTFIT_UPF_MEC, seed=1))
    # occupancy fakes: a queue's price reads only its length
    gap_run.upfs[1][QosClass.URLLC].queue.extend([0] * 9)
    gap_run.mecs[0].queue.extend([0] * 9)
    gap_run.scenario.link_bandwidth_mbps[0][1] = 0.1  # 100 bits per ms
    gap_run.link_sharers[link_index(gap_run, 1, 2)] += 1
    reprice(gap_run)
    _, mec_id, projected = decide(gap_run, QosClass.URLLC, 1, assign_bestfit_upf_mec)
    i, j, value = pair_enumeration_optimum(*_oracle_inputs(gap_run, QosClass.URLLC), gap_run.delta)
    gap = projected.d_e2e - value
    ok = mec_id != j + 1 and gap > 0.0
    check(
        "criterion 06 pair oracle",
        ok,
        f"{exact}/{trials} uniform-link states match the joint optimum exactly; "
        f"constructed non-uniform instance shows a {gap:.2f} ms gap "
        f"(scheme {projected.d_e2e:.2f} ms vs optimum {value:.2f} ms)",
    )


def test_criterion_07_delay_model_values():
    got = (
        projected_delay(7.0, 0.0, 4.0, 1.0),
        projected_delay(2.0, 2.0, 4.0, 1.0),
        projected_delay(5.0, 0.0, 2.0, 1.0),
        net_delay(10, 1500.0, 150_000.0),
        worst_case_batch_delay(3.0, 5, 0.0, 4.0),
    )
    want = (3.0, 1.25, 4.0, 0.8, 2.0)
    ok = got == want
    check("criterion 07 delay model values", ok, f"bit-exact: {got} == {want}")


def test_criterion_08_capex_sweep(capex_points):
    points, elapsed = capex_points
    analysis = capex_analysis(points, QosClass.URLLC)
    base = analysis["baseline_pct"]
    mec = analysis["mecia_pct"]
    sizes = analysis["pair_counts"]
    dominated = all(mec[k] >= base[k] for k in sizes)
    gain_at_max = analysis["connectivity_gain"][sizes[-1]]
    breakeven = analysis["breakeven_pairs"]
    ok = (
        sizes == list(range(1, 11))
        and dominated
        and gain_at_max is not None
        and gain_at_max >= 1.5
        and breakeven is not None
        and breakeven <= 8
        and elapsed < 300.0
    )
    check(
        "criterion 08 capex sweep",
        ok,
        f"urllc compliance dominated at all {len(sizes)} sizes over 5 seeds; "
        f"gain at 10 pairs {gain_at_max:.2f}x >= 1.5; breakeven {breakeven} <= 8 "
        f"(baseline at max {analysis['baseline_pct_at_max']:.1f}%); {elapsed:.1f}s < 300s",
    )


def test_criterion_09_reproducible_outputs(tmp_path):
    dirs = (tmp_path / "a", tmp_path / "b")
    for out in dirs:
        rc = main([
            "run", "--scenario", "campus5", "--scheme", "bestfit_upf_mec",
            "--seed", "1", "--out", str(out), "--trace",
        ])
        assert rc == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert len(names) == 5
    same = all((dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names)
    check(
        "criterion 09 reproducible outputs",
        same and sorted(p.name for p in dirs[1].iterdir()) == names,
        f"two runs of campus5/bestfit_upf_mec/seed 1 produced byte-identical "
        f"{len(names)} report files",
    )


def test_criterion_10_conservation(campus_results, metro):
    results, _ = campus_results
    runs = [r for rs in results.values() for r in rs]
    runs.append(run_to_completion(replace(metro, scheme=Scheme.BESTFIT_UPF_MEC), seed=1))
    runs.append(run_to_completion(metro, seed=1))
    ok = all(
        r.generated == r.completed + r.dropped and r.residual == 0 and not r.truncated
        for r in runs
    )
    terminal = (RequestStatus.COMPLETED, RequestStatus.DROPPED)
    statuses = all(np.isin(RunView(r).status, terminal).all() for r in runs)
    check(
        "criterion 10 conservation",
        ok and statuses,
        f"{len(runs)} drained runs: generated == completed + dropped, residual 0, "
        "every request in a terminal state",
    )
