from __future__ import annotations

import copy
import csv
import json
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upfmec import metrics
from upfmec.delay import net_delay, transit_epochs
from upfmec.engine import UNSET, EpochReport, SimulationRun, link_law, run_to_completion
from upfmec.metrics import (
    CapexPoint,
    RunView,
    build_cdf,
    build_pair_scenario,
    capex_analysis,
    capex_sweep,
    completed_e2e,
    decision_inputs,
    percentile_nearest_rank,
    projections,
    report_path,
    summarize,
    summarize_head,
    write_capex_csv,
    write_cdf_csv,
    write_events_csv,
    write_summary_csv,
    write_summary_json,
    write_trace_csv,
)
from upfmec.model import QOS_BY_CODE, InvariantError, QosClass, RequestStatus, Scheme

from conftest import append_row, make_scenario, small_scenarios

ALL_URLLC = {QosClass.URLLC: 1.0, QosClass.EMBB: 0.0, QosClass.MMTC: 0.0, QosClass.REGULAR: 0.0}


# make_result's epoch length in ms: every stage delay is a whole number of epochs
DELTA = 0.5


def completed_request(upf_epochs: int, mec_epochs: int = 1, transit_epochs: int = 0,
                      qos: QosClass = QosClass.REGULAR, upf: int = 1, mec: int = 1,
                      status: RequestStatus = RequestStatus.COMPLETED) -> dict:
    """The record of one request that make_result writes as a row.

    A regular request ends at the UPF, so its d_e2e is its d_upf,
    upf_epochs * DELTA ms; a class that uses a MEC also spends
    transit_epochs on its link and mec_epochs at the MEC.
    """
    mec = mec if qos.uses_mec else None
    return dict(qos=qos, upf=upf, mec=mec, upf_epochs=upf_epochs, mec_epochs=mec_epochs,
                transit_epochs=transit_epochs, status=status)


def make_result(requests, delta: float = DELTA) -> SimulationRun:
    """A finished run, at epochs of ``delta`` ms, holding exactly these requests in order.

    Every request arrives at epoch 0, as the run's epoch reports count
    them.  A completed one is stamped at the epochs its stage counts give,
    a stage of n epochs being left at the epoch n - 1 after it was
    entered: the serving epoch counts.  Its link takes ``transit_epochs``
    epochs of delta, so it is due that many epochs after UPF service.  Any
    other is unstamped, a dropped one with its ``drop`` flag set.
    """
    run = SimulationRun(make_scenario(num_upfs=1, delta=delta, seed=1))
    for r in requests:
        stamps = {}
        if r["status"] is RequestStatus.COMPLETED:
            stamps["upf_serve_epoch"] = served = r["upf_epochs"] - 1
            if r["mec"] is not None:
                stamps["d_net"] = d_net = r["transit_epochs"] * delta
                assert transit_epochs(d_net, delta) == r["transit_epochs"]
                due = served + r["transit_epochs"]
                stamps["mec_serve_epoch"] = due + r["mec_epochs"] - 1
            run.completed += 1
        run.dropped += r["status"] is RequestStatus.DROPPED
        append_row(run, r["qos"], r["upf"], drop=r["status"] is RequestStatus.DROPPED,
                   assigned_upf=r["upf"], assigned_mec=r["mec"], **stamps)
    stamps = [e for e in run.upf_serve_epoch + run.mec_serve_epoch if e is not UNSET]
    run.epoch = max(stamps, default=0) + 1
    idle = dict(admitted=0, dropped=0, served_upf=0, served_mec=0, completed=0, in_flight=0,
                upf_queues=(0,) * len(QosClass), mec_queues=(0,))
    run.epoch_reports = [EpochReport(e, len(requests) if e == 0 else 0, **idle)
                         for e in range(run.epoch)]
    return run


# ----------------------------------------------------------------- statistics


def test_nearest_rank_percentiles():
    assert percentile_nearest_rank([2.0, 4.0], 50.0) == 2.0
    assert percentile_nearest_rank([2.0, 4.0], 80.0) == 4.0
    assert percentile_nearest_rank([2.0, 4.0], 100.0) == 4.0
    assert percentile_nearest_rank([7.0], 99.0) == 7.0


def test_nearest_rank_rejects_bad_inputs():
    with pytest.raises(ValueError):
        percentile_nearest_rank([], 50.0)
    with pytest.raises(ValueError):
        percentile_nearest_rank([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile_nearest_rank([1.0], 100.1)


def test_single_request_summary():
    rep = summarize(make_result([completed_request(5)]))
    st_ = rep.per_upf_qos[(1, QosClass.REGULAR)]
    assert st_.mean == 2.5 and st_.std == 0.0 and st_.count == 1
    assert rep.e2e_overall.max == 2.5


def test_two_request_summary_uses_population_std():
    rep = summarize(make_result([completed_request(4), completed_request(8)]))
    d = rep.e2e_overall
    assert d.mean == 3.0
    assert d.std == 1.0  # population convention, not the n-1 sample form
    assert d.percentiles[50.0] == 2.0
    assert d.max == 4.0


def test_summary_is_order_independent():
    reqs = [completed_request(2 * (i % 7) + 2) for i in range(40)]
    a = summarize(make_result(reqs))
    b = summarize(make_result(list(reversed(reqs))))
    assert a == b


def test_e2e_sums_the_stages_in_order(tmp_path):
    # at DELTA every sum is exact; at 0.1 ms the association shows
    run = make_result([completed_request(1, mec_epochs=4, transit_epochs=1, qos=QosClass.URLLC)],
                      delta=0.1)
    e2e = (0.1 + 0.1) + 0.4  # d_upf, d_net, d_mec
    assert e2e == 0.6000000000000001 != 0.1 + (0.1 + 0.4)
    assert summarize(run).d_e2e.tolist() == [e2e]
    assert completed_e2e(run)[QosClass.URLLC].tolist() == [e2e]
    write_events_csv(run, str(tmp_path / "events.csv"))
    with open(tmp_path / "events.csv", newline="") as fh:
        assert [row["d_e2e_ms"] for row in csv.DictReader(fh)] == [repr(e2e)]


def test_summary_skips_unfinished_requests():
    done = completed_request(4)
    queued = completed_request(0, status=RequestStatus.IN_UPF_QUEUE)
    dropped = completed_request(0, status=RequestStatus.DROPPED)
    run = make_result([done, queued, dropped])
    assert RunView(run).status.tolist() == [RequestStatus.COMPLETED, RequestStatus.IN_UPF_QUEUE,
                                            RequestStatus.DROPPED]
    assert summarize(run).e2e_overall.count == 1


def test_percentiles_are_ordered():
    rng = np.random.default_rng(3)
    reqs = [completed_request(int(v)) for v in rng.integers(1, 40, size=200)]
    d = summarize(make_result(reqs)).e2e_overall
    assert d.percentiles[80.0] <= d.percentiles[95.0] <= d.percentiles[99.0] <= d.max


def test_empty_run_yields_empty_report():
    rep = summarize(make_result([]))
    assert rep.e2e_overall is None
    assert rep.per_upf_qos == {} and rep.per_mec == {}


def test_rows_no_report_counts_raise_a_named_error():
    run = SimulationRun(make_scenario(lam=2.0))
    run.step_epoch()
    run.step_epoch()
    append_row(run, QosClass.URLLC, 1)
    for derivation in (RunView, summarize):
        with pytest.raises(InvariantError,
                           match="^epoch reports count 4 arrivals, the run holds 5 requests$"):
            derivation(run)


def test_cdf_steps():
    cdf = build_cdf([1.0, 1.0, 3.0])
    assert cdf.values == (1.0, 3.0)
    assert cdf.cum_probs == (2.0 / 3.0, 1.0)


def test_cdf_empty():
    assert build_cdf([]) == build_cdf(())


def reference_slices(keys, values):
    """Each distinct key's values, split by a stable argsort of the keys as int64."""
    order = np.argsort(keys.astype(np.int64), kind="stable")
    keys, values = keys[order], values[order]
    bounds = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    starts, ends = [0, *bounds], [*bounds, int(keys.size)]
    return [(int(keys[a]), values[a:b]) for a, b in zip(starts, ends)] if keys.size else []


def reference_by_code(codes, values):
    """Each class code's values, gathered by a boolean mask."""
    return {code: values[codes == code] for code in range(len(QOS_BY_CODE))
            if (codes == code).any()}


def as_bytes(slices):
    return [(key, v.tobytes()) for key, v in slices]


# keys on both sides of the uint8, uint16 and uint32 bounds, often repeated
SLICE_KEYS = (st.integers(0, 3) | st.integers(250, 260) | st.integers(65530, 65540)
              | st.integers(2**32 - 3, 2**32 + 3) | st.integers(0, 2**40))


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(SLICE_KEYS, max_size=60), data=st.data())
def test_slices_equal_the_int64_sort_and_the_mask_split_bit_for_bit(keys, data):
    values = np.array(data.draw(st.lists(st.floats(), min_size=len(keys), max_size=len(keys))),
                      float)
    keys = np.array(keys, np.int64)
    assert as_bytes(metrics._slices(keys, values)) == as_bytes(reference_slices(keys, values))
    codes = (keys % len(QOS_BY_CODE)).astype(np.uint8)
    assert (as_bytes(metrics._slices(codes, values))
            == as_bytes(reference_by_code(codes, values).items()))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_cdf_is_a_distribution(samples):
    cdf = build_cdf(samples)
    assert cdf.cum_probs[-1] == 1.0
    assert all(a < b for a, b in zip(cdf.values, cdf.values[1:]))
    assert all(a <= b for a, b in zip(cdf.cum_probs, cdf.cum_probs[1:]))


# ---------------------------------------------------------------- pair scaling


def test_pair_scenario_cycles_base_patterns(campus5):
    scaled = build_pair_scenario(campus5, 7)
    assert scaled.name == "campus5-p7"
    assert scaled.num_upfs == scaled.num_mecs == 7
    assert scaled.upfs[5].capacity == campus5.upfs[0].capacity
    assert scaled.mecs[6].capacity == campus5.mecs[1].capacity
    assert scaled.link_bandwidth_mbps[6][3] == campus5.link_bandwidth_mbps[1][3]
    assert sum(scaled.traffic.skew) == pytest.approx(1.0, abs=1e-12)
    assert scaled.traffic.mean_arrivals_per_epoch == campus5.traffic.mean_arrivals_per_epoch


def test_pair_scenario_keeps_explicit_queue_caps(metro):
    scaled = build_pair_scenario(metro, 8)
    assert scaled.upfs[7].queue_cap == metro.upfs[2].queue_cap
    assert scaled.mecs[5].queue_cap == metro.mecs[0].queue_cap


def test_pair_scenario_shrinks_too(campus5):
    scaled = build_pair_scenario(campus5, 2)
    assert scaled.num_upfs == 2
    raw = campus5.traffic.skew[:2]
    expected = [x / sum(raw) for x in raw]
    assert scaled.traffic.skew == pytest.approx(expected)


def test_pair_counts_must_be_positive(campus5):
    with pytest.raises(ValueError):
        build_pair_scenario(campus5, 0)


# ----------------------------------------------------------------- capex sweep


def sweep_base():
    return make_scenario(
        num_upfs=2, lam=6.0, horizon=10, qos_mix=ALL_URLLC,
        upf_capacity=2.0, upf_queue_cap=6, mec_queue_cap=20,
        thresholds={QosClass.URLLC: 5.0}, scheme=Scheme.BASELINE,
    )


def test_capex_sweep_runs_both_schemes():
    points = capex_sweep(sweep_base(), [1, 2], [1, 2])
    assert len(points) == 4
    assert {p.scheme for p in points} == {"baseline", "bestfit_upf_mec"}
    for p in points:
        assert 0.0 <= p.pct_under_threshold[QosClass.URLLC] <= 100.0
        assert p.completed > 0


def test_capex_sweep_is_deterministic():
    assert capex_sweep(sweep_base(), [1, 2], [1]) == capex_sweep(sweep_base(), [1, 2], [1])


def test_capex_sweep_frees_each_run_before_the_next(monkeypatch, metro):
    runs = []

    def run_and_watch(*args, **kwargs):
        assert all(ref() is None for ref in runs), "a finished run is still held"
        run = run_to_completion(*args, **kwargs)
        runs.append(weakref.ref(run))
        return run

    monkeypatch.setattr(metrics, "run_to_completion", run_and_watch)
    capex_sweep(metro, [1, 2], [1, 2])
    assert len(runs) == 8


def test_capex_sweep_counts_drops_separately():
    points = capex_sweep(sweep_base(), [1], [1])
    assert all(p.dropped > 0 for p in points)


def test_capex_analysis_gain_and_breakeven():
    points = [
        CapexPoint(1, "baseline", 10, 0, {QosClass.URLLC: 50.0}),
        CapexPoint(2, "baseline", 10, 0, {QosClass.URLLC: 60.0}),
        CapexPoint(1, "bestfit_upf_mec", 10, 0, {QosClass.URLLC: 55.0}),
        CapexPoint(2, "bestfit_upf_mec", 10, 0, {QosClass.URLLC: 90.0}),
    ]
    ana = capex_analysis(points)
    assert ana["connectivity_gain"] == {1: pytest.approx(1.1), 2: pytest.approx(1.5)}
    assert ana["baseline_pct_at_max"] == 60.0
    assert ana["breakeven_pairs"] == 2


def test_capex_analysis_handles_degenerate_columns():
    points = [
        CapexPoint(1, "baseline", 10, 0, {QosClass.URLLC: 0.0}),
        CapexPoint(1, "bestfit_upf_mec", 10, 0, {QosClass.URLLC: 40.0}),
    ]
    ana = capex_analysis(points)
    assert ana["connectivity_gain"][1] is None
    assert ana["breakeven_pairs"] == 1
    with pytest.raises(ValueError):
        capex_analysis([points[0]])


# ----------------------------------------------------------------- projection


def composed(run, inputs, rid):
    """Request rid's projection, composed per row with ``net_delay`` from ``decision_inputs``."""
    pc_upf, n_share, pc_mec = (column[rid].item() for column in inputs)
    d_net, mec_id = 0.0, run.assigned_mec[rid]
    if mec_id is not None:
        law = link_law(run.scenario, run.assigned_upf[rid] - 1, mec_id - 1)
        d_net = net_delay(n_share, *law)
    return pc_upf, d_net, pc_mec, (pc_upf + d_net) + pc_mec


def assert_projections_are_the_composition(run):
    """``projections`` of every row equals the per-row composition bit for bit."""
    inputs = decision_inputs(RunView(run))
    # the assigned ids as floats, None read as nan
    upf, mec = (np.array(getattr(run, name), float) for name in ("assigned_upf", "assigned_mec"))
    rows = np.stack(projections(run.scenario, upf, mec, *inputs), axis=1)
    for rid, row in enumerate(rows):
        assert row.tobytes() == np.array(composed(run, inputs, rid)).tobytes(), rid
        if not QOS_BY_CODE[run.qos[rid]].uses_mec:
            assert row[1] == row[2] == 0.0


@settings(max_examples=40, deadline=None)
@given(base=small_scenarios(), rectangular=small_scenarios(rectangular=True))
def test_projections_equal_the_per_row_composition(base, rectangular):
    for scenario in [replace(base, scheme=scheme) for scheme in Scheme] + [rectangular]:
        assert_projections_are_the_composition(run_to_completion(scenario))


@pytest.mark.parametrize("scheme", [*Scheme, pytest.param(None, id="metro-p1-undrained")])
def test_campus5_projections_equal_the_per_row_composition(campus5, metro, scheme):
    # metro at one pair, stopped at its horizon, prices its UPF and MEC apart
    # while its link has sharers, so a reassociated proj_e2e shows there
    if scheme is None:
        scenario = replace(build_pair_scenario(metro, 1), drain_cap_epochs=0)
    else:
        scenario = replace(campus5, scheme=scheme)
    assert_projections_are_the_composition(run_to_completion(scenario))


@pytest.mark.parametrize("stamps, message", [
    # request 1 served one epoch before it arrived: the view's stage-order
    # guard refuses it before its bucket's length (-1) is derived
    ({1: 0}, "request 1: upf_serve_epoch 0 before its arrival_epoch 1"),
    # requests 0 and 1 served only at epoch 2: request 2 met a queue of 2,
    # where its bucket's cap of 2 drops, yet it was admitted
    ({0: 2, 1: 2}, "request 2: derived UPF bucket queue length 2 breaks its queue cap of 2 "
                   "(admitted)"),
])
def test_a_derived_length_outside_its_price_table_raises_a_named_error(stamps, message):
    run = _one_regular_request_per_epoch()
    for rid, epoch in stamps.items():
        run.upf_serve_epoch[rid] = epoch
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        decision_inputs(RunView(run))


def test_a_stamp_past_an_unset_one_is_refused_before_any_length_is_derived():
    # requests 2 and 3, hand-edited to leave their MEC at epoch 0 with no
    # d_net and so no due epoch, would make request 1 find its MEC holding 1 - 2 requests; the
    # view's stage-order guard refuses the first of them
    run = run_to_completion(make_scenario(num_upfs=1, lam=1.0, horizon=4, qos_mix=ALL_URLLC,
                                          bandwidth_mbps=1e6))
    assert run.upf_serve_epoch == [0, 1, 2, 3] and run.mec_serve_epoch == [1, 2, 3, 4]
    for rid in (2, 3):
        run.d_net[rid], run.mec_serve_epoch[rid] = UNSET, 0.0
    with pytest.raises(InvariantError,
                       match="^request 2: mec_serve_epoch 0 without its mec_due_epoch$"):
        RunView(run)


def test_an_admission_drop_below_its_queue_cap_raises_a_named_error():
    # request 2 recorded as dropped at admission, where it met an empty bucket
    run = _one_regular_request_per_epoch()
    run.drop[2], run.upf_serve_epoch[2] = 1, UNSET
    message = "request 2: derived UPF bucket queue length 0 breaks its queue cap of 2 (dropped)"
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        decision_inputs(RunView(run))


def _one_regular_request_per_epoch():
    """A baseline run of one regular request per epoch, each served in the epoch it arrives.

    Its one bucket has a stated cap of 2, and ``baseline`` prices nothing,
    so the bucket's price table is empty until ``decision_inputs`` fills it.
    """
    regular = dict.fromkeys(QosClass, 0.0) | {QosClass.REGULAR: 1.0}
    run = run_to_completion(make_scenario(num_upfs=1, lam=1.0, horizon=3, qos_mix=regular,
                                          upf_queue_cap=2))
    assert run.upf_serve_epoch == [0, 1, 2] and run.upfs[0][QosClass.REGULAR].table == []
    return run


# ---------------------------------------------------------------- file output


def _cell(x) -> str:
    return "" if x is None else repr(x) if isinstance(x, float) else str(x)


def row_stamps(run, rid: int) -> tuple:
    """Request rid's ``(upf_serve_epoch, d_net, due epoch, mec_serve_epoch)``, None where unset.

    The due epoch is the UPF serve stamp plus ``transit_epochs`` of ``d_net``.
    """
    served, d_net, done = (None if v != v else v for v in (
        run.upf_serve_epoch[rid], run.d_net[rid], run.mec_serve_epoch[rid]))
    due = None if d_net is None else served + transit_epochs(d_net, run.delta)
    return served, d_net, due, done


def row_status(run, rid: int) -> RequestStatus:
    """Request rid's status, read off its own row and ``run.epoch`` alone."""
    if run.drop[rid]:
        return RequestStatus.DROPPED
    served, _, due, done = row_stamps(run, rid)
    if done is not None or (served is not None and not QOS_BY_CODE[run.qos[rid]].uses_mec):
        return RequestStatus.COMPLETED
    if served is None:
        return RequestStatus.IN_UPF_QUEUE
    return RequestStatus.IN_TRANSIT if due >= run.epoch else RequestStatus.IN_MEC_QUEUE


def reference_events_csv(run, path: str) -> None:
    """``events.csv`` written one row at a time with the per-row laws and formatting."""
    arrivals = [rep.epoch for rep in run.epoch_reports for _ in range(rep.arrivals)]
    delta, inputs = run.delta, decision_inputs(RunView(run))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([
            "id", "qos", "origin_upf", "arrival_epoch", "assigned_upf", "assigned_mec",
            "status", "d_upf_ms", "d_net_ms", "d_mec_ms", "d_e2e_ms",
            "proj_upf_ms", "proj_net_ms", "proj_mec_ms", "proj_e2e_ms",
        ])
        for rid, arrival in enumerate(arrivals):
            qos, status = QOS_BY_CODE[run.qos[rid]], row_status(run, rid)
            served, d_net, due, done = row_stamps(run, rid)
            d_upf = None if served is None else (served + 1 - arrival) * delta
            if qos.uses_mec:
                d_mec = None if done is None else (done + 1 - due) * delta
                d_e2e = None if d_mec is None else (d_upf + d_net) + d_mec
            else:
                d_net = d_mec = 0.0 if status is RequestStatus.COMPLETED else None
                d_e2e = d_upf if status is RequestStatus.COMPLETED else None
            w.writerow([
                rid, qos.value, run.origin_upf[rid], arrival, _cell(run.assigned_upf[rid]),
                _cell(run.assigned_mec[rid]), status.name.lower(),
                *map(_cell, (d_upf, d_net, d_mec, d_e2e)),
                *map(_cell, composed(run, inputs, rid)),
            ])


def assert_events_csv_is_the_reference(run, tmp) -> None:
    write_events_csv(run, str(tmp / "events.csv"))
    reference_events_csv(run, str(tmp / "reference.csv"))
    assert (tmp / "events.csv").read_bytes() == (tmp / "reference.csv").read_bytes()


@settings(max_examples=50, deadline=None)
@given(base=small_scenarios(), rectangular=small_scenarios(rectangular=True))
def test_events_csv_equals_the_per_row_writer(base, rectangular, tmp_path_factory):
    # a drain cap of 0 stops the run with requests in its queues and on its links
    tmp = tmp_path_factory.mktemp("events")
    for s in [replace(base, scheme=scheme) for scheme in Scheme] + [rectangular]:
        for cap in (0, 100_000):
            assert_events_csv_is_the_reference(run_to_completion(replace(s, drain_cap_epochs=cap)),
                                               tmp)


def test_events_csv_equals_the_per_row_writer_on_every_status(metro, tmp_path):
    # one pair stopped at its horizon drops at admission and at the MEC door and
    # leaves requests in a UPF queue, on a link and in a MEC queue
    run = run_to_completion(replace(build_pair_scenario(metro, 1), drain_cap_epochs=0))
    assert {row_status(run, rid) for rid in range(run.generated)} == set(RequestStatus)
    assert_events_csv_is_the_reference(run, tmp_path)


class CountedColumn(list):
    """A list column that counts how often it is iterated."""

    def __init__(self, items):
        super().__init__(items)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


LIST_COLUMNS = ("origin_upf", "assigned_upf", "assigned_mec", "upf_serve_epoch",
                "mec_serve_epoch", "d_net")


@pytest.mark.parametrize("report", [summarize, summarize_head, completed_e2e, write_events_csv],
                         ids=lambda report: report.__name__)
def test_a_report_converts_each_list_column_at_most_once(metro, tmp_path, report):
    # one pair stopped at its horizon holds requests at every status
    run = run_to_completion(replace(build_pair_scenario(metro, 1), drain_cap_epochs=0))
    for name in LIST_COLUMNS:
        setattr(run, name, CountedColumn(getattr(run, name)))
    printed = ()
    if report is write_events_csv:
        # the event log prints these three columns as recorded, beside what it converts
        printed = ("origin_upf", "assigned_upf", "assigned_mec")
        report(run, str(tmp_path / "events.csv"))
    else:
        report(run)
    iterations = {name: getattr(run, name).iterations for name in LIST_COLUMNS}
    assert iterations == {name: min(iterations[name], 1 + (name in printed))
                          for name in LIST_COLUMNS}


def test_report_path_naming():
    assert (
        report_path("out", "campus5", "baseline", 3, "summary", "csv")
        == "out/campus5.baseline.3.summary.csv"
    )


def test_writers_are_byte_stable(tmp_path):
    s = make_scenario(num_upfs=2, lam=3.0, horizon=6, upf_queue_cap=10, mec_queue_cap=10)
    result = run_to_completion(s)
    rep = summarize(result)
    cdf = build_cdf(rep.d_e2e)
    points = capex_sweep(sweep_base(), [1], [1])
    for name, writer, payload in [
        ("summary.csv", write_summary_csv, rep),
        ("summary.json", write_summary_json, rep),
        ("cdf.csv", write_cdf_csv, cdf),
        ("events.csv", write_events_csv, result),
        ("trace.csv", write_trace_csv, result),
        ("capex.csv", write_capex_csv, points),
    ]:
        a, b = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
        writer(payload, str(a))
        writer(copy.deepcopy(payload), str(b))
        assert a.read_bytes() == b.read_bytes()
        assert a.stat().st_size > 0


def test_summary_json_structure(tmp_path):
    s = make_scenario(num_upfs=1, lam=2.0, horizon=4, upf_queue_cap=10, mec_queue_cap=10)
    rep = summarize(run_to_completion(s))
    path = tmp_path / "s.json"
    write_summary_json(rep, str(path))
    doc = json.loads(path.read_text())
    assert doc["scenario"] == s.name
    assert doc["counts"]["generated"] == rep.generated
    assert "e2e" in doc and "upf_delay" in doc and "mec_delay" in doc


def test_summary_reflects_drops():
    s = make_scenario(
        num_upfs=1, lam=10.0, horizon=3, qos_mix=ALL_URLLC,
        upf_capacity=2.0, upf_queue_cap=3, mec_queue_cap=100,
    )
    rep = summarize(run_to_completion(s))
    assert rep.dropped > 0
    assert rep.generated == rep.completed + rep.dropped
    assert rep.residual == 0
