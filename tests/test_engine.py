from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upfmec import engine
from upfmec.delay import net_delay, projected_delay, transit_epochs
from upfmec.engine import (
    REPORT_CLASSES,
    UNBOUNDED,
    UNSET,
    InvariantError,
    SimulationRun,
    arrival_cdfs,
    generate_arrivals,
    run_to_completion,
)
from upfmec.metrics import (
    RunView,
    build_pair_scenario,
    completed_e2e,
    decision_inputs,
    stage_delay,
    summarize,
    summarize_head,
    write_events_csv,
)
from upfmec.model import (
    QOS_BY_CODE,
    CostVector,
    QosClass,
    RequestStatus,
    ScenarioError,
    Scheme,
    ServiceQueue,
    TrafficSpec,
)
from upfmec.schemes import SCHEMES

from conftest import codes, make_scenario, recorded, small_scenarios
from reference_engine import COLUMNS, INPUTS, reference_run

ALL_URLLC = {QosClass.URLLC: 1.0, QosClass.EMBB: 0.0, QosClass.MMTC: 0.0, QosClass.REGULAR: 0.0}
ALL_REGULAR = {QosClass.URLLC: 0.0, QosClass.EMBB: 0.0, QosClass.MMTC: 0.0, QosClass.REGULAR: 1.0}


def arrivals_by_id(run):
    """Each request's arrival epoch, counted off the epoch reports one id at a time."""
    return [rep.epoch for rep in run.epoch_reports for _ in range(rep.arrivals)]


def classes_by_id(run):
    """Each request's class, read from its code."""
    return [QOS_BY_CODE[code] for code in run.qos]


def measured_e2e(run, rid, arrival):
    """Request rid's end-to-end delay in ms, from its stamps and arrival, without ``stage_delay``.

    Its due epoch is its UPF serve stamp plus ``transit_epochs`` of its ``d_net``.
    """
    delta = run.delta
    served = run.upf_serve_epoch[rid]
    d_upf = (served + 1 - arrival) * delta
    if not QOS_BY_CODE[run.qos[rid]].uses_mec:
        return d_upf
    d_net = run.d_net[rid]
    d_mec = (run.mec_serve_epoch[rid] + 1 - (served + transit_epochs(d_net, delta))) * delta
    return (d_upf + d_net) + d_mec


# ------------------------------------------------------------------ arrivals


def test_zero_rate_generates_nothing():
    for process in ("poisson", "deterministic"):
        t = TrafficSpec(0.0, [1.0], {q: 0.25 for q in QosClass}, process=process)
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        assert generate_arrivals(t, rng, 5, *arrival_cdfs(t)) == ([0] * 5, [], b"")
        assert rng.bit_generator.state == before


def test_deterministic_process_hits_rate_exactly():
    t = TrafficSpec(1.5, [1.0], {q: 0.25 for q in QosClass}, process="deterministic")
    counts, origins, classes = generate_arrivals(t, np.random.default_rng(1), 100, *arrival_cdfs(t))
    assert sum(counts) == len(origins) == len(classes) == 150
    assert counts[:4] == [1, 2, 1, 2]


def test_same_seed_same_stream():
    t = TrafficSpec(5.0, [0.3, 0.7], {q: 0.25 for q in QosClass})
    a = generate_arrivals(t, np.random.default_rng(3), 3, *arrival_cdfs(t))
    b = generate_arrivals(t, np.random.default_rng(3), 3, *arrival_cdfs(t))
    assert a == b and len(a[1]) > 0


def test_origin_frequencies_follow_skew():
    skew = [0.13, 0.24, 0.30, 0.15, 0.18]
    t = TrafficSpec(50.0, skew, {q: 0.25 for q in QosClass}, process="deterministic")
    origins = generate_arrivals(t, np.random.default_rng(7), 400, *arrival_cdfs(t))[1]
    freq = np.bincount(origins, minlength=6)[1:] / len(origins)
    assert np.allclose(freq, skew, atol=0.02)


def test_unknown_process_rejected():
    t = TrafficSpec(1.0, [1.0], {q: 0.25 for q in QosClass}, process="burst")
    with pytest.raises(ValueError):
        generate_arrivals(t, np.random.default_rng(1), 1, *arrival_cdfs(t))


def weights(min_size, max_size):
    """Non-negative weight vectors, zeros allowed, with a positive sum."""
    entry = st.just(0.0) | st.floats(1e-6, 1e6)
    return st.lists(entry, min_size=min_size, max_size=max_size).filter(lambda w: sum(w) > 0.0)


@settings(max_examples=200, deadline=None)
@given(
    skew=weights(1, 60),
    mix=weights(4, 4),
    count=st.integers(0, 300),
    seed=st.integers(0, 2**64 - 1),
)
def test_arrival_draws_equal_numpy_choice(skew, mix, count, seed):
    # the per-run CDFs draw what rng.choice draws, origins first, from the
    # same stream; a numpy whose choice changes fails here instead of
    # silently moving every output
    t = TrafficSpec(float(count), skew, dict(zip(QosClass, mix)), process="deterministic")
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    counts, origins, classes = generate_arrivals(t, rng, 1, *arrival_cdfs(t))
    w, m = np.asarray(skew), np.asarray(mix)
    twin_origins = twin.choice(len(w), size=count, p=w / w.sum())
    twin_classes = twin.choice(len(m), size=count, p=m / m.sum())
    assert counts == [count]
    assert origins == [o + 1 for o in twin_origins]
    # a class comes back as its code, its index in the class CDF
    assert list(classes) == twin_classes.tolist()
    assert [QOS_BY_CODE[c] for c in classes] == [list(QosClass)[c] for c in twin_classes]
    assert rng.bit_generator.state == twin.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    skew=weights(1, 6),
    mix=weights(4, 4),
    lam=st.just(0.0) | st.floats(0.0, 4.0),
    process=st.sampled_from(["poisson", "deterministic"]),
    horizon=st.integers(0, 30),
    seed=st.integers(0, 2**64 - 1),
)
def test_a_runs_draw_equals_its_epochs_drawn_in_turn(skew, mix, lam, process, horizon, seed):
    # the whole horizon drawn at once is the stream of per-epoch draws: each
    # epoch's count, then its origins, then its classes, as rng.choice
    # makes them; low rates give epochs without requests
    t = TrafficSpec(lam, skew, dict(zip(QosClass, mix)), process=process)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    counts, origins, classes = generate_arrivals(t, rng, horizon, *arrival_cdfs(t))
    w, m = np.asarray(skew), np.asarray(mix)
    twin_counts, twin_origins, twin_classes = [], [], []
    for e in range(horizon):
        if process == "poisson":
            count = int(twin.poisson(lam))
        else:
            count = math.floor((e + 1) * lam) - math.floor(e * lam)
        twin_counts.append(count)
        twin_origins += (twin.choice(len(w), size=count, p=w / w.sum()) + 1).tolist()
        twin_classes += twin.choice(len(m), size=count, p=m / m.sum()).tolist()
    assert counts == twin_counts
    assert origins == twin_origins
    assert list(classes) == twin_classes
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("generate_at", [range(6), range(3)], ids=["always", "to_horizon"])
def test_only_epochs_before_the_horizon_have_arrivals(generate_at):
    # the run draws the horizon's 3 epochs once; a later epoch, even one
    # stepped with generate, has none, and the draws are the run's alone
    s = make_scenario(num_upfs=1, lam=2.0, horizon=3, process="poisson", seed=5)
    twin = generate_arrivals(s.traffic, np.random.default_rng(5), 3, *arrival_cdfs(s.traffic))
    run = SimulationRun(s)
    arrivals = [run.step_epoch(generate=e in generate_at).arrivals for e in range(6)]
    assert arrivals == twin[0] + [0, 0, 0]
    assert (run.origin_upf, bytes(run.qos)) == twin[1:]


def test_request_ids_continue_across_epochs():
    # a request's id is its row in the run's record, in arrival order
    run = SimulationRun(make_scenario(num_upfs=1, lam=3.0, horizon=2))
    run.step_epoch()
    run.step_epoch()
    assert run.generated == 6
    assert all(len(getattr(run, column)) == 6 for column in COLUMNS)
    assert RunView(run).arrival.tolist() == [0, 0, 0, 1, 1, 1]


# the columns a run sizes for its horizon's draws when it is built
SIZED = ("assigned_upf", "assigned_mec", "upf_serve_epoch", "mec_serve_epoch", "d_net")


def test_undecided_columns_are_sized_when_the_run_is_built(campus5):
    # one undecided row per request the horizon draws, from the start, and
    # the run writes into those same lists to its end
    run = SimulationRun(replace(campus5, scheme=Scheme.BESTFIT_UPF_MEC, horizon_epochs=20))
    rows = run._starts[-1]
    assert rows > 0 and run.generated == 0
    columns = {column: getattr(run, column) for column in SIZED}
    assert all(len(values) == rows for values in columns.values())
    assert columns["assigned_upf"] == columns["assigned_mec"] == [None] * rows
    assert all(v is UNSET for c in ("upf_serve_epoch", "mec_serve_epoch", "d_net")
               for v in columns[c])
    run.run()
    assert run.generated == rows and not run.truncated
    assert all(getattr(run, column) is values for column, values in columns.items())


def test_an_epoch_stepped_without_its_draws_keeps_ids_contiguous(metro):
    # epochs 1 and 3 lie inside the horizon but take no arrivals: the ids of
    # epochs 0, 2 and 4 follow each other, and the rows the skipped draws
    # were sized for stay undecided past the last id
    run = SimulationRun(replace(build_pair_scenario(metro, 3), seed=1))
    steps = [True, False, True, False, True]
    counts = [run._starts[e + 1] - run._starts[e] if generate else 0
              for e, generate in enumerate(steps)]
    codes_drawn = [run._codes[run._starts[e]:run._starts[e + 1]] if generate else b""
                   for e, generate in enumerate(steps)]
    for generate in steps:
        run.step_epoch(generate=generate)
    n = sum(counts)
    assert run.generated == n > 0 and counts[1::2] == [0, 0]
    assert [rep.arrivals for rep in run.epoch_reports] == counts
    assert bytes(run.qos) == b"".join(codes_drawn)
    assert None not in run.assigned_upf[:n]
    assert run.assigned_upf[n:] == [None] * (run._starts[-1] - n) != []
    view = RunView(run)
    assert view.arrival.tolist() == [e for e, count in enumerate(counts) for _ in range(count)]
    for array in (view.codes, view.upf_serve, view.d_net, view.mec_serve, view.mec_due,
                  view.status, view.upf_ids):
        assert len(array) == n
    assert len(view.mec_ids) == int(view.uses_mec.sum())


def test_a_stamp_is_its_epochs_one_float_past_the_small_int_cache(campus5):
    # a stamp costs one float object per epoch, never one per request, also
    # past epoch 256; an unset stamp or d_net is the one UNSET object
    run = run_to_completion(replace(campus5, horizon_epochs=300), seed=1)
    assert run.epoch > 300 and not run.truncated
    stamps = [v for c in ("upf_serve_epoch", "mec_serve_epoch") for v in getattr(run, c)]
    is_set = [v for v in stamps if v is not UNSET]
    assert len(is_set) > run.generated
    assert all(type(v) is float and v == int(v) for v in is_set)
    assert len(set(map(id, is_set))) <= run.epoch
    assert all(v is UNSET or v == v for v in run.d_net)


# ------------------------------------------------------------------ stepping


def test_single_request_crosses_both_tiers():
    # 12 Mbps = 12000 bits/ms, so one 1500 B transfer takes exactly 1 ms
    s = make_scenario(num_upfs=1, lam=1.0, horizon=1, qos_mix=ALL_URLLC, bandwidth_mbps=12.0)
    res = run_to_completion(s)
    assert res.generated == res.completed == 1
    assert RunView(res).status.tolist() == [RequestStatus.COMPLETED]
    stamps = ("upf_serve_epoch", "mec_due_epoch", "mec_serve_epoch")
    assert [recorded(res, c) for c in stamps] == [[0], [1], [1]]
    rep = summarize(res)
    assert rep.per_upf_qos[(1, QosClass.URLLC)].mean == 1.0
    assert recorded(res, "d_net") == [1.0]
    assert rep.per_mec[1].mean == 1.0
    assert rep.d_e2e.tolist() == [3.0]


def test_regular_traffic_never_touches_the_mec():
    s = make_scenario(num_upfs=2, lam=4.0, horizon=5, qos_mix=ALL_REGULAR)
    run = SimulationRun(s)
    res = run.run()
    assert res.completed == res.generated > 0
    unset = [None] * res.generated
    for column in ("assigned_mec", "d_net", "mec_due_epoch", "mec_serve_epoch"):
        assert recorded(res, column) == unset, column
    e2e = [measured_e2e(res, rid, a) for rid, a in enumerate(arrivals_by_id(res))]
    assert summarize(res).d_e2e.tolist() == e2e
    assert all(not any(rep.mec_queues) for rep in res.epoch_reports)
    assert not any(run.link_sharers)


def test_stages_stamp_epochs_and_rows_derive_the_delays():
    # a stage's delay is (leave + 1 - enter) epochs of delta: the serving epoch counts
    s = make_scenario(
        num_upfs=1, lam=6.0, horizon=3, qos_mix=ALL_URLLC, upf_capacity=2.0,
        mec_capacity=1.5, bandwidth_mbps=1e6, upf_queue_cap=100, mec_queue_cap=100, delta=0.5,
    )
    res = run_to_completion(s)
    assert RunView(res).status.tolist() == [RequestStatus.COMPLETED] * res.generated
    stamps = list(zip(arrivals_by_id(res), *(recorded(res, c) for c in (
        "upf_serve_epoch", "mec_due_epoch", "mec_serve_epoch"))))
    # the MEC queued some requests past their due epoch
    assert max(serve - due for _, _, due, serve in stamps) > 0
    for arrival, upf_serve, due, mec_serve in stamps:
        assert arrival <= upf_serve <= due <= mec_serve < res.epoch
    rep = summarize(res)
    assert rep.per_upf_qos[(1, QosClass.URLLC)].mean == np.mean(
        [(u + 1 - a) * 0.5 for a, u, _, _ in stamps])
    assert rep.per_mec[1].mean == np.mean([(m + 1 - due) * 0.5 for _, _, due, m in stamps])
    assert rep.d_e2e.tolist() == [
        ((u + 1 - a) * 0.5 + n) + (m + 1 - due) * 0.5
        for (a, u, due, m), n in zip(stamps, recorded(res, "d_net"), strict=True)
    ]


def test_stage_delay_is_one_law_for_ints_and_arrays():
    leave, enter = [3, 7, 12, 40], [3, 2, 0, 1]
    scalars = [stage_delay(a, b, 0.1) for a, b in zip(leave, enter)]
    assert scalars == [0.1, 0.6000000000000001, 1.3, 4.0]
    assert all(type(x) is float for x in scalars)
    assert stage_delay(np.array(leave), np.array(enter), 0.1).tolist() == scalars


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_a_seed_override_is_checked_as_the_scenario_field(seed):
    with pytest.raises(ScenarioError, match="^seed must be an integer >= 0"):
        run_to_completion(make_scenario(), seed=seed)


def test_d_net_is_in_ms_for_any_epoch_length():
    # 12 Mbps = 12000 bits/ms: one 1500 B transfer takes 1 ms however long an epoch is
    d_net = {}
    for delta in (0.5, 1.0, 2.0):
        s = make_scenario(
            num_upfs=1, lam=1.0, horizon=1, qos_mix=ALL_URLLC, bandwidth_mbps=12.0, delta=delta
        )
        d_net[delta] = run_to_completion(s).d_net[0]
    assert d_net == {0.5: 1.0, 1.0: 1.0, 2.0: 1.0}


def test_burst_leaves_excess_queued():
    s = make_scenario(
        num_upfs=1, lam=7.0, horizon=1, qos_mix=ALL_URLLC, upf_queue_cap=100, mec_queue_cap=100
    )
    run = SimulationRun(s)
    report = run.step_epoch()
    assert report.arrivals == 7 and report.admitted == 7
    assert report.served_upf == 4
    assert report.upf_queues[REPORT_CLASSES.index(QosClass.URLLC)] == 3


@pytest.mark.parametrize(
    "tier, lag, knobs",
    [
        ("served_upf", 0, dict(upf_capacity=1.5)),
        # the UPF passes all three on at once and a fast link delivers them
        # one epoch later, so the MEC serves from the second epoch on
        ("served_mec", 1, dict(upf_capacity=3.0, mec_capacity=1.5, bandwidth_mbps=1e6)),
    ],
    ids=["upf", "mec"],
)
def test_fractional_capacity_accrues_credit(tier, lag, knobs):
    s = make_scenario(
        num_upfs=1, lam=3.0, horizon=4, qos_mix=ALL_URLLC,
        upf_queue_cap=100, mec_queue_cap=100, **knobs,
    )
    run = SimulationRun(s)
    served = [getattr(run.step_epoch(), tier) for _ in range(lag + 4)]
    assert served[lag:] == [1, 2, 1, 2]


@pytest.mark.parametrize("name", ["campus5", "metro"])
def test_epoch_completions_add_up_to_the_run(name, request):
    # regular requests complete at the UPF, every other class at a MEC
    res = run_to_completion(request.getfixturevalue(name), seed=1)
    assert sum(rep.completed for rep in res.epoch_reports) == res.completed


def test_zero_load_all_schemes_agree():
    results = {}
    for scheme in Scheme:
        s = make_scenario(num_upfs=2, lam=0.5, horizon=8, scheme=scheme, seed=11)
        res = run_to_completion(s)
        results[scheme] = (*(recorded(res, c) for c in (
            "upf_serve_epoch", "mec_due_epoch", "mec_serve_epoch", "d_net")),
            summarize(res).d_e2e.tolist())
    baseline = results[Scheme.BASELINE]
    assert len(baseline[-1]) == 4
    for scheme in Scheme:
        assert results[scheme] == baseline


def test_mec_overflow_drops_in_transit_requests():
    s = make_scenario(
        num_upfs=1, lam=5.0, horizon=6, qos_mix=ALL_URLLC,
        upf_capacity=5.0, upf_queue_cap=100, mec_capacity=1.0, mec_queue_cap=2,
        # fast links so each epoch's batch lands together instead of staggering
        bandwidth_mbps=60.0,
    )
    res = run_to_completion(s)
    assert res.dropped > 0
    assert res.generated == res.completed + res.dropped
    assert res.residual == 0
    # some were dropped at the MEC door, after crossing the link
    assert any(drop and due is not None
               for drop, due in zip(res.drop, recorded(res, "mec_due_epoch")))


def test_admission_drops_when_bucket_full():
    s = make_scenario(
        num_upfs=1, lam=10.0, horizon=3, qos_mix=ALL_URLLC,
        upf_capacity=2.0, upf_queue_cap=3, mec_queue_cap=100,
    )
    res = run_to_completion(s)
    assert res.dropped > 0
    assert any(drop and serve is None
               for drop, serve in zip(res.drop, recorded(res, "upf_serve_epoch")))


def test_queues_never_exceed_their_caps(metro):
    run = SimulationRun(replace(metro, scheme=Scheme.BESTFIT_UPF_MEC, seed=2))
    run.run()
    _assert_reports_within_caps(run)


def test_truncated_run_reports_residual():
    s = make_scenario(
        num_upfs=1, lam=6.0, horizon=3, qos_mix=ALL_URLLC,
        upf_capacity=1.0, upf_queue_cap=100, mec_queue_cap=100,
    )
    res = run_to_completion(replace(s, drain_cap_epochs=0))
    assert res.truncated
    assert res.residual > 0
    assert res.generated == res.completed + res.dropped + res.residual


def test_a_request_lost_behind_the_engine_breaks_conservation():
    s = make_scenario(
        num_upfs=1, lam=6.0, horizon=3, qos_mix=ALL_URLLC,
        upf_capacity=1.0, upf_queue_cap=100, mec_queue_cap=100,
    )
    run = SimulationRun(s)
    run.step_epoch()
    # the request is gone from every queue and link, but still in flight
    run.upfs[0][QosClass.URLLC].queue.pop()
    with pytest.raises(InvariantError, match="conservation"):
        run.run()


@pytest.mark.parametrize("case", ["upf", "link", "mec", "link_unset", "mec_unset"])
def test_a_stamp_out_of_stage_order_breaks_the_derivation(case, tmp_path):
    # the last request, hand-edited to be served at its UPF before it
    # arrived, due at its MEC before its UPF served it (a d_net of minus one
    # epoch), or served at its MEC before its transfer was due, or with a
    # d_net but no UPF serve stamp, or a MEC serve stamp but no d_net and so
    # no due epoch; every reader of the record refuses it
    s = make_scenario(
        num_upfs=1, lam=6.0, horizon=4, qos_mix=ALL_URLLC, upf_capacity=3.0,
        mec_capacity=1.0, bandwidth_mbps=1e6, upf_queue_cap=100, mec_queue_cap=100,
    )
    run = run_to_completion(s)
    rid = run.generated - 1
    arrival, due = arrivals_by_id(run)[rid], RunView(run).mec_due[rid]
    served, d_net, done = (getattr(run, c)[rid] for c in ("upf_serve_epoch", "d_net",
                                                            "mec_serve_epoch"))
    if case == "upf":
        run.upf_serve_epoch[rid] = arrival - 1
        message = f"upf_serve_epoch {arrival - 1:g} before its arrival_epoch {arrival:g}"
    elif case == "link":
        run.d_net[rid] = -run.delta
        message = f"mec_due_epoch {served - 1:g} before its upf_serve_epoch {served:g}"
    elif case == "mec":
        run.mec_serve_epoch[rid] = due - 1
        message = f"mec_serve_epoch {due - 1:g} before its mec_due_epoch {due:g}"
    elif case == "link_unset":
        run.upf_serve_epoch[rid] = UNSET
        message = f"d_net {d_net:g} without its upf_serve_epoch"
    else:
        run.d_net[rid] = UNSET
        message = f"mec_serve_epoch {done:g} without its mec_due_epoch"
    message = f"request {rid}: {message}"
    readers = [RunView, summarize, summarize_head, completed_e2e,
               lambda r: decision_inputs(RunView(r)),
               lambda r: write_events_csv(r, str(tmp_path / "events.csv"))]
    for read in readers:
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
            read(run)


def test_deliveries_go_in_link_key_order_then_entry_order(monkeypatch):
    # MEC 1 holds one request and serves one per epoch; every request starts
    # at UPF 1, so bestfit_upf_no_pe sends it to MEC 1 over (1, 1), or over
    # (2, 1) when UPF 1's bucket is busier.  Link (2, 1) takes two 0.5 ms
    # epochs, the others one.
    urllc, embb = QosClass.URLLC, QosClass.EMBB
    script = {
        # id 0 goes over (1, 1), due 1; id 1 finds UPF 1 busy and goes over (2, 1), due 2
        0: ([1, 1], codes(urllc, urllc)),
        # id 2 goes over (1, 1), due 2: entered after id 1, due with it
        1: ([1], codes(urllc)),
        # UPF 1 serves its URLLC bucket before its EMBB one, so id 4 enters
        # (1, 1) before id 3, and both are due at epoch 4
        3: ([1, 1], codes(embb, urllc)),
    }

    def scripted(traffic, rng, horizon, origin_cdf, class_cdf):
        epochs = [script.get(e, ([], b"")) for e in range(horizon)]
        return ([len(o) for o, _ in epochs], [o for os, _ in epochs for o in os],
                b"".join(c for _, c in epochs))

    monkeypatch.setattr(engine, "generate_arrivals", scripted)
    s = make_scenario(
        num_upfs=2, scheme=Scheme.BESTFIT_UPF_NO_PE, skew=[1.0, 0.0], horizon=5,
        delta=0.5, upf_capacity=1.0, upf_queue_cap=10, mec_capacity=1.0, mec_queue_cap=1,
    )
    s.link_bandwidth_mbps = [[1000.0, 1000.0], [16.0, 1000.0]]
    run = run_to_completion(s)
    assert run.assigned_upf == [1, 2, 1, 1, 1]
    assert recorded(run, "mec_due_epoch") == [1, 2, 2, 4, 4]
    # at epoch 2, link (1, 1) delivers id 2 before link (2, 1) delivers id 1,
    # which entered first; at epoch 4, id 4 goes before id 3 on one link
    assert [rid for rid, drop in enumerate(run.drop) if drop] == [1, 3]
    assert run.completed == 3


@pytest.mark.parametrize("delta", [0.37, 0.5, 1.0, 2.0])
def test_transit_tables_equal_fresh_transit_calls(delta):
    rng = np.random.default_rng(int(delta * 100))
    s = make_scenario(num_upfs=2, num_mecs=3, scheme=Scheme.BESTFIT_UPF_MEC, delta=delta)
    for m in s.mecs:
        m.bytes_per_ue = float(rng.uniform(64.0, 9000.0))
    s.link_bandwidth_mbps = [[float(rng.uniform(1.0, 500.0)) for _ in range(3)] for _ in range(2)]
    run = SimulationRun(s)
    # a link that carries no transfer has no table
    assert run.link_transit == [()] * 6
    # link k's bytes per request (its MEC's) and bandwidth in bits per ms
    laws = [(s.mecs[j].bytes_per_ue, s.link_bandwidth_mbps[i][j] * 1e3)
            for i in range(2) for j in range(3)]
    top = 12
    for k, law in enumerate(laws):
        # entries made in an arbitrary order of first use, the first at 5 sharers
        order = [5, *(int(n) for n in rng.permutation([n for n in range(1, top + 1) if n != 5]))]
        for n in order:
            d = net_delay(n, *law)
            assert engine.transit_entry(run, k, n) == (d, transit_epochs(d, delta))
    # every link keeps its own table
    for k, law in enumerate(laws):
        for n in range(1, top + 1):
            d = net_delay(n, *law)
            assert run.link_transit[k][n] == (d, transit_epochs(d, delta))
    with pytest.raises(ValueError, match=">= 1 sharers"):
        engine.transit_entry(run, 0, 0)


def test_links_no_transfer_crosses_keep_no_state(metro):
    # at 50 pairs under bestfit_upf_mec the load lands on a few pairs, and
    # each of the other links stays a zero count and the shared empty table
    s = replace(build_pair_scenario(metro, 50), scheme=Scheme.BESTFIT_UPF_MEC, horizon_epochs=20)
    run = run_to_completion(s)
    assert not run.truncated
    crossed = {
        (upf_id - 1) * 50 + mec_id - 1
        for upf_id, mec_id, due in zip(run.assigned_upf, run.assigned_mec,
                                       recorded(run, "mec_due_epoch"))
        if due is not None
    }
    assert 0 < len(crossed) < 2500
    assert run.link_sharers == [0] * 2500
    idle = [run.link_transit[k] for k in range(2500) if k not in crossed]
    assert all(table == () for table in idle)
    assert len(set(map(id, idle))) == 1
    assert all(len(run.link_transit[k]) > 1 for k in crossed)


def test_horizon_zero_is_an_empty_run():
    res = run_to_completion(make_scenario(lam=5.0, horizon=0))
    assert res.generated == 0 and res.epoch == 0 and not res.truncated


def test_identical_seed_identical_run(campus5):
    variant = replace(campus5, scheme=Scheme.BESTFIT_UPF_MEC)
    a = run_to_completion(variant, seed=3)
    b = run_to_completion(variant, seed=3)
    for column in COLUMNS:
        assert getattr(a, column) == getattr(b, column), column
    assert a.epoch_reports == b.epoch_reports


def test_baseline_hotspot_sits_on_high_skew_upfs(campus5):
    res = run_to_completion(campus5, seed=1)
    k = len(REPORT_CLASSES)
    peak_by_upf = {
        uid: max(max(rep.upf_queues[(uid - 1) * k : uid * k]) for rep in res.epoch_reports)
        for uid in range(1, 6)
    }
    hottest = max(peak_by_upf, key=peak_by_upf.get)
    assert hottest in (2, 3)


def test_completed_delays_respect_stage_minimums(campus5):
    res = run_to_completion(replace(campus5, scheme=Scheme.BESTFIT_UPF_MEC), seed=1)
    delta = campus5.delta_ms
    e2e = completed_e2e(res)
    assert sum(sample.size for sample in e2e.values()) == res.completed > 0
    for qos, sample in e2e.items():
        assert sample.min() >= (2 if qos.uses_mec else 1) * delta


@pytest.mark.parametrize("scheme", list(Scheme))
def test_upf_price_undershoots_fcfs_service_by_under_one_epoch(campus5, scheme):
    # at integer capacity c, a request that finds q ahead is priced
    # max(1, (q + 1) / c) epochs and served after ceil((q + 1) / c), so its
    # measured d_upf exceeds the price its decision read by 0 to (1 - 1/c)
    # epochs; the price is a float, so the bounds allow its rounding
    res = run_to_completion(replace(campus5, scheme=scheme), seed=1)
    delta, tol = res.delta, 1e-9
    errors = []
    prices = decision_inputs(RunView(res))[0].tolist()
    for qos, upf, arrival, serve, price in zip(
        classes_by_id(res), res.assigned_upf, arrivals_by_id(res),
        recorded(res, "upf_serve_epoch"), prices
    ):
        if serve is None:
            continue
        c = res.upfs[upf - 1][qos].capacity
        assert c == int(c)
        bound = (1.0 - 1.0 / c) * delta
        error = (serve + 1 - arrival) * delta - price
        assert -tol <= error <= bound + tol
        errors.append((error, bound))
    assert len(errors) == res.generated
    # the bound is reached
    assert any(abs(error - bound) <= tol and bound > 0.0 for error, bound in errors)


def _check_costs_at_every_decision(run: SimulationRun) -> list:
    """Make every decision of the run first check the cost vectors against a fresh pricing.

    The run keeps exactly the vectors its scheme declares it reads
    (``SCHEMES``), and each decision checks those.  The fresh prices come
    from the checked law ``projected_delay`` with headroom = capacity, not
    from ``ServiceQueue.price``, which is the code under test.
    """
    decisions = []
    assign = run._assign
    _, reads_upf, reads_mec = SCHEMES[run.scenario.scheme.value]
    kept = {cost is not None for cost in run.upf_cost.values()}, run.mec_cost is not None
    assert kept == ({reads_upf}, reads_mec)

    def checked(qos, origin_upf, run_):
        tiers = [(run.upf_cost[qos], [u[qos] for u in run.upfs])] if reads_upf else []
        tiers += [(run.mec_cost, run.mecs)] if reads_mec else []
        for cost, queues in tiers:
            prices = [
                projected_delay(len(q.queue) + q.pending, q.capacity, q.capacity, run.delta)
                for q in queues
            ]
            assert cost.prices == prices
            assert cost.best == prices.index(min(prices))
        decisions.append((qos, origin_upf))
        return assign(qos, origin_upf, run_)

    run._assign = checked
    return decisions


@pytest.mark.parametrize("pairs", [None, 1, 10])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_cost_vectors_match_fresh_snapshots(campus5, metro, pairs, scheme):
    base = campus5 if pairs is None else build_pair_scenario(metro, pairs)
    run = SimulationRun(replace(base, scheme=scheme, seed=2))
    decisions = _check_costs_at_every_decision(run)
    res = run.run()
    assert len(decisions) == res.generated > 0


@settings(max_examples=40, deadline=None)
@given(base=small_scenarios(), rectangular=small_scenarios(rectangular=True))
def test_cost_vector_writes_keep_their_premises_on_random_scenarios(base, rectangular):
    # admission raises only a vector's best entry and service only lowers an
    # entry, with fractional capacities, caps and drops at a MEC's door too;
    # the vectors then equal a fresh pricing at every decision
    raise_best, lower = CostVector.raise_best, CostVector.lower

    def checked_raise_best(cost, price):
        assert price >= cost.prices[cost.best]
        raise_best(cost, price)

    def checked_lower(cost, i, price):
        assert price <= cost.prices[i]
        lower(cost, i, price)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CostVector, "raise_best", checked_raise_best)
        mp.setattr(CostVector, "lower", checked_lower)
        for s in [replace(base, scheme=scheme) for scheme in Scheme] + [rectangular]:
            run = SimulationRun(replace(s, drain_cap_epochs=100_000))
            decisions = _check_costs_at_every_decision(run)
            res = run.run()
            assert len(decisions) == res.generated


def test_recorded_prices_are_floats_for_an_integer_delta(tmp_path):
    # events.csv prints projections and measured delays with repr: 1.0, never 1,
    # whatever delta_ms's type
    s = make_scenario(scheme=Scheme.BESTFIT_UPF_MEC, lam=6.0, horizon=4, delta=1)
    res = run_to_completion(s)
    path = tmp_path / "events.csv"
    write_events_csv(res, str(path))
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    delays = [cell for row in rows for cell in row[header.index("d_upf_ms"):] if cell]
    assert len(rows) == res.generated and len(delays) >= 8 * res.completed > 0
    # every request's projection is printed, whatever became of the request
    assert all(all(row[header.index("proj_upf_ms"):]) for row in rows)
    assert all("." in cell for cell in delays)


@pytest.mark.parametrize("scheme", [Scheme.BASELINE, Scheme.BESTFIT_UPF_MEC])
def test_queue_series_hold_one_entry_per_epoch(metro, scheme):
    run = SimulationRun(replace(build_pair_scenario(metro, 3), scheme=scheme, seed=1))
    assert run.epoch_reports == []
    for k in range(1, 6):
        report = run.step_epoch(generate=k < 4)
        assert len(run.epoch_reports) == k and run.epoch_reports[-1] is report
        assert report.upf_queues == live_upf_queues(run)
        assert report.mec_queues == tuple(len(m.queue) for m in run.mecs)
    # the lengths compared were not all zero
    assert any(any(rep.upf_queues) for rep in run.epoch_reports)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_a_run_reprices_only_the_tiers_its_scheme_reads(campus5, scheme, monkeypatch):
    # baseline reprices nothing once built, the UPF-only bestfits never a MEC
    run = SimulationRun(replace(campus5, scheme=scheme, horizon_epochs=20, seed=1))
    calls = Counter()
    raise_best, lower, fill = CostVector.raise_best, CostVector.lower, ServiceQueue.fill

    def counted_raise_best(cost, price):
        calls["mec" if cost is run.mec_cost else "upf"] += 1
        raise_best(cost, price)

    def counted_lower(cost, i, price):
        calls["mec" if cost is run.mec_cost else "upf"] += 1
        lower(cost, i, price)

    def counted_fill(queue, q):
        calls["mec" if any(queue is m for m in run.mecs) else "upf"] += 1
        return fill(queue, q)

    monkeypatch.setattr(CostVector, "raise_best", counted_raise_best)
    monkeypatch.setattr(CostVector, "lower", counted_lower)
    monkeypatch.setattr(ServiceQueue, "fill", counted_fill)
    run.run()
    _, reads_upf, reads_mec = SCHEMES[scheme.value]
    assert (calls["upf"] > 0, calls["mec"] > 0) == (reads_upf, reads_mec)


def test_pending_commitments_fully_drain(metro):
    run = SimulationRun(replace(metro, scheme=Scheme.BESTFIT_UPF_MEC, seed=1))
    res = run.run()
    assert res.residual == 0
    assert all(m.pending == 0 for m in run.mecs)


def test_a_negative_queue_length_is_never_a_table_index():
    # admission to MEC 1 makes q = 0 + (-2 + 1) = -1; the inline read must
    # reject it, not read the table's last entry (the price of q = 0 here);
    # only a scheme that reads the MEC vector reprices MEC 1
    run = SimulationRun(make_scenario(num_upfs=1, lam=8.0, seed=1,
                                      scheme=Scheme.BESTFIT_UPF_MEC))
    mec = run.mecs[0]
    assert not mec.queue and mec.table == [run.delta]
    mec.pending = -2
    with pytest.raises(ValueError, match="queue_len must be >= 0"):
        run.step_epoch()


def live_upf_queues(run: SimulationRun) -> tuple:
    """The UPF bucket lengths now, UPF-major with each UPF's classes sorted by name."""
    names = sorted(QosClass, key=lambda q: q.value)
    return tuple(len(u[q].queue) for u in run.upfs for q in names)


def _assert_reports_within_caps(run: SimulationRun) -> None:
    caps = [u[q].queue_cap for u in run.upfs for q in REPORT_CLASSES]
    for rep in run.epoch_reports:
        assert all(n <= cap for n, cap in zip(rep.upf_queues, caps, strict=True))
        assert all(n <= m.queue_cap for n, m in zip(rep.mec_queues, run.mecs, strict=True))


def _check_idle_credit_at_every_epoch(run: SimulationRun) -> list:
    """Make every epoch of the run end by checking its report and the credit of empty queues.

    The report's queue lengths must be the live ones, and its ``in_flight``
    exactly the requests those queues and the links hold.
    """
    epochs = []
    step = run.step_epoch
    queues = [b for u in run.upfs for b in u.values()] + run.mecs

    def checked(generate=True):
        report = step(generate)
        # service skips empty queues, which is exact only while they hold no credit
        assert all(sq.credit == 0.0 for sq in queues if not sq.queue)
        assert report.upf_queues == live_upf_queues(run)
        assert report.mec_queues == tuple(len(m.queue) for m in run.mecs)
        on_links = sum(run.link_sharers)
        located = sum(report.upf_queues) + sum(report.mec_queues) + on_links
        assert report.in_flight == located
        epochs.append(report.epoch)
        return report

    run.step_epoch = checked
    return epochs


@settings(max_examples=50, deadline=None)
@given(base=small_scenarios(), cap=st.integers(0, 3))
def test_invariants_hold_on_random_scenarios(base, cap):
    delta = base.delta_ms
    shares = []

    def counted_net_delay(n_share, bytes_per_ue, bandwidth):
        shares.append(n_share)
        return net_delay(n_share, bytes_per_ue, bandwidth)

    for scheme in Scheme:
        run = SimulationRun(replace(base, scheme=scheme, drain_cap_epochs=100_000))
        # the incrementally repriced cost vectors equal a fresh pricing at every
        # decision, also after drops at a MEC's door and with fractional capacities
        decisions = _check_costs_at_every_decision(run)
        epochs = _check_idle_credit_at_every_epoch(run)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "net_delay", counted_net_delay)
            res = run.run()
        # a request entering a link shares it with itself at least
        assert all(n >= 1 for n in shares)
        # a transfer is due the whole epochs its d_net takes after UPF service
        link_stamps = zip(classes_by_id(res), *(recorded(res, c) for c in (
            "upf_serve_epoch", "mec_due_epoch", "d_net")))
        for qos, serve, due, d_net in link_stamps:
            if qos.uses_mec and serve is not None:
                assert due == serve + transit_epochs(d_net, delta)
        assert len(decisions) == res.generated
        assert epochs == list(range(res.epoch))
        status = Counter(RunView(res).status.tolist())
        assert all(len(getattr(res, column)) == res.generated for column in COLUMNS)
        assert res.completed == status[RequestStatus.COMPLETED]
        assert res.dropped == status[RequestStatus.DROPPED]
        assert res.residual == 0 and not res.truncated
        assert all(m.pending == 0 for m in run.mecs)

        upf_served = Counter(
            key for key in zip(res.assigned_upf, classes_by_id(res),
                               recorded(res, "upf_serve_epoch"))
            if key[2] is not None
        )
        for (uid, qos, _), n in upf_served.items():
            assert n <= math.ceil(run.upfs[uid - 1][qos].capacity)
        mec_served = Counter(
            key for key in zip(res.assigned_mec, recorded(res, "mec_serve_epoch"))
            if key[1] is not None
        )
        for (mid, _), n in mec_served.items():
            assert n <= math.ceil(run.mecs[mid - 1].capacity)

        _assert_reports_within_caps(run)
        _assert_little_identities(run)
        # the summary's delays are the law on the stamps, bit for bit
        e2e = [
            measured_e2e(res, rid, arrival)
            for rid, (st, arrival) in enumerate(zip(RunView(res).status, arrivals_by_id(res)))
            if st == RequestStatus.COMPLETED
        ]
        assert summarize(res).d_e2e.tolist() == e2e

        # a drain cap that stops the run with requests in queues and on links
        truncated = run_to_completion(replace(base, scheme=scheme, drain_cap_epochs=cap))
        _assert_little_identities(truncated)


@settings(max_examples=60, deadline=None)
@given(
    base=small_scenarios(),
    rectangular=small_scenarios(rectangular=True),
    cap=st.integers(1, 3),
)
def test_runs_equal_the_naive_reference_engine(base, rectangular, cap):
    # differential test: every column of the record, every derived status and
    # every epoch report, queue lengths included, equal those of
    # tests/reference_engine.py, on drained runs and on runs the drain cap
    # stops at the horizon (cap 0) or after it
    for s in [replace(base, scheme=scheme) for scheme in Scheme] + [rectangular]:
        for drain_cap in (None, 0, cap):
            assert_run_is_the_reference(replace(s, drain_cap_epochs=drain_cap))


def test_mec_door_drops_equal_the_naive_reference_engine(campus5):
    # MECs capped at 5 drop transfers at their door, which leave the MEC's
    # count at their due epoch, not at a service stamp
    run = assert_run_is_the_reference(_door_capped(campus5))
    assert _drops_by_site(run)[1] > 100
    assert not run.truncated


@pytest.mark.parametrize("drain_cap", [0, 1, 3])
def test_truncated_door_drops_equal_the_naive_reference_engine(campus5, drain_cap):
    # a drain cap stops the run with transfers still on their links, where
    # the derived due epoch decides IN_TRANSIT against IN_MEC_QUEUE
    run = assert_run_is_the_reference(replace(_door_capped(campus5), drain_cap_epochs=drain_cap))
    assert (RunView(run).status == RequestStatus.IN_TRANSIT).any()


def _door_capped(campus5):
    """campus5 with every MEC's queue capped at 5."""
    return replace(campus5, mecs=[replace(m, queue_cap=5) for m in campus5.mecs])


def _drops_by_site(run: SimulationRun) -> tuple:
    """The run's drops at admission and at a MEC's door, counted off the derived status.

    An admission drop never left its UPF queue, a door drop crossed its
    link; together they are every drop the run and its reports count.
    """
    view = RunView(run)
    dropped = view.status == RequestStatus.DROPPED
    admission = int((dropped & np.isnan(view.upf_serve)).sum())
    door = int((dropped & ~np.isnan(view.mec_due)).sum())
    assert admission + door == run.dropped == sum(rep.dropped for rep in run.epoch_reports)
    return admission, door


def assert_run_is_the_reference(scenario) -> SimulationRun:
    """The engine's run of scenario equals the naive reference's; the run."""
    run = run_to_completion(scenario)
    columns, reports, arrivals = reference_run(scenario)
    for column in COLUMNS:
        assert recorded(run, column) == list(columns[column]), column
    # the status read off the stamps is the one the reference kept per row,
    # and the due epoch derived from d_net the one it set at link entry, bit
    # for bit (an unset one is nan)
    assert RunView(run).status.tolist() == columns["status"]
    due = np.array(columns["mec_due_epoch"], float)
    assert RunView(run).mec_due.tobytes() == due.tobytes()
    _drops_by_site(run)
    # what each decision read, derived from the stamps and price tables,
    # equals what the reference recorded when it decided, bit for bit
    for name, derived in zip(INPUTS, decision_inputs(RunView(run))):
        assert derived.tobytes() == np.array(columns[name], derived.dtype).tobytes(), name
    assert run.epoch_reports == reports
    # the one derivation of the arrival epochs, from the reports
    assert RunView(run).arrival.tolist() == arrivals
    return run


def _assert_little_identities(run: SimulationRun) -> None:
    """Exact sample-path Little's law for each UPF bucket, each MEC and the links together.

    The sum over epochs of a queue's reported end-of-epoch length equals
    the sum of the epochs its requests spent in it: upf_serve_epoch - the
    arrival epoch for a request a UPF bucket served, mec_serve_epoch - the
    due epoch for one a MEC served, and the due epoch - upf_serve_epoch
    for one that crossed a link (dropped at the MEC's door or not).  A run
    the drain cap stopped holds requests that have not left: one still in
    a UPF queue counts epoch - the arrival epoch, one still on a link
    epoch - upf_serve_epoch and one still in a MEC queue epoch - the due
    epoch.  The residences come from the run's columns, the due epochs
    ``RunView`` derives and the reports' arrival counts, the lengths from
    the reports' queue lengths.
    """
    end = run.epoch
    upf_res, mec_res, link_res = Counter(), Counter(), 0
    arrival, classes = arrivals_by_id(run), classes_by_id(run)
    statuses = RunView(run).status.tolist()
    dues, mec_serves = recorded(run, "mec_due_epoch"), recorded(run, "mec_serve_epoch")
    for rid, serve in enumerate(recorded(run, "upf_serve_epoch")):
        status = statuses[rid]
        if serve is None:
            if status == RequestStatus.IN_UPF_QUEUE:
                upf_res[(run.assigned_upf[rid], classes[rid])] += end - arrival[rid]
            continue
        upf_res[(run.assigned_upf[rid], classes[rid])] += serve - arrival[rid]
        due = dues[rid]
        if status == RequestStatus.IN_TRANSIT:
            link_res += end - serve
        elif due is not None:
            link_res += due - serve
        if status == RequestStatus.IN_MEC_QUEUE:
            mec_res[run.assigned_mec[rid]] += end - due
        elif mec_serves[rid] is not None:
            mec_res[run.assigned_mec[rid]] += mec_serves[rid] - due
    reports = run.epoch_reports
    # the report's class order, defined here rather than read from the engine
    names = sorted(QosClass, key=lambda q: q.value)
    for i in range(len(run.upfs)):
        for c, qos in enumerate(names):
            col = i * len(names) + c
            assert sum(rep.upf_queues[col] for rep in reports) == upf_res[(i + 1, qos)]
    for j in range(len(run.mecs)):
        assert sum(rep.mec_queues[j] for rep in reports) == mec_res[j + 1]
    on_links = sum(
        rep.in_flight - sum(rep.upf_queues) - sum(rep.mec_queues) for rep in reports
    )
    assert on_links == link_res


# ------------------------------------------------------------------ queue caps


def test_explicit_queue_caps_are_honored(metro):
    run = SimulationRun(metro)
    assert run.upfs[0][QosClass.URLLC].queue_cap == 45
    assert run.upfs[3][QosClass.EMBB].queue_cap == 8
    assert all(m.queue_cap == 70 for m in run.mecs)


def test_a_queue_without_a_stated_cap_never_drops():
    # each UPF bucket is offered five times its capacity and keeps every request
    s = make_scenario(num_upfs=1, upf_capacity=1.0, lam=20.0, horizon=50, bandwidth_mbps=1e6)
    run = run_to_completion(s)
    assert run.dropped == 0
    assert run.completed == run.generated == 1000
    assert all(sq.queue_cap == UNBOUNDED for sq in (*run.upfs[0].values(), *run.mecs))
