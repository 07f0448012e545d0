from __future__ import annotations

from typing import Dict, List, Optional

import pytest

from upfmec.cli import _resolve_scenario
from upfmec.metrics import projection
from upfmec.model import (
    QOS_BY_CODE,
    MecSpec,
    QosClass,
    Scenario,
    Scheme,
    TrafficSpec,
    UpfSpec,
)


def make_scenario(
    *,
    name: str = "tiny",
    num_upfs: int = 2,
    num_mecs: Optional[int] = None,
    scheme: Scheme = Scheme.BASELINE,
    lam: float = 0.0,
    process: str = "deterministic",
    skew: Optional[List[float]] = None,
    qos_mix: Optional[Dict[QosClass, float]] = None,
    upf_capacity: float = 4.0,
    mec_capacity: float = 8.0,
    bandwidth_mbps: float = 12.0,
    horizon: int = 4,
    upf_queue_cap: Optional[int] = None,
    mec_queue_cap: Optional[int] = None,
    headroom_factor: float = 10.0,
    delta: float = 1.0,
    seed: int = 1,
    thresholds: Optional[Dict[QosClass, float]] = None,
    upf_bytes: float = 256.0,
    mec_bytes: float = 1500.0,
) -> Scenario:
    """Uniform small scenario; every knob has a sane default for unit tests."""
    m = num_upfs if num_mecs is None else num_mecs
    if skew is None:
        skew = [1.0 / num_upfs] * num_upfs
    if qos_mix is None:
        qos_mix = {q: 0.25 for q in QosClass}
    upfs = [
        UpfSpec(
            id=i + 1,
            capacity={q: upf_capacity for q in QosClass},
            bytes_per_ue=upf_bytes,
            queue_cap=None if upf_queue_cap is None else {q: upf_queue_cap for q in QosClass},
        )
        for i in range(num_upfs)
    ]
    mecs = [
        MecSpec(id=j + 1, capacity=mec_capacity, bytes_per_ue=mec_bytes, queue_cap=mec_queue_cap)
        for j in range(m)
    ]
    return Scenario(
        name=name,
        num_upfs=num_upfs,
        num_mecs=m,
        delta_ms=delta,
        horizon_epochs=horizon,
        seed=seed,
        scheme=scheme,
        traffic=TrafficSpec(
            mean_arrivals_per_epoch=lam, skew=skew, qos_mix=qos_mix, process=process
        ),
        upfs=upfs,
        mecs=mecs,
        link_bandwidth_mbps=[[bandwidth_mbps] * m for _ in range(num_upfs)],
        thresholds_ms=thresholds or {},
        headroom_factor=headroom_factor,
    )


def bucket(sq):
    """The (queue_len, headroom, capacity) a queue's price is computed from, for the oracles."""
    return (len(sq.queue) + sq.pending, sq.capacity, sq.capacity)


def link_index(run, upf_id, mec_id):
    """The index of link (upf_id, mec_id) in the run's link columns."""
    return (upf_id - 1) * len(run.mecs) + mec_id - 1


def codes(*classes: QosClass) -> bytes:
    """The classes' codes, as a run's ``qos`` column holds them: one byte each."""
    return bytes(QOS_BY_CODE.index(q) for q in classes)


def decide(run, qos, origin_upf, scheme):
    """Apply a scheme to one new request as admission does, without queueing it.

    The request becomes a row of the run's record, which holds the choice
    and the projection's inputs as admission records them; queues and
    prices do not change.  Returns (upf_id, mec_id, the composed projection).
    """
    rid = run.add_requests([origin_upf], codes(qos))
    upf_id, mec_id = scheme(qos, origin_upf, run)
    run.assigned_upf[rid], run.assigned_mec[rid] = upf_id, mec_id
    run.pc_upf[rid] = run.upf_cost[qos].prices[upf_id - 1]
    if mec_id is not None:
        run.n_share[rid] = run.link_sharers[link_index(run, upf_id, mec_id)]
        run.pc_mec[rid] = run.mec_cost.prices[mec_id - 1]
    return upf_id, mec_id, projection(run, rid)


@pytest.fixture
def scenario_factory():
    return make_scenario


@pytest.fixture(scope="session")
def campus5() -> Scenario:
    return _resolve_scenario("campus5")


@pytest.fixture(scope="session")
def metro() -> Scenario:
    return _resolve_scenario("metro")
