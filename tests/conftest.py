from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import strategies as st

from upfmec.cli import _resolve_scenario
from upfmec.engine import UNSET
from upfmec.metrics import RunView, projections
from upfmec.model import (
    QOS_BY_CODE,
    MecSpec,
    QosClass,
    Scenario,
    Scheme,
    TrafficSpec,
    UpfSpec,
)


def field_paths(node, prefix=()):
    """Key path of every field nested in a loaded YAML document, maps and lists alike."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


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
    delta: float = 1.0,
    seed: int = 1,
    thresholds: Optional[Dict[QosClass, float]] = None,
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
            capacity={q: upf_capacity for q in QosClass},
            queue_cap=None if upf_queue_cap is None else {q: upf_queue_cap for q in QosClass},
        )
        for _ in range(num_upfs)
    ]
    mecs = [
        MecSpec(capacity=mec_capacity, bytes_per_ue=mec_bytes, queue_cap=mec_queue_cap)
        for _ in range(m)
    ]
    return Scenario(
        name=name,
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
    )


@st.composite
def small_scenarios(draw, rectangular=False):
    """Valid scenarios of 1-3 UPF-MEC pairs with short horizons and random sizing.

    ``rectangular`` draws 1-3 MECs apart from the 1-3 UPFs, under
    ``bestfit_upf_mec``, the one scheme that accepts such a topology.
    """
    n = draw(st.integers(1, 3))
    num_mecs = draw(st.integers(1, 3)) if rectangular else n

    def dist(k):
        weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        return [w / sum(weights) for w in weights]

    # about half the scenarios load MECs of small capacity and cap for at
    # least 4 epochs, so that transfers drop at a MEC's door and later
    # decisions at that MEC read the drop
    tight = draw(st.booleans())
    s = make_scenario(
        num_upfs=n,
        num_mecs=num_mecs,
        scheme=Scheme.BESTFIT_UPF_MEC if rectangular else Scheme.BASELINE,
        lam=draw(st.floats(3.0 if tight else 0.0, 6.0)),
        process=draw(st.sampled_from(["poisson", "deterministic"])),
        skew=dist(n),
        qos_mix=dict(zip(QosClass, dist(4))),
        horizon=draw(st.integers(4 if tight else 1, 8)),
        delta=draw(st.sampled_from([0.5, 1.0, 2.0])),
        seed=draw(st.integers(0, 2**16)),
    )
    for u in s.upfs:
        u.capacity = {q: draw(st.floats(0.5, 6.0)) for q in QosClass}
        if draw(st.booleans()):
            u.queue_cap = {q: draw(st.integers(1, 8)) for q in QosClass}
    for m in s.mecs:
        m.capacity = draw(st.floats(0.5, 2.0 if tight else 8.0))
        m.queue_cap = draw(st.integers(1, 3) if tight else st.none() | st.integers(1, 8))
    s.link_bandwidth_mbps = [
        [draw(st.floats(5.0, 50.0)) for _ in range(num_mecs)] for _ in range(n)
    ]
    return s


def bucket(sq):
    """The (queue_len, headroom, capacity) a queue's price is computed from, for the oracles."""
    return (len(sq.queue) + sq.pending, sq.capacity, sq.capacity)


def link_index(run, upf_id, mec_id):
    """The index of link (upf_id, mec_id) in the run's link columns."""
    return (upf_id - 1) * len(run.mecs) + mec_id - 1


def codes(*classes: QosClass) -> bytes:
    """The classes' codes, as a run's ``qos`` column holds them: one byte each."""
    return bytes(QOS_BY_CODE.index(q) for q in classes)


class Projection(NamedTuple):
    """The delays, in ms, a scheme projected for one request."""

    d_upf: float
    d_net: float
    d_mec: float
    d_e2e: float


def decide(run, qos, origin_upf, scheme):
    """Apply a scheme to one request as admission does, without recording or queueing it.

    Reads the prices and the link's sharers the decision reads now
    (``metrics.decision_inputs`` derives them for a finished run) and
    derives the projection from them with ``metrics.projections``, on
    one-element arrays; the run does not change.  A tier whose cost vector
    the run does not keep is priced from its queue (``ServiceQueue.price``).
    Returns (upf_id, mec_id, the ``Projection``).
    """
    upf_id, mec_id = scheme(qos, origin_upf, run.upf_cost[qos], run.mec_cost)
    n_share, pc_mec = 0, 0.0
    if mec_id is not None:
        n_share = run.link_sharers[link_index(run, upf_id, mec_id)]
        pc_mec = (run.mecs[mec_id - 1].price() if run.mec_cost is None
                  else run.mec_cost.prices[mec_id - 1])
    pc_upf = (run.upfs[upf_id - 1][qos].price() if run.upf_cost[qos] is None
              else run.upf_cost[qos].prices[upf_id - 1])
    columns = [np.array([upf_id], float), np.array([mec_id], float), np.array([pc_upf]),
               np.array([n_share]), np.array([pc_mec])]
    return upf_id, mec_id, Projection(*(a.item() for a in projections(run.scenario, *columns)))


def reprice(run) -> None:
    """Write every entry of the cost vectors the run keeps from its queues now: a fresh pricing.

    For tests that edit queues, ``pending`` or link sharers by hand; a
    stepping run reprices only what it changed.
    """
    tiers = [(cost, [u[q] for u in run.upfs]) for q, cost in run.upf_cost.items()]
    for cost, queues in tiers + [(run.mec_cost, run.mecs)]:
        if cost is not None:
            # in place: the run's admission and service tables hold the vector
            cost.__init__([sq.price() for sq in queues], run.delta)


# the columns a run sizes for its horizon when it is built, and what each row
# holds until the request is decided and stamped
UNDECIDED = dict(assigned_upf=None, assigned_mec=None, upf_serve_epoch=UNSET,
                 mec_serve_epoch=UNSET, d_net=UNSET)


def append_row(run, qos, origin_upf, drop=False, **fields) -> int:
    """Write one request's row into every column of the run by hand; its id.

    The row holds ``qos``, ``origin_upf``, ``drop`` and ``fields`` (column
    name -> value), and is undecided in the other columns.  It is row
    ``generated`` of the columns the run sized when it was built, which
    grow by one where they hold no such row, and ``generated`` counts it.
    No epoch report counts it: a run adds rows only in ``step_epoch``, so
    the caller builds the matching reports.
    """
    unknown = fields.keys() - UNDECIDED.keys()
    if unknown:
        raise TypeError(f"not a column of the record: {sorted(unknown)}")
    rid = run.generated
    row = dict(UNDECIDED, qos=codes(qos)[0], origin_upf=origin_upf, drop=drop, **fields)
    for column, value in row.items():
        values = getattr(run, column)
        if len(values) == rid:
            values.append(value)
        else:
            values[rid] = value
    run.generated = rid + 1
    return rid


def recorded(run, column: str) -> list:
    """A column's rows of the run's requests, as a list, an unset value (nan) read as None.

    ``mec_due_epoch`` reads the due epoch ``metrics.RunView`` derives.
    """
    if column == "mec_due_epoch":
        values = RunView(run).mec_due.tolist()
    else:
        values = list(getattr(run, column)[:run.generated])
    return [None if v != v else v for v in values]


@pytest.fixture
def scenario_factory():
    return make_scenario


@pytest.fixture(scope="session")
def campus5() -> Scenario:
    return _resolve_scenario("campus5")


@pytest.fixture(scope="session")
def metro() -> Scenario:
    return _resolve_scenario("metro")
