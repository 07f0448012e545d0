"""Discrete-epoch flow simulation of the UPF/MEC data plane.

Every epoch runs the same fixed order: generate arrivals, admit them one
at a time through the configured assignment scheme (each decision sees
the queues left by the decisions before it, including same-epoch ones),
serve the UPF buckets, move served traffic across the links, deliver
finished transfers to their MEC queues, serve the MECs, then advance the
clock.  After the arrival horizon the run keeps stepping without new
traffic until every admitted request has completed or the scenario's
drain cap (``drain_cap_epochs``, ten horizons by default) is hit.  A run
is built from its scenario alone, so ``validate_scenario`` checks every
setting of a run, and its ScenarioError is the only one a run raises.

A UPF is a dict of one ``model.ServiceQueue`` per QoS class (bucket
``run.upfs[i][q]``) and a MEC is one (``run.mecs[j]``), so both tiers
share the service law and the price table.  A request that finds its
queue at ``queue_cap`` is dropped; a queue whose scenario states no cap
is unbounded (``UNBOUNDED``).

The run keeps the cost vectors its scheme reads (``schemes.SCHEMES``),
each a ``model.CostVector``: ``upf_cost[q].prices[i]`` prices UPF i+1's
bucket of class q and ``mec_cost.prices[j]`` MEC j+1 (None where unread:
``baseline`` keeps neither, ``bestfit_upf_mec`` both, the other bestfits
``upf_cost``).  A kept vector is priced when the run is built and then
repriced only where a queue changes: an admission reprices the bucket and
the MEC it touched, a UPF bucket is repriced after its service, and a MEC
after its own service, which follows every change the link phase makes
to it (a drop at its door lowers ``pending``, but only when its queue is
full).  A repricing reads the table inline, guarded as ``price`` reads it,
and writes only a moved price: a kept vector equals a fresh pricing.  MEC
``pending`` is counted under every scheme.  Only ``step_epoch`` changes a run.

Admission records only the decision (``status``, ``assigned_upf`` and
``assigned_mec``), not what the scheme's projection was made of: the
phase order, FIFO queues and ids in arrival order let
``metrics.decision_inputs`` derive the prices and the link's sharers a
decision read from the stamps and the price tables, on whole arrays,
when something reads them; only the event log does.

Idle queues are skipped: an empty queue holds no credit (``serve`` would
only reset it to zero) and its price cannot change, so service passes it
after one emptiness test and never calls ``serve`` on it.  The per-queue
work left in an epoch is that test and the queue's length, which the
epoch's report records.

Values that cannot change after the run is built are checked once, not
per request: the scenario by ``validate_scenario``, each capacity by its
``ServiceQueue`` and each link delay by ``transit_entry``, when it makes
the table entry.  Each stage checks that an id it pops has the status of
that stage, so status only moves forward, and raises ``InvariantError``
otherwise.

A finished run counts where its requests are: those in UPF and MEC queues
and in the delivery calendar must number exactly the ``residual`` that
generation, completions and drops leave, or the run raises
``InvariantError``.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .delay import net_delay, transit_epochs
from .model import (
    QOS_BY_CODE,
    CostVector,
    InvariantError,
    QosClass,
    RequestStatus,
    Scenario,
    ScenarioError,
    ServiceQueue,
    TrafficSpec,
    validate_scenario,
)
from .schemes import SCHEME_FUNCS, SCHEMES

DEFAULT_DRAIN_FACTOR = 10  # drain cap defaults to this many horizons

# the queue cap of a queue the scenario states none for: no deque grows this
# long, so the admission test ``len(queue) >= queue_cap`` never drops there
UNBOUNDED = sys.maxsize

# the order of each UPF's bucket lengths in EpochReport.upf_queues, and so of
# trace.csv's queue columns: by class name, which is not the service order
REPORT_CLASSES = sorted(QosClass, key=lambda q: q.value)

# the statuses the engine sets, bound once: a class attribute read on an
# enum is a descriptor call
_IN_UPF_QUEUE = RequestStatus.IN_UPF_QUEUE
_IN_TRANSIT = RequestStatus.IN_TRANSIT
_IN_MEC_QUEUE = RequestStatus.IN_MEC_QUEUE
_COMPLETED = RequestStatus.COMPLETED
_DROPPED = RequestStatus.DROPPED


def _cdf(weights) -> np.ndarray:
    """Cumulative distribution of the weights, built as ``Generator.choice`` builds it."""
    w = np.asarray(weights, dtype=float)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def arrival_cdfs(traffic: TrafficSpec) -> Tuple[np.ndarray, np.ndarray]:
    """The origin CDF (over UPFs) and the QoS-class CDF of the arrivals.

    ``cdf.searchsorted(rng.random(count), side="right")`` on one of them
    draws exactly what ``rng.choice(len(w), size=count, p=w / w.sum())``
    draws, from the same stream, without re-checking and re-normalising
    the weights on every call.  ``validate_scenario`` checks both weight
    vectors.
    """
    return _cdf(traffic.skew), _cdf([traffic.qos_mix[q] for q in QOS_BY_CODE])


def generate_arrivals(
    traffic: TrafficSpec,
    rng: np.random.Generator,
    epoch: int,
    origin_cdf: np.ndarray,
    class_cdf: np.ndarray,
) -> Tuple[List[int], bytes]:
    """Draw one epoch of requests: their origin UPF ids, then their QoS class codes.

    The count comes first, then every origin, then every class.  The CDFs
    are ``arrival_cdfs(traffic)``.  A class is drawn as its index in the
    class CDF, which is its code (``QOS_BY_CODE``), and the codes come back
    as bytes, one per request.  The deterministic process emits
    floor((epoch+1)*rate) - floor(epoch*rate) requests so the long-run rate
    is exact even for fractional rates.
    """
    lam = traffic.mean_arrivals_per_epoch
    if traffic.process == "poisson":
        count = int(rng.poisson(lam))
    elif traffic.process == "deterministic":
        count = int(math.floor((epoch + 1) * lam) - math.floor(epoch * lam))
    else:
        raise ValueError(f"unknown arrival process {traffic.process!r}")
    if count == 0:
        return [], b""
    origins = (origin_cdf.searchsorted(rng.random(count), side="right") + 1).tolist()
    classes = class_cdf.searchsorted(rng.random(count), side="right").astype(np.uint8)
    return origins, classes.tobytes()


def link_law(scenario: Scenario, i: int, j: int) -> Tuple[float, float]:
    """``net_delay``'s bytes per transfer and bandwidth (bits per ms) of link (i + 1, j + 1)."""
    # Mbps -> bits per ms
    return scenario.mecs[j].bytes_per_ue, scenario.link_bandwidth_mbps[i][j] * 1e3


def transit_entry(run: "SimulationRun", k: int, sharers: int) -> Tuple[float, int]:
    """``(d_net, transit epochs)`` of a transfer entering link ``k`` as its ``sharers``-th.

    The entry is read from the link's transit table ``run.link_transit[k]``,
    which this first extends through ``sharers``: each new entry n is
    ``net_delay`` on n sharers and ``transit_epochs`` of that delay, so each
    is checked once, when it is made.  Both depend only on n, the link's
    bandwidth and its MEC's bytes per request, read from the scenario, and
    the run's epoch length, which do not change once a transfer has
    entered.  Entry 0, an empty link, is a placeholder that no transfer
    reads.
    """
    if sharers < 1:
        raise ValueError(f"a transfer entering a link makes >= 1 sharers, got {sharers}")
    table = run.link_transit[k]
    if not table:
        run.link_transit[k] = table = [None]
    bytes_per_ue, bandwidth = link_law(run.scenario, *divmod(k, run.scenario.num_mecs))
    for n in range(len(table), sharers + 1):
        d_net = net_delay(n, bytes_per_ue, bandwidth)
        table.append((d_net, transit_epochs(d_net, run.delta)))
    return table[sharers]


def _stage_error(rid: int, found: RequestStatus, stage: RequestStatus) -> InvariantError:
    return InvariantError(
        f"request {rid}: status {found.name} where the run holds it {stage.name}"
    )


@dataclass
class EpochReport:
    """Counters for one simulated epoch and its queue lengths at the epoch's end.

    ``upf_queues`` is UPF-major, each UPF's buckets in ``REPORT_CLASSES``
    order; ``mec_queues`` is in MEC id order.
    """

    epoch: int
    arrivals: int
    admitted: int
    dropped: int
    served_upf: int
    served_mec: int
    completed: int
    in_flight: int
    upf_queues: Tuple[int, ...]
    mec_queues: Tuple[int, ...]


class SimulationRun:
    """Mutable state of one simulation run, and its record once finished.

    The record keeps one row per request id (ids are 0, 1, ... in arrival
    order) in 9 columns named after the fields they hold.  ``qos`` is a
    bytearray of class codes (``QOS_BY_CODE[code]`` is the class); the
    other 8 are lists: ``origin_upf``, ``status`` (None before the
    decision), ``assigned_upf``, ``assigned_mec`` (None for a class that
    ends at the UPF), the epoch stamps ``upf_serve_epoch``,
    ``mec_due_epoch`` and ``mec_serve_epoch`` (None until stamped), and
    the link's delay ``d_net`` (None until the request enters a link).
    No column holds the arrival epoch, nor what a decision read: the epoch
    reports count each epoch's arrivals (``metrics.arrival_epochs``), and
    ``metrics.decision_inputs`` derives the rest.  Only ``step_epoch``
    appends rows, and the report of the epoch that appends them counts
    them.
    Each link's sharer count and transit table are ``link_sharers[k]`` and
    ``link_transit[k]``: link (i, j) of M MECs has index k = (i - 1) * M +
    (j - 1), which sorts as the key (i, j) does.
    """

    def __init__(self, scenario: Scenario) -> None:
        violations = validate_scenario(scenario)
        if violations:
            raise ScenarioError("; ".join(violations))
        self.scenario = scenario
        # prices and measured delays are floats whatever the type of
        # delta_ms: a float delta gives the same values and never an int
        self.delta = float(scenario.delta_ms)
        self.rng = np.random.default_rng(scenario.seed)
        self._origin_cdf, self._class_cdf = arrival_cdfs(scenario.traffic)
        self._assign = SCHEME_FUNCS[scenario.scheme.value]
        _, reads_upf, reads_mec = SCHEMES[scenario.scheme.value]
        # a queue whose scenario states no cap is UNBOUNDED (a stated cap is >= 1)
        delta = self.delta
        no_caps = dict.fromkeys(QosClass, UNBOUNDED)
        self.upfs: List[Dict[QosClass, ServiceQueue]] = [
            {q: ServiceQueue(u.capacity[q], int((u.queue_cap or no_caps)[q]), delta)
             for q in QosClass}
            for u in scenario.upfs
        ]
        self.mecs = [ServiceQueue(float(m.capacity), int(m.queue_cap or UNBOUNDED), delta)
                     for m in scenario.mecs]
        # each link's sharer count and transit table, by link index
        num_links = scenario.num_upfs * scenario.num_mecs
        self.link_sharers: List[int] = [0] * num_links
        self.link_transit: List[Sequence[Optional[Tuple[float, int]]]] = [()] * num_links
        # the delivery calendar: due epoch -> link index -> the ids on that
        # link due then, in link-entry order; requests enter links only in the
        # UPF service loop of step_epoch
        self._calendar: Dict[int, Dict[int, List[int]]] = defaultdict(dict)
        self.epoch = 0
        self.qos = bytearray()
        self.origin_upf: List[int] = []
        self.status: List[Optional[RequestStatus]] = []
        self.assigned_upf: List[Optional[int]] = []
        self.assigned_mec: List[Optional[int]] = []
        self.upf_serve_epoch: List[Optional[int]] = []
        self.mec_due_epoch: List[Optional[int]] = []
        self.mec_serve_epoch: List[Optional[int]] = []
        self.d_net: List[Optional[float]] = []
        self.epoch_reports: List[EpochReport] = []
        self.completed = 0
        self.dropped = 0
        self.upf_cost: Dict[QosClass, Optional[CostVector]] = {
            q: CostVector([u[q].price() for u in self.upfs]) if reads_upf else None
            for q in QosClass
        }
        self.mec_cost = CostVector([m.price() for m in self.mecs]) if reads_mec else None
        # what admission reads of a request's class, by class code: the class,
        # its cost vector and prices (None if unread), and per UPF index the
        # class's bucket, the bucket's deque, queue cap and price table
        self._admission = tuple(
            (q, self.upf_cost[q], self.upf_cost[q] and self.upf_cost[q].prices,
             tuple((u[q], u[q].queue, u[q].queue_cap, u[q].table) for u in self.upfs))
            for q in QOS_BY_CODE
        )
        # UPF buckets in service order (UPF-major, class-minor), each with
        # the cost vector entry that prices it and the base that a MEC id
        # turns into a link index (None for a class that ends at the UPF);
        # link-entry order sets link sharing and MEC FCFS order
        self._upf_slots: List[Tuple[ServiceQueue, Optional[CostVector], int, Optional[int]]] = [
            (u[q], self.upf_cost[q], i, i * len(self.mecs) - 1 if q.uses_mec else None)
            for i, u in enumerate(self.upfs)
            for q in QosClass
        ]
        # the deques (a ServiceQueue keeps its own for life) whose lengths each
        # epoch's report records, in the report's order
        self._upf_deques = [u[q].queue for u in self.upfs for q in REPORT_CLASSES]
        self._mec_deques = [m.queue for m in self.mecs]

    @property
    def generated(self) -> int:
        """Requests generated so far: the rows of the record."""
        return len(self.qos)

    @property
    def residual(self) -> int:
        """Requests generated and neither completed nor dropped: still in flight."""
        return len(self.qos) - self.completed - self.dropped

    @property
    def truncated(self) -> bool:
        """The drain cap ended the run with requests still in flight."""
        return self.residual > 0

    # ------------------------------------------------------------- stepping

    def step_epoch(self, generate: bool = True) -> EpochReport:
        epoch = self.epoch
        origins: List[int] = []
        codes = b""
        if generate:
            origins, codes = generate_arrivals(
                self.scenario.traffic, self.rng, epoch, self._origin_cdf, self._class_cdf
            )
        # one undecided row per new request, which this epoch's report counts
        first = len(self.qos)
        self.qos += codes
        self.origin_upf.extend(origins)
        unset = [None] * len(origins)
        for column in (self.status, self.assigned_upf, self.assigned_mec, self.upf_serve_epoch,
                       self.mec_due_epoch, self.mec_serve_epoch, self.d_net):
            column.extend(unset)

        status = self.status
        assigned_upf, assigned_mec = self.assigned_upf, self.assigned_mec
        assign, admission = self._assign, self._admission
        mecs = self.mecs
        mec_cost = self.mec_cost
        mec_prices = mec_cost and mec_cost.prices
        admitted = dropped_now = 0
        for rid, code, origin in zip(range(first, first + len(origins)), codes, origins):
            qos, cost, prices, buckets = admission[code]
            upf_id, mec_id = assign(qos, origin, self)
            assigned_upf[rid] = upf_id
            assigned_mec[rid] = mec_id
            i = upf_id - 1
            bucket, queue, queue_cap, table = buckets[i]
            if len(queue) >= queue_cap:
                status[rid] = _DROPPED
                dropped_now += 1
            else:
                status[rid] = _IN_UPF_QUEUE
                queue.append(rid)
                if cost is not None:
                    q = len(queue) + bucket.pending
                    p = table[q] if 0 <= q < len(table) else bucket.fill(q)
                    if p != prices[i]:
                        cost.set(i, p)
                admitted += 1
                if mec_id is not None:
                    mec = mecs[mec_id - 1]
                    mec.pending = pending = mec.pending + 1
                    if mec_cost is not None:
                        q = len(mec.queue) + pending
                        table = mec.table
                        p = table[q] if 0 <= q < len(table) else mec.fill(q)
                        if p != mec_prices[mec_id - 1]:
                            mec_cost.set(mec_id - 1, p)
        if admitted + dropped_now != len(origins):
            raise InvariantError(
                f"epoch {epoch}: admissions {admitted}+{dropped_now} != arrivals {len(origins)}"
            )

        # each stage pops its ids and checks that each is where the stage
        # holds it before stamping it: status only moves forward
        upf_serve_epoch, mec_due_epoch = self.upf_serve_epoch, self.mec_due_epoch
        d_net, link_transit, calendar = self.d_net, self.link_transit, self._calendar
        link_sharers, num_mecs = self.link_sharers, len(mecs)
        completed_now = served_upf = 0
        for bucket, cost, idx, base in self._upf_slots:
            queue = bucket.queue
            if not queue:
                continue
            n = bucket.serve()
            popleft = queue.popleft
            if base is None:
                # a class that ends at the UPF completes here
                for _ in range(n):
                    rid = popleft()
                    if status[rid] is not _IN_UPF_QUEUE:
                        raise _stage_error(rid, status[rid], _IN_UPF_QUEUE)
                    upf_serve_epoch[rid] = epoch
                    status[rid] = _COMPLETED
                completed_now += n
            else:
                for _ in range(n):
                    rid = popleft()
                    if status[rid] is not _IN_UPF_QUEUE:
                        raise _stage_error(rid, status[rid], _IN_UPF_QUEUE)
                    upf_serve_epoch[rid] = epoch
                    k = base + assigned_mec[rid]
                    # the entering request shares the link with everything
                    # already on it: its sharers are counted after it joins
                    link_sharers[k] = sharers = link_sharers[k] + 1
                    table = link_transit[k]
                    d_net[rid], transit = (
                        table[sharers] if sharers < len(table)
                        else transit_entry(self, k, sharers)
                    )
                    mec_due_epoch[rid] = due = epoch + transit
                    status[rid] = _IN_TRANSIT
                    day = calendar[due]
                    on_link = day.get(k)
                    if on_link is None:
                        day[k] = [rid]
                    else:
                        on_link.append(rid)
            if cost is not None:
                q = len(queue) + bucket.pending
                table = bucket.table
                p = table[q] if 0 <= q < len(table) else bucket.fill(q)
                if p != cost.prices[idx]:
                    cost.set(idx, p)
            served_upf += n

        # a transfer reaches its MEC exactly at its due epoch; deliveries go
        # in link-index order, which is link-key order, and in entry order on
        # each link
        day = calendar.pop(epoch, None)
        if day is not None:
            for k in sorted(day):
                rids = day[k]
                link_sharers[k] -= len(rids)
                mec = mecs[k % num_mecs]
                mec.pending -= len(rids)
                queue, queue_cap = mec.queue, mec.queue_cap
                for rid in rids:
                    if status[rid] is not _IN_TRANSIT:
                        raise _stage_error(rid, status[rid], _IN_TRANSIT)
                    if len(queue) >= queue_cap:
                        status[rid] = _DROPPED
                        dropped_now += 1
                    else:
                        status[rid] = _IN_MEC_QUEUE
                        queue.append(rid)

        # a MEC the link phase changed holds a queue now: a delivery joined it,
        # or a drop found it full (queue_cap >= 1); so repricing each served
        # MEC also covers the drops, which lower pending without queueing
        mec_serve_epoch = self.mec_serve_epoch
        served_mec = 0
        for j, m in enumerate(mecs):
            queue = m.queue
            if not queue:
                continue
            n = m.serve()
            popleft = queue.popleft
            for _ in range(n):
                rid = popleft()
                if status[rid] is not _IN_MEC_QUEUE:
                    raise _stage_error(rid, status[rid], _IN_MEC_QUEUE)
                mec_serve_epoch[rid] = epoch
                status[rid] = _COMPLETED
            if mec_cost is not None:
                q = len(queue) + m.pending
                table = m.table
                p = table[q] if 0 <= q < len(table) else m.fill(q)
                if p != mec_prices[j]:
                    mec_cost.set(j, p)
            served_mec += n
        completed_now += served_mec

        self.completed += completed_now
        self.dropped += dropped_now
        report = EpochReport(
            epoch=epoch,
            arrivals=len(origins),
            admitted=admitted,
            dropped=dropped_now,
            served_upf=served_upf,
            served_mec=served_mec,
            completed=completed_now,
            in_flight=self.residual,
            upf_queues=tuple(map(len, self._upf_deques)),
            mec_queues=tuple(map(len, self._mec_deques)),
        )
        self.epoch_reports.append(report)
        self.epoch += 1
        return report

    # ------------------------------------------------------------- full run

    def run(self) -> SimulationRun:
        """Step through the horizon, then drain; the finished run is its own record."""
        while self.epoch < self.scenario.horizon_epochs:
            self.step_epoch(generate=True)
        cap = self.scenario.drain_cap_epochs
        if cap is None:
            cap = DEFAULT_DRAIN_FACTOR * max(1, self.scenario.horizon_epochs)
        drained = 0
        while self.residual > 0 and drained < cap:
            self.step_epoch(generate=False)
            drained += 1
        # residual is what the counters leave; count where the requests are
        located = sum(map(len, self._upf_deques)) + sum(map(len, self._mec_deques))
        located += sum(len(rids) for day in self._calendar.values() for rids in day.values())
        if located != self.residual:
            raise InvariantError(
                f"request conservation broken at end of run: {located} requests "
                f"in queues and links, {self.residual} in flight"
            )
        if self.residual == 0 and any(m.pending for m in self.mecs):
            raise InvariantError("pending MEC commitments left after full drain")
        return self


def run_to_completion(scenario: Scenario, seed: Optional[int] = None) -> SimulationRun:
    """Simulate the scenario through its horizon plus drain and return the finished run.

    A ``seed`` runs the scenario with that seed in place of its own: the
    edited scenario is validated as a whole, so a seed is checked exactly
    as the file's ``seed`` field is.
    """
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    return SimulationRun(scenario).run()
