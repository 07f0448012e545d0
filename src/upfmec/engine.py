"""Discrete-epoch flow simulation of the UPF/MEC data plane.

Every epoch runs the same fixed order: generate arrivals, admit them one
at a time through the configured assignment scheme (each decision sees
the queues left by the decisions before it, including same-epoch ones),
serve the UPF buckets, move served traffic across the links, deliver
finished transfers to their MEC queues, serve the MECs, then advance the
clock.  After the arrival horizon the run keeps stepping without new
traffic until every admitted request has completed or a drain cap is hit.

A UPF is a dict of one ``model.ServiceQueue`` per QoS class (bucket
``run.upfs[i][q]``) and a MEC is one (``run.mecs[j]``), so both tiers
share the drop test, the service law and the price.

The run keeps the cost vectors the schemes read, each a
``model.CostVector``: ``upf_cost[q].prices[i]`` is the price of UPF i+1's
bucket of class q and ``mec_cost.prices[j]`` that of MEC j+1, and every
vector keeps ``best``, the index of its first minimum, through its own
writes.  A scheme only chooses: bestfit reads ``best``, with no search
per decision.  The vectors are priced once when the run is built and then
repriced only where a queue changes: an admission rewrites the entries
it touched, a UPF bucket is repriced after its service, and a MEC after
its own service, which follows every change the link phase makes to it
(a drop at its door lowers ``pending``, but only when its queue is
full).  A price depends only on the queue length, ``pending`` and the
capacity, so the vectors always equal a fresh pricing.  Code that edits
queues or ``pending`` outside ``step_epoch`` must call ``refresh_costs()``
before the next decision.

Admission records what the scheme's projection is made of, not the
projection: the UPF price, the chosen link's sharers and the MEC price
at decision time (``UeRequest.decision_inputs``).  ``metrics.projection``
composes the delay breakdown from them when something reads it; only the event
log does.

Idle queues are skipped: an empty queue holds no credit (``serve`` would
only reset it to zero) and its price cannot change, so service passes it
after one emptiness test and never calls ``serve`` on it.  The per-queue
work left in an epoch is that test and the queue's length, which the
epoch's report records.

Values that cannot change after the run is built are checked once, not
per request.  When the run is built, ``validate_scenario`` checks the
epoch length and both arrival distributions, the run builds the origin
and QoS-class CDFs each epoch draws from (``arrival_cdfs``), and each
``ServiceQueue`` checks its capacity.  Every call still
checks what changes: a price its queue length, ``net_delay`` the link's
sharers (counted after the entering request joins), ``transit_epochs``
the transfer delay, ``advance_status`` each status step and ``serve``
the requests it pops.

A finished run counts where its requests are: those in UPF and MEC queues
and on links must number exactly the ``residual`` that generation,
completions and drops leave, or the run raises ``InvariantError``.

A finished run is its own record: ``run()`` and ``run_to_completion``
return the ``SimulationRun``, and the reports read its requests, epoch
reports, counters and links where the run keeps them.  Each fact has one
name: ``epoch`` is the number of epochs run, ``residual`` the requests
still in flight and ``truncated`` whether any are.  Each ``EpochReport``
holds its epoch's counters and the length of every queue at the epoch's
end, UPF buckets in ``REPORT_CLASSES`` order within each UPF, then MECs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .delay import mec_capacity, net_delay, transit_epochs, upf_capacity
from .model import (
    CostVector,
    InvariantError,
    Link,
    QosClass,
    RequestStatus,
    Scenario,
    ScenarioError,
    ServiceQueue,
    TrafficSpec,
    UeRequest,
    check_capacity,
    validate_scenario,
)
from .schemes import SCHEME_FUNCS

DEFAULT_DRAIN_FACTOR = 10  # drain cap defaults to this many horizons

_QOS_LIST = list(QosClass)

# the order of each UPF's bucket lengths in EpochReport.upf_queues, and so of
# trace.csv's queue columns: by class name, which is not the service order
REPORT_CLASSES = sorted(QosClass, key=lambda q: q.value)

# the members the engine advances requests to, bound once: a class
# attribute read on an enum is a descriptor call
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
    return _cdf(traffic.skew), _cdf([traffic.qos_mix[q] for q in _QOS_LIST])


def generate_arrivals(
    traffic: TrafficSpec,
    rng: np.random.Generator,
    epoch: int,
    origin_cdf: np.ndarray,
    class_cdf: np.ndarray,
    start_id: int = 0,
) -> List[UeRequest]:
    """Draw one epoch of requests: count, then origin and QoS per request.

    The CDFs are ``arrival_cdfs(traffic)``.  The deterministic process
    emits floor((epoch+1)*rate) - floor(epoch*rate) requests so the
    long-run rate is exact even for fractional rates.
    """
    lam = traffic.mean_arrivals_per_epoch
    if traffic.process == "poisson":
        count = int(rng.poisson(lam))
    elif traffic.process == "deterministic":
        count = int(math.floor((epoch + 1) * lam) - math.floor(epoch * lam))
    else:
        raise ValueError(f"unknown arrival process {traffic.process!r}")
    if count == 0:
        return []
    origins = origin_cdf.searchsorted(rng.random(count), side="right").tolist()
    classes = class_cdf.searchsorted(rng.random(count), side="right").tolist()
    return [
        UeRequest(start_id + k, _QOS_LIST[c], o + 1, epoch)
        for k, (o, c) in enumerate(zip(origins, classes))
    ]


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


def _derived_queue_cap(scenario: Scenario, capacity: float, *offered: float) -> int:
    """A buffer of headroom_factor x the offered load over the service rate, at least 1.

    The offered load (requests per epoch) is the product of ``offered``,
    multiplied in after the headroom factor, left to right.  The capacity
    is checked before it divides.
    """
    check_capacity(capacity)
    load = scenario.headroom_factor
    for factor in offered:
        load *= factor
    return max(1, math.ceil(load / capacity))


def _build_upf(spec, scenario: Scenario) -> Dict[QosClass, ServiceQueue]:
    delta = scenario.delta_ms
    if spec.capacity is not None:
        capacity = dict(spec.capacity)
    else:
        capacity = {
            q: upf_capacity(spec.etpb, spec.bytes_per_ue, spec.alpha[q], delta)
            for q in QosClass
        }
    if spec.queue_cap is not None:
        queue_cap = {q: int(spec.queue_cap[q]) for q in QosClass}
    else:
        lam = scenario.traffic.mean_arrivals_per_epoch
        skew = scenario.traffic.skew[spec.id - 1]
        mix = scenario.traffic.qos_mix
        queue_cap = {
            q: _derived_queue_cap(scenario, capacity[q], lam, mix[q], skew) for q in QosClass
        }
    return {q: ServiceQueue(capacity[q], queue_cap[q]) for q in QosClass}


def _build_mec(spec, scenario: Scenario) -> ServiceQueue:
    if spec.capacity is not None:
        capacity = float(spec.capacity)
    else:
        capacity = mec_capacity(spec.etpb, spec.bytes_per_ue, scenario.delta_ms)
    if spec.queue_cap is not None:
        queue_cap = int(spec.queue_cap)
    else:
        lam = scenario.traffic.mean_arrivals_per_epoch
        nonreg = lam * (1.0 - scenario.traffic.qos_mix[QosClass.REGULAR])
        if scenario.num_mecs == scenario.num_upfs:
            weight = scenario.traffic.skew[spec.id - 1]
        else:
            weight = 1.0 / scenario.num_mecs
        queue_cap = _derived_queue_cap(scenario, capacity, nonreg, weight)
    return ServiceQueue(capacity, queue_cap)


class SimulationRun:
    """Mutable state of one simulation run."""

    def __init__(
        self,
        scenario: Scenario,
        seed: Optional[int] = None,
        drain_cap: Optional[int] = None,
    ) -> None:
        violations = validate_scenario(scenario)
        if violations:
            raise ScenarioError("; ".join(violations))
        if drain_cap is not None and drain_cap < 0:
            raise ValueError(f"drain cap must be >= 0, got {drain_cap}")
        self.scenario = scenario
        # prices and measured delays are floats whatever the type of
        # delta_ms: a float delta gives the same values and never an int
        self.delta = float(scenario.delta_ms)
        self.seed = scenario.seed if seed is None else seed
        self.rng = np.random.default_rng(self.seed)
        self._origin_cdf, self._class_cdf = arrival_cdfs(scenario.traffic)
        self._assign = SCHEME_FUNCS[scenario.scheme.value]
        self.upfs = [_build_upf(u, scenario) for u in scenario.upfs]
        self.mecs = [_build_mec(m, scenario) for m in scenario.mecs]
        self.links: Dict[Tuple[int, int], Link] = {}
        for i in range(1, scenario.num_upfs + 1):
            for j, mec in enumerate(scenario.mecs, 1):
                # Mbps -> bits per ms
                bw = scenario.link_bandwidth_mbps[i - 1][j - 1] * 1e3
                self.links[(i, j)] = Link(bandwidth=bw, bytes_per_ue=mec.bytes_per_ue)
        # keys of the links with requests in transit; requests enter links only
        # in the UPF service loop of step_epoch
        self._busy_links: Set[Tuple[int, int]] = set()
        self.epoch = 0
        if drain_cap is not None:
            self.drain_cap = drain_cap
        elif scenario.drain_cap_epochs is not None:
            self.drain_cap = scenario.drain_cap_epochs
        else:
            self.drain_cap = DEFAULT_DRAIN_FACTOR * max(1, scenario.horizon_epochs)
        self.requests: List[UeRequest] = []
        self.epoch_reports: List[EpochReport] = []
        self.generated = 0
        self.completed = 0
        self.dropped = 0
        self.upf_cost: Dict[QosClass, CostVector] = {
            q: CostVector([u[q].price(self.delta) for u in self.upfs]) for q in QosClass
        }
        self.mec_cost = CostVector([m.price(self.delta) for m in self.mecs])
        # UPF buckets in service order (UPF-major, class-minor), each with
        # the cost vector entry that prices it and whether its class goes on
        # to a MEC; link-entry order sets link sharing and MEC FCFS order
        self._upf_slots: List[Tuple[ServiceQueue, CostVector, int, bool]] = [
            (u[q], self.upf_cost[q], i, q.uses_mec)
            for i, u in enumerate(self.upfs)
            for q in QosClass
        ]
        # the deques (a ServiceQueue keeps its own for life) whose lengths each
        # epoch's report records, in the report's order
        self._upf_deques = [u[q].queue for u in self.upfs for q in REPORT_CLASSES]
        self._mec_deques = [m.queue for m in self.mecs]

    @property
    def residual(self) -> int:
        """Requests generated and neither completed nor dropped: still in flight."""
        return self.generated - self.completed - self.dropped

    @property
    def truncated(self) -> bool:
        """The drain cap ended the run with requests still in flight."""
        return self.residual > 0

    def refresh_costs(self) -> None:
        """Recompute every entry of the cost vectors from the current queues."""
        delta = self.delta
        for bucket, cost, idx, _ in self._upf_slots:
            cost.set(idx, bucket.price(delta))
        for j, m in enumerate(self.mecs):
            self.mec_cost.set(j, m.price(delta))

    # ------------------------------------------------------------- stepping

    def step_epoch(self, generate: bool = True) -> EpochReport:
        epoch = self.epoch
        completed_before = self.completed
        arrivals: List[UeRequest] = []
        if generate:
            arrivals = generate_arrivals(
                self.scenario.traffic,
                self.rng,
                epoch,
                self._origin_cdf,
                self._class_cdf,
                self.generated,
            )
            self.requests.extend(arrivals)
            self.generated += len(arrivals)

        admitted = dropped_now = 0
        delta = self.delta
        assign = self._assign
        upfs, mecs, links = self.upfs, self.mecs, self.links
        upf_cost, mec_cost = self.upf_cost, self.mec_cost
        mec_prices = mec_cost.prices
        for req in arrivals:
            upf_id, mec_id = assign(req, self)
            req.assigned_upf = upf_id
            req.assigned_mec = mec_id
            qos = req.qos
            cost = upf_cost[qos]
            # the projection's inputs, recorded for dropped requests too
            if mec_id is None:
                req.decision_inputs = (cost.prices[upf_id - 1], 0, 0.0)
            else:
                req.decision_inputs = (
                    cost.prices[upf_id - 1],
                    len(links[(upf_id, mec_id)].in_transit),
                    mec_prices[mec_id - 1],
                )
            bucket = upfs[upf_id - 1][qos]
            if bucket.full():
                req.advance_status(_DROPPED)
                self.dropped += 1
                dropped_now += 1
            else:
                req.advance_status(_IN_UPF_QUEUE)
                bucket.queue.append(req)
                cost.set(upf_id - 1, bucket.price(delta))
                admitted += 1
                if mec_id is not None:
                    mec = mecs[mec_id - 1]
                    mec.pending += 1
                    mec_cost.set(mec_id - 1, mec.price(delta))
        if admitted + dropped_now != len(arrivals):
            raise InvariantError(
                f"epoch {epoch}: admissions {admitted}+{dropped_now} != arrivals {len(arrivals)}"
            )

        served_upf = 0
        busy_links = self._busy_links
        for bucket, cost, idx, to_mec in self._upf_slots:
            if not bucket.queue:
                continue
            served = bucket.serve()
            cost.set(idx, bucket.price(delta))
            for req in served:
                req.upf_serve_epoch = epoch
                req.d_upf = (epoch + 1 - req.arrival_epoch) * delta
                if to_mec:
                    key = (req.assigned_upf, req.assigned_mec)
                    link = links[key]
                    in_transit = link.in_transit
                    in_transit.append(req)
                    busy_links.add(key)
                    # the entering request shares the link with everything
                    # already on it: its sharers are counted after the append
                    req.d_net = d_net = net_delay(
                        len(in_transit), link.bytes_per_ue, link.bandwidth
                    )
                    req.mec_due_epoch = epoch + transit_epochs(d_net, delta)
                    req.advance_status(_IN_TRANSIT)
                else:
                    self._complete(req)
            served_upf += len(served)

        for key in sorted(self._busy_links):
            link = self.links[key]
            still: List[UeRequest] = []
            mec = mecs[key[1] - 1]
            for req in link.in_transit:
                if req.mec_due_epoch <= epoch:
                    mec.pending -= 1
                    if mec.full():
                        req.advance_status(_DROPPED)
                        self.dropped += 1
                        dropped_now += 1
                    else:
                        req.advance_status(_IN_MEC_QUEUE)
                        mec.queue.append(req)
                else:
                    still.append(req)
            link.in_transit = still
            if not still:
                self._busy_links.discard(key)

        # a MEC the link phase changed holds a queue now: a delivery joined it,
        # or a drop found it full (queue_cap >= 1); so repricing each served
        # MEC also covers the drops, which lower pending without queueing
        served_mec = 0
        for j, m in enumerate(mecs):
            if not m.queue:
                continue
            served = m.serve()
            mec_cost.set(j, m.price(delta))
            for req in served:
                # a transfer joins its MEC's queue exactly at its due epoch
                req.d_mec = (epoch + 1 - req.mec_due_epoch) * delta
                self._complete(req)
            served_mec += len(served)

        report = EpochReport(
            epoch=epoch,
            arrivals=len(arrivals),
            admitted=admitted,
            dropped=dropped_now,
            served_upf=served_upf,
            served_mec=served_mec,
            completed=self.completed - completed_before,
            in_flight=self.residual,
            upf_queues=tuple(map(len, self._upf_deques)),
            mec_queues=tuple(map(len, self._mec_deques)),
        )
        self.epoch_reports.append(report)
        self.epoch += 1
        return report

    def _complete(self, req: UeRequest) -> None:
        req.d_e2e = req.d_upf + req.d_net + req.d_mec
        req.advance_status(_COMPLETED)
        self.completed += 1

    # ------------------------------------------------------------- full run

    def run(self) -> SimulationRun:
        """Step through the horizon, then drain; the finished run is its own record."""
        while self.epoch < self.scenario.horizon_epochs:
            self.step_epoch(generate=True)
        drained = 0
        while self.residual > 0 and drained < self.drain_cap:
            self.step_epoch(generate=False)
            drained += 1
        # residual is what the counters leave; count where the requests are
        located = sum(map(len, self._upf_deques)) + sum(map(len, self._mec_deques))
        located += sum(len(link.in_transit) for link in self.links.values())
        if located != self.residual:
            raise InvariantError(
                f"request conservation broken at end of run: {located} requests "
                f"in queues and links, {self.residual} in flight"
            )
        if self.residual == 0 and any(m.pending for m in self.mecs):
            raise InvariantError("pending MEC commitments left after full drain")
        return self


def run_to_completion(
    scenario: Scenario, seed: Optional[int] = None, drain_cap: Optional[int] = None
) -> SimulationRun:
    """Simulate the scenario through its horizon plus drain and return the finished run."""
    return SimulationRun(scenario, seed=seed, drain_cap=drain_cap).run()
