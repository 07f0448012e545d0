"""Discrete-epoch flow simulation of the UPF/MEC data plane.

A run draws the arrivals of its whole horizon when it is built
(``generate_arrivals``).  Every epoch then runs the same fixed order: take
the epoch's arrivals, admit them one at a time through the configured
assignment scheme (each decision sees the queues left by the decisions
before it, including same-epoch ones), serve the UPF buckets, move served
traffic across the links, deliver finished transfers to their MEC queues,
serve the MECs, then advance the clock.  After the arrival horizon the run
keeps stepping without new traffic until every admitted request has
completed or the scenario's drain cap (``drain_cap_epochs``, ten horizons
by default) is hit.  A run is built from its scenario alone, so
``validate_scenario`` checks every setting of a run, and its ScenarioError
is the only one a run raises.

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
the MEC it touched, and each queue is repriced after its service, which
for a MEC follows every change the link phase makes to it (a drop at its
door lowers ``pending``, but only when its queue is full).  A repricing
reads the table inline, a MEC at ``len(queue) + pending`` and a UPF
bucket at ``len(queue)`` (only MECs count ``pending``, under every
scheme), and writes only a moved price: a kept vector equals a fresh
pricing.  Each write is one of the vector's two monotone writes, since a
price table never falls as its queue grows: an admission joins the queue
its scheme chose, the vector's best, so it is ``raise_best``; a served
queue, or a MEC whose door drops lowered ``pending``, only got shorter, so
it is ``lower``.  Only ``step_epoch`` changes a run.

A request's record holds its decision (``assigned_upf``,
``assigned_mec``), the epochs at which the UPF and the MEC served it, its
link delay ``d_net`` and ``drop``, not its status, its due epoch nor what
the scheme's projection read: the phase order, FIFO queues, ids in
arrival order and the transit law let ``metrics`` derive them when
something reads them (``RunView.status``, ``RunView.mec_due``,
``decision_inputs``).

Idle queues are skipped: an empty queue holds no credit (``serve`` would
only reset it to zero) and its price cannot change, so service passes it
after one emptiness test.  The values that cannot change after the run
is built are checked once: the scenario by ``validate_scenario``, each
capacity by its ``ServiceQueue`` and each link delay by
``transit_entry``, when it makes the table entry.

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
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .delay import net_delay, transit_epochs
from .model import (
    QOS_BY_CODE,
    CostVector,
    InvariantError,
    QosClass,
    Scenario,
    ScenarioError,
    ServiceQueue,
    TrafficSpec,
    validate_scenario,
)
from .schemes import SCHEME_FUNCS, SCHEMES

DEFAULT_DRAIN_FACTOR = 10  # drain cap defaults to this many horizons

# an unset stamp or d_net: one object, so an unset row costs no float of its own
UNSET = math.nan

# the queue cap of a queue the scenario states none for: no deque grows this
# long, so the admission test ``len(queue) >= queue_cap`` never drops there
UNBOUNDED = sys.maxsize

# the order of each UPF's bucket lengths in EpochReport.upf_queues, and so of
# trace.csv's queue columns: by class name, which is not the service order
REPORT_CLASSES = sorted(QosClass, key=lambda q: q.value)


def _cdf(weights) -> np.ndarray:
    """Cumulative distribution of the weights, built as ``Generator.choice`` builds it."""
    w = np.asarray(weights, dtype=float)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def arrival_cdfs(traffic: TrafficSpec) -> Tuple[np.ndarray, np.ndarray]:
    """The origin CDF (over UPFs) and the QoS-class CDF of the arrivals.

    ``cdf.searchsorted(u, side="right")`` on one of them, for uniforms
    ``u`` from ``rng.random``, draws exactly what ``rng.choice(len(w),
    size=len(u), p=w / w.sum())`` draws from the same stream, without
    re-checking and re-normalising the weights on every call.
    ``validate_scenario`` checks both weight vectors.
    """
    return _cdf(traffic.skew), _cdf([traffic.qos_mix[q] for q in QOS_BY_CODE])


def generate_arrivals(
    traffic: TrafficSpec,
    rng: np.random.Generator,
    horizon: int,
    origin_cdf: np.ndarray,
    class_cdf: np.ndarray,
) -> Tuple[List[int], List[int], bytes]:
    """Draw the requests of epochs 0..horizon-1: each epoch's count, then every origin and class.

    The stream is the one per-epoch ``rng.choice`` draws make: each epoch
    takes its count, then one uniform per origin, then one per class,
    before the next epoch's count.  The CDFs are ``arrival_cdfs(traffic)``,
    and each is searched once for the whole horizon.  Returns the counts by
    epoch, the origin UPF ids and the QoS class codes (as bytes, one per
    request), both in arrival order: epoch e's requests follow those of
    the epochs before it.  A class is drawn as its index in the class CDF,
    which is its code (``QOS_BY_CODE``).  The deterministic process emits
    floor((epoch+1)*rate) - floor(epoch*rate) requests so the long-run rate
    is exact even for fractional rates.
    """
    lam = traffic.mean_arrivals_per_epoch
    if traffic.process not in ("poisson", "deterministic"):
        raise ValueError(f"unknown arrival process {traffic.process!r}")
    poisson = traffic.process == "poisson"
    counts: List[int] = []
    origin_u, class_u = [np.empty(0)], [np.empty(0)]
    for epoch in range(horizon):
        if poisson:
            count = int(rng.poisson(lam))
        else:
            count = int(math.floor((epoch + 1) * lam) - math.floor(epoch * lam))
        counts.append(count)
        if count:
            u = rng.random(2 * count)
            origin_u.append(u[:count])
            class_u.append(u[count:])
    origins = (origin_cdf.searchsorted(np.concatenate(origin_u), side="right") + 1).tolist()
    classes = class_cdf.searchsorted(np.concatenate(class_u), side="right").astype(np.uint8)
    return counts, origins, classes.tobytes()


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
    order) in 8 columns named after the fields they hold: the bytearrays
    ``qos`` (class codes: ``QOS_BY_CODE[code]`` is the class) and ``drop``
    (1 where the request was dropped), and the lists ``origin_upf``,
    ``assigned_upf``, ``assigned_mec`` (None for a class that ends at the
    UPF), the epoch stamps ``upf_serve_epoch`` and ``mec_serve_epoch``
    (floats, one object per epoch) and the link's delay ``d_net``; a stamp
    or ``d_net`` not yet set is ``UNSET``.  ``qos``, ``drop`` and
    ``origin_upf`` grow as ``step_epoch`` takes each epoch's arrivals, and
    its epoch's report counts them, so their length is ``generated``; the
    other five are sized for the whole horizon's draws when the run is
    built, and only their first ``generated`` rows are requests.  No
    column holds the arrival epoch or the due epoch (``metrics.RunView``).
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
        # the horizon's arrivals, drawn once: epoch e's requests are
        # _origins[k] and _codes[k] for k in range(_starts[e], _starts[e + 1])
        counts, self._origins, self._codes = generate_arrivals(
            scenario.traffic, np.random.default_rng(scenario.seed), scenario.horizon_epochs,
            *arrival_cdfs(scenario.traffic))
        self._starts = list(accumulate(counts, initial=0))
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
        self.qos, self.drop = bytearray(), bytearray()
        self.origin_upf: List[int] = []
        # the undecided columns, one row per request the horizon draws
        rows = self._starts[-1]
        self.assigned_upf: List[Optional[int]] = [None] * rows
        self.assigned_mec: List[Optional[int]] = [None] * rows
        self.upf_serve_epoch: List[float] = [UNSET] * rows
        self.mec_serve_epoch: List[float] = [UNSET] * rows
        self.d_net: List[float] = [UNSET] * rows
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
        """Simulate one epoch, with the arrivals drawn for it if ``generate``; its report.

        An epoch at or past the horizon has no arrivals drawn.
        """
        epoch = self.epoch
        origins: List[int] = []
        codes = b""
        if generate and epoch < len(self._starts) - 1:
            start, end = self._starts[epoch], self._starts[epoch + 1]
            origins, codes = self._origins[start:end], self._codes[start:end]
        # one row per new request, which this epoch's report counts
        first = len(self.qos)
        self.qos += codes
        self.drop += bytes(len(origins))
        self.origin_upf.extend(origins)
        # the epoch's one stamp object
        stamp = float(epoch)

        drop = self.drop
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
                drop[rid] = 1
                dropped_now += 1
            else:
                queue.append(rid)
                if cost is not None:
                    q = len(queue)
                    p = table[q] if q < len(table) else bucket.fill(q)
                    if p != prices[i]:
                        cost.raise_best(p)
                admitted += 1
                if mec_id is not None:
                    mec = mecs[mec_id - 1]
                    mec.pending = pending = mec.pending + 1
                    if mec_cost is not None:
                        q = len(mec.queue) + pending
                        table = mec.table
                        p = table[q] if 0 <= q < len(table) else mec.fill(q)
                        if p != mec_prices[mec_id - 1]:
                            mec_cost.raise_best(p)

        upf_serve_epoch = self.upf_serve_epoch
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
                    upf_serve_epoch[popleft()] = stamp
                completed_now += n
            else:
                for _ in range(n):
                    rid = popleft()
                    upf_serve_epoch[rid] = stamp
                    k = base + assigned_mec[rid]
                    # the entering request shares the link with everything
                    # already on it: its sharers are counted after it joins
                    link_sharers[k] = sharers = link_sharers[k] + 1
                    table = link_transit[k]
                    d_net[rid], transit = (
                        table[sharers] if sharers < len(table)
                        else transit_entry(self, k, sharers)
                    )
                    day = calendar[epoch + transit]
                    on_link = day.get(k)
                    if on_link is None:
                        day[k] = [rid]
                    else:
                        on_link.append(rid)
            if cost is not None:
                q = len(queue)
                table = bucket.table
                p = table[q] if q < len(table) else bucket.fill(q)
                if p != cost.prices[idx]:
                    cost.lower(idx, p)
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
                queue = mec.queue
                room = mec.queue_cap - len(queue)
                if room >= len(rids):
                    queue.extend(rids)
                else:
                    # the first room ids fill the queue, the rest find it full
                    queue.extend(rids[:room])
                    for rid in rids[room:]:
                        drop[rid] = 1
                    dropped_now += len(rids) - room

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
                mec_serve_epoch[popleft()] = stamp
            if mec_cost is not None:
                q = len(queue) + m.pending
                table = m.table
                p = table[q] if 0 <= q < len(table) else m.fill(q)
                if p != mec_prices[j]:
                    mec_cost.lower(j, p)
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
        # the horizon's draws are spent
        self._origins, self._codes = [], b""
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
