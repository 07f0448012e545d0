"""Post-processing of finished runs: summaries, CDFs, CapEx sweeps.

Percentiles use the nearest-rank convention on the sorted sample (the
p-th percentile is the value at index ceil(p/100 * n) - 1), so every
reported figure is an observed delay.  Standard deviations are
population standard deviations.  The run records epoch stamps and drop
flags, not statuses or delays: every report reads them off one
``RunView`` of the run, which converts each column once.  Summaries
reduce every slice in request-id order: a float mean or std depends on
the order of its sample.  Emitted files follow the naming scheme
<scenario>.<scheme>.<seed>.<report>.<ext> with stable column layouts.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import chain, compress, pairwise
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .engine import EpochReport, SimulationRun, link_law, run_to_completion
from .model import (
    QOS_BY_CODE,
    InvariantError,
    QosClass,
    RequestStatus,
    Scenario,
    ScenarioError,
    Scheme,
    ServiceQueue,
    validate_scenario,
)

PERCENTILES = (50.0, 80.0, 95.0, 99.0, 99.9)

# the order of each UPF's buckets in the reports (the summary's slices and
# trace.csv's queue columns): by class name, which is not the service order
REPORT_CLASSES = sorted(QosClass, key=lambda q: q.value)


@dataclass(frozen=True)
class Stats:
    """Mean / population std / sample count of one delay slice."""

    mean: float
    std: float
    count: int


@dataclass(frozen=True)
class DistSummary:
    """Distribution summary of one delay population."""

    count: int
    mean: float
    std: float
    percentiles: Dict[float, float]
    max: float


@dataclass
class SummaryHead:
    """All of a run's summary but its tables: counts, overall e2e delays and queue peaks."""

    scenario_name: str
    scheme: str
    seed: int
    generated: int
    completed: int
    dropped: int
    residual: int
    epochs_run: int
    truncated: bool
    e2e_overall: Optional[DistSummary]
    peak_upf_queue: int
    peak_mec_queue: int
    # the completed requests' end-to-end delays in id order, which the CDF
    # reports read; not a statistic, so not compared, printed or serialized
    d_e2e: np.ndarray = field(compare=False, repr=False)


@dataclass
class SummaryReport(SummaryHead):
    """Per-run delay statistics, broken down by entity and QoS."""

    per_upf_qos: Dict[Tuple[int, QosClass], Stats] = field(default_factory=dict)
    per_mec: Dict[int, Stats] = field(default_factory=dict)
    e2e_per_qos: Dict[QosClass, DistSummary] = field(default_factory=dict)


def percentile_nearest_rank(sorted_samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    if len(sorted_samples) == 0:
        raise ValueError("empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    # the rank ceil(p / 100 * n) in integers, p read to 9 decimals: the float
    # product can land just above an integer (99.9 / 100 * 1000)
    idx = max(0, -(-round(p * 10**9) * len(sorted_samples) // 10**11) - 1)
    return sorted_samples[idx]


def _stats(values: np.ndarray) -> Stats:
    return Stats(mean=float(values.mean()), std=float(values.std()), count=int(values.size))


def _dist(values: np.ndarray) -> DistSummary:
    arr = np.sort(values)
    return DistSummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        percentiles={p: float(percentile_nearest_rank(arr, p)) for p in PERCENTILES},
        max=float(arr[-1]),
    )


# by class code: the class's rank by name, so that (UPF id, rank) sorts as
# the summary's (UPF id, class name) slices do; whether it uses a MEC; its name
_RANK = np.array([REPORT_CLASSES.index(q) for q in QOS_BY_CODE])
_USES_MEC = np.array([q.uses_mec for q in QOS_BY_CODE])
_QOS_NAMES = [q.value for q in QOS_BY_CODE]
_STATUS_NAMES = {s: s.name.lower() for s in RequestStatus}


def stage_delay(leave, enter, delta):
    """Measured delay in ms of a stage entered at epoch ``enter`` and served at ``leave``.

    The serving epoch counts, so a request served in the epoch it entered
    took one epoch.  The epochs may be ints, or numpy int or float arrays
    alike: each element is converted to float and multiplied once, so all
    give the same IEEE values, and a nan epoch (no stamp) gives nan.
    """
    return (leave + 1 - enter) * delta


# a request's epochs in stage order, and the status values
_STAMPS = ("arrival_epoch", "upf_serve_epoch", "mec_due_epoch", "mec_serve_epoch")
_IN_UPF_QUEUE, _IN_TRANSIT, _IN_MEC_QUEUE, _COMPLETED, _DROPPED = map(np.uint8, RequestStatus)


class RunView:
    """A finished run's record as arrays in id order: what every report reads.

    Built once per reading, it converts each column once: the class
    ``codes``, the ``uses_mec`` and ``dropped`` masks, the ``arrival``
    epochs (epoch e's requests are the next ``arrivals`` ids of its
    report), the stamps ``upf_serve`` and ``mec_serve`` and the link delay
    ``d_net`` as floats (nan where unset), the ``served`` mask of UPF
    service, the ``status`` and the ``completed`` mask; the assigned ids
    when first read.  The due epoch ``mec_due`` is derived, not recorded:
    ``upf_serve + ceil(d_net / delta)``, the IEEE operations of
    ``transit_epochs``, so it equals the epoch the engine delivered at.
    The status is DROPPED where ``drop`` is set; else COMPLETED where
    ``mec_serve_epoch`` is stamped, or ``upf_serve_epoch`` for a class that
    ends at the UPF; else IN_UPF_QUEUE without an ``upf_serve_epoch``; else
    IN_TRANSIT if ``mec_due`` is ``run.epoch`` or later (a transfer is
    delivered exactly at its due epoch); else IN_MEC_QUEUE.  Reports that
    count other than ``generated`` rows, a stamp earlier than the stamp of
    the stage before it, and a stamp (or a ``d_net``, for the due epoch)
    set where the stage before it is not, raise ``InvariantError`` here.
    """

    def __init__(self, run: SimulationRun) -> None:
        self.run, n = run, run.generated
        self.codes = np.frombuffer(run.qos, np.uint8, n)
        self.uses_mec = uses_mec = _USES_MEC.take(self.codes)
        self.dropped = np.frombuffer(run.drop, np.bool_, n)
        counts = [r.arrivals for r in run.epoch_reports]
        if sum(counts) != n:
            raise InvariantError(f"epoch reports count {sum(counts)} arrivals, "
                                 f"the run holds {n} requests")
        self.arrival = np.repeat(np.arange(run.epoch), counts)
        self.upf_serve, self.d_net, self.mec_serve = (
            np.fromiter(column, float, n)
            for column in (run.upf_serve_epoch, run.d_net, run.mec_serve_epoch))
        self.mec_due = self.upf_serve + np.ceil(self.d_net / run.delta)
        stamps = (self.arrival, self.upf_serve, self.mec_due, self.mec_serve)
        for (before, early), (stage, late) in pairwise(zip(_STAMPS, stamps)):
            broken = late < early
            if broken.any():
                k = int(broken.argmax())
                raise InvariantError(f"request {k}: {stage} {late[k]:g} before its {before} "
                                     f"{early[k]:g}")
            # nan compares false, so a stamp set after an unset one is its own
            # check; the due epoch is set where d_net is
            if late is self.mec_due:
                stage, late = "d_net", self.d_net
            skipped = np.isnan(early) > np.isnan(late)
            if skipped.any():
                k = int(skipped.argmax())
                raise InvariantError(f"request {k}: {stage} {late[k]:g} without its {before}")
        self.served = served = ~np.isnan(self.upf_serve)
        status = np.full(n, _IN_MEC_QUEUE)
        # each rule sets its value where it holds, over the rules before it; the
        # uint8 sums wrap, so status + holds * (value - status) is exact
        for holds, value in ((self.mec_due >= run.epoch, _IN_TRANSIT), (~served, _IN_UPF_QUEUE),
                             (~np.isnan(self.mec_serve) | (served & ~uses_mec), _COMPLETED),
                             (self.dropped, _DROPPED)):
            status += holds * (value - status)
        self.status, self.completed = status, status == _COMPLETED

    # the assigned ids, converted on first read: every request's UPF, and the
    # MEC of each request of a class that uses one (``uses_mec``), in id order
    upf_ids = cached_property(lambda self: np.fromiter(
        self.run.assigned_upf, np.intp, self.run.generated))
    mec_ids = cached_property(lambda self: np.fromiter(compress(
        self.run.assigned_mec, self.uses_mec.tobytes()), np.intp, self.uses_mec.sum()))

    def delays(self, rows: np.ndarray) -> Tuple[np.ndarray, ...]:
        """The measured delays ``(d_upf, d_net, d_mec, d_e2e)`` in ms where mask ``rows`` is set.

        A delay is nan where a stamp it needs is missing.  A served request
        of a class that ends at the UPF spent 0.0 ms on a link and at a MEC,
        so ``d_e2e`` is ``(d_upf + d_net) + d_mec`` for every class.
        """
        delta, linked = self.run.delta, rows & self.uses_mec
        d_upf = stage_delay(self.upf_serve.compress(rows), self.arrival.compress(rows), delta)
        # 0.0 where served and nan before, for a class that ends at the UPF
        d_net = d_upf * 0.0
        d_mec = d_net.copy()
        at = np.flatnonzero(linked.compress(rows))
        d_net[at] = self.d_net.compress(linked)
        d_mec[at] = stage_delay(self.mec_serve.compress(linked), self.mec_due.compress(linked),
                                delta)
        return d_upf, d_net, d_mec, (d_upf + d_net) + d_mec

    def queue_lengths(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every queue's length at each epoch's end: ``(upf, mec)``, int matrices.

        ``upf`` has one row per epoch run and one column per UPF bucket,
        UPF-major with each UPF's buckets in ``REPORT_CLASSES`` order;
        ``mec`` has one column per MEC, in id order.  The record fixes them:
        an admitted row joins its bucket at its arrival epoch and leaves it
        at its ``upf_serve_epoch``; a row its link delivered (``d_net`` set,
        due before ``run.epoch``, not dropped at the MEC's door) joins its
        MEC at ``mec_due`` and leaves it at its ``mec_serve_epoch``.  A
        length is the joins less the leaves up to that epoch's end.
        """
        epochs = self.run.epoch
        admitted = self.served | ~self.dropped
        bucket = (self.upf_ids - 1) * len(REPORT_CLASSES) + _RANK.take(self.codes)
        upf = _lengths(epochs, len(self.run.upfs) * len(REPORT_CLASSES),
                       bucket.compress(admitted), self.arrival.compress(admitted),
                       bucket.compress(self.served), self.upf_serve.compress(self.served))
        linked = self.uses_mec
        due, mec_serve = self.mec_due.compress(linked), self.mec_serve.compress(linked)
        delivered = ~self.dropped.compress(linked) & (due < epochs)
        left = ~np.isnan(mec_serve)
        mec = self.mec_ids - 1
        return upf, _lengths(epochs, len(self.run.mecs), mec.compress(delivered),
                             due.compress(delivered), mec.compress(left), mec_serve.compress(left))


def _lengths(epochs: int, width: int, key: np.ndarray, join_at: np.ndarray,
             leave_key: np.ndarray, leave_at: np.ndarray) -> np.ndarray:
    """(epochs x width) queue lengths: items of each key joined and not yet left, by epoch's end.

    The items at ``key`` joined at epochs ``join_at``, those at
    ``leave_key`` left at ``leave_at``; the epochs may be floats.
    """
    size = epochs * width
    moved = (np.bincount(join_at.astype(np.intp) * width + key, minlength=size)
             - np.bincount(leave_at.astype(np.intp) * width + leave_key, minlength=size))
    return moved.reshape(epochs, width).cumsum(axis=0)


def _count_below(key: np.ndarray, at: np.ndarray, qkey: np.ndarray,
                 qat: np.ndarray) -> np.ndarray:
    """For each query, how many items have its key and an ``at`` below its ``qat``.

    Keys and query times are ints >= 0.  An item time at or past every
    query's counts for none, so it is capped there, which keeps the
    composite ``key * width + at`` in one sorted array.  Queries sorted by
    ``(qkey, qat)`` search it fastest.
    """
    width = int(qat.max(initial=0)) + 1
    items = np.sort(key * width + np.minimum(at, width - 1).astype(np.int64))
    base = qkey * width
    return items.searchsorted(base + qat) - items.searchsorted(base)


def _held(key: np.ndarray, arrival: np.ndarray, joined: np.ndarray, join_at: np.ndarray,
          query_at: np.ndarray, left: np.ndarray, leave_at: np.ndarray) -> np.ndarray:
    """For each row, how many rows of its key it found joined and not yet left.

    ``key``, ``arrival`` and ``query_at`` are over the rows in id order.
    The rows at indices ``joined`` joined at ``join_at``, before a row whose
    ``query_at`` is above that; the rows at indices ``left`` left at epochs
    ``leave_at``, before a row that arrived at a later epoch.  The
    queries go in (key, id) order, which also sorts them by (key, time)
    for ``_count_below``: ids and arrival epochs only grow with the id.
    """
    order = np.argsort(key * len(key) + np.arange(len(key)))
    qkey = key[order]
    held = np.empty(len(key), np.int64)
    held[order] = (_count_below(key.take(joined), join_at, qkey, query_at[order])
                   - _count_below(key.take(left), leave_at, qkey, arrival[order]))
    return held


def _priced(queues: Sequence[ServiceQueue], key: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Entry ``level`` (>= 0) of ``queues[key]``'s price table, filled that far, for each row."""
    top = np.zeros(len(queues), np.int64)
    np.maximum.at(top, key, level)
    for sq, t in zip(queues, top.tolist()):
        sq.fill(t)
    lengths = np.fromiter((len(sq.table) for sq in queues), np.intp, len(queues))
    flat = np.fromiter(chain.from_iterable(sq.table for sq in queues), float, int(lengths.sum()))
    return flat[(lengths.cumsum() - lengths)[key] + level]


def decision_inputs(view: RunView) -> Tuple[np.ndarray, ...]:
    """What each request's decision read: ``(pc_upf, n_share, pc_mec)``, arrays in id order.

    Admission records only the decision.  An epoch runs admission, UPF
    service, delivery and MEC service in that order, queues are FIFO and
    ids follow arrival order, so the queues a request decided in epoch e
    (its ``arrival``) met follow from the stamps:

    - its UPF bucket held the rows admitted to it with a smaller id, less
      those it served before e, and ``pc_upf`` is that length's entry of
      the bucket's price table (an admission drop, a dropped row with no
      ``upf_serve_epoch``, met it at its ``queue_cap``, an admitted row below);
    - its MEC held, queued or pending, the rows admitted upstream for it
      with a smaller id, less those that left it before e: at their
      ``mec_serve_epoch``, or at their due epoch (``mec_due``) if dropped
      at its door; ``pc_mec`` is that length's entry of the MEC's table;
    - ``n_share`` counts the rows on its link, those with
      ``upf_serve_epoch < e <= mec_due``.

    A row that left before e arrived before e, so it also joined before
    the row deciding then: no derived length is below 0 once the view's
    stage-order guard has passed.

    A class that ends at the UPF reads ``n_share`` 0 and ``pc_mec`` 0.0.
    """
    run, n = view.run, view.run.generated
    arrival, served, upf = view.arrival, view.served, view.upf_ids - 1
    admitted = served | ~view.dropped
    bucket, ids = upf * len(QOS_BY_CODE) + view.codes, np.arange(n)
    joined, was_served = np.flatnonzero(admitted), np.flatnonzero(served)
    level = _held(bucket, arrival, joined, joined, ids, was_served,
                  view.upf_serve.take(was_served))
    buckets = [u[q] for u in run.upfs for q in QOS_BY_CODE]
    pc_upf = _priced(buckets, bucket, level)
    cap = np.array([b.queue_cap for b in buckets], np.int64)[bucket]
    broken = np.where(admitted, level >= cap, level != cap)
    if broken.any():
        k = int(broken.argmax())
        raise InvariantError(f"request {k}: derived UPF bucket queue length {level[k]} breaks its "
                             f"queue cap of {cap[k]} ({'admitted' if admitted[k] else 'dropped'})")

    # the rows of the classes that use a MEC, numbered 0, 1, ... in id order
    rows = np.flatnonzero(view.uses_mec)
    mec = view.mec_ids - 1
    arrival, admitted, served, due = (a.take(rows) for a in (arrival, admitted, served,
                                                            view.mec_due))
    # a row dropped at its MEC's door left it at its due epoch
    left = np.where(view.dropped.take(rows) & ~np.isnan(due), due, view.mec_serve.take(rows))
    joined, has_left = np.flatnonzero(admitted), np.flatnonzero(~np.isnan(left))
    level = _held(mec, arrival, joined, joined, np.arange(len(rows)), has_left,
                  left.take(has_left))
    pc_mec = np.zeros(n)
    pc_mec[rows] = _priced(run.mecs, mec, level)

    crossed = np.flatnonzero(served)
    n_share = np.zeros(n, np.int64)
    n_share[rows] = _held(upf.take(rows) * run.scenario.num_mecs + mec, arrival, crossed,
                          view.upf_serve.take(rows.take(crossed)), arrival, crossed,
                          due.take(crossed))
    return pc_upf, n_share, pc_mec


def projections(scenario: Scenario, upf: np.ndarray, mec: np.ndarray, pc_upf: np.ndarray,
                n_share: np.ndarray, pc_mec: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The scheme's projected delays ``(proj_upf, proj_net, proj_mec, proj_e2e)`` in ms.

    The arguments are arrays over the same rows: the assigned ids (a MEC's
    as a float, nan for none) and what the decision read
    (``decision_inputs``).  ``proj_net`` is ``net_delay``'s law in its
    order of operations on ``link_law``'s bytes and bandwidth, 0.0 without
    a MEC; ``proj_e2e`` is ``(proj_upf + proj_net) + proj_mec``.
    """
    law = np.array([[link_law(scenario, i, j) for j in range(scenario.num_mecs)]
                    for i in range(scenario.num_upfs)])
    linked = ~np.isnan(mec)
    bytes_per_ue, bandwidth = law[upf[linked].astype(np.intp) - 1,
                                  mec[linked].astype(np.intp) - 1].T
    proj_net = np.zeros(len(pc_upf))
    proj_net[linked] = n_share[linked] * bytes_per_ue * 8.0 / bandwidth
    proj_mec = np.array(pc_mec, float)
    return pc_upf, proj_net, proj_mec, (pc_upf + proj_net) + proj_mec


def _slices(keys: np.ndarray, values: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """The values of each distinct key, in ascending key order; keys are ints >= 0.

    A stable sort keeps each slice in request-id order, the order its mean
    and std are reduced in: both depend on the order of the sample.  It
    sorts the keys as the narrowest integer type that holds them, where
    numpy's stable sort is a radix sort; the permutation is the same.
    """
    if keys.size == 0:
        return []
    keys = keys.astype(np.min_scalar_type(int(keys.max())), copy=False)
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    bounds = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    starts, ends = [0, *bounds], [*bounds, int(keys.size)]
    return [(int(keys[a]), values[a:b]) for a, b in zip(starts, ends)]


def _head(run: SimulationRun, d_e2e: np.ndarray) -> SummaryHead:
    return SummaryHead(
        scenario_name=run.scenario.name,
        scheme=run.scenario.scheme.value,
        seed=run.scenario.seed,
        generated=run.generated,
        completed=run.completed,
        dropped=run.dropped,
        residual=run.residual,
        epochs_run=run.epoch,
        truncated=run.truncated,
        e2e_overall=_dist(d_e2e) if d_e2e.size else None,
        peak_upf_queue=run.peak_upf_queue,
        peak_mec_queue=run.peak_mec_queue,
        d_e2e=d_e2e,
    )


def summarize_head(run: SimulationRun) -> SummaryHead:
    """Reduce a finished run to what ``compare`` writes of it: ``summarize`` without its tables."""
    view = RunView(run)
    return _head(run, view.delays(view.completed)[3])


def summarize(run: SimulationRun, view: Optional[RunView] = None) -> SummaryReport:
    """Reduce a finished run to its delay statistics (measured delays, completed requests).

    ``view`` is the run's ``RunView`` if the caller built one already.
    """
    if view is None:
        view = RunView(run)
    rows = view.completed
    d_upf, _, d_mec, d_e2e = view.delays(rows)
    codes, width = view.codes.compress(rows), len(REPORT_CLASSES)
    upf_keys = view.upf_ids.compress(rows) * width + _RANK[codes]
    # the MEC of each completed request of a class that uses one, and its d_mec
    mec_keys = view.mec_ids.compress(rows.compress(view.uses_mec))
    d_mec = d_mec.compress(_USES_MEC.take(codes))
    return SummaryReport(
        **vars(_head(run, d_e2e)),
        per_upf_qos={(key // width, REPORT_CLASSES[key % width]): _stats(v)
                     for key, v in _slices(upf_keys, d_upf)},
        per_mec={key: _stats(v) for key, v in _slices(mec_keys, d_mec)},
        e2e_per_qos={QOS_BY_CODE[code]: _dist(v) for code, v in _slices(codes, d_e2e)},
    )


def completed_e2e(run: SimulationRun) -> Dict[QosClass, np.ndarray]:
    """End-to-end delays of the completed requests by QoS class, each in id order.

    For a run that is not summarized; ``summarize`` keeps all of them, in
    id order, as ``SummaryReport.d_e2e``.
    """
    view = RunView(run)
    by_code = dict(_slices(view.codes.compress(view.completed), view.delays(view.completed)[3]))
    return {q: by_code.get(code, np.empty(0)) for code, q in enumerate(QOS_BY_CODE)}


@dataclass(frozen=True)
class CdfTable:
    """Empirical CDF: unique sorted values and cumulative probabilities."""

    values: Tuple[float, ...]
    cum_probs: Tuple[float, ...]


def build_cdf(samples: Sequence[float]) -> CdfTable:
    """Empirical CDF of a sample; empty input gives an empty table."""
    if len(samples) == 0:
        return CdfTable((), ())
    arr = np.asarray(samples, dtype=float)
    values, counts = np.unique(arr, return_counts=True)
    cum = np.cumsum(counts) / arr.size
    return CdfTable(tuple(float(v) for v in values), tuple(float(c) for c in cum))


# ---------------------------------------------------------------- CapEx sweep


@dataclass(frozen=True)
class CapexPoint:
    """Threshold-compliance of one scheme at one deployment size."""

    pairs: int
    scheme: str
    completed: int
    dropped: int
    pct_under_threshold: Dict[QosClass, float]


def build_pair_scenario(base: Scenario, pairs: int) -> Scenario:
    """Scale the deployment to `pairs` UPF-MEC pairs, cycling the base patterns.

    Capacities, bandwidths and the traffic skew repeat the base vectors;
    the skew is renormalized to sum to one, so a pair count whose UPFs all
    have a share of 0 is refused.  Total offered traffic stays unchanged,
    so smaller deployments are proportionally more loaded.  The scaled
    scenario lists the base's UPF and MEC specs themselves, each as often
    as the cycle repeats it.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    u0, m0 = base.num_upfs, base.num_mecs
    raw_skew = [base.traffic.skew[i % u0] for i in range(pairs)]
    total = sum(raw_skew)
    if total == 0:
        raise ValueError(
            f"pairs {pairs}: every UPF of the {pairs}-pair deployment has a skew share of 0")
    bw = [
        [base.link_bandwidth_mbps[i % u0][j % m0] for j in range(pairs)]
        for i in range(pairs)
    ]
    return replace(
        base,
        name=f"{base.name}-p{pairs}",
        traffic=replace(base.traffic, skew=[s / total for s in raw_skew]),
        upfs=[base.upfs[i % u0] for i in range(pairs)],
        mecs=[base.mecs[j % m0] for j in range(pairs)],
        link_bandwidth_mbps=bw,
    )


def _sweep_cell(scenario: Scenario, seed: int) -> Tuple[Dict[QosClass, Tuple[int, int]], int, int]:
    """Run one (scenario, seed) cell; count threshold hits per QoS.

    Only counts leave it, so each run is freed before the sweep starts the next.
    """
    run = run_to_completion(scenario, seed=seed)
    e2e = completed_e2e(run)
    hits = {q: (int(np.count_nonzero(e2e[q] < thr)), e2e[q].size)
            for q, thr in scenario.thresholds_ms.items()}
    return hits, run.completed, run.dropped


# the CapEx comparison: the location-pinned baseline against the MEC-IA scheme
CAPEX_BASELINE = Scheme.BASELINE
CAPEX_MECIA = Scheme.BESTFIT_UPF_MEC


def capex_sweep(
    base: Scenario, pair_counts: Sequence[int], seeds: Sequence[int]
) -> List[CapexPoint]:
    """Run both CapEx schemes at every pair count over the seeds and pool the results.

    The seeds of a cell run in order and their counts are summed.  The
    base is validated before it is scaled, under the one scheme that needs
    no co-located MECs: the scaled deployments always pair them, and each
    run validates its own.  Every deployment is scaled before the first
    run, so a pair count that cannot be scaled refuses the sweep before any
    cell runs.
    """
    violations = validate_scenario(replace(base, scheme=Scheme.BESTFIT_UPF_MEC))
    if violations:
        raise ScenarioError("; ".join(violations))
    points: List[CapexPoint] = []
    deployments = [build_pair_scenario(base, pairs) for pairs in pair_counts]
    for pairs, scaled in zip(pair_counts, deployments):
        for scheme in (CAPEX_BASELINE, CAPEX_MECIA):
            variant = replace(scaled, scheme=scheme)
            under = dict.fromkeys(base.thresholds_ms, 0)
            total = dict.fromkeys(base.thresholds_ms, 0)
            completed = dropped = 0
            for seed in seeds:
                hits, c, d = _sweep_cell(variant, seed)
                completed += c
                dropped += d
                for q, (u, t) in hits.items():
                    under[q] += u
                    total[q] += t
            pct = {q: 100.0 * under[q] / total[q] if total[q] else 0.0 for q in total}
            points.append(CapexPoint(pairs, scheme.value, completed, dropped, pct))
    return points


def capex_analysis(points: Sequence[CapexPoint], qos: QosClass = QosClass.URLLC) -> dict:
    """Connectivity gain per deployment size and the CapEx break-even size.

    The break-even is the smallest pair count at which the load-aware
    scheme matches what the baseline only reaches at the largest size.
    """
    base_pts = {p.pairs: p for p in points if p.scheme == CAPEX_BASELINE.value}
    mec_pts = {p.pairs: p for p in points if p.scheme == CAPEX_MECIA.value}
    sizes = sorted(set(base_pts) & set(mec_pts))
    if not sizes:
        raise ValueError("no common pair counts between the two schemes")
    base_pct = {k: base_pts[k].pct_under_threshold.get(qos, 0.0) for k in sizes}
    mec_pct = {k: mec_pts[k].pct_under_threshold.get(qos, 0.0) for k in sizes}
    target = base_pct[sizes[-1]]
    return {
        "qos": qos.value,
        "pair_counts": sizes,
        "baseline_pct": base_pct,
        "mecia_pct": mec_pct,
        "connectivity_gain": {k: mec_pct[k] / b if b > 0.0 else None for k, b in base_pct.items()},
        "baseline_pct_at_max": target,
        "breakeven_pairs": next((k for k in sizes if mec_pct[k] >= target), None),
    }


# ---------------------------------------------------------------- file output


def report_path(out_dir: str, scenario: str, scheme: str, seed: int, report: str, ext: str) -> str:
    return os.path.join(out_dir, f"{scenario}.{scheme}.{seed}.{report}.{ext}")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_summary_csv(report: SummaryReport, path: str) -> None:
    """One wide table: count/mean/std rows per slice plus distribution rows."""
    cols = [
        "scope", "entity", "qos", "count", "mean_ms", "std_ms",
        "p50_ms", "p80_ms", "p95_ms", "p99_ms", "p99.9_ms", "max_ms",
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for (upf_id, qos), st in report.per_upf_qos.items():
            w.writerow(["upf", upf_id, qos.value, st.count, _fmt(st.mean), _fmt(st.std),
                        "", "", "", "", "", ""])
        for mec_id, st in report.per_mec.items():
            w.writerow(["mec", mec_id, "", st.count, _fmt(st.mean), _fmt(st.std),
                        "", "", "", "", "", ""])
        def dist_row(scope, entity, qos, d: DistSummary):
            w.writerow([
                scope, entity, qos, d.count, _fmt(d.mean), _fmt(d.std),
                _fmt(d.percentiles[50.0]), _fmt(d.percentiles[80.0]),
                _fmt(d.percentiles[95.0]), _fmt(d.percentiles[99.0]),
                _fmt(d.percentiles[99.9]), _fmt(d.max),
            ])
        if report.e2e_overall is not None:
            dist_row("e2e", "", "", report.e2e_overall)
        for qos, d in report.e2e_per_qos.items():
            dist_row("e2e_qos", "", qos.value, d)
        w.writerow(["counts", "", "", report.generated, "", "", "", "", "", "", "", ""])


def summary_to_dict(report: SummaryReport) -> dict:
    def stats_d(st: Stats) -> dict:
        return {"mean_ms": st.mean, "std_ms": st.std, "count": st.count}

    def dist_d(d: DistSummary) -> dict:
        return {
            "count": d.count,
            "mean_ms": d.mean,
            "std_ms": d.std,
            "max_ms": d.max,
            "percentiles_ms": {f"p{p:g}": v for p, v in d.percentiles.items()},
        }

    return {
        "scenario": report.scenario_name,
        "scheme": report.scheme,
        "seed": report.seed,
        "counts": {
            "generated": report.generated,
            "completed": report.completed,
            "dropped": report.dropped,
            "residual": report.residual,
        },
        "epochs_run": report.epochs_run,
        "truncated": report.truncated,
        "peak_upf_queue": report.peak_upf_queue,
        "peak_mec_queue": report.peak_mec_queue,
        "upf_delay": {
            f"upf{upf_id}.{qos.value}": stats_d(st)
            for (upf_id, qos), st in report.per_upf_qos.items()
        },
        "mec_delay": {f"mec{mec_id}": stats_d(st) for mec_id, st in report.per_mec.items()},
        "e2e": dist_d(report.e2e_overall) if report.e2e_overall else None,
        "e2e_per_qos": {q.value: dist_d(d) for q, d in report.e2e_per_qos.items()},
    }


def write_summary_json(report: SummaryReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_cdf_csv(cdf: CdfTable, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["d_e2e_ms", "cum_prob"])
        for v, p in zip(cdf.values, cdf.cum_probs):
            w.writerow([_fmt(v), _fmt(p)])


def _cells(column: np.ndarray):
    """A float column's cells: ``repr`` of each value, blank for nan.

    Each distinct bit pattern is formatted once, then looked up per row:
    most columns repeat few values.
    """
    patterns, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = [repr(x) if x == x else "" for x in patterns.view(np.float64).tolist()]
    return map(text.__getitem__, inverse.tolist())


def write_events_csv(run: SimulationRun, path: str, view: Optional[RunView] = None) -> None:
    """One row per request in id order: its record, measured delays and the scheme's projection.

    A measured cell (``RunView.delays``) is blank until a stage stamps it:
    ``d_upf`` until UPF service, ``d_net`` until link entry, ``d_mec`` and
    ``d_e2e`` until the request completes.  The projection is
    ``projections`` of ``decision_inputs``.  ``view`` is the run's
    ``RunView`` if the caller built one already.
    """
    cols = [
        "id", "qos", "origin_upf", "arrival_epoch", "assigned_upf", "assigned_mec",
        "status", "d_upf_ms", "d_net_ms", "d_mec_ms", "d_e2e_ms",
        "proj_upf_ms", "proj_net_ms", "proj_mec_ms", "proj_e2e_ms",
    ]
    if view is None:
        view = RunView(run)
    n = run.generated
    mec = np.full(n, np.nan)
    mec[view.uses_mec] = view.mec_ids
    proj = projections(run.scenario, view.upf_ids, mec, *decision_inputs(view))
    columns = [
        range(n), map(_QOS_NAMES.__getitem__, run.qos[:n]), run.origin_upf[:n],
        view.arrival.tolist(), run.assigned_upf[:n], run.assigned_mec[:n],
        map(_STATUS_NAMES.__getitem__, view.status.tolist()),
        *map(_cells, (*view.delays(np.ones(n, np.bool_)), *proj)),
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        w.writerows(zip(*columns))


def write_trace_csv(run: SimulationRun, path: str, view: Optional[RunView] = None) -> None:
    """One row per epoch: its ``EpochReport`` counters, then every queue's length at its end.

    The lengths are ``RunView.queue_lengths``, derived from the record;
    ``view`` is the run's ``RunView`` if the caller built one already.
    """
    if view is None:
        view = RunView(run)
    counters = [f.name for f in fields(EpochReport)]
    cols = (
        counters
        + [f"upf{i}.{q.value}.queue" for i in range(1, len(run.upfs) + 1) for q in REPORT_CLASSES]
        + [f"mec{j}.queue" for j in range(1, len(run.mecs) + 1)]
    )
    rows = np.array(list(map(attrgetter(*counters), run.epoch_reports)),
                    np.int64).reshape(-1, len(counters))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        w.writerows(np.hstack([rows, *view.queue_lengths()]).tolist())


def write_capex_csv(points: Sequence[CapexPoint], path: str) -> None:
    qos_cols = sorted({q for p in points for q in p.pct_under_threshold}, key=lambda q: q.value)
    cols = ["pairs", "scheme", "completed", "dropped"] + [
        f"pct_{q.value}_under_threshold" for q in qos_cols
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for p in sorted(points, key=lambda p: (p.pairs, p.scheme)):
            row = [p.pairs, p.scheme, p.completed, p.dropped]
            row += [_fmt(p.pct_under_threshold.get(q)) for q in qos_cols]
            w.writerow(row)
