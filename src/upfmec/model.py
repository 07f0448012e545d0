"""Domain model for a two-tier private-5G data plane.

A deployment is a set of user plane functions (UPFs) and co-located edge
compute hosts (MECs) joined by a full mesh of links.  Each UPF partitions
its packet-processing capacity into per-QoS buckets; each MEC serves a
single FCFS queue.  A Scenario is the static description (topology,
capacities, traffic law); the mutable state that the engine evolves epoch
by epoch is one ServiceQueue per UPF bucket and per MEC, so one admission
test, one service law and one price cover both tiers.

Scenario files are single YAML documents.  ``load_scenario`` and
``save_scenario`` round-trip a Scenario losslessly.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import yaml


class ScenarioError(ValueError):
    """Raised when a scenario fails validation."""


class QosClass(enum.Enum):
    """Service classes. Regular traffic is handled entirely at the UPF."""

    URLLC = "urllc"
    EMBB = "embb"
    MMTC = "mmtc"
    REGULAR = "regular"

    # Enum.__hash__ is a Python-level function hashing the member name, and
    # the engine looks buckets up by class on every admission and service
    # step.  Members are singletons compared by identity, so the C identity
    # hash agrees with ==; no output iterates a set of classes unsorted.
    __hash__ = object.__hash__

    def __init__(self, value: str) -> None:
        # a plain member attribute: every admission reads it, and a property
        # on an enum costs a descriptor call per read
        self.uses_mec = value != "regular"


class Scheme(enum.Enum):
    """Request-to-resource assignment policies."""

    BASELINE = "baseline"
    BESTFIT_UPF_NO_PE = "bestfit_upf_no_pe"
    BESTFIT_UPF_PE = "bestfit_upf_pe"
    BESTFIT_UPF_MEC = "bestfit_upf_mec"


# schemes that route a request to the MEC co-located with some UPF and
# therefore only make sense when the deployment pairs them one-to-one
CO_LOCATED_SCHEMES = (Scheme.BASELINE, Scheme.BESTFIT_UPF_NO_PE, Scheme.BESTFIT_UPF_PE)


class RequestStatus(enum.IntEnum):
    """Lifecycle of a request; transitions are monotone.

    A request moves one stage at a time, PENDING to IN_UPF_QUEUE to
    IN_TRANSIT to IN_MEC_QUEUE to COMPLETED (a ``regular`` request completes
    at the UPF), and can end as DROPPED at admission or at the MEC's door.
    """

    PENDING = 0
    IN_UPF_QUEUE = 1
    IN_TRANSIT = 2
    IN_MEC_QUEUE = 3
    COMPLETED = 4
    DROPPED = 5


@dataclass
class TrafficSpec:
    """Arrival law: global rate, origin skew and per-QoS composition."""

    mean_arrivals_per_epoch: float
    skew: List[float]
    qos_mix: Dict[QosClass, float]
    process: str = "poisson"  # poisson | deterministic


@dataclass
class UpfSpec:
    """Static description of one UPF as read from a scenario file."""

    id: int
    # direct mode: requests/epoch per QoS bucket
    capacity: Optional[Dict[QosClass, float]] = None
    # derived mode: capacity[q] = etpb * bytes_per_ue * 8 * alpha[q] / delta
    etpb: Optional[float] = None
    bytes_per_ue: float = 256.0
    alpha: Optional[Dict[QosClass, float]] = None
    queue_cap: Optional[Dict[QosClass, int]] = None


@dataclass
class MecSpec:
    """Static description of one MEC host."""

    id: int
    capacity: Optional[float] = None
    etpb: Optional[float] = None
    bytes_per_ue: float = 1500.0
    queue_cap: Optional[int] = None


@dataclass
class Scenario:
    """Complete experiment description; everything a run needs."""

    name: str
    num_upfs: int
    num_mecs: int
    delta_ms: float
    horizon_epochs: int
    seed: int
    scheme: Scheme
    traffic: TrafficSpec
    upfs: List[UpfSpec]
    mecs: List[MecSpec]
    # bandwidth of link (upf i, mec j) in Mbps, row per UPF
    link_bandwidth_mbps: List[List[float]]
    thresholds_ms: Dict[QosClass, float] = field(default_factory=dict)
    headroom_factor: float = 10.0
    drain_cap_epochs: Optional[int] = None


# ---------------------------------------------------------------- runtime state


class InvariantError(RuntimeError):
    """A structural invariant broke mid-run; the run is aborted."""


class CostVector:
    """Prices of a row of queues that keeps the index of its first minimum.

    ``best`` is always ``prices.index(min(prices))``, the index numpy's
    ``argmin`` would return: the lowest index wins a tie.  Every write goes
    through ``set``, which keeps ``best`` exact for any sequence of point
    updates and rescans only when the best entry's price rises.  A bucket's
    price stays at one epoch until the bucket fills, so rescans are rare.
    """

    __slots__ = ("prices", "best")

    def __init__(self, prices: Sequence[float]) -> None:
        self.prices: List[float] = list(prices)
        self.best = self.prices.index(min(self.prices))

    def set(self, i: int, price: float) -> None:
        prices = self.prices
        best = self.best
        if i == best:
            rose = price > prices[i]
            prices[i] = price
            if rose:
                self.best = prices.index(min(prices))
        else:
            prices[i] = price
            low = prices[best]
            if price < low or (price == low and i < best):
                self.best = i


def check_capacity(capacity: float) -> None:
    """A service rate in requests per epoch must be > 0 and finite."""
    if not 0.0 < capacity < math.inf:
        raise ValueError(f"capacity must be > 0 and finite, got {capacity}")


@dataclass(slots=True)
class ServiceQueue:
    """FCFS queue served at `capacity` requests per epoch: a UPF QoS bucket or a MEC.

    `queue` holds request ids, the rows of the run's record.  `credit`
    carries a fractional capacity across epochs while the queue stays
    non-empty.  `pending` (non-zero only for a MEC) counts requests
    assigned here and admitted upstream but not yet arrived, so later
    assignment decisions see those commitments.

    The capacity is checked once, when the queue is built
    (`check_capacity`).  No code changes it afterwards, so `price` does not
    check it again.
    """

    capacity: float
    queue_cap: int
    queue: Deque[int] = field(init=False, default_factory=deque)
    credit: float = field(init=False, default=0.0)
    pending: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        check_capacity(self.capacity)

    def full(self) -> bool:
        """A request arriving now would be dropped."""
        return len(self.queue) >= self.queue_cap

    def price(self, delta: float) -> float:
        """Projected delay of joining this queue now, ms.

        ``delay.projected_delay`` with headroom = capacity: service runs
        after admission in every epoch, so no request is in service while
        decisions are made.  The same IEEE operations in the same order;
        the capacity was checked when the queue was built and delta is the
        run's validated epoch length, so only the queue length, which
        changes, is checked here.
        """
        q = len(self.queue) + self.pending
        if q < 0:
            raise ValueError(f"queue_len must be >= 0, got {q}")
        c = self.capacity
        if q < c:
            return delta
        return ((q + 1.0 - c) / c) * delta + delta

    def serve(self) -> int:
        """This epoch's service, up to int(credit + capacity) requests: how many to pop.

        The caller pops that many ids from the head of ``queue``.  The
        credit left over carries to the next epoch only if the queue stays
        non-empty after those pops.
        """
        queue_len = len(self.queue)
        credit = self.credit + self.capacity
        n = min(queue_len, int(credit))
        if n > math.ceil(self.capacity):
            raise InvariantError(f"served {n} over capacity {self.capacity}")
        self.credit = credit - n if queue_len > n else 0.0
        return n


@dataclass(slots=True)
class Link:
    """Directed UPF->MEC link, keyed (upf_id, mec_id) by the run.

    Bandwidth is in bits per ms.  Every transfer on it carries its MEC's
    ``bytes_per_ue``; ``sharers`` counts the transfers on it now, which the
    run's delivery calendar holds.  ``transit`` is the link's transit
    table: entry n is ``(d_net, transit epochs)`` of a transfer that enters
    as the n-th sharer, made by ``engine.transit_entry`` when n is first
    reached, so the table stays empty on a link that carries no transfer.
    Bandwidth and bytes are fixed once a transfer has entered: the table
    was computed from them.
    """

    bandwidth: float
    bytes_per_ue: float
    sharers: int = 0
    transit: Sequence[Optional[Tuple[float, int]]] = ()


# ---------------------------------------------------------------- validation

_SUM_TOL = 1e-9


def _number(x) -> bool:
    """x is an int or a float; bools, strings such as "1" and None are not."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _positive(x) -> bool:
    """x is a finite number > 0; NaN, +-inf and non-numbers fail."""
    return _number(x) and 0.0 < x < math.inf


def _non_negative(x) -> bool:
    """x is a finite number >= 0; NaN, +-inf and non-numbers fail."""
    return _number(x) and 0.0 <= x < math.inf


def _integer(x) -> bool:
    """x is an int; bools and whole floats such as 5.0 are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _ids_in_order(ids: list) -> bool:
    """ids are the ints 1..len(ids) in order ([1.0] == [1], so check types too)."""
    return all(_integer(i) for i in ids) and ids == list(range(1, len(ids) + 1))


def _whole(x) -> bool:
    """x is a finite whole number >= 1, as a queue capacity must be."""
    return _number(x) and 1 <= x < math.inf and x == math.floor(x)


def _covers_qos(m) -> bool:
    """m is a map with exactly the four QoS classes as keys; a scalar is not."""
    return isinstance(m, dict) and set(m) == set(QosClass)


def _check_dist(values: List[float], what: str, out: List[str]) -> None:
    if not all(_non_negative(v) for v in values):
        out.append(f"{what} has negative, non-finite or non-numeric entries")
        if not all(_number(v) for v in values):
            return
    total = sum(values)
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-6):
        out.append(f"{what} sums to {total:g}, expected 1.0")


def validate_scenario(s: Scenario) -> List[str]:
    """Return the full list of violated invariants; empty means valid."""
    v: List[str] = []
    if not _integer(s.num_upfs) or s.num_upfs < 1:
        v.append("num_upfs must be an integer >= 1")
    if not _integer(s.num_mecs) or s.num_mecs < 1:
        v.append("num_mecs must be an integer >= 1")
    if not _positive(s.delta_ms):
        v.append("delta_ms must be > 0 and finite")
    if not _integer(s.horizon_epochs) or s.horizon_epochs < 0:
        v.append("horizon_epochs must be an integer >= 0")
    if not _integer(s.seed) or s.seed < 0:
        v.append("seed must be an integer >= 0")
    if not _positive(s.headroom_factor):
        v.append("headroom_factor must be > 0 and finite")
    if s.drain_cap_epochs is not None and (
        not _integer(s.drain_cap_epochs) or s.drain_cap_epochs < 0
    ):
        v.append("drain_cap_epochs must be an integer >= 0")

    t = s.traffic
    if not isinstance(t, TrafficSpec):
        v.append("traffic must be a map of the arrival law")
    else:
        if not _non_negative(t.mean_arrivals_per_epoch):
            v.append("traffic.mean_arrivals_per_epoch must be >= 0 and finite")
        if t.process not in ("poisson", "deterministic"):
            v.append(f"traffic.process {t.process!r} unknown (poisson|deterministic)")
        if len(t.skew) != s.num_upfs:
            v.append(f"traffic.skew has {len(t.skew)} entries, expected num_upfs={s.num_upfs}")
        else:
            _check_dist(t.skew, "traffic.skew", v)
        if not _covers_qos(t.qos_mix):
            v.append("traffic.qos_mix must cover exactly the four QoS classes")
        else:
            _check_dist([t.qos_mix[q] for q in QosClass], "traffic.qos_mix", v)

    if len(s.upfs) != s.num_upfs or not _ids_in_order([u.id for u in s.upfs]):
        v.append("upfs must carry ids 1..num_upfs in order")
    for u in s.upfs:
        if u.capacity is None and (u.etpb is None or u.alpha is None):
            v.append(f"upf {u.id}: needs capacity or (etpb, alpha) to derive it")
        if u.capacity is not None:
            if not _covers_qos(u.capacity):
                v.append(f"upf {u.id}: capacity must cover all four QoS classes")
            elif not all(_positive(c) for c in u.capacity.values()):
                v.append(f"upf {u.id}: capacity entries must be > 0 and finite")
        if u.alpha is not None:
            if not _covers_qos(u.alpha):
                v.append(f"upf {u.id}: alpha must cover all four QoS classes")
            else:
                bad = [
                    q.value for q in QosClass if not (_positive(u.alpha[q]) and u.alpha[q] <= 1.0)
                ]
                if bad:
                    v.append(f"upf {u.id}: alpha entries out of (0, 1]: {', '.join(bad)}")
                if all(_number(a) for a in u.alpha.values()):
                    total = sum(u.alpha.values())
                    if total > 1.0 + _SUM_TOL:
                        v.append(f"upf {u.id}: alpha sums to {total:g}, expected <= 1.0")
        if u.etpb is not None and not _positive(u.etpb):
            v.append(f"upf {u.id}: etpb must be > 0 and finite")
        if not _positive(u.bytes_per_ue):
            v.append(f"upf {u.id}: bytes_per_ue must be > 0 and finite")
        if u.queue_cap is not None:
            if not _covers_qos(u.queue_cap):
                v.append(f"upf {u.id}: queue_cap must cover all four QoS classes")
            elif not all(_whole(c) for c in u.queue_cap.values()):
                v.append(f"upf {u.id}: queue_cap entries must be whole numbers >= 1")

    if len(s.mecs) != s.num_mecs or not _ids_in_order([m.id for m in s.mecs]):
        v.append("mecs must carry ids 1..num_mecs in order")
    for m in s.mecs:
        if m.capacity is None and m.etpb is None:
            v.append(f"mec {m.id}: needs capacity or etpb to derive it")
        if m.capacity is not None and not _positive(m.capacity):
            v.append(f"mec {m.id}: capacity must be > 0 and finite")
        if m.etpb is not None and not _positive(m.etpb):
            v.append(f"mec {m.id}: etpb must be > 0 and finite")
        if not _positive(m.bytes_per_ue):
            v.append(f"mec {m.id}: bytes_per_ue must be > 0 and finite")
        if m.queue_cap is not None and not _whole(m.queue_cap):
            v.append(f"mec {m.id}: queue_cap must be a whole number >= 1")

    bw = s.link_bandwidth_mbps
    if (
        not isinstance(bw, list)
        or len(bw) != s.num_upfs
        or any(not isinstance(row, list) or len(row) != s.num_mecs for row in bw)
    ):
        v.append(
            f"link_bandwidth_mbps must be a {s.num_upfs}x{s.num_mecs} matrix "
            "(row per UPF, column per MEC)"
        )
    elif not all(_positive(b) for row in bw for b in row):
        v.append("link bandwidths must be > 0 and finite")

    if not isinstance(s.thresholds_ms, dict):
        v.append("thresholds_ms must be a map of QoS classes to thresholds")
    else:
        for q, thr in s.thresholds_ms.items():
            if not _positive(thr):
                v.append(f"thresholds_ms[{q.value}] must be > 0 and finite")

    if s.scheme in CO_LOCATED_SCHEMES and s.num_upfs != s.num_mecs:
        v.append(
            f"scheme {s.scheme.value} routes through co-located MECs and "
            f"requires num_upfs == num_mecs (got {s.num_upfs} != {s.num_mecs})"
        )
    return v


# ---------------------------------------------------------------- serialization


def _qos_map_to_dict(m: Optional[Dict[QosClass, float]]) -> Optional[dict]:
    if m is None:
        return None
    return {q.value: m[q] for q in QosClass if q in m}


def _qos_map_from_dict(d):
    """A per-QoS map keyed by class; anything but a map is kept for validation to list."""
    if not isinstance(d, dict):
        return d
    return {QosClass(k): v for k, v in d.items()}


def scenario_to_dict(s: Scenario) -> dict:
    """Plain-dict form of a scenario, ready for YAML emission."""
    doc = {
        "name": s.name,
        "num_upfs": s.num_upfs,
        "num_mecs": s.num_mecs,
        "delta_ms": s.delta_ms,
        "horizon_epochs": s.horizon_epochs,
        "seed": s.seed,
        "scheme": s.scheme.value,
        "headroom_factor": s.headroom_factor,
        "drain_cap_epochs": s.drain_cap_epochs,
        "traffic": {
            "mean_arrivals_per_epoch": s.traffic.mean_arrivals_per_epoch,
            "process": s.traffic.process,
            "skew": list(s.traffic.skew),
            "qos_mix": _qos_map_to_dict(s.traffic.qos_mix),
        },
        "thresholds_ms": _qos_map_to_dict(s.thresholds_ms) or {},
        "upfs": [],
        "mecs": [],
        "links": {"bandwidth_mbps": [list(row) for row in s.link_bandwidth_mbps]},
    }
    for u in s.upfs:
        entry: dict = {"id": u.id, "bytes_per_ue": u.bytes_per_ue}
        if u.capacity is not None:
            entry["capacity"] = _qos_map_to_dict(u.capacity)
        if u.etpb is not None:
            entry["etpb"] = u.etpb
        if u.alpha is not None:
            entry["alpha"] = _qos_map_to_dict(u.alpha)
        if u.queue_cap is not None:
            entry["queue_cap"] = _qos_map_to_dict(u.queue_cap)
        doc["upfs"].append(entry)
    for m in s.mecs:
        entry = {"id": m.id, "bytes_per_ue": m.bytes_per_ue}
        if m.capacity is not None:
            entry["capacity"] = m.capacity
        if m.etpb is not None:
            entry["etpb"] = m.etpb
        if m.queue_cap is not None:
            entry["queue_cap"] = m.queue_cap
        doc["mecs"].append(entry)
    return doc


def scenario_from_dict(doc: dict) -> Scenario:
    """Inverse of scenario_to_dict; tolerates omitted optional keys.

    A scalar where a map or a row is expected is kept as read, for
    validate_scenario to list.
    """
    traffic = doc["traffic"]
    if isinstance(traffic, dict):
        mix = _qos_map_from_dict(traffic.get("qos_mix"))
        if mix is None:
            mix = {q: 0.25 for q in QosClass}
        traffic = TrafficSpec(
            mean_arrivals_per_epoch=traffic["mean_arrivals_per_epoch"],
            skew=list(traffic["skew"]),
            qos_mix=mix,
            process=traffic.get("process", "poisson"),
        )
    upfs = [
        UpfSpec(
            id=u["id"],
            capacity=_qos_map_from_dict(u.get("capacity")),
            etpb=u.get("etpb"),
            bytes_per_ue=u.get("bytes_per_ue", 256.0),
            alpha=_qos_map_from_dict(u.get("alpha")),
            queue_cap=_qos_map_from_dict(u.get("queue_cap")),
        )
        for u in doc["upfs"]
    ]
    mecs = [
        MecSpec(
            id=m["id"],
            capacity=m.get("capacity"),
            etpb=m.get("etpb"),
            bytes_per_ue=m.get("bytes_per_ue", 1500.0),
            queue_cap=m.get("queue_cap"),
        )
        for m in doc["mecs"]
    ]
    links = doc["links"]
    bw = links.get("bandwidth_mbps") if isinstance(links, dict) else None
    if bw is not None and bw and not isinstance(bw[0], list):
        # per-MEC list shorthand: same bandwidth from every UPF
        bw = [list(bw) for _ in range(doc["num_upfs"])]
    return Scenario(
        name=doc["name"],
        num_upfs=doc["num_upfs"],
        num_mecs=doc["num_mecs"],
        delta_ms=doc["delta_ms"],
        horizon_epochs=doc["horizon_epochs"],
        seed=doc.get("seed", 0),
        scheme=Scheme(doc.get("scheme", "baseline")),
        traffic=traffic,
        upfs=upfs,
        mecs=mecs,
        link_bandwidth_mbps=bw,
        thresholds_ms=_qos_map_from_dict(doc.get("thresholds_ms")) or {},
        headroom_factor=doc.get("headroom_factor", 10.0),
        drain_cap_epochs=doc.get("drain_cap_epochs"),
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: not a scenario document")
    try:
        return scenario_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: malformed scenario ({exc})") from exc


def save_scenario(s: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(s), fh, sort_keys=False)
