"""Domain model for a two-tier private-5G data plane.

A deployment is a set of user plane functions (UPFs) and co-located edge
compute hosts (MECs) joined by a full mesh of links.  Each UPF partitions
its packet-processing capacity into per-QoS buckets; each MEC serves a
single FCFS queue.  A Scenario is the static description (topology,
capacities, traffic law); the mutable state that the engine evolves epoch
by epoch is one ServiceQueue per UPF bucket and per MEC, so one queue
cap, one service law and one price table cover both tiers.  A queue's cap
is the one its scenario states, and a queue it states none for is
unbounded.

Scenario files are single YAML documents.  ``load_scenario`` and
``save_scenario`` round-trip a Scenario losslessly.  A scenario lists each UPF
and each MEC once: the counts are the lists' lengths, and a record is named
by its position from 1.  Reading keeps a value of the wrong type or shape for
validation to name, and refuses only a missing required key and an
unknown key.  Validation runs when a run is built, not at load time, since
``run --scheme`` replaces the scheme after the load.
"""

from __future__ import annotations

import enum
import math
import os
from collections import deque
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache, partial
from itertools import chain
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

import yaml

from .delay import projected_delay
from .schemes import SCHEMES


class ScenarioError(ValueError):
    """Raised when a scenario fails validation."""


class QosClass(enum.Enum):
    """Service classes. Regular traffic is handled entirely at the UPF."""

    URLLC = "urllc"
    EMBB = "embb"
    MMTC = "mmtc"
    REGULAR = "regular"

    # Enum.__hash__ is a Python-level function hashing the member name, and
    # building a run and validating a scenario hash classes in bulk: without
    # this, SimulationRun on metro at 50 pairs took 2.20 ms, not 1.97, and
    # validate_scenario 600 µs, not 565 (least of 8 rounds, 2-vCPU host,
    # Python 3.11).  Members are singletons compared by identity, so the C
    # identity hash agrees with ==; no output iterates a set of classes
    # unsorted.
    __hash__ = object.__hash__

    def __init__(self, value: str) -> None:
        # a plain member attribute: every admission reads it, and a property
        # on an enum costs a descriptor call per read
        self.uses_mec = value != "regular"


# a class's code is its index here, the order of the qos_mix weights each
# epoch's class draw indexes; a run's ``qos`` column holds one code per byte
QOS_BY_CODE = tuple(QosClass)


class Scheme(enum.Enum):
    """Request-to-resource assignment policies."""

    BASELINE = "baseline"
    BESTFIT_UPF_NO_PE = "bestfit_upf_no_pe"
    BESTFIT_UPF_PE = "bestfit_upf_pe"
    BESTFIT_UPF_MEC = "bestfit_upf_mec"



class RequestStatus(enum.IntEnum):
    """The stage a request's stamps place it in (``metrics.RunView.status``).

    A request waits IN_UPF_QUEUE until UPF service, is IN_TRANSIT until
    its due epoch and IN_MEC_QUEUE until MEC service, then COMPLETED (a
    ``regular`` request at the UPF), or DROPPED at admission or at the
    MEC's door.
    """

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
    qos_mix: Dict[QosClass, float] = field(default_factory=lambda: {q: 0.25 for q in QosClass})
    process: str = "poisson"  # poisson | deterministic


@dataclass
class UpfSpec:
    """Static description of one UPF as read from a scenario file."""

    # requests/epoch per QoS bucket
    capacity: Dict[QosClass, float]
    queue_cap: Optional[Dict[QosClass, int]] = None  # None: unbounded


@dataclass
class MecSpec:
    """Static description of one MEC host."""

    # requests/epoch
    capacity: float
    bytes_per_ue: float = 1500.0
    queue_cap: Optional[int] = None  # None: unbounded


@dataclass(kw_only=True)
class Scenario:
    """Complete experiment description; everything a run needs."""

    name: str
    delta_ms: float
    horizon_epochs: int
    seed: int = 0
    scheme: Scheme = Scheme.BASELINE
    traffic: TrafficSpec
    upfs: List[UpfSpec]
    mecs: List[MecSpec]
    # bandwidth of link (upf i, mec j) in Mbps, row per UPF
    link_bandwidth_mbps: List[List[float]]
    thresholds_ms: Dict[QosClass, float] = field(default_factory=dict)
    drain_cap_epochs: Optional[int] = None

    @property
    def num_upfs(self) -> int:
        """The number of UPFs listed; 0 while ``upfs`` holds no list, for validation to name."""
        return len(self.upfs) if isinstance(self.upfs, list) else 0

    @property
    def num_mecs(self) -> int:
        """The number of MECs listed; 0 while ``mecs`` holds no list, for validation to name."""
        return len(self.mecs) if isinstance(self.mecs, list) else 0


# ---------------------------------------------------------------- runtime state


class InvariantError(RuntimeError):
    """A structural invariant broke mid-run; the run is aborted."""


class CostVector:
    """Prices of a row of queues that keeps the index of its first minimum.

    ``best`` is always ``prices.index(min(prices))``, the index numpy's
    ``argmin`` would return: the lowest index wins a tie.  A run makes two
    writes only, and each keeps ``best`` exact without a general update:
    ``raise_best`` writes the best entry and rescans, since a bestfit
    admission joins the best queue, whose price cannot fall; ``lower``
    writes any entry with a price no higher than its own, as service and a
    drop at a MEC's door shorten a queue, so only that entry can become best.

    ``floor`` is the lowest price any entry can take, and the constructor
    refuses a price below it (or NaN).  A queue's price is
    ``projected_delay``, which is δ below the headroom and δ plus a
    non-negative term above it, in IEEE arithmetic too, so a run's floor is
    its δ.  ``at_floor`` is ``prices[best] == floor``; it can change only
    where ``best`` does, so it is kept there: at build, in ``lower`` when
    the lowered entry takes best, and in ``raise_best``.  A raise of a best
    at the floor is then a search for the next floor tie: ``best`` is the
    first minimum, so every entry before it is priced above the floor, and
    the new best is the first floor entry at or after it, if one is left.
    Only when the last floor entry leaves, or best was above the floor
    already, is the rescan a full ``min``; such a raise leaves
    ``at_floor`` False, since a raise makes no floor entry.  Reading the
    flag, not comparing ``prices[best]`` with the floor, keeps a raise from
    above the floor as cheap as the rescan alone.
    """

    __slots__ = ("prices", "best", "floor", "at_floor")

    def __init__(self, prices: Sequence[float], floor: float) -> None:
        self.prices: List[float] = list(prices)
        if not all(p >= floor for p in self.prices):
            raise ValueError(f"a price is below the floor {floor} or NaN: {self.prices}")
        self.floor = floor
        self.best = self.prices.index(min(self.prices))
        self.at_floor = self.prices[self.best] == floor

    def raise_best(self, price: float) -> None:
        """Write the best entry's new price, no lower than its old one."""
        prices = self.prices
        prices[self.best] = price
        if not self.at_floor:
            self.best = prices.index(min(prices))
        elif self.floor in prices:
            # the first floor entry: best itself (an equal price) or one after it
            self.best = prices.index(self.floor, self.best)
        else:
            self.at_floor = False
            self.best = prices.index(min(prices))

    def lower(self, i: int, price: float) -> None:
        """Write entry i's new price, no higher than its old one."""
        prices = self.prices
        best = self.best
        # read before the write, so that lowering best itself takes best again
        low = prices[best]
        prices[i] = price
        if price < low or (price == low and i < best):
            self.best = i
            self.at_floor = price == self.floor


class LawTable(dict):
    """A law's values by key, each made by the law when first read.

    ``table[n]`` is ``law(n)``: a missing key runs the law, which checks
    its argument, and stores what it returns, so a refused key leaves no
    entry and every later read of a stored one is a dict lookup.
    """

    __slots__ = ("law",)

    def __init__(self, law: Callable[[int], Any]) -> None:
        self.law = law

    def __missing__(self, n: int) -> Any:
        self[n] = value = self.law(n)
        return value


@lru_cache(maxsize=256)
def price_table(capacity: float, delta: float) -> LawTable:
    """The law ``(capacity, delta)``'s one price table: ``projected_delay(q, c, c, delta)`` by q."""
    c, delta = float(capacity), float(delta)
    return LawTable(lambda q: projected_delay(q, c, c, delta))


@dataclass(slots=True)
class ServiceQueue:
    """FCFS queue served at `capacity` requests per epoch: a UPF QoS bucket or a MEC.

    `queue` holds request ids, the rows of the run's record.  `credit`
    carries a fractional capacity across epochs while the queue stays
    non-empty.  `pending` counts requests assigned here and admitted
    upstream but not yet arrived, so later decisions see them; only a MEC
    counts them, so the engine prices a UPF bucket at ``len(queue)``.

    `table[q]` is the price of joining at q = ``len(queue) + pending``:
    ``delay.projected_delay(q, capacity, capacity, delta)``, with headroom
    = capacity because service runs after admission in every epoch, so no
    request is in service while decisions are made.  The capacity (checked
    > 0 and finite) and the epoch length `delta` are fixed at build, so the
    table is their law's (``price_table``) for the life of the process.
    The table makes entry q, a float, with the law's checks, when a queue
    of the law is first priced at q; every later price is a lookup.  The
    law refuses a negative q, so it makes no entry.
    """

    capacity: float
    queue_cap: int
    delta: float
    queue: Deque[int] = field(init=False, default_factory=deque)
    credit: float = field(init=False, default=0.0)
    pending: int = field(init=False, default=0)
    table: LawTable = field(init=False)
    # ceil(capacity), the most one epoch's service may pop
    ceiling: int = field(init=False, default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.capacity < math.inf:
            raise ValueError(f"capacity must be > 0 and finite, got {self.capacity}")
        self.ceiling = math.ceil(self.capacity)
        self.table = price_table(self.capacity, self.delta)

    def price(self) -> float:
        """Projected delay of joining this queue now, ms."""
        return self.table[len(self.queue) + self.pending]

    def serve(self) -> int:
        """This epoch's service, up to int(credit + capacity) requests: how many to pop.

        The caller pops that many ids from the head of ``queue``.  The
        credit left over carries to the next epoch only if the queue stays
        non-empty after those pops.  More than ``ceiling`` in one epoch
        raises ``InvariantError``.
        """
        queue_len = len(self.queue)
        credit = self.credit + self.capacity
        n = int(credit)
        if n < queue_len:
            self.credit = credit - n
        else:
            n = queue_len
            self.credit = 0.0
        if n > self.ceiling:
            raise InvariantError(f"served {n} over capacity {self.capacity}")
        return n


# ---------------------------------------------------------------- scenario files

_QOS_BY_NAME = {q.value: q for q in QosClass}
_QOS_SET = frozenset(QosClass)
_SCHEME_BY_NAME = {m.value: m for m in Scheme}


def _number(x) -> bool:
    """x is an int or a float; bools, strings such as "1" and None are not."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _positive(x) -> bool:
    """x is a finite number > 0; NaN, +-inf and non-numbers fail."""
    return _number(x) and 0.0 < x < math.inf


def _non_negative(x) -> bool:
    """x is a finite number >= 0; NaN, +-inf and non-numbers fail."""
    return _number(x) and 0.0 <= x < math.inf


def _count(x) -> bool:
    """x is an int >= 0; bools and whole floats such as 5.0 are not."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _whole(x) -> bool:
    """x is a finite whole number >= 1, as a queue capacity must be."""
    return _number(x) and 1 <= x < math.inf and x == math.floor(x)


def _listed(v):
    """A list, string or map as a list (validation refuses characters and keys), else v."""
    return list(v) if isinstance(v, (list, str, dict)) else v


# Readers take a document value, the map that holds it and its label, and
# keep a value of the wrong shape as it is, for validation to name.


def _qos_keyed(v, doc, where):
    """A map keyed by QoS class names as one keyed by the classes; null is the default."""
    if v is None:
        return MISSING
    return {_QOS_BY_NAME.get(k, k): x for k, x in v.items()} if isinstance(v, dict) else v


def _scheme(v, doc, where):
    return _SCHEME_BY_NAME.get(v, v) if isinstance(v, str) else v


def _record(cls, v, doc, where):
    return _read(cls, v, where + ".") if isinstance(v, dict) else v


def _records(cls, v, doc, where):
    """A list of records, the one at position i labelled ``where[i]``."""
    rows = _listed(v)
    if not isinstance(rows, list):
        return rows
    return [_record(cls, x, doc, f"{where}[{i}]") for i, x in enumerate(rows)]


def _matrix(v, doc, where):
    """A row per UPF; a flat list is the row of every UPF the document lists."""
    rows, upfs = _listed(v), doc.get("upfs")
    if isinstance(rows, list) and rows and not isinstance(rows[0], list) and isinstance(upfs, list):
        return [list(rows) for _ in upfs]
    return rows


# Each record's document keys in document order, each with the function that
# reads its value or None, which keeps it as it is.  A dotted key lies under
# a map, and an absent one reads as null.
_KEYS: Dict[type, Dict[str, Optional[Callable]]] = {
    TrafficSpec: {"mean_arrivals_per_epoch": None, "process": None,
                  "skew": lambda v, doc, where: _listed(v), "qos_mix": _qos_keyed},
    UpfSpec: {"capacity": _qos_keyed, "queue_cap": _qos_keyed},
    MecSpec: {"bytes_per_ue": None, "capacity": None, "queue_cap": None},
}
_KEYS[Scenario] = {
    "name": None, "delta_ms": None, "horizon_epochs": None, "seed": None, "scheme": _scheme,
    "drain_cap_epochs": None, "traffic": partial(_record, TrafficSpec),
    "thresholds_ms": _qos_keyed, "upfs": partial(_records, UpfSpec),
    "mecs": partial(_records, MecSpec), "links.bandwidth_mbps": _matrix,
}
# the field a key holds, where its name differs
_FIELD = {"links.bandwidth_mbps": "link_bandwidth_mbps"}
# the keys a record's map may hold: its keys' heads
_HEADS = {cls: {key.partition(".")[0] for key in keys} for cls, keys in _KEYS.items()}
# the fields the dataclass gives no default, looked up once per class
_REQUIRED = {
    cls: {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    for cls in _KEYS
}


def _read(cls, doc: dict, where: str):
    """The record of class cls that a document map describes.

    A required key the map lacks, or a key its table does not list (a
    misspelt key would otherwise leave its field at the default), is a
    ScenarioError that names it.  An omitted key takes the dataclass's
    default.
    """
    keys = _KEYS[cls]
    unknown = []
    for k, v in doc.items():
        if k not in _HEADS[cls]:
            unknown.append(f"{where}{k}")
        elif k not in keys and isinstance(v, dict):
            # the map a dotted key lies under
            unknown += [f"{where}{k}.{sub}" for sub in v if f"{k}.{sub}" not in keys]
    if unknown:
        noun = "unknown keys" if len(unknown) > 1 else "unknown key"
        raise ScenarioError(f"{noun} {', '.join(unknown)}")
    record = {}
    for key, read in keys.items():
        head, _, sub = key.partition(".")
        v = doc.get(head, MISSING)
        if sub:
            v = v.get(sub) if isinstance(v, dict) else None
        if v is not MISSING and read:
            v = read(v, doc, where + key)
        attr = _FIELD.get(key, key)
        if v is not MISSING:
            record[attr] = v
        elif attr in _REQUIRED[cls]:
            raise ScenarioError(f"{where}{key} is missing")
    return cls(**record)


def _write(record) -> dict:
    """The document map of a record; fields holding None are left out."""
    doc: dict = {}
    for key in _KEYS[type(record)]:
        v = getattr(record, _FIELD.get(key, key))
        if v is not None:
            head, _, sub = key.partition(".")
            if sub:
                doc.setdefault(head, {})[sub] = _plain(v)
            else:
                doc[key] = _plain(v)
    return doc


def _plain(v):
    """v as a document holds it: records as maps, QoS classes and schemes by name."""
    if isinstance(v, list):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {q.value: v[q] for q in QosClass if q in v}
    if isinstance(v, enum.Enum):
        return v.value
    return _write(v) if type(v) in _KEYS else v


def _covers(m, some: bool = False) -> bool:
    """m is a map keyed by all four QoS classes or, if some, by any of them."""
    return isinstance(m, dict) and (m.keys() <= _QOS_SET if some else m.keys() == _QOS_SET)


def _shares(out: List[str], label: str, shares: list) -> None:
    """Append what breaks the shares rule: each >= 0 and finite, summing to 1 within 1e-6."""
    if not all(map(_non_negative, shares)):
        out.append(f"{label} has negative, non-finite or non-numeric entries")
    if all(map(_number, shares)) and not math.isclose(sum(shares), 1.0, rel_tol=0.0, abs_tol=1e-6):
        out.append(f"{label} sums to {sum(shares):g}, expected 1.0")


def _each_record(out: List[str], rows, cls, noun: str) -> list:
    """(label, record) of each record in rows, after appending what breaks the
    record-list rule: rows is a non-empty list of records.  The record at
    position k from 1 is labelled ``"<noun> k: "``."""
    if not (isinstance(rows, list) and rows and all(isinstance(x, cls) for x in rows)):
        out.append(f"{noun}s must be a non-empty list of {noun.upper()} records")
    rows = rows if isinstance(rows, list) else ()
    return [(f"{noun} {k}: ", x) for k, x in enumerate(rows, 1) if isinstance(x, cls)]


def validate_scenario(s: Scenario) -> List[str]:
    """Return the full list of violated invariants; empty means valid.

    Fields are checked in document order, a record's own fields after it.
    The name and the seed stem the report files: at most 200 bytes of name
    and a seed below 2**64 keep every file name within 255 bytes, the
    longest adding ``.bestfit_upf_no_pe.<20 digits>.summary.json``.  A
    scheme that reads no MEC cost vector (``SCHEMES``) names its MEC by a
    UPF id, so it needs as many UPFs as MECs.
    """
    v: List[str] = []
    name = s.name
    if not (isinstance(name, str) and name not in ("", ".", "..") and "/" not in name):
        # the name stems the output files, which must stay inside --out
        v.append("name must be a non-empty string without '/', and not '.' or '..'")
    elif "\0" in name:
        v.append("name must not hold a NUL character")
    else:
        try:
            size = len(os.fsencode(name))
        except UnicodeEncodeError:
            v.append("name must be encodable as a file name")
        else:
            if size > 200:
                v.append(f"name is {size} bytes as a file name, at most 200 allowed")
    if not _positive(s.delta_ms):
        v.append("delta_ms must be > 0 and finite")
    if not _count(s.horizon_epochs):
        v.append("horizon_epochs must be an integer >= 0")
    if not _count(s.seed):
        v.append("seed must be an integer >= 0")
    elif s.seed >= 2**64:
        v.append("seed must be below 2**64")
    if not isinstance(s.scheme, Scheme):
        v.append(f"scheme {s.scheme!r} unknown ({'|'.join(_SCHEME_BY_NAME)})")
    if s.drain_cap_epochs is not None and not _count(s.drain_cap_epochs):
        v.append("drain_cap_epochs must be an integer >= 0")

    t = s.traffic
    if not isinstance(t, TrafficSpec):
        v.append("traffic must be a map of the arrival law")
    else:
        if not _non_negative(t.mean_arrivals_per_epoch):
            v.append("traffic.mean_arrivals_per_epoch must be >= 0 and finite")
        if t.process not in ("poisson", "deterministic"):
            v.append(f"traffic.process {t.process!r} unknown (poisson|deterministic)")
        if not isinstance(t.skew, list):
            v.append("traffic.skew must be a list of one share per UPF")
        elif len(t.skew) != s.num_upfs:
            v.append(f"traffic.skew has {len(t.skew)} entries, expected one per UPF ({s.num_upfs})")
        else:
            _shares(v, "traffic.skew", t.skew)
        if not _covers(t.qos_mix):
            v.append("traffic.qos_mix must cover exactly the four QoS classes")
        else:
            _shares(v, "traffic.qos_mix", [t.qos_mix[q] for q in QosClass])

    thresholds = s.thresholds_ms
    if not _covers(thresholds, some=True):
        v.append("thresholds_ms must be a map of QoS classes to thresholds")
    else:
        bad = [q.value for q in QosClass if q in thresholds and not _positive(thresholds[q])]
        if bad:
            v.append(f"thresholds_ms[{', '.join(bad)}] must be > 0 and finite")

    for at, u in _each_record(v, s.upfs, UpfSpec, "upf"):
        if not _covers(u.capacity):
            v.append(f"{at}capacity must cover all four QoS classes")
        elif not all(map(_positive, u.capacity.values())):
            v.append(f"{at}capacity entries must be > 0 and finite")
        if u.queue_cap is not None and not _covers(u.queue_cap):
            v.append(f"{at}queue_cap must cover all four QoS classes")
        elif u.queue_cap is not None and not all(map(_whole, u.queue_cap.values())):
            v.append(f"{at}queue_cap entries must be whole numbers >= 1")
    for at, m in _each_record(v, s.mecs, MecSpec, "mec"):
        if not _positive(m.bytes_per_ue):
            v.append(f"{at}bytes_per_ue must be > 0 and finite")
        if not _positive(m.capacity):
            v.append(f"{at}capacity must be > 0 and finite")
        if m.queue_cap is not None and not _whole(m.queue_cap):
            v.append(f"{at}queue_cap must be a whole number >= 1")

    rows = s.link_bandwidth_mbps
    if not isinstance(rows, list) or len(rows) != s.num_upfs or any(
        not isinstance(row, list) or len(row) != s.num_mecs for row in rows
    ):
        v.append(f"link_bandwidth_mbps must be a {s.num_upfs}x{s.num_mecs} matrix "
                 "(row per UPF, column per MEC)")
    else:
        entries = list(chain.from_iterable(rows))
        # all(map(_positive, entries)) at C speed when every entry is an exact int or float
        if set(map(type, entries)) <= {int, float}:
            ok = all(map((0.0).__lt__, entries)) and all(map(math.inf.__gt__, entries))
        else:
            ok = all(map(_positive, entries))
        if not ok:
            v.append("link bandwidths must be > 0 and finite")

    if (isinstance(s.scheme, Scheme) and not SCHEMES[s.scheme.value][2]
            and s.num_upfs != s.num_mecs):
        v.append(
            f"scheme {s.scheme.value} routes through co-located MECs and requires "
            f"as many UPFs as MECs (got {s.num_upfs} UPFs, {s.num_mecs} MECs)"
        )
    return v


def scenario_to_dict(s: Scenario) -> dict:
    """Plain-dict form of a scenario, ready for YAML emission; None fields are left out."""
    return _write(s)


def scenario_from_dict(doc: dict) -> Scenario:
    """Inverse of scenario_to_dict; omitted optional keys take their defaults.

    A value of the wrong shape is kept as read, for validate_scenario to
    list; a missing required key or an unknown key is a ScenarioError that
    names it.
    """
    return _read(Scenario, doc, "")


class _ScenarioLoader(yaml.SafeLoader):
    """``yaml.safe_load``'s loader, refusing a key given twice in one mapping
    (PyYAML keeps the last value: the file would run on one of the two)."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # a merge key (<<) and an unhashable key are the base loader's to read
            if not isinstance(key_node, yaml.ScalarNode) or key_node.tag.endswith(":merge"):
                continue
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise ScenarioError(
                    f"key {key} given twice, again at line {key_node.start_mark.line + 1}")
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load_scenario(path: str) -> Scenario:
    """The scenario in a YAML file.

    A missing file is a ``FileNotFoundError``.  A path that cannot be read
    as a file (a directory, say), a file that is not UTF-8 text and a file
    that is not YAML are each a one-line ValueError naming the path; a key
    given twice in one mapping is a ScenarioError naming the path.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ValueError(f"{path}: cannot read the scenario file: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: not UTF-8 text: byte {data[exc.start]:#04x} at offset {exc.start}"
        ) from None
    try:
        doc = yaml.load(text, _ScenarioLoader)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    except yaml.YAMLError as exc:
        # a parser error says where it stopped; any other error's text
        # is joined into one line
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ValueError(f"{path}: not valid YAML{at}: {problem}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: not a scenario document")
    try:
        return scenario_from_dict(doc)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def save_scenario(s: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(s), fh, sort_keys=False)
