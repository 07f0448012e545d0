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
``save_scenario`` round-trip a Scenario losslessly.  One table per record
type (``_SCENARIO``, ``_TRAFFIC``, ``_UPF``, ``_MEC``) lists its fields in
document order, each with its document key, kind and violation messages;
``scenario_from_dict``, ``validate_scenario`` and ``scenario_to_dict`` all
walk those tables, and the few rules that join fields follow in
``validate_scenario``.  Defaults live on the dataclasses and are read
through ``dataclasses.fields``; a table gives one only for a missing
bandwidth matrix, which the dataclass requires.  A scenario lists each UPF
and each MEC once: the counts are the lists' lengths, and a record is named
by its position from 1.  Reading keeps a value of the wrong type or shape for
validation to name, and refuses only a missing required key and a key no
table lists.  Validation runs when a run is built, not at load time, since
``run --scheme`` replaces the scheme after the load.
"""

from __future__ import annotations

import copy
import enum
import math
from collections import deque
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
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


# ---------------------------------------------------------------- scenario schema
#
# A table entry is a field kind: it reads its field from a document and
# names the messages its value violates.  _Schema walks a table to read,
# check or write a record.

_QOS_BY_NAME = {q.value: q for q in QosClass}
_QOS_SET = frozenset(QosClass)


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


def _whole(x) -> bool:
    """x is a finite whole number >= 1, as a queue capacity must be."""
    return _number(x) and 1 <= x < math.inf and x == math.floor(x)


def _listed(v):
    """A list, string or map as a list (validation refuses characters and keys), else v."""
    return list(v) if isinstance(v, (list, str, dict)) else v


class _Value:
    """A field holding a plain value that must pass ``ok``, else message ``bad``.

    ``key`` is the dotted document path where it differs from ``attr``;
    ``default`` serves a field whose dataclass declares none.  Messages are
    templates given the label ``f``, the value ``v``, the scenario ``s`` and
    the problem's arguments.  A kind with entries checks each with ``ok``
    (message ``bad``, {bad} naming those that fail) and a sum of numbers
    with ``total`` (message ``sum``, {total}).
    """

    def __init__(self, attr, ok=None, total=None, key=None, default=MISSING, **messages):
        self.attr, self.ok, self.total, self.messages = attr, ok, total, messages
        self.path = (key or attr).split(".")
        self.default, self.optional = default, False  # bound by _Schema

    def read(self, v, doc, where):
        """The value held for document value v; MISSING stands for the default."""
        return v

    def problems(self, v, s):
        """(message name, format arguments) of each violation of v."""
        return () if self.ok(v) else (("bad", {}),)

    def entries(self, values, names):
        """Problems of the entries values, named by names: each passes ok, their sum total."""
        out = []
        if not all(map(self.ok, values)):
            bad = [str(n) for n, x in zip(names, values) if not self.ok(x)]
            out.append(("bad", {"bad": ", ".join(bad)}))
        if self.total and all(map(_number, values)) and not self.total(sum(values)):
            out.append(("sum", {"total": sum(values)}))
        return out


class _Choice(_Value):
    """One of the values of the map ``ok``, read from its name; else message ``bad`` ({names})."""

    def read(self, v, doc, where):
        return self.ok.get(v, v) if isinstance(v, str) else v

    def problems(self, v, s):
        return () if v in self.ok.values() else (("bad", {"names": "|".join(self.ok)}),)


class _QosMap(_Value):
    """Entries keyed by QoS class, all four or, if ``some``, any of them; a null
    reads as the default.  Another shape is message ``shape``."""

    def __init__(self, attr, ok, total=None, some=False, **kwargs):
        super().__init__(attr, ok, total, **kwargs)
        self.some = some

    def read(self, v, doc, where):
        if v is None:
            return MISSING
        return {_QOS_BY_NAME.get(k, k): x for k, x in v.items()} if isinstance(v, dict) else v

    def problems(self, v, s):
        if not isinstance(v, dict) or not (
            v.keys() <= _QOS_SET if self.some else v.keys() == _QOS_SET
        ):
            return (("shape", {}),)
        if self.total is None and all(map(self.ok, v.values())):
            return ()
        present = [q for q in QosClass if q in v]
        return self.entries([v[q] for q in present], [q.value for q in present])


class _PerUpf(_Value):
    """A list of one entry per UPF: message ``shape`` if not a list, ``length`` ({n})."""

    def read(self, v, doc, where):
        return _listed(v)

    def problems(self, v, s):
        if not isinstance(v, list):
            return (("shape", {}),)
        if len(v) != s.num_upfs:
            return (("length", {"n": len(v)}),)
        return self.entries(v, range(len(v)))


class _UpfByMec(_Value):
    """A row per UPF of one entry per MEC, each > 0 and finite; a flat list is
    the row of every UPF the document lists.  Another shape is message ``shape``."""

    def read(self, v, doc, where):
        rows, upfs = _listed(v), doc.get("upfs")
        if (isinstance(rows, list) and rows and not isinstance(rows[0], list)
                and isinstance(upfs, list)):
            return [list(rows) for _ in upfs]
        return rows

    def problems(self, v, s):
        if not isinstance(v, list) or len(v) != s.num_upfs or any(
            not isinstance(row, list) or len(row) != s.num_mecs for row in v
        ):
            return (("shape", {}),)
        entries = list(chain.from_iterable(v))
        # all(map(_positive, entries)) at C speed when every entry is an exact int or float
        if set(map(type, entries)) <= {int, float}:
            ok = all(map((0.0).__lt__, entries)) and all(map(math.inf.__gt__, entries))
        else:
            ok = all(map(_positive, entries))
        return () if ok else (("bad", {}),)


class _Record(_Value):
    """A record of ``schema``, read from a map, else message ``shape``; a value
    that is not a map is kept as read.  Its fields are labelled ``label``."""

    def __init__(self, attr, schema, label, **messages):
        super().__init__(attr, **messages)
        self.schema, self.label = schema, label

    def read(self, v, doc, where):
        return self.schema.read(v, where + ".") if isinstance(v, dict) else v

    def problems(self, v, s):
        return () if isinstance(v, self.schema.cls) else (("shape", {}),)

    def records(self, v):
        """(label, record) of each record in v, whose own fields are checked next."""
        return [(self.label, v)] if isinstance(v, self.schema.cls) else []


class _Records(_Record):
    """A non-empty list of records, else message ``shape``; an entry that is not
    a map is kept as read.  The record at position k from 1 is labelled
    ``label.format(k)``."""

    def read(self, v, doc, where):
        rows = _listed(v)
        if not isinstance(rows, list):
            return rows
        read = super().read
        return [read(x, doc, f"{where}[{i}]") for i, x in enumerate(rows)]

    def problems(self, v, s):
        cls = self.schema.cls
        ok = isinstance(v, list) and v and all(isinstance(x, cls) for x in v)
        return () if ok else (("shape", {}),)

    def records(self, v):
        cls, rows = self.schema.cls, v if isinstance(v, list) else ()
        return [(self.label.format(k), x) for k, x in enumerate(rows, 1) if isinstance(x, cls)]


class _Schema:
    """The table of one dataclass's fields, bound to the defaults the dataclass declares."""

    def __init__(self, cls, *table: _Value) -> None:
        self.cls, self.table = cls, table
        # the keys a document map may hold, a dotted key's head mapping to
        # the keys that may sit under it
        self.keys: dict = {}
        declared = {f.name: f for f in fields(cls)}
        for fd in table:
            node = self.keys
            for key in fd.path[:-1]:
                node = node.setdefault(key, {})
            node[fd.path[-1]] = None
            spec = declared[fd.attr]
            fd.optional = spec.default is None
            if fd.default is MISSING:
                factory = spec.default_factory
                fd.default = spec.default if factory is MISSING else factory()

    def read(self, doc: dict, where: str):
        """The record a document map describes.

        A required key the map lacks, or a key no field of the table reads
        (a misspelt key would otherwise leave its field at the default), is
        a ScenarioError that names it.
        """
        unknown = list(_unknown_keys(doc, self.keys, where))
        if unknown:
            noun = "unknown keys" if len(unknown) > 1 else "unknown key"
            raise ScenarioError(f"{noun} {', '.join(unknown)}")
        values = {}
        for fd in self.table:
            v = doc
            for key in fd.path:
                v = v.get(key, MISSING) if isinstance(v, dict) else MISSING
            if v is not MISSING:
                v = fd.read(v, doc, where + fd.attr)
            if v is MISSING and fd.default is MISSING:
                raise ScenarioError(f"{where}{'.'.join(fd.path)} is missing")
            values[fd.attr] = copy.deepcopy(fd.default) if v is MISSING else v
        return self.cls(**values)

    def check(self, obj, s, prefix: str, out: List[str]) -> None:
        """Append the violations of obj's fields to out, labelled behind prefix."""
        for fd in self.table:
            v = getattr(obj, fd.attr)
            if v is None and fd.optional:
                continue
            for name, args in fd.problems(v, s):
                out.append(fd.messages[name].format(f=prefix + fd.attr, v=v, s=s, **args))
            if isinstance(fd, _Record):
                for label, r in fd.records(v):
                    fd.schema.check(r, s, label, out)

    def write(self, obj) -> dict:
        """The document map of obj; fields holding None are left out."""
        doc: dict = {}
        for fd in self.table:
            v = getattr(obj, fd.attr)
            if v is not None:
                node = doc
                for key in fd.path[:-1]:
                    node = node.setdefault(key, {})
                node[fd.path[-1]] = _plain(v)
        return doc


def _unknown_keys(doc: dict, keys: dict, where: str):
    """The labels of the keys of doc, and of maps under a dotted key's head, that keys lacks."""
    for k, v in doc.items():
        if k not in keys:
            yield f"{where}{k}"
        elif keys[k] is not None and isinstance(v, dict):
            yield from _unknown_keys(v, keys[k], f"{where}{k}.")


def _plain(v):
    """v as a document holds it: records as maps, QoS classes and schemes by name."""
    if isinstance(v, list):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {q.value: v[q] for q in QosClass if q in v}
    if isinstance(v, enum.Enum):
        return v.value
    return _SCHEMAS[type(v)].write(v) if type(v) in _SCHEMAS else v


def _sums_to_one(total) -> bool:
    """A sum of shares is 1 to within 1e-6."""
    return math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-6)


def _int_from(k: int):
    """The test for an int >= k."""
    return lambda x: _integer(x) and x >= k


_UNKNOWN = "{f} {v!r} unknown ({names})"
_POSITIVE = "{f} must be > 0 and finite"
_COVER = "{f} must cover all four QoS classes"
_SHARES = {"bad": "{f} has negative, non-finite or non-numeric entries",
           "sum": "{f} sums to {total:g}, expected 1.0"}
_TRAFFIC = _Schema(
    TrafficSpec,
    _Value("mean_arrivals_per_epoch", _non_negative, bad="{f} must be >= 0 and finite"),
    _Choice("process", {"poisson": "poisson", "deterministic": "deterministic"}, bad=_UNKNOWN),
    _PerUpf("skew", _non_negative, _sums_to_one, **_SHARES,
            shape="{f} must be a list of one share per UPF",
            length="{f} has {n} entries, expected one per UPF ({s.num_upfs})"),
    _QosMap("qos_mix", _non_negative, _sums_to_one,
            shape="{f} must cover exactly the four QoS classes", **_SHARES),
)
_UPF = _Schema(
    UpfSpec,
    _QosMap("capacity", _positive, shape=_COVER, bad="{f} entries must be > 0 and finite"),
    _QosMap("queue_cap", _whole, shape=_COVER, bad="{f} entries must be whole numbers >= 1"),
)
_MEC = _Schema(
    MecSpec,
    _Value("bytes_per_ue", _positive, bad=_POSITIVE),
    _Value("capacity", _positive, bad=_POSITIVE),
    _Value("queue_cap", _whole, bad="{f} must be a whole number >= 1"),
)
_SCENARIO = _Schema(
    Scenario,
    # the name stems the output files, which must stay inside --out
    _Value("name", lambda v: isinstance(v, str) and v not in ("", ".", "..") and "/" not in v,
           bad="{f} must be a non-empty string without '/', and not '.' or '..'"),
    _Value("delta_ms", _positive, bad=_POSITIVE),
    _Value("horizon_epochs", _int_from(0), bad="{f} must be an integer >= 0"),
    _Value("seed", _int_from(0), bad="{f} must be an integer >= 0"),
    _Choice("scheme", {m.value: m for m in Scheme}, bad=_UNKNOWN),
    _Value("drain_cap_epochs", _int_from(0), bad="{f} must be an integer >= 0"),
    _Record("traffic", _TRAFFIC, "traffic.", shape="{f} must be a map of the arrival law"),
    _QosMap("thresholds_ms", _positive, some=True, bad="{f}[{bad}] must be > 0 and finite",
            shape="{f} must be a map of QoS classes to thresholds"),
    _Records("upfs", _UPF, "upf {}: ", shape="{f} must be a non-empty list of UPF records"),
    _Records("mecs", _MEC, "mec {}: ", shape="{f} must be a non-empty list of MEC records"),
    _UpfByMec("link_bandwidth_mbps", key="links.bandwidth_mbps", default=None,
              shape="{f} must be a {s.num_upfs}x{s.num_mecs} matrix (row per UPF, column per MEC)",
              bad="link bandwidths must be > 0 and finite"),
)
_SCHEMAS = {schema.cls: schema for schema in (_TRAFFIC, _UPF, _MEC, _SCENARIO)}


def validate_scenario(s: Scenario) -> List[str]:
    """Return the full list of violated invariants; empty means valid.

    The tables give each field's own rules; the rules that join fields
    follow.  A scheme that reads no MEC cost vector (``SCHEMES``) names its
    MEC by a UPF id, so it needs as many UPFs as MECs.
    """
    v: List[str] = []
    _SCENARIO.check(s, s, "", v)
    if (isinstance(s.scheme, Scheme) and not SCHEMES[s.scheme.value][2]
            and s.num_upfs != s.num_mecs):
        v.append(
            f"scheme {s.scheme.value} routes through co-located MECs and requires "
            f"as many UPFs as MECs (got {s.num_upfs} UPFs, {s.num_mecs} MECs)"
        )
    return v


def scenario_to_dict(s: Scenario) -> dict:
    """Plain-dict form of a scenario, ready for YAML emission; None fields are left out."""
    return _SCENARIO.write(s)


def scenario_from_dict(doc: dict) -> Scenario:
    """Inverse of scenario_to_dict; omitted optional keys take their defaults.

    A value of the wrong shape is kept as read, for validate_scenario to
    list; a missing required key or an unknown key is a ScenarioError that
    names it.
    """
    return _SCENARIO.read(doc, "")


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
