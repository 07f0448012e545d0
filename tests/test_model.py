from __future__ import annotations

import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from upfmec.delay import projected_delay
from upfmec.metrics import build_pair_scenario
from upfmec.model import (
    CostVector,
    InvariantError,
    MecSpec,
    QosClass,
    Scenario,
    ScenarioError,
    Scheme,
    ServiceQueue,
    TrafficSpec,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from upfmec.schemes import SCHEMES

from conftest import make_scenario


# ------------------------------------------------------------------ validation


def test_bundled_scenarios_validate_clean(campus5, metro):
    assert validate_scenario(campus5) == []
    assert validate_scenario(metro) == []


def test_skew_sum_violation_reports_total():
    s = make_scenario(skew=[0.7, 0.5])
    msgs = validate_scenario(s)
    assert any("skew" in m and "1.2" in m for m in msgs)


def test_skew_length_mismatch():
    s = make_scenario(skew=[1.0])
    s.traffic.skew = [0.5, 0.3, 0.2]
    msgs = validate_scenario(s)
    assert any("skew has 3 entries" in m for m in msgs)


@pytest.mark.parametrize("scheme", [Scheme(name) for name in SCHEMES])
def test_co_located_scheme_requires_square_topology(scheme):
    # exactly the schemes that read no MEC vector name their MEC by a UPF id
    # and refuse U != M; a scheme that reads it routes both tiers independently
    s = make_scenario(num_upfs=2, num_mecs=1, scheme=scheme)
    msgs = validate_scenario(s)
    if SCHEMES[scheme.value][2]:
        assert msgs == []
    else:
        assert msgs == [f"scheme {scheme.value} routes through co-located MECs and requires "
                        "as many UPFs as MECs (got 2 UPFs, 1 MECs)"]
    assert validate_scenario(make_scenario(num_upfs=2, num_mecs=2, scheme=scheme)) == []


def test_multiple_violations_all_collected():
    s = make_scenario(skew=[0.7, 0.5])
    s.mecs[0].capacity = -1.0
    msgs = validate_scenario(s)
    assert len(msgs) >= 2
    assert any("mec 1" in m for m in msgs)


def test_bandwidth_matrix_shape_and_sign():
    s = make_scenario()
    s.link_bandwidth_mbps = [[100.0]]
    assert any("matrix" in m for m in validate_scenario(s))
    s2 = make_scenario()
    s2.link_bandwidth_mbps[0][1] = 0.0
    assert any("bandwidths must be > 0" in m for m in validate_scenario(s2))


def test_threshold_must_be_positive():
    s = make_scenario(thresholds={QosClass.URLLC: -5.0})
    assert any("thresholds_ms[urllc]" in m for m in validate_scenario(s))


BANDWIDTHS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.booleans(),
    st.sampled_from([math.inf, -math.inf, math.nan, 0, 0.0, -1.0, 10**400, "1", None]),
    st.sampled_from([np.float64(5.0), np.float64("inf"), np.float64("nan"), np.int64(3)]),
)
GOOD_BANDWIDTHS = st.one_of(st.floats(min_value=1e-6, max_value=1e6), st.integers(1, 10**6))


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.lists(GOOD_BANDWIDTHS, min_size=3, max_size=3), min_size=3, max_size=3),
    swaps=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), BANDWIDTHS), max_size=2),
)
def test_bandwidth_entries_are_checked_one_by_one(rows, swaps):
    # the matrix check has a C-speed path for exact ints and floats; it must
    # agree with the per-entry test on any mix of entry types
    for i, j, x in swaps:
        rows[i][j] = x
    s = make_scenario(num_upfs=3)
    s.link_bandwidth_mbps = rows

    def positive(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool) and 0.0 < x < math.inf

    flagged = "link bandwidths must be > 0 and finite" in validate_scenario(s)
    assert flagged == (not all(positive(x) for row in rows for x in row))


def _set_upf_queue_cap(s, x):
    s.upfs[0].queue_cap = {q: 5 for q in QosClass}
    s.upfs[0].queue_cap[QosClass.URLLC] = x


# message prefix -> how to put a value into that float field
FLOAT_FIELDS = {
    "delta_ms": lambda s, x: setattr(s, "delta_ms", x),
    "traffic.mean_arrivals_per_epoch": (
        lambda s, x: setattr(s.traffic, "mean_arrivals_per_epoch", x)
    ),
    "traffic.skew": lambda s, x: s.traffic.skew.__setitem__(0, x),
    "traffic.qos_mix": lambda s, x: s.traffic.qos_mix.__setitem__(QosClass.EMBB, x),
    "upf 1: capacity": lambda s, x: s.upfs[0].capacity.__setitem__(QosClass.URLLC, x),
    "upf 1: queue_cap": _set_upf_queue_cap,
    "mec 1: capacity": lambda s, x: setattr(s.mecs[0], "capacity", x),
    "mec 1: bytes_per_ue": lambda s, x: setattr(s.mecs[0], "bytes_per_ue", x),
    "mec 1: queue_cap": lambda s, x: setattr(s.mecs[0], "queue_cap", x),
    "link bandwidths": lambda s, x: s.link_bandwidth_mbps[0].__setitem__(1, x),
    "thresholds_ms[urllc]": lambda s, x: s.thresholds_ms.__setitem__(QosClass.URLLC, x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_non_finite_values_are_rejected(field, value):
    # a NaN cost would also be the argmin the schemes pick: np.argmin returns the first NaN
    s = make_scenario(thresholds={QosClass.URLLC: 5.0})
    assert validate_scenario(s) == []
    FLOAT_FIELDS[field](s, value)
    msgs = validate_scenario(s)
    assert any(m.startswith(field) for m in msgs), msgs


@pytest.mark.parametrize("value", ["1", True], ids=["quoted", "bool"])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_non_numbers_are_rejected(field, value):
    s = make_scenario(thresholds={QosClass.URLLC: 5.0})
    FLOAT_FIELDS[field](s, value)
    msgs = validate_scenario(s)
    assert any(m.startswith(field) for m in msgs), msgs


def _drop_upf_queue_class(s):
    s.upfs[0].queue_cap = {q: 5 for q in QosClass if q is not QosClass.MMTC}


# case -> (message prefix, how to break the scenario)
MALFORMED = {
    "upf queue_cap misses a class": ("upf 1: queue_cap", _drop_upf_queue_class),
    "upf queue_cap fractional": ("upf 1: queue_cap", lambda s: _set_upf_queue_cap(s, 1.5)),
    "mec queue_cap fractional": (
        "mec 1: queue_cap", lambda s: setattr(s.mecs[0], "queue_cap", 1.5)
    ),
    "no bandwidth matrix": (
        "link_bandwidth_mbps", lambda s: setattr(s, "link_bandwidth_mbps", None)
    ),
    # integer fields: a whole float or a bool is not an int
    "horizon_epochs fractional": ("horizon_epochs", lambda s: setattr(s, "horizon_epochs", 2.5)),
    "horizon_epochs bool": ("horizon_epochs", lambda s: setattr(s, "horizon_epochs", True)),
    "drain_cap_epochs fractional": (
        "drain_cap_epochs", lambda s: setattr(s, "drain_cap_epochs", 1.5)
    ),
    "drain_cap_epochs negative": (
        "drain_cap_epochs", lambda s: setattr(s, "drain_cap_epochs", -5)
    ),
    "seed fractional": ("seed", lambda s: setattr(s, "seed", 1.5)),
    # number fields: a quoted number, a null or a bool is not a number
    "delta_ms quoted": ("delta_ms", lambda s: setattr(s, "delta_ms", "1")),
    "skew entry quoted": ("traffic.skew", lambda s: s.traffic.skew.__setitem__(0, "0.5")),
    "qos_mix entry null": (
        "traffic.qos_mix", lambda s: s.traffic.qos_mix.__setitem__(QosClass.EMBB, None)
    ),
    "upf queue_cap quoted": ("upf 1: queue_cap", lambda s: _set_upf_queue_cap(s, "5")),
    "mec capacity bool": ("mec 1: capacity", lambda s: setattr(s.mecs[0], "capacity", True)),
    # shapes: a scalar where a map or a matrix row is expected
    "upf capacity scalar": ("upf 1: capacity", lambda s: setattr(s.upfs[0], "capacity", 5)),
    "qos_mix scalar": ("traffic.qos_mix", lambda s: setattr(s.traffic, "qos_mix", 3)),
    "traffic scalar": ("traffic", lambda s: setattr(s, "traffic", 7)),
    "bandwidth row scalar": (
        "link_bandwidth_mbps", lambda s: s.link_bandwidth_mbps.__setitem__(1, 3)
    ),
    "thresholds_ms scalar": ("thresholds_ms", lambda s: setattr(s, "thresholds_ms", 5)),
    # the name stems the output files, so it must name a file inside --out
    "name null": ("name", lambda s: setattr(s, "name", None)),
    "name a number": ("name", lambda s: setattr(s, "name", 5)),
    "name a map": ("name", lambda s: setattr(s, "name", {"a": 1})),
    "name empty": ("name", lambda s: setattr(s, "name", "")),
    "name a parent path": ("name", lambda s: setattr(s, "name", "../escaped")),
    "name a nested path": ("name", lambda s: setattr(s, "name", "a/b")),
    "name dot": ("name", lambda s: setattr(s, "name", ".")),
    "name dot dot": ("name", lambda s: setattr(s, "name", "..")),
    "scheme unknown": ("scheme", lambda s: setattr(s, "scheme", "fastest")),
    # the topology: a non-empty list of records per tier
    "upfs empty": ("upfs must be a non-empty list", lambda s: setattr(s, "upfs", [])),
    "upfs a count": ("upfs must be a non-empty list", lambda s: setattr(s, "upfs", 2)),
    "mec entry not a record": (
        "mecs must be a non-empty list", lambda s: s.mecs.__setitem__(1, 3)
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_values_are_rejected(case):
    field, breaks = MALFORMED[case]
    s = make_scenario()
    assert validate_scenario(s) == []
    breaks(s)
    msgs = validate_scenario(s)
    assert any(m.startswith(field) for m in msgs), msgs


# --------------------------------------------------------------- serialization


def test_dict_round_trip_is_exact(campus5, metro):
    for s in (campus5, metro):
        assert scenario_from_dict(scenario_to_dict(s)) == s


def test_yaml_round_trip_is_exact(tmp_path, metro):
    path = tmp_path / "metro_copy.yaml"
    save_scenario(metro, str(path))
    assert load_scenario(str(path)) == metro


def test_qos_mix_defaults_to_uniform():
    doc = scenario_to_dict(make_scenario())
    del doc["traffic"]["qos_mix"]
    s = scenario_from_dict(doc)
    assert s.traffic.qos_mix == {q: 0.25 for q in QosClass}


def test_bandwidth_per_mec_shorthand():
    doc = scenario_to_dict(make_scenario(num_upfs=3))
    doc["links"]["bandwidth_mbps"] = [100.0, 200.0, 300.0]
    s = scenario_from_dict(doc)
    assert s.link_bandwidth_mbps == [[100.0, 200.0, 300.0]] * 3


def test_bandwidth_shorthand_waits_for_a_list_of_upfs():
    # with no list of UPFs to give rows to, the flat row is kept for
    # validation to name, beside the UPFs
    doc = scenario_to_dict(make_scenario(num_upfs=3))
    doc["upfs"] = 3
    doc["links"]["bandwidth_mbps"] = [100.0, 200.0, 300.0]
    s = scenario_from_dict(doc)
    assert s.link_bandwidth_mbps == [100.0, 200.0, 300.0]
    msgs = validate_scenario(s)
    assert any(m.startswith("upfs must be a non-empty list") for m in msgs)
    assert any("link_bandwidth_mbps must be a 0x3 matrix" in m for m in msgs)


@pytest.mark.parametrize(
    "path, named",
    [
        (("headroom_facter",), "unknown key headroom_facter"),
        (("traffic", "skw"), "unknown key traffic.skw"),
        (("upfs", 1, "etbp"), "unknown key upfs[1].etbp"),
        (("mecs", 0, "queue"), "unknown key mecs[0].queue"),
        (("links", "bandwidth"), "unknown key links.bandwidth"),
        (("upfs", 0, "bytes_per_ue"), "unknown key upfs[0].bytes_per_ue"),
        # a scenario's counts are its lists' lengths and a record's id its position
        (("num_upfs",), "unknown key num_upfs"),
        (("mecs", 1, "id"), "unknown key mecs[1].id"),
        # a queue is capped only where its record states a queue_cap
        (("headroom_factor",), "unknown key headroom_factor"),
    ],
)
def test_unknown_key_is_named(tmp_path, path, named):
    doc = scenario_to_dict(make_scenario())
    *parents, key = path
    node = doc
    for k in parents:
        node = node[k]
    node[key] = 1.0
    p = tmp_path / "misspelt.yaml"
    p.write_text(yaml.safe_dump(doc))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(str(p))
    assert str(exc.value) == f"{p}: {named}"


def test_load_scenario_names_a_yaml_syntax_error(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("horizon_epochs: [1\n")
    with pytest.raises(ValueError) as exc:
        load_scenario(str(p))
    assert not isinstance(exc.value, ScenarioError)
    assert str(exc.value) == (
        f"{p}: not valid YAML at line 2, column 1: expected ',' or ']', but got '<stream end>'"
    )


@pytest.mark.parametrize(
    "after, repeat, line",
    [
        # safe_load keeps the last value, so each file would run on one of the two
        ("delta_ms: 1.0\n", "delta_ms: 2.0\n", 3),
        ("  process: deterministic\n", "  process: poisson\n", 9),
        ("    urllc: 0.25\n", "    urllc: 0.75\n", 14),
        ("- bytes_per_ue: 1500.0\n", "  bytes_per_ue: 9000.0\n", 31),
    ],
    ids=["top", "traffic", "qos_mix", "mecs"],
)
def test_load_scenario_refuses_a_key_given_twice(tmp_path, after, repeat, line):
    text = yaml.safe_dump(scenario_to_dict(make_scenario()), sort_keys=False)
    assert after in text
    p = tmp_path / "twice.yaml"
    p.write_text(text.replace(after, after + repeat, 1))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(str(p))
    key = repeat.strip(" -\n").split(":")[0]
    assert str(exc.value) == f"{p}: key {key} given twice, again at line {line}"


def test_load_scenario_rejects_non_mapping(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ScenarioError):
        load_scenario(str(p))


def test_load_scenario_rejects_missing_keys(tmp_path):
    p = tmp_path / "partial.yaml"
    p.write_text("name: x\ndelta_ms: 1.0\n")
    with pytest.raises(ScenarioError):
        load_scenario(str(p))


@pytest.mark.parametrize(
    "path, named",
    [
        (("name",), "name is missing"),
        (("traffic", "skew"), "traffic.skew is missing"),
        (("upfs",), "upfs is missing"),
        (("mecs",), "mecs is missing"),
        (("upfs", 0, "capacity"), "upfs[0].capacity is missing"),
        (("mecs", 0, "capacity"), "mecs[0].capacity is missing"),
    ],
)
def test_missing_required_key_is_named(tmp_path, path, named):
    doc = scenario_to_dict(make_scenario())
    *parents, key = path
    node = doc
    for k in parents:
        node = node[k]
    del node[key]
    p = tmp_path / "partial.yaml"
    p.write_text(yaml.safe_dump(doc))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(str(p))
    assert str(exc.value) == f"{p}: {named}"


def fields_by_name(cls):
    return {f.name: f for f in fields(cls)}


def test_omitted_keys_take_the_dataclass_defaults():
    doc = scenario_to_dict(make_scenario(process="poisson"))
    for key in ("seed", "scheme", "thresholds_ms", "drain_cap_epochs"):
        doc.pop(key, None)
    del doc["traffic"]["process"]
    del doc["traffic"]["qos_mix"]
    for entry in doc["mecs"]:
        del entry["bytes_per_ue"]
    s = scenario_from_dict(doc)
    assert s.thresholds_ms == {} and s.drain_cap_epochs is None
    for key in ("seed", "scheme"):
        assert getattr(s, key) == fields_by_name(Scenario)[key].default
    assert s.traffic.process == fields_by_name(TrafficSpec)["process"].default
    assert s.traffic.qos_mix == fields_by_name(TrafficSpec)["qos_mix"].default_factory()
    assert {m.bytes_per_ue for m in s.mecs} == {fields_by_name(MecSpec)["bytes_per_ue"].default}
    assert validate_scenario(s) == []


def test_yaml_round_trip_of_campus5_and_a_scaled_metro(tmp_path, campus5, metro):
    # a scaled scenario lists the same spec objects at several positions; its
    # file must still spell out every record, with no YAML alias
    for s in (campus5, build_pair_scenario(campus5, 7), build_pair_scenario(metro, 7)):
        path = tmp_path / f"{s.name}.yaml"
        save_scenario(s, str(path))
        text = path.read_text()
        assert "&id" not in text and "*id" not in text
        loaded = load_scenario(str(path))
        assert loaded == s
        assert validate_scenario(loaded) == []


def test_readme_scenario_example_is_valid():
    # the first YAML block under "Scenario files" in the README
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    s = scenario_from_dict(yaml.safe_load(block))
    assert validate_scenario(s) == []


@settings(max_examples=50, deadline=None)
@given(
    lam=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    cap=st.floats(min_value=0.001, max_value=1e3, allow_nan=False),
)
def test_dict_round_trip_preserves_floats(lam, cap):
    s = make_scenario(lam=lam, upf_capacity=cap)
    assert scenario_from_dict(scenario_to_dict(s)) == s


# ------------------------------------------------------------------- behaviors


def test_regular_is_the_only_class_bypassing_mec():
    assert not QosClass.REGULAR.uses_mec
    assert all(q.uses_mec for q in QosClass if q is not QosClass.REGULAR)


# ------------------------------------------------------------------ service queue


@pytest.mark.parametrize("capacity", [0.0, -1.0, math.nan, math.inf])
def test_queue_capacity_is_checked_once_at_build(capacity):
    with pytest.raises(ValueError, match="capacity must be > 0 and finite"):
        ServiceQueue(capacity, 4, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.floats(1e-3, 1e3) | st.integers(1, 40).map(float) | st.integers(1, 40),
    delta=st.floats(1e-3, 1e3) | st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    data=st.data(),
)
def test_price_is_the_checked_law_at_full_headroom(capacity, delta, data):
    # every entry is the law's own value, whatever order the table fills in;
    # the q drawn cover both sides of ceil(c) - 1, where the law changes branch
    sq = ServiceQueue(capacity, 1000, delta)
    edge = math.ceil(capacity) - 1
    near = st.integers(max(0, edge - 2), edge + 2)
    qs = data.draw(st.lists(near | st.integers(0, 120), min_size=1, max_size=30), label="qs")
    for q in qs:
        pending = data.draw(st.integers(0, q), label="pending")
        sq.queue.clear()
        sq.queue.extend([None] * (q - pending))
        sq.pending = pending
        expected = projected_delay(q, capacity, capacity, delta)
        got = sq.price()
        assert got == expected and type(got) is float
        assert sq.table[q] == expected and type(sq.table[q]) is float
    assert sq.table == [projected_delay(n, capacity, capacity, delta) for n in range(max(qs) + 1)]


def test_price_still_checks_the_queue_length():
    sq = ServiceQueue(2.0, 4, 1.0)
    sq.price()
    sq.pending = -1
    # the table holds entry 0, so an unguarded read of table[-1] would return it
    with pytest.raises(ValueError, match="queue_len must be >= 0"):
        sq.price()


def test_serve_refuses_more_than_ceil_capacity():
    # credit left at 5.0 would let a capacity-2 queue pop 7 of its 10 ids
    sq = ServiceQueue(2.0, 20, 1.0)
    sq.queue.extend(range(10))
    sq.credit = 5.0
    with pytest.raises(InvariantError, match="over capacity"):
        sq.serve()


def test_serve_may_pop_ceil_capacity():
    # 3.0 + 2.5 of credit, capped by the 3 queued ids: ceil(2.5) = 3 is allowed
    sq = ServiceQueue(2.5, 20, 1.0)
    sq.queue.extend(range(3))
    sq.credit = 3.0
    assert sq.serve() == 3
    assert sq.credit == 0.0


# ------------------------------------------------------------------ cost vector

# few distinct prices, so that exact ties are common
PRICE = st.integers(0, 6).map(float)
# a floor no price reaches, so that every raise rescans the whole vector
NO_FLOOR = -math.inf


def _write(cost, prices, data):
    """Make one of a run's two writes, drawn with frequent ties, on cost and on the plain prices.

    ``raise_best`` gives the best entry a price no lower than its own,
    ``lower`` any entry one no higher than its own: a copy of another
    entry's price (the minimum's often), or a step of a few units that
    stops at the vector's floor.
    """
    n, best = len(prices), cost.best
    if data.draw(st.booleans(), label="raise"):
        i = best
        how = data.draw(st.sampled_from(["copy", "step"]), label="how")
        if how == "copy":
            price = prices[data.draw(st.integers(0, n - 1), label="from")]
        else:
            price = prices[i] + data.draw(PRICE, label="by")
        cost.raise_best(price)
    else:
        where = data.draw(st.sampled_from(["best", "below", "above", "any"]), label="where")
        if where == "best":
            i = best
        elif where == "below" and best > 0:
            i = data.draw(st.integers(0, best - 1), label="i")
        elif where == "above" and best < n - 1:
            i = data.draw(st.integers(best + 1, n - 1), label="i")
        else:
            i = data.draw(st.integers(0, n - 1), label="i")
        how = data.draw(st.sampled_from(["tie", "copy", "step"]), label="how")
        if how == "tie":
            price = min(prices)
        elif how == "copy":
            price = min(prices[i], prices[data.draw(st.integers(0, n - 1), label="from")])
        else:
            price = max(prices[i] - data.draw(PRICE, label="by"), cost.floor)
        cost.lower(i, price)
    prices[i] = price


@settings(max_examples=120, deadline=None)
@given(initial=st.lists(PRICE, min_size=1, max_size=60), data=st.data())
def test_cost_vector_keeps_its_first_minimum(initial, data):
    cost = CostVector(initial, NO_FLOOR)
    prices = list(initial)
    assert cost.best == prices.index(min(prices))
    for _ in range(data.draw(st.integers(1, 40), label="updates")):
        _write(cost, prices, data)
        assert cost.prices == prices
        assert cost.best == prices.index(min(prices)) == int(np.argmin(prices))


@settings(max_examples=120, deadline=None)
@given(initial=st.lists(PRICE, min_size=1, max_size=60), data=st.data())
def test_cost_vector_write_of_an_equal_price_changes_nothing(initial, data):
    # the engine skips a write whose price equals the entry's: sound only if
    # such a write leaves the prices and best as they were
    cost = CostVector(initial, NO_FLOOR)
    prices = list(initial)
    for _ in range(data.draw(st.integers(1, 20), label="updates")):
        n, best = len(prices), cost.best
        before = list(prices)
        cost.raise_best(prices[best])
        assert cost.prices == before and cost.best == best
        i = data.draw(st.integers(0, n - 1), label="i")
        cost.lower(i, prices[i])
        assert cost.prices == before and cost.best == best
        # make some write, often onto a tie with the minimum, to vary the state
        _write(cost, prices, data)


@settings(max_examples=150, deadline=None)
@given(floor=st.sampled_from([0.0, 1.0, 2.5]), data=st.data())
def test_cost_vector_keeps_at_floor_where_best_moves(floor, data):
    # about half the prices sit exactly at the floor, so a raise of best
    # mostly moves it to the next floor tie, and now and then lifts the last
    # floor entry, after which a lower can bring the floor back
    price = st.just(floor) | PRICE.map(lambda p: floor + p)
    initial = data.draw(st.lists(price, min_size=1, max_size=40), label="initial")
    cost = CostVector(initial, floor)
    prices = list(initial)

    def check():
        assert cost.prices == prices
        assert cost.best == prices.index(min(prices))
        assert cost.at_floor == (prices[cost.best] == floor)

    check()
    for _ in range(data.draw(st.integers(1, 40), label="updates")):
        if data.draw(st.booleans(), label="equal"):
            # the writes the engine skips: an entry's own price, on best and on any
            cost.raise_best(prices[cost.best])
            check()
            i = data.draw(st.integers(0, len(prices) - 1), label="i")
            cost.lower(i, prices[i])
            check()
        _write(cost, prices, data)
        check()


def test_cost_vector_refuses_a_price_below_its_floor():
    for prices in ([1.0, 0.5], [1.0, math.nan], [-math.inf]):
        with pytest.raises(ValueError, match="below the floor"):
            CostVector(prices, 1.0)
    cost = CostVector([2.0, 1.0, 1.0], 1.0)
    assert (cost.best, cost.at_floor) == (1, True)
    assert not CostVector([2.0, 1.5], 1.0).at_floor


def test_cost_vector_has_no_write_that_skips_best():
    cost = CostVector([2.0, 1.0], 1.0)
    with pytest.raises(TypeError):
        cost[0] = 0.0
    assert not hasattr(cost, "__dict__")
