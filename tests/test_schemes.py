from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upfmec.delay import projected_delay
from upfmec.engine import SimulationRun
from upfmec.model import CostVector, QosClass, Scheme
from upfmec.oracle import sequential_heuristic_batch
from upfmec.schemes import (
    SCHEME_FUNCS,
    SCHEMES,
    assign_baseline,
    assign_bestfit_no_pe,
    assign_bestfit_pe,
    assign_bestfit_upf_mec,
)

from conftest import decide, make_scenario, reprice


def make_run(**kwargs) -> SimulationRun:
    kwargs.setdefault("scheme", Scheme.BESTFIT_UPF_MEC)
    return SimulationRun(make_scenario(**kwargs))


def dummy(qos=QosClass.URLLC, origin=1):
    """A request as a scheme sees it: (qos, origin_upf)."""
    return qos, origin


# occupancy fakes: a queue's price reads only its length, never its ids


def stuff_upf(run: SimulationRun, upf_id: int, qos: QosClass, n: int) -> None:
    run.upfs[upf_id - 1][qos].queue.extend([0] * n)
    reprice(run)


def stuff_mec(run: SimulationRun, mec_id: int, n: int) -> None:
    run.mecs[mec_id - 1].queue.extend([0] * n)
    reprice(run)


bucket = st.tuples(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.5, max_value=10.0),
)


def first_choice(buckets) -> int:
    """Index where the sequential heuristic places one request."""
    return sequential_heuristic_batch(1, buckets)[0].index(1)


# ------------------------------------------------------------------ bestfit


def test_tie_breaks_to_lowest_index():
    run = make_run(num_upfs=3)
    assert assign_bestfit_upf_mec(*dummy(origin=3), run) == (1, 1)
    assert run.upf_cost[QosClass.URLLC].prices[0] == run.delta
    assert first_choice([(0.0, 2.0, 2.0)] * 3) == 0


def test_empty_bucket_beats_saturated_peers():
    run = make_run(num_upfs=3)
    stuff_upf(run, 1, QosClass.URLLC, 5)
    stuff_upf(run, 3, QosClass.URLLC, 6)
    upf_id, _ = assign_bestfit_upf_mec(*dummy(origin=1), run)
    assert upf_id == 2 and run.upf_cost[QosClass.URLLC].prices[1] == run.delta
    assert first_choice([(5.0, 0.0, 2.0), (0.0, 4.0, 4.0), (6.0, 0.0, 3.0)]) == 1


def test_singleton_is_always_chosen():
    run = make_run(num_upfs=1)
    stuff_upf(run, 1, QosClass.URLLC, 99)
    stuff_mec(run, 1, 99)
    assert assign_bestfit_upf_mec(*dummy(), run) == (1, 1)
    assert first_choice([(99.0, 0.0, 1.0)]) == 0


def test_empty_snapshot_rejected():
    with pytest.raises(ValueError):
        CostVector([])
    with pytest.raises(ValueError):
        sequential_heuristic_batch(1, [])


@settings(max_examples=200, deadline=None)
@given(buckets=st.lists(bucket, min_size=1, max_size=6))
def test_bestfit_matches_exhaustive_min(buckets):
    costs = [projected_delay(*b, 1.0) for b in buckets]
    cost = CostVector(costs)
    assert cost.best == costs.index(min(costs))
    assert first_choice(buckets) == cost.best


@settings(max_examples=100, deadline=None)
@given(buckets=st.lists(bucket, min_size=1, max_size=6), k=st.floats(0.1, 100.0))
def test_argmin_invariant_under_common_scaling(buckets, k):
    # both branches scale linearly with delta, so the chosen index cannot move
    scaled = CostVector([projected_delay(*b, k) for b in buckets])
    assert first_choice(buckets) == scaled.best


def test_snapshots_reflect_state_in_id_order():
    run = make_run(num_upfs=3)
    stuff_upf(run, 2, QosClass.EMBB, 4)
    embb = [u[QosClass.EMBB] for u in run.upfs]
    assert [len(b.queue) for b in embb] == [0, 4, 0]
    assert run.upf_cost[QosClass.EMBB].prices == [b.price() for b in embb]
    assert run.upf_cost[QosClass.EMBB].prices[1] > run.delta
    # other classes unaffected
    assert run.upf_cost[QosClass.URLLC].prices == [run.delta] * 3


def test_mec_snapshot_counts_pending_commitments():
    run = make_run(num_upfs=2)
    stuff_mec(run, 1, 6)
    run.mecs[0].pending = 3
    reprice(run)
    c = run.mecs[0].capacity
    # 6 queued alone fit the capacity of 8; with the 3 pending they do not
    assert run.mec_cost.prices == [projected_delay(9, c, c, run.delta), run.delta]
    assert run.mec_cost.prices[0] > run.delta


# ------------------------------------------------------------------ policies


def test_baseline_pins_to_origin():
    run = make_run(num_upfs=3, scheme=Scheme.BASELINE)
    assert assign_baseline(*dummy(origin=3), run) == (3, 3)


def test_baseline_ignores_load():
    run = make_run(num_upfs=3, scheme=Scheme.BASELINE)
    stuff_upf(run, 3, QosClass.URLLC, 50)
    upf_id, _ = assign_baseline(*dummy(origin=3), run)
    assert upf_id == 3


def test_regular_requests_carry_no_mec():
    run = make_run(num_upfs=3)
    for fn in SCHEME_FUNCS.values():
        _, mec_id, projected = decide(run, *dummy(qos=QosClass.REGULAR, origin=2), fn)
        assert mec_id is None
        assert projected.d_net == 0.0 and projected.d_mec == 0.0
        assert projected.d_e2e == projected.d_upf


def test_no_pe_moves_upf_but_keeps_origin_mec():
    run = make_run(num_upfs=3)
    stuff_upf(run, 3, QosClass.URLLC, 20)
    assert assign_bestfit_no_pe(*dummy(origin=3), run) == (1, 3)


def test_pe_extends_path_to_co_located_mec():
    run = make_run(num_upfs=3)
    stuff_upf(run, 1, QosClass.URLLC, 20)
    upf_id, mec_id = assign_bestfit_pe(*dummy(origin=1), run)
    assert upf_id == 2
    assert mec_id == 2


def test_pair_scheme_chooses_both_tiers_independently():
    run = make_run(num_upfs=3)
    assert assign_bestfit_upf_mec(*dummy(origin=2), run) == (1, 1)
    stuff_upf(run, 1, QosClass.URLLC, 20)
    stuff_mec(run, 1, 30)
    assert assign_bestfit_upf_mec(*dummy(origin=2), run) == (2, 2)


def test_pending_commitments_steer_later_decisions():
    run = make_run(num_upfs=2)
    _, first_mec = assign_bestfit_upf_mec(*dummy(), run)
    assert first_mec == 1
    # mirror the engine's bookkeeping for an admitted request still upstream
    run.mecs[0].pending = int(run.mecs[0].capacity)
    reprice(run)
    _, second_mec = assign_bestfit_upf_mec(*dummy(), run)
    assert second_mec == 2


def test_projection_composes_three_stages():
    run = make_run(num_upfs=2)
    _, _, p = decide(run, *dummy(origin=2), assign_bestfit_pe)
    assert p.d_e2e == p.d_upf + p.d_net + p.d_mec
    assert p.d_upf >= run.delta and p.d_mec >= run.delta


def test_decisions_are_deterministic():
    runs = [make_run(num_upfs=3, seed=9) for _ in range(2)]
    for r in runs:
        stuff_upf(r, 2, QosClass.URLLC, 5)
        stuff_mec(r, 1, 4)
    a = assign_bestfit_upf_mec(*dummy(), runs[0])
    b = assign_bestfit_upf_mec(*dummy(), runs[1])
    assert a == b


def test_pair_scheme_dominates_pe_under_uniform_links():
    rng = np.random.default_rng(5)
    for _ in range(50):
        run = make_run(num_upfs=3)
        for uid in (1, 2, 3):
            stuff_upf(run, uid, QosClass.URLLC, int(rng.integers(0, 12)))
            stuff_mec(run, uid, int(rng.integers(0, 12)))
        req = dummy(origin=int(rng.integers(1, 4)))
        pair = decide(run, *req, assign_bestfit_upf_mec)[2].d_e2e
        pe = decide(run, *req, assign_bestfit_pe)[2].d_e2e
        assert pair <= pe + 1e-12


def test_scheme_registry_matches_enum():
    assert set(SCHEMES) == {s.value for s in Scheme}
    assert SCHEME_FUNCS == {name: fn for name, (fn, _, _) in SCHEMES.items()}


@pytest.mark.parametrize("scheme, reader", [
    (Scheme.BASELINE, assign_bestfit_no_pe),
    (Scheme.BESTFIT_UPF_PE, assign_bestfit_upf_mec),
])
def test_a_run_keeps_no_vector_its_scheme_does_not_read(scheme, reader):
    # so a scheme that read a tier it did not declare would fail at its first
    # decision, not read prices that nothing keeps current
    run = make_run(num_upfs=2, scheme=scheme)
    with pytest.raises(AttributeError, match="'NoneType' object has no attribute 'best'"):
        reader(*dummy(), run)
