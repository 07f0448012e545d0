from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upfmec.engine import SimulationRun
from upfmec.metrics import build_pair_scenario
from upfmec.model import QosClass, Scheme
from upfmec.oracle import (
    MAX_BATCH,
    MAX_UPFS,
    OracleBoundError,
    minmax_batch_optimum,
    pair_enumeration_optimum,
    sequential_heuristic_batch,
)
from upfmec.schemes import assign_bestfit_upf_mec

from conftest import bucket, decide, link_index, make_scenario, reprice


def random_buckets(rng: np.random.Generator, u: int):
    """Integer-valued states, the regime the agreement guarantees cover."""
    caps = rng.integers(1, 9, size=u)
    in_service = np.array([rng.integers(0, c + 1) for c in caps])
    queues = rng.integers(0, 21, size=u)
    return [
        (float(q), float(c - s), float(c)) for q, s, c in zip(queues, in_service, caps)
    ]


# ------------------------------------------------------------- batch optimum


def test_empty_batch_places_nothing():
    buckets = [(3.0, 1.0, 2.0), (0.0, 4.0, 4.0)]
    assert minmax_batch_optimum(0, buckets) == ((0, 0), 0.0)


def test_symmetric_idle_pair_splits_evenly():
    buckets = [(0.0, 2.0, 2.0), (0.0, 2.0, 2.0)]
    assert minmax_batch_optimum(4, buckets) == ((2, 2), 0.0)


def test_ties_resolve_toward_low_indices():
    buckets = [(0.0, 2.0, 2.0), (0.0, 2.0, 2.0)]
    assert minmax_batch_optimum(1, buckets)[0] == (1, 0)
    # both requests still fit into the first bucket's headroom for free
    assert minmax_batch_optimum(2, buckets)[0] == (2, 0)


def test_bounds_are_refused():
    buckets = [(0.0, 1.0, 1.0)] * 2
    with pytest.raises(OracleBoundError):
        minmax_batch_optimum(MAX_BATCH + 1, buckets)
    with pytest.raises(OracleBoundError):
        minmax_batch_optimum(1, [(0.0, 1.0, 1.0)] * (MAX_UPFS + 1))
    with pytest.raises(ValueError):
        minmax_batch_optimum(-1, buckets)
    with pytest.raises(ValueError):
        minmax_batch_optimum(1, [])


def test_single_request_agreement_on_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(300):
        buckets = random_buckets(rng, int(rng.integers(1, MAX_UPFS + 1)))
        assert minmax_batch_optimum(1, buckets) == sequential_heuristic_batch(1, buckets)


def test_heuristic_never_beats_the_optimum():
    rng = np.random.default_rng(17)
    for _ in range(300):
        buckets = random_buckets(rng, 3)
        n = int(rng.integers(2, 7))
        _, opt = minmax_batch_optimum(n, buckets)
        _, heur = sequential_heuristic_batch(n, buckets)
        assert heur >= opt - 1e-12


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 8),
    data=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 8), st.integers(1, 8)),
        min_size=1,
        max_size=4,
    ),
)
def test_heuristic_lower_bound_property(n, data):
    buckets = [(float(q), float(min(s, c)), float(c)) for q, s, c in data]
    _, opt = minmax_batch_optimum(n, buckets)
    counts, heur = sequential_heuristic_batch(n, buckets)
    assert sum(counts) == n
    assert heur >= opt - 1e-12


def test_heuristic_spreads_once_headroom_is_spent():
    buckets = [(0.0, 1.0, 1.0), (0.0, 1.0, 1.0)]
    counts, worst = sequential_heuristic_batch(2, buckets)
    assert counts == (1, 1)
    assert worst == 0.0


# -------------------------------------------------------------- pair optimum


def test_single_pair_is_the_only_choice():
    i, j, value = pair_enumeration_optimum(
        [(5.0, 0.0, 2.0)], [(3.0, 0.0, 1.0)], [[2]], [[1000.0]], [1500.0], 1.0
    )
    assert (i, j) == (0, 0)
    assert value > 0.0


def _stuffed_run(rng: np.random.Generator) -> SimulationRun:
    run = SimulationRun(make_scenario(num_upfs=3, scheme=Scheme.BESTFIT_UPF_MEC, seed=1))
    for uid in (1, 2, 3):
        for qos in QosClass:
            # occupancy fakes: a queue's price reads only its length
            run.upfs[uid - 1][qos].queue.extend([0] * int(rng.integers(0, 15)))
        run.mecs[uid - 1].queue.extend([0] * int(rng.integers(0, 15)))
    reprice(run)
    return run


def _oracle_inputs(run: SimulationRun, qos: QosClass):
    upf_buckets = [bucket(u[qos]) for u in run.upfs]
    mec_buckets = [bucket(m) for m in run.mecs]
    nu, nm = len(run.upfs), len(run.mecs)
    n_share = [[run.link_sharers[link_index(run, i + 1, j + 1)] for j in range(nm)]
               for i in range(nu)]
    # Mbps -> bits per ms, as the run reads them
    bw = [[mbps * 1e3 for mbps in row] for row in run.scenario.link_bandwidth_mbps]
    bytes_mec = [m.bytes_per_ue for m in run.scenario.mecs]
    return upf_buckets, mec_buckets, n_share, bw, bytes_mec


def test_pair_scheme_matches_joint_optimum_on_uniform_links():
    rng = np.random.default_rng(23)
    for _ in range(100):
        run = _stuffed_run(rng)
        qos = [QosClass.URLLC, QosClass.EMBB, QosClass.MMTC][int(rng.integers(0, 3))]
        origin = int(rng.integers(1, 4))
        upf_id, mec_id, projected = decide(run, qos, origin, assign_bestfit_upf_mec)
        i, j, value = pair_enumeration_optimum(*_oracle_inputs(run, qos), run.delta)
        assert (upf_id - 1, mec_id - 1) == (i, j)
        assert projected.d_e2e == value


def test_congested_link_exposes_the_independence_gap():
    run = SimulationRun(make_scenario(num_upfs=2, scheme=Scheme.BESTFIT_UPF_MEC, seed=1))
    # UPF 2 busy, MEC 1 busy: the per-tier argmins are UPF 1 and MEC 2
    run.upfs[1][QosClass.URLLC].queue.extend([0] * 9)
    run.mecs[0].queue.extend([0] * 9)
    # but the link toward MEC 2 is crawling while MEC 1 stays well connected
    run.scenario.link_bandwidth_mbps[0][1] = 0.1  # 100 bits per ms
    run.link_sharers[link_index(run, 1, 2)] += 1
    reprice(run)
    _, mec_id, projected = decide(run, QosClass.URLLC, 1, assign_bestfit_upf_mec)
    assert mec_id == 2
    i, j, value = pair_enumeration_optimum(*_oracle_inputs(run, QosClass.URLLC), run.delta)
    assert (i, j) == (0, 0)
    assert value < projected.d_e2e


def test_joint_optimum_never_exceeds_the_scheme_projection():
    rng = np.random.default_rng(29)
    for _ in range(50):
        run = _stuffed_run(rng)
        # perturb one link so the instances are not all uniform
        run.scenario.link_bandwidth_mbps[0][1] = float(rng.integers(50, 20000)) / 1e3
        _, _, projected = decide(run, QosClass.URLLC, 1, assign_bestfit_upf_mec)
        _, _, value = pair_enumeration_optimum(*_oracle_inputs(run, QosClass.URLLC), run.delta)
        assert value <= projected.d_e2e + 1e-12


def test_joint_optimum_never_exceeds_the_scheme_projection_at_50_pairs(metro):
    # the pair search has no size bound: on the widest deployment a run
    # steps, with the MEC commitments and links its own decisions loaded,
    # the joint optimum is never above what the pair scheme projects
    run = SimulationRun(replace(build_pair_scenario(metro, 50), scheme=Scheme.BESTFIT_UPF_MEC,
                                seed=1))
    for _ in range(8):
        run.step_epoch()
    assert any(m.pending for m in run.mecs) and any(run.link_sharers)
    for qos in (QosClass.URLLC, QosClass.EMBB, QosClass.MMTC):
        for origin in (1, 17, 50):
            _, _, projected = decide(run, qos, origin, assign_bestfit_upf_mec)
            _, _, value = pair_enumeration_optimum(*_oracle_inputs(run, qos), run.delta)
            assert value <= projected.d_e2e + 1e-12
