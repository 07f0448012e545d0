"""Request-to-resource assignment policies.

Each scheme reads the run's cost vectors (the projected delay of joining
every UPF bucket of the request's class, and every MEC, now) and returns
an AssignmentDecision; the engine applies it and keeps the vectors
current.  Decisions never mutate state.  The bestfit choice is the
vector's argmin, which takes the first minimum, so ties break toward the
lowest index and results are deterministic for identical states.

The snapshot functions and ``find_bestfit_upf`` are the same choice made
with a Python loop over a list of buckets; the oracles and the tests use
them as the reference.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .delay import DelayBreakdown, net_delay, projected_delay

# a bucket snapshot is (queue_len, headroom, capacity)
Bucket = Tuple[float, float, float]


class AssignmentDecision(NamedTuple):
    """Where a request should go, with the delay the scheme expects."""

    upf_id: int
    mec_id: Optional[int]
    projected: DelayBreakdown


def upf_bucket_snapshot(upfs, qos) -> List[Bucket]:
    """Per-UPF buckets for one QoS class, id order."""
    return [u.buckets[qos].snapshot() for u in upfs]


def mec_snapshot(mecs) -> List[Bucket]:
    """Per-MEC buckets, id order; a MEC's queue length counts its pending commitments."""
    return [m.snapshot() for m in mecs]


def find_bestfit_upf(buckets: Sequence[Bucket], delta: float) -> Tuple[int, float]:
    """Index of the bucket with the lowest projected delay, and that delay."""
    if not buckets:
        raise ValueError("no UPF buckets to choose from")
    best_idx = 0
    best = projected_delay(*buckets[0], delta)
    for idx in range(1, len(buckets)):
        cost = projected_delay(*buckets[idx], delta)
        if cost < best:
            best, best_idx = cost, idx
    return best_idx, best


def _bestfit(cost) -> Tuple[int, float]:
    """Index of the lowest entry of a cost vector (the first on ties), and the entry."""
    idx = int(cost.argmin())
    return idx, float(cost[idx])


def _projected_for(run, upf_id: int, mec_id: Optional[int], pc_upf: float) -> DelayBreakdown:
    if mec_id is None:
        return DelayBreakdown.compose(pc_upf, 0.0, 0.0)
    mec = run.mecs[mec_id - 1]
    link = run.links[(upf_id, mec_id)]
    d_net = net_delay(link.n_share, mec.bytes_per_ue, link.bandwidth)
    return DelayBreakdown.compose(pc_upf, d_net, float(run.mec_cost[mec_id - 1]))


def assign_baseline(req, run) -> AssignmentDecision:
    """SMF default: origin UPF and its co-located MEC, no load awareness."""
    upf_id = req.origin_upf
    pc_upf = float(run.upf_cost[req.qos][upf_id - 1])
    mec_id = upf_id if req.qos.uses_mec else None
    return AssignmentDecision(upf_id, mec_id, _projected_for(run, upf_id, mec_id, pc_upf))


def assign_bestfit_no_pe(req, run) -> AssignmentDecision:
    """Bestfit UPF, but the data path still ends at the origin's MEC."""
    idx, pc_upf = _bestfit(run.upf_cost[req.qos])
    upf_id = run.upfs[idx].id
    mec_id = req.origin_upf if req.qos.uses_mec else None
    return AssignmentDecision(upf_id, mec_id, _projected_for(run, upf_id, mec_id, pc_upf))


def assign_bestfit_pe(req, run) -> AssignmentDecision:
    """Bestfit UPF with path extension to that UPF's co-located MEC."""
    idx, pc_upf = _bestfit(run.upf_cost[req.qos])
    upf_id = run.upfs[idx].id
    mec_id = None
    if req.qos.uses_mec:
        if upf_id > len(run.mecs):
            raise ValueError(
                f"path extension needs a MEC co-located with UPF {upf_id}, "
                f"but only {len(run.mecs)} MECs exist"
            )
        mec_id = upf_id
    return AssignmentDecision(upf_id, mec_id, _projected_for(run, upf_id, mec_id, pc_upf))


def assign_bestfit_upf_mec(req, run) -> AssignmentDecision:
    """Bestfit UPF and bestfit MEC, each chosen on its own tier's state."""
    idx, pc_upf = _bestfit(run.upf_cost[req.qos])
    upf_id = run.upfs[idx].id
    mec_id = None
    if req.qos.uses_mec:
        mec_id = run.mecs[int(run.mec_cost.argmin())].id
    return AssignmentDecision(upf_id, mec_id, _projected_for(run, upf_id, mec_id, pc_upf))


SCHEME_FUNCS = {
    "baseline": assign_baseline,
    "bestfit_upf_no_pe": assign_bestfit_no_pe,
    "bestfit_upf_pe": assign_bestfit_pe,
    "bestfit_upf_mec": assign_bestfit_upf_mec,
}
