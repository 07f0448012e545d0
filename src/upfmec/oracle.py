"""Exhaustive reference optimizers for cross-checking the heuristics.

The batch placement walks every composition of n requests over the UPF
buckets, so it enumerates tiny instances only and refuses anything bigger;
the pair search walks every (UPF, MEC) combination, O(U·M), at any
deployment size.  Both break ties
toward the lowest-indexed buckets, the same preference the sequential
bestfit rule has, so the two agree exactly on single-request instances.

The sequential heuristic places through ``model.CostVector``, the vector
the engine's bestfit schemes read, so ``oracle-gap`` scores the engine's
own first-minimum choice.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from .delay import net_delay, projected_delay, worst_case_batch_delay
from .model import CostVector

# a bucket is (queue_len, headroom, capacity)
Bucket = Tuple[float, float, float]

MAX_BATCH = 12
MAX_UPFS = 5


class OracleBoundError(ValueError):
    """Instance too large for exhaustive enumeration."""


def _compositions(n: int, k: int) -> Iterator[Tuple[int, ...]]:
    """All k-tuples of non-negative ints summing to n.

    Emitted with the first coordinate descending, so vectors that load
    lower-indexed buckets come first and win ties under a strict compare.
    """
    if k == 1:
        yield (n,)
        return
    for head in range(n, -1, -1):
        for tail in _compositions(n - head, k - 1):
            yield (head,) + tail


def _batch_worst_case(x: Sequence[int], buckets: Sequence[Bucket]) -> float:
    # the objective ranges over the batch itself: a bucket given none of it
    # contributes no UE and therefore no term to the max
    return max(
        (
            worst_case_batch_delay(q, x[i], h, c)
            for i, (q, h, c) in enumerate(buckets)
            if x[i] > 0
        ),
        default=0.0,
    )


def minmax_batch_optimum(n: int, buckets: Sequence[Bucket]) -> Tuple[Tuple[int, ...], float]:
    """Placement of n same-class requests minimizing the batch's worst drain time.

    Returns (counts per bucket, worst-case epochs).  Exhaustive, so n is
    capped at MAX_BATCH and the number of buckets at MAX_UPFS.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > MAX_BATCH:
        raise OracleBoundError(f"batch size {n} exceeds enumeration bound {MAX_BATCH}")
    if not buckets:
        raise ValueError("no buckets to place on")
    if len(buckets) > MAX_UPFS:
        raise OracleBoundError(
            f"{len(buckets)} buckets exceed enumeration bound {MAX_UPFS}"
        )
    best_x: Tuple[int, ...] | None = None
    best = float("inf")
    for x in _compositions(n, len(buckets)):
        worst = _batch_worst_case(x, buckets)
        if worst < best:
            best, best_x = worst, x
    assert best_x is not None
    return best_x, best


def sequential_heuristic_batch(
    n: int, buckets: Sequence[Bucket]
) -> Tuple[Tuple[int, ...], float]:
    """Place n requests one at a time with the bestfit rule, then score.

    Each placement goes to the cost vector's ``best`` and joins the
    projected queue of its bucket, which is repriced, exactly like
    sequential admission in the engine.  The score is the same worst-case
    objective the optimum uses, evaluated on the original buckets.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not buckets:
        raise ValueError("no buckets to place on")
    working = [list(b) for b in buckets]
    cost = CostVector([projected_delay(*b, 1.0) for b in working], 1.0)
    counts = [0] * len(buckets)
    for _ in range(n):
        idx = cost.best
        counts[idx] += 1
        working[idx][0] += 1.0
        cost.raise_best(projected_delay(*working[idx], 1.0))
    return tuple(counts), _batch_worst_case(counts, buckets)


def pair_enumeration_optimum(
    upf_buckets: Sequence[Bucket],
    mec_buckets: Sequence[Bucket],
    n_share: Sequence[Sequence[int]],
    bandwidth: Sequence[Sequence[float]],
    bytes_mec: Sequence[float],
    delta: float,
) -> Tuple[int, int, float]:
    """Jointly best (UPF, MEC) pair by projected end-to-end delay.

    Returns 0-based indices and the optimal value.  This is the joint
    optimum the per-tier bestfit scheme approximates; the two agree
    whenever the link term is uniform.
    """
    nu, nm = len(upf_buckets), len(mec_buckets)
    if nu == 0 or nm == 0:
        raise ValueError("need at least one UPF and one MEC")
    pc_upf = [projected_delay(*b, delta) for b in upf_buckets]
    pc_mec = [projected_delay(*b, delta) for b in mec_buckets]
    best_i = best_j = 0
    best = float("inf")
    for i in range(nu):
        for j in range(nm):
            total = pc_upf[i] + net_delay(n_share[i][j], bytes_mec[j], bandwidth[i][j]) + pc_mec[j]
            if total < best:
                best, best_i, best_j = total, i, j
    return best_i, best_j, best
