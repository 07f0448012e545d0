"""Delay arithmetic for the two-tier data plane.

All functions are pure.  Times are milliseconds, capacities are requests
per epoch, bandwidths are bits per ms.  The projected queueing delay is
piecewise: a request that fits into the free service slots of the current
epoch completes within one epoch; otherwise it waits for the excess queue
ahead of it to drain at the bucket's service rate.
"""

from __future__ import annotations

import math


def projected_delay(queue_len: float, headroom: float, capacity: float, delta: float) -> float:
    """Expected completion delay for a request joining a bucket now, ms.

    One law prices a UPF QoS bucket and a MEC host alike.  If the queue
    fits into the headroom the request completes this epoch (delta);
    otherwise the excess ahead of it drains at the service rate and its own
    epoch of service is added on top.
    """
    if capacity <= 0.0:
        raise ValueError(f"capacity must be > 0, got {capacity}")
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if queue_len < 0.0 or headroom < 0.0:
        raise ValueError("queue_len and headroom must be >= 0")
    if queue_len < headroom:
        return delta
    return ((queue_len + 1.0 - headroom) / capacity) * delta + delta


def net_delay(n_share: int, bytes_per_ue: float, bandwidth: float) -> float:
    """Transfer delay on a UPF->MEC link shared by n_share requests, ms.

    bandwidth is in bits per ms; every sharer moves bytes_per_ue bytes.
    The result is in ms whatever the epoch length; transit_epochs converts.
    """
    if n_share < 0:
        raise ValueError(f"n_share must be >= 0, got {n_share}")
    if bytes_per_ue <= 0.0 or bandwidth <= 0.0:
        raise ValueError("bytes_per_ue and bandwidth must be > 0")
    return n_share * bytes_per_ue * 8.0 / bandwidth


def worst_case_batch_delay(
    queue_len: float, batch: float, headroom: float, capacity: float
) -> float:
    """Epochs until the last of `batch` requests placed on one bucket clears.

    Zero when the queue plus the batch still fits into the headroom.
    """
    if capacity <= 0.0:
        raise ValueError(f"capacity must be > 0, got {capacity}")
    if queue_len < 0.0 or batch < 0.0 or headroom < 0.0:
        raise ValueError("queue_len, batch and headroom must be >= 0")
    return max(0.0, (queue_len + batch - headroom) / capacity)


def transit_epochs(d_net: float, delta: float) -> int:
    """Whole epochs a transfer occupies the link: d_net rounded up."""
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if d_net < 0.0:
        raise ValueError(f"d_net must be >= 0, got {d_net}")
    return int(math.ceil(d_net / delta))
