"""The host's speed, measured between units by a fixed reference kernel.

The benchmark shares its processor with other work it cannot see, and on
a shared host the speed the program gets moves by a factor of up to two
over minutes (see README.md, "Noise"). To compare commits whose runs were
made at different times, each run also times a fixed pure-Python kernel,
in probes of a few short chunks, before and after every unit it times.
A unit's host time is then scaled by how fast the kernel ran next to it:

    time at reference speed = host time * NOMINAL_CHUNK_MS / chunk ms

The kernel is part of the benchmark, not of the program, so a change to
the program moves the scaled times exactly as it moves host time when
the host's speed holds still. Its mix (attribute updates on small
objects, dict and list operations, a small numpy argmin) resembles the
simulator's inner loops.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List, Sequence

import numpy as np

NOMINAL_CHUNK_MS = 2.0  # the reference speed: one chunk in 2.0 ms
CHUNKS_PER_PROBE = 8
ROUNDS = 200


class _Item:
    __slots__ = ("key", "load", "queue")

    def __init__(self, key: int) -> None:
        self.key = key
        self.load = 0.0
        self.queue: List[int] = []


_ITEMS = [_Item(i) for i in range(64)]
_LOADS = np.zeros(50)


def chunk() -> float:
    """One unit of reference work; returns a value so nothing is optimised away."""
    totals = {}
    for r in range(ROUNDS):
        for item in _ITEMS:
            item.load += item.key * 0.5
            totals[item.key] = totals.get(item.key, 0.0) + item.load
            item.queue.append(r)
        _LOADS[r % 50] += 1.0
        int(_LOADS.argmin())
    for item in _ITEMS:
        item.load = 0.0
        item.queue.clear()
    _LOADS[:] = 0.0
    return sum(totals.values())


def probe(chunks: int = CHUNKS_PER_PROBE) -> List[float]:
    """Milliseconds of each of a few kernel chunks, run now."""
    times = []
    for _ in range(chunks):
        t0 = perf_counter()
        chunk()
        times.append((perf_counter() - t0) * 1e3)
    return times


def factor(probes: Sequence[Sequence[float]]) -> float:
    """Scale from host time to reference speed for work amid these probes."""
    return NOMINAL_CHUNK_MS / statistics.median([t for p in probes for t in p])
