"""Request-to-resource assignment policies.

Each scheme is called with a request's QoS class, its origin UPF id and
the run.  It reads the run's cost vectors (the projected delay of joining
every UPF bucket of the request's class, and every MEC, now) and only
chooses: it returns a plain ``(upf_id, mec_id)`` tuple, ``mec_id`` None
for a class that ends at the UPF.  The engine applies and records the
choice and keeps current the vectors the scheme reads (``SCHEMES``):
``baseline`` none, ``bestfit_upf_mec`` both, the other two the UPF's.
Decisions never mutate state.  A bestfit choice is the vector's ``best``,
the first minimum the vector keeps itself, so ties break toward the lowest
index and results are deterministic for identical states.
``oracle.sequential_heuristic_batch`` places through a ``CostVector`` of
its own, so ``oracle-gap`` scores this same choice.
"""

from __future__ import annotations

from typing import Optional, Tuple

# a UPF or MEC id is its position in the scenario's list from 1, so a cost
# vector index i is the id i + 1


def assign_baseline(qos, origin_upf, run) -> Tuple[int, Optional[int]]:
    """SMF default: origin UPF and its co-located MEC, no load awareness."""
    return origin_upf, (origin_upf if qos.uses_mec else None)


def assign_bestfit_no_pe(qos, origin_upf, run) -> Tuple[int, Optional[int]]:
    """Bestfit UPF, but the data path still ends at the origin's MEC."""
    upf_id = run.upf_cost[qos].best + 1
    return upf_id, (origin_upf if qos.uses_mec else None)


def assign_bestfit_pe(qos, origin_upf, run) -> Tuple[int, Optional[int]]:
    """Bestfit UPF with path extension to that UPF's co-located MEC.

    ``validate_scenario`` admits this scheme only where there are as many
    UPFs as MECs, so every UPF has one.
    """
    upf_id = run.upf_cost[qos].best + 1
    return upf_id, (upf_id if qos.uses_mec else None)


def assign_bestfit_upf_mec(qos, origin_upf, run) -> Tuple[int, Optional[int]]:
    """Bestfit UPF and bestfit MEC, each chosen on its own tier's state."""
    return run.upf_cost[qos].best + 1, (run.mec_cost.best + 1 if qos.uses_mec else None)


# each scheme's function and whether it reads the UPF and the MEC cost vectors
SCHEMES = {
    "baseline": (assign_baseline, False, False),
    "bestfit_upf_no_pe": (assign_bestfit_no_pe, True, False),
    "bestfit_upf_pe": (assign_bestfit_pe, True, False),
    "bestfit_upf_mec": (assign_bestfit_upf_mec, True, True),
}
# the functions alone, which a run calls through (perfbench's tracer wraps them)
SCHEME_FUNCS = {name: fn for name, (fn, _, _) in SCHEMES.items()}
