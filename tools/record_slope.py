"""Print the bytes a finished run keeps per request, at its horizon H and at 4H, and the slope.

Run as ``python3 tools/record_slope.py [src]`` (default: this checkout's
``src``).  For each case, a warm-up run first fills the interpreter's
caches; then tracemalloc counts what one ``run_to_completion`` with seed 1
leaves allocated while the finished run is alive.  That is done at the
scenario's horizon H and at 4H, and the slope is (retained at 4H -
retained at H) / (requests at 4H - requests at H): the bytes each further
request adds, which the fixed part of a topology (its queues, tables and
link state) does not enter.  The cases are metro scaled to 50 pairs under
``bestfit_upf_mec`` and campus5 under ``baseline``.
"""

import gc
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def retained(engine, scenario):
    """(bytes retained by one seed-1 run of scenario, its requests), after a warm-up run."""
    engine.run_to_completion(scenario, seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run = engine.run_to_completion(scenario, seed=1)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept, run.generated


def main(src: str) -> None:
    sys.path.insert(0, src)
    from upfmec import engine, metrics, model

    def bundled(name):
        return model.load_scenario(f"{src}/upfmec/scenarios/{name}.yaml")

    cases = {
        "metro at 50 pairs, bestfit_upf_mec": replace(
            metrics.build_pair_scenario(bundled("metro"), 50), scheme=model.Scheme.BESTFIT_UPF_MEC),
        "campus5, baseline": replace(bundled("campus5"), scheme=model.Scheme.BASELINE),
    }
    for name, scenario in cases.items():
        horizon = scenario.horizon_epochs
        (b1, n1), (b4, n4) = (retained(engine, replace(scenario, horizon_epochs=h))
                              for h in (horizon, 4 * horizon))
        print(f"{name}: {b1 / n1:.1f} B/request at H={horizon} ({n1} requests), "
              f"{b4 / n4:.1f} at 4H ({n4}), slope {(b4 - b1) / (n4 - n1):.1f} B/request")


if __name__ == "__main__":
    if len(sys.argv) > 2:
        raise SystemExit("usage: python3 tools/record_slope.py [src]")
    main(str(Path(sys.argv[1]).resolve()) if len(sys.argv) == 2 else str(SRC))
