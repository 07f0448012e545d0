"""Paired per-cell A/B of two upfmec source trees, in one process: a sizing aid.

Run as ``python3 tools/ab_cells.py A/src B/src [seeds]`` (default 1-4).
Each cell runs under both trees back to back, the first tree alternating
from cell to cell; per cell set it prints the median B/A time ratio and
its quartiles, for the run and for its post-processing (``completed_e2e``
in a sweep cell, ``write_events_csv`` to a temporary file in the event
log set, else ``summarize``).  The metro sweep and campus5 sets are one
per scheme.  The campus5 and 50-pair sets hold one cell per seed, so
their quartiles need more seeds than the default (1-16, say) to be
steady.  The trees must give equal results: equal delays, or equal event
log bytes.  Speed claims quote ``perfbench``.
"""

import gc
import importlib
import os
import statistics
import sys
import tempfile
from dataclasses import replace
from time import perf_counter


def load(src):
    """The model, engine and metrics modules of the upfmec package under src."""
    for name in [m for m in sys.modules if m.split(".")[0] == "upfmec"]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return [importlib.import_module(f"upfmec.{m}") for m in ("model", "engine", "metrics")]
    finally:
        sys.path.remove(src)


def cell_sets(src, model, metrics, events_path):
    """{set name: [(scenario, post-processing, its result), ...]}, built with this tree's model.

    The result, compared between the trees, is read after the timed
    post-processing: its delays, or the bytes of the event log it wrote.
    """
    metro, campus5 = (model.load_scenario(f"{src}/upfmec/scenarios/{name}.yaml")
                      for name in ("metro", "campus5"))
    s, pairs = model.Scheme, metrics.build_pair_scenario

    def by_class(e2e):
        return [v.tolist() for v in e2e.values()]

    def d_e2e(report):
        return report.d_e2e.tolist()

    def write_events(run):
        metrics.write_events_csv(run, events_path)

    def events(_):
        with open(events_path, "rb") as fh:
            return fh.read()

    summary = (metrics.summarize, d_e2e)
    # one set per scheme: the schemes price different tiers, so their ratios differ
    sweep = {f"metro sweep cells, {x.value}": [
        (replace(pairs(metro, p), scheme=x), metrics.completed_e2e, by_class) for p in range(1, 11)
    ] for x in (s.BASELINE, s.BESTFIT_UPF_MEC)}
    campus = {f"campus5, {x.value}": [(replace(campus5, scheme=x), *summary)] for x in s}
    return sweep | campus | {
        "metro at 50 pairs": [(replace(pairs(metro, 50), scheme=s.BESTFIT_UPF_MEC), *summary)],
        "event log": [(replace(campus5, scheme=s.BASELINE), write_events, events),
                      (replace(pairs(metro, 1), drain_cap_epochs=0), write_events, events),
                      (replace(pairs(metro, 50), scheme=s.BESTFIT_UPF_MEC), write_events,
                       events)],
    }


def timed(engine, seed, scenario, post, result):
    """Seconds of the run and of its post-processing, and the result it gives."""
    gc.collect()
    t0 = perf_counter()
    run = engine.run_to_completion(scenario, seed=seed)
    t1 = perf_counter()
    out = post(run)
    t2 = perf_counter()
    return t1 - t0, t2 - t1, result(out)


def main(a_src, b_src, seeds="1-4"):
    with tempfile.TemporaryDirectory() as tmp:
        compare(a_src, b_src, seeds, os.path.join(tmp, "events.csv"))


def compare(a_src, b_src, seeds, events_path):
    lo, _, hi = seeds.partition("-")
    trees = []
    for src in (a_src, b_src):
        model, engine, metrics = load(src)
        trees.append((engine, cell_sets(src, model, metrics, events_path)))
    n = 0
    for name in trees[0][1]:
        ratios = ([], [])
        for seed in range(int(lo), int(hi or lo) + 1):
            for cells in zip(trees[0][1][name], trees[1][1][name]):
                out = {k: timed(trees[k][0], seed, *cells[k])
                       for k in ((0, 1) if n % 2 == 0 else (1, 0))}
                n += 1
                if out[0][2] != out[1][2]:
                    raise SystemExit(f"{name}, seed {seed}: the trees' results differ")
                for phase in (0, 1):
                    ratios[phase].append(out[1][phase] / out[0][phase])
        for label, r in zip(("run", "post-processing"), ratios):
            q1, med, q3 = statistics.quantiles(r, n=4)
            print(f"{name}: {label} B/A median {med:.3f} (IQR {q1:.3f}-{q3:.3f}), {len(r)} cells")


if __name__ == "__main__":
    main(*sys.argv[1:])
