"""Paired per-cell and per-command A/B of two upfmec source trees, in one process: a sizing aid.

Run as ``python3 tools/ab_cells.py A/src B/src [seeds]`` (default 1-4).
Each cell runs under both trees back to back, the first tree alternating
from cell to cell; per cell set it prints the median B/A time ratio and
its quartiles, for the run, for its post-processing (``completed_e2e``
in a sweep cell, ``write_events_csv`` or ``write_trace_csv`` to a
temporary file in the event log and trace sets, else ``summarize``) and
for the two together.  The campus5 sets are one per scheme; the metro
sweep sets are one per scheme and pair band, 1-4 and 5-10 pairs, so that
a gain at one band cannot hide a loss at the other.  The campus5,
50-pair and trace sets hold one cell per seed, so their quartiles need
more seeds than the default (1-16, say) to be steady.  The trees must
give equal results: equal delays, or equal bytes of the file written.

A cell times only the run and its one post-processing call, so the
command sets time whole ``upfmec`` commands: the units ``perfbench``
times for ``campus_compare`` and ``metro_capex`` (per seed s, ``compare``
on campus5 under every scheme with seeds s to s+3, and ``capex`` on metro
at 1-10 pairs with seed s), and ``run --trace`` on campus5 under
``bestfit_upf_mec`` with seed s, which writes every report of one run.
Each command writes into an empty directory, and the two trees must
write the same files, byte for byte.  Speed claims quote ``perfbench``.
"""

import contextlib
import gc
import importlib
import io
import os
import shutil
import statistics
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter


def load(src):
    """The model, engine, metrics and cli modules of the upfmec package under src."""
    for name in [m for m in sys.modules if m.split(".")[0] == "upfmec"]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return [importlib.import_module(f"upfmec.{m}")
                for m in ("model", "engine", "metrics", "cli")]
    finally:
        sys.path.remove(src)


def cell_sets(src, model, metrics, events_path):
    """{set name: [(scenario, post-processing, its result), ...]}, built with this tree's model.

    The result, compared between the trees, is read after the timed
    post-processing: its delays, or the bytes of the file it wrote.
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

    def write_trace(run):
        metrics.write_trace_csv(run, events_path)

    def events(_):
        with open(events_path, "rb") as fh:
            return fh.read()

    summary = (metrics.summarize, d_e2e)
    # one set per scheme and pair band: the schemes price different tiers,
    # and a change can gain at 5-10 pairs while it loses at 1-4
    sweep = {f"metro sweep cells, {x.value}, {lo}-{hi} pairs": [
        (replace(pairs(metro, p), scheme=x), metrics.completed_e2e, by_class)
        for p in range(lo, hi + 1)
    ] for x in (s.BASELINE, s.BESTFIT_UPF_MEC) for lo, hi in ((1, 4), (5, 10))}
    campus = {f"campus5, {x.value}": [(replace(campus5, scheme=x), *summary)] for x in s}
    return sweep | campus | {
        "metro at 50 pairs": [(replace(pairs(metro, 50), scheme=s.BESTFIT_UPF_MEC), *summary)],
        "event log": [(replace(campus5, scheme=s.BASELINE), write_events, events),
                      (replace(pairs(metro, 1), drain_cap_epochs=0), write_events, events),
                      (replace(pairs(metro, 50), scheme=s.BESTFIT_UPF_MEC), write_events,
                       events)],
        "trace, campus5, baseline": [(replace(campus5, scheme=s.BASELINE), write_trace, events)],
        "trace, metro at 50 pairs": [
            (replace(pairs(metro, 50), scheme=s.BESTFIT_UPF_MEC), write_trace, events)],
    }


def command_sets(src):
    """{set name: command for a seed}: the scenario files are this tree's own."""
    scenarios = f"{src}/upfmec/scenarios"
    return {
        "compare command": lambda seed: ["compare", "--scenario", f"{scenarios}/campus5.yaml",
                                         "--schemes", "all", "--seeds", f"{seed}-{seed + 3}"],
        "capex command": lambda seed: ["capex", "--scenario", f"{scenarios}/metro.yaml",
                                       "--pairs", "1-10", "--seeds", str(seed)],
        "run --trace command": lambda seed: ["run", "--scenario", f"{scenarios}/campus5.yaml",
                                             "--scheme", "bestfit_upf_mec", "--seed", str(seed),
                                             "--trace"],
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


def timed_command(cli, argv, out):
    """Seconds of the command, run into the empty directory out, and the files it wrote."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        rc = cli.main([*argv, "--out", out])
        t1 = perf_counter()
    if rc != 0:
        raise SystemExit(f"upfmec {' '.join(argv)}: exit status {rc}")
    return t1 - t0, {p.name: p.read_bytes() for p in Path(out).iterdir()}


def main(a_src, b_src, seeds="1-4"):
    with tempfile.TemporaryDirectory() as tmp:
        compare(a_src, b_src, seeds, tmp)


def print_ratios(name, label, r):
    q1, med, q3 = statistics.quantiles(r, n=4)
    print(f"{name}: {label} B/A median {med:.3f} (IQR {q1:.3f}-{q3:.3f}), {len(r)} cells")


def compare(a_src, b_src, seeds, tmp):
    lo, _, hi = seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    events_path, out = os.path.join(tmp, "events.csv"), os.path.join(tmp, "out")
    trees = []
    for src in (a_src, b_src):
        model, engine, metrics, cli = load(src)
        trees.append((engine, cli, cell_sets(src, model, metrics, events_path), command_sets(src)))
    n = 0

    def paired(time_tree):
        """time_tree(k) of both trees k, the first alternating from call to call."""
        nonlocal n
        n += 1
        return {k: time_tree(k) for k in ((0, 1) if n % 2 else (1, 0))}

    for name in trees[0][2]:
        ratios = ([], [], [])
        for seed in seeds:
            for cells in zip(trees[0][2][name], trees[1][2][name]):
                res = paired(lambda k: timed(trees[k][0], seed, *cells[k]))
                if res[0][2] != res[1][2]:
                    raise SystemExit(f"{name}, seed {seed}: the trees' results differ")
                for phase in (0, 1):
                    ratios[phase].append(res[1][phase] / res[0][phase])
                ratios[2].append(sum(res[1][:2]) / sum(res[0][:2]))
        for label, r in zip(("run", "post-processing", "run + post-processing"), ratios):
            print_ratios(name, label, r)
    for name in trees[0][3]:
        ratios = []
        for seed in seeds:
            res = paired(lambda k: timed_command(trees[k][1], trees[k][3][name](seed), out))
            if res[0][1] != res[1][1]:
                raise SystemExit(f"{name}, seed {seed}: the trees' output files differ")
            ratios.append(res[1][0] / res[0][0])
        print_ratios(name, "whole command", ratios)


if __name__ == "__main__":
    main(*sys.argv[1:])
