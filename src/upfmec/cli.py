"""Command line front end.

Subcommands: `run` simulates one scenario and writes its reports,
`compare` runs several schemes over a common seed set, `capex` sweeps
deployment sizes, and `oracle-gap` scores the sequential bestfit
heuristic against the exhaustive batch optimum on random instances.

Scenario arguments take either a YAML file path or the name of a bundled
scenario (see upfmec/scenarios/).  All output files are deterministic
for a fixed scenario and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from functools import partial
from importlib import resources
from typing import List, Optional, Sequence

import numpy as np

from . import metrics
from .engine import run_to_completion
from .model import Scenario, ScenarioError, Scheme, load_scenario, validate_scenario
from .oracle import MAX_BATCH, MAX_UPFS, minmax_batch_optimum, sequential_heuristic_batch

ALL_SCHEMES = [s.value for s in Scheme]


def _resolve_scenario(ref: str) -> Scenario:
    try:
        return load_scenario(ref)
    except FileNotFoundError:
        pass
    bundled = resources.files("upfmec").joinpath(f"scenarios/{ref}.yaml")
    if bundled.is_file():
        return load_scenario(str(bundled))
    raise FileNotFoundError(f"no scenario file or bundled scenario named {ref!r}")


def _parse_int_list(text: str) -> List[int]:
    """Accept '1,2,5' and '1-10' (inclusive range), or a mix, naming each value once."""
    out: List[int] = []
    for part in text.split(","):
        part = part.strip()
        try:
            if "-" in part[1:]:
                lo, hi = (int(x) for x in part.split("-", 1))
            elif part:
                lo = hi = int(part)
            else:
                continue
        except ValueError:
            msg = f"{text!r} is not a list of integers and ranges like 1,3,5-10"
            raise ValueError(msg) from None
        if hi < lo:
            raise ValueError(f"range {part!r} is empty")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError(f"empty list: {text!r}")
    if len(set(out)) != len(out):
        raise ValueError(f"{text!r} names a value twice")
    return out


def _check_seeds(flag: str, seeds: Sequence[int]) -> None:
    """Refuse a seed by its flag unless 0 <= seed < 2**64: numpy seeds its
    generators from integers >= 0, and a seed stems report file names, which
    at 20 digits stay within the file system's 255 bytes."""
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"{flag} must be >= 0, got {seed}")
        if seed >= 2**64:
            raise ValueError(f"{flag} must be below 2**64, got {seed}")


def _make_out(out: str) -> None:
    """Create the --out directory; a path that cannot be one is a usage error."""
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--out {out}: {exc.strerror}") from None


def cmd_run(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    if args.scheme:
        scenario = replace(scenario, scheme=Scheme(args.scheme))
    if args.seed is not None:
        _check_seeds("--seed", [args.seed])
    run = run_to_completion(scenario, seed=args.seed)
    # one view of the finished run serves every report read from it
    view = metrics.RunView(run)
    report = metrics.summarize(run, view)
    out = args.out
    _make_out(out)
    name, scheme, seed = scenario.name, scenario.scheme.value, run.scenario.seed
    reports = [("summary", "csv", metrics.write_summary_csv, report),
               ("summary", "json", metrics.write_summary_json, report),
               ("cdf", "csv", metrics.write_cdf_csv, metrics.build_cdf(report.d_e2e))]
    if args.trace:
        reports += [("trace", "csv", partial(metrics.write_trace_csv, view=view), run),
                    ("events", "csv", partial(metrics.write_events_csv, view=view), run)]
    paths = []
    for kind, ext, write, source in reports:
        paths.append(metrics.report_path(out, name, scheme, seed, kind, ext))
        write(source, paths[-1])
    print(
        f"{name} scheme={scheme} seed={seed}: generated={run.generated} "
        f"completed={run.completed} dropped={run.dropped} "
        f"epochs={run.epoch} truncated={run.truncated}"
    )
    if report.e2e_overall:
        d = report.e2e_overall
        print(
            f"e2e ms: mean={d.mean:.3f} p50={d.percentiles[50.0]:.3f} "
            f"p99={d.percentiles[99.0]:.3f} max={d.max:.3f}"
        )
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_compare(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    schemes = ALL_SCHEMES if args.schemes == "all" else [s.strip() for s in args.schemes.split(",")]
    for s in schemes:
        if s not in ALL_SCHEMES:
            raise ValueError(f"unknown scheme {s!r}; valid: {', '.join(ALL_SCHEMES)}")
    if len(set(schemes)) != len(schemes):
        raise ValueError(f"--schemes names a scheme twice: {args.schemes!r}")
    seeds = _parse_int_list(args.seeds)
    _check_seeds("--seeds", seeds)
    # every scheme's runs are checked before --out exists, so a scheme the
    # scenario refuses leaves no output, whatever its place in the list
    variants = [replace(scenario, scheme=Scheme(s), seed=seeds[0]) for s in schemes]
    for variant in variants:
        violations = validate_scenario(variant)
        if violations:
            raise ScenarioError("; ".join(violations))
    out = args.out
    _make_out(out)
    rows = []
    agg = {}
    for scheme, variant in zip(schemes, variants):
        pooled_e2e: List[np.ndarray] = []
        maxima, means = [], []
        for seed in seeds:
            run = run_to_completion(variant, seed=seed)
            rep = metrics.summarize_head(run)
            d = rep.e2e_overall
            rows.append([
                scheme, seed, rep.generated, rep.completed, rep.dropped,
                repr(d.max) if d else "", repr(d.percentiles[99.0]) if d else "",
                repr(d.mean) if d else "", rep.peak_upf_queue, rep.peak_mec_queue,
            ])
            if d:
                maxima.append(d.max)
                means.append(d.mean)
            pooled_e2e.append(rep.d_e2e)
        cdf_path = metrics.report_path(out, scenario.name, scheme, "pooled", "cdf", "csv")
        metrics.write_cdf_csv(metrics.build_cdf(np.concatenate(pooled_e2e)), cdf_path)
        agg[scheme] = {
            "mean_of_max": float(np.mean(maxima)) if maxima else None,
            "mean_of_mean": float(np.mean(means)) if means else None,
        }
    base_max = agg.get(Scheme.BASELINE.value, {}).get("mean_of_max")
    table = metrics.report_path(out, scenario.name, "compare", "pooled", "summary", "csv")
    with open(table, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([
            "scheme", "seed", "generated", "completed", "dropped",
            "max_e2e_ms", "p99_e2e_ms", "mean_e2e_ms",
            "peak_upf_queue", "peak_mec_queue",
        ])
        w.writerows(rows)
        w.writerow([])
        w.writerow(["scheme", "mean_of_max_e2e_ms", "mean_e2e_ms", "reduction_vs_baseline_pct"])
        for scheme in schemes:
            m = agg[scheme]["mean_of_max"]
            red = ""
            if base_max and m is not None and scheme != Scheme.BASELINE.value:
                red = repr(100.0 * (base_max - m) / base_max)
            w.writerow([scheme, repr(m) if m is not None else "",
                        repr(agg[scheme]["mean_of_mean"]) if agg[scheme]["mean_of_mean"] is not None else "", red])
    for scheme in schemes:
        m = agg[scheme]["mean_of_max"]
        label = f"{m:.3f}" if m is not None else "n/a"
        print(f"{scheme}: mean-of-max e2e {label} ms over seeds {seeds}")
    print(f"wrote {table}")
    return 0


def cmd_capex(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    pairs = _parse_int_list(args.pairs)
    seeds = _parse_int_list(args.seeds)
    _check_seeds("--seeds", seeds)
    # the sweep checks the pair counts and the scenario before any run, and
    # writes nothing: a usage error leaves no output directory
    points = metrics.capex_sweep(scenario, pairs, seeds)
    out = args.out
    _make_out(out)
    csv_path = f"{out}/{scenario.name}.capex.csv"
    metrics.write_capex_csv(points, csv_path)
    print(f"wrote {csv_path}")
    for qos in sorted(scenario.thresholds_ms, key=lambda q: q.value):
        analysis = metrics.capex_analysis(points, qos=qos)
        a_path = f"{out}/{scenario.name}.capex_analysis.{qos.value}.json"
        with open(a_path, "w", encoding="utf-8") as fh:
            json.dump(analysis, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        gain = analysis["connectivity_gain"].get(max(analysis["pair_counts"]))
        gain_s = f"{gain:.2f}x" if gain is not None else "n/a"
        print(
            f"{qos.value}: breakeven at {analysis['breakeven_pairs']} pairs, "
            f"gain at {max(analysis['pair_counts'])} pairs {gain_s}"
        )
        print(f"wrote {a_path}")
    return 0


def cmd_oracle_gap(args) -> int:
    # the exhaustive search's bounds, checked before the output file exists
    if not 1 <= args.upfs <= MAX_UPFS:
        raise ValueError(
            f"--upfs must be in 1..{MAX_UPFS} for exhaustive search, got {args.upfs}"
        )
    if not 1 <= args.n_max <= MAX_BATCH:
        raise ValueError(
            f"--n-max must be in 1..{MAX_BATCH} for exhaustive search, got {args.n_max}"
        )
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    _check_seeds("--seed", [args.seed])
    rng = np.random.default_rng(args.seed)
    out = args.out
    _make_out(out)
    path = f"{out}/oracle_gap.u{args.upfs}.n{args.n_max}.seed{args.seed}.csv"
    exact = 0
    worst_ratio = 1.0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["instance", "n", "optimum_epochs", "heuristic_epochs", "ratio"])
        for t in range(args.trials):
            caps = rng.integers(1, 9, size=args.upfs)
            in_service = np.array([rng.integers(0, c + 1) for c in caps])
            queues = rng.integers(0, 21, size=args.upfs)
            buckets = [
                (float(q), float(c - s), float(c))
                for q, s, c in zip(queues, in_service, caps)
            ]
            n = int(rng.integers(1, args.n_max + 1))
            _, opt = minmax_batch_optimum(n, buckets)
            _, heur = sequential_heuristic_batch(n, buckets)
            if heur == opt:
                exact += 1
                ratio = 1.0
            elif opt > 0.0:
                ratio = heur / opt
            else:
                ratio = float("inf")
            worst_ratio = max(worst_ratio, ratio)
            w.writerow([t, n, repr(opt), repr(heur), repr(ratio)])
    print(
        f"{args.trials} instances (U={args.upfs}, n<= {args.n_max}): "
        f"{exact} exact, worst heuristic/optimum ratio {worst_ratio:.4f}"
    )
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upfmec",
        description="Flow-level simulator of a private-5G UPF/MEC data plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate one scenario and write reports")
    p.add_argument("--scenario", default="campus5", help="YAML path or bundled name")
    p.add_argument("--scheme", choices=ALL_SCHEMES, help="override the scenario's scheme")
    p.add_argument("--seed", type=int, help="override the scenario's seed")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--trace", action="store_true", help="also write per-epoch trace and event log")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run several schemes over a common seed set")
    p.add_argument("--scenario", default="campus5")
    p.add_argument("--schemes", default="all", help="comma list of schemes, or 'all'")
    p.add_argument("--seeds", default="1-10", help="comma list or range, e.g. 1-10")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("capex", help="sweep deployment sizes for baseline vs load-aware")
    p.add_argument("--scenario", default="campus5")
    p.add_argument("--pairs", default="1-10", help="pair counts, e.g. 1-10 or 2,4,8")
    p.add_argument("--seeds", default="1-5")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_capex)

    p = sub.add_parser("oracle-gap", help="sequential heuristic vs exhaustive optimum")
    p.add_argument("--upfs", type=int, default=3)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_oracle_gap)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # malformed --seeds/--pairs lists, seeds out of range, pair counts below
        # 1, unknown or repeated --schemes, oracle-gap sizes out of bounds, an
        # --out that cannot be a directory and a scenario file that cannot be
        # read or is not YAML
        print(f"upfmec: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
