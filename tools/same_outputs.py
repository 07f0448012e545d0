"""Check that two upfmec source trees write the same output files, byte for byte.

Run as ``python3 tools/same_outputs.py A/src B/src``.  Under each tree, in
a fresh interpreter that imports upfmec from it, this runs ``run --trace``
on campus5 and metro under each of the four schemes with seeds 1-3,
``compare --scenario campus5 --seeds 1-4``, ``capex --pairs 1-10
--seeds 1-2`` on metro and on campus5, ``capex --pairs 25,50 --seeds
1-2`` on metro (the widest deployments, where most bestfit raises move
to the next floor tie), ``oracle-gap`` with its defaults and at the
enumeration bounds (``--upfs 5 --n-max 12 --trials 100 --seed 1``),
and ``run --trace`` under
``bestfit_upf_mec`` on three edits of campus5 that no bundled scenario
covers: deterministic arrivals, a 300-epoch horizon (epochs past 256
are past CPython's small-int cache), and a drain cap of 0, which stops
the run at its horizon with requests in UPF queues, on links and in MEC
queues.  Each command goes into a directory
of its own, and the command's standard output, with that directory's path
cut out, is kept beside its files.  A bundled scenario is read from each
tree's own package; the edits are written as YAML from A's campus5
into the temporary directory, once for both trees.  Every file that
differs between the trees, or that one tree lacks, is printed, and the
exit status is then 1; it is 0 when all are equal.
"""

import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

SCHEMES = ("baseline", "bestfit_upf_no_pe", "bestfit_upf_pe", "bestfit_upf_mec")
COMMANDS = {
    f"run.{name}.{scheme}.{seed}": ["run", "--scenario", name, "--scheme", scheme,
                                    "--seed", str(seed), "--trace"]
    for name in ("campus5", "metro") for scheme in SCHEMES for seed in (1, 2, 3)
}
COMMANDS["compare.campus5"] = ["compare", "--scenario", "campus5", "--seeds", "1-4"]
for name in ("metro", "campus5"):
    COMMANDS[f"capex.{name}"] = ["capex", "--scenario", name, "--pairs", "1-10", "--seeds", "1-2"]
COMMANDS["capex.metro.wide"] = ["capex", "--scenario", "metro", "--pairs", "25,50", "--seeds", "1-2"]
COMMANDS["oracle-gap"] = ["oracle-gap"]
COMMANDS["oracle-gap.bounds"] = ["oracle-gap", "--upfs", "5", "--n-max", "12", "--trials", "100",
                                 "--seed", "1"]
# campus5 edits: scenario name -> (section or None, key, value)
EDITS = {
    "campus5_deterministic": ("traffic", "process", "deterministic"),
    "campus5_h300": (None, "horizon_epochs", 300),
    "campus5_undrained": (None, "drain_cap_epochs", 0),
}

# runs in the tree's interpreter: argv[1] maps directory names to commands,
# argv[2] is the directory they go under
RUNNER = """
import contextlib, io, json, sys
from upfmec.cli import main
for label, command in json.loads(sys.argv[1]).items():
    out = f"{sys.argv[2]}/{label}"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main([*command, "--out", out])
    if rc != 0:
        sys.exit(f"{' '.join(command)}: exit status {rc}")
    with open(f"{out}/stdout.txt", "w", encoding="utf-8") as fh:
        fh.write(stdout.getvalue().replace(out, "<out>"))
"""


def write_edits(src: Path, into: Path) -> dict:
    """Write each of ``EDITS`` as a scenario file under into; the commands that run them."""
    base = (src / "upfmec" / "scenarios" / "campus5.yaml").read_text()
    commands = {}
    for name, (section, key, value) in EDITS.items():
        doc = yaml.safe_load(base)
        (doc[section] if section else doc)[key] = value
        doc["name"] = name
        path = into / f"{name}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        commands[f"run.{name}"] = ["run", "--scenario", str(path), "--scheme",
                                   "bestfit_upf_mec", "--trace"]
    return commands


def write_outputs(src: Path, commands: dict, out: Path) -> None:
    """Run the commands under the upfmec package in src, writing into out."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", RUNNER, json.dumps(commands), str(out)],
                   env=env, check=True)


def differing(a: Path, b: Path):
    """The relative paths of all files under a or b, and of those that differ or one lacks."""
    files = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()})
    diffs = [rel for rel in files if not ((a / rel).is_file() and (b / rel).is_file()
                                          and filecmp.cmp(a / rel, b / rel, shallow=False))]
    return files, diffs


def main(a_src: str, b_src: str) -> int:
    trees = [Path(src).resolve() for src in (a_src, b_src)]
    for src in trees:
        if not (src / "upfmec" / "__init__.py").is_file():
            raise SystemExit(f"{src}: no upfmec package here")
    with tempfile.TemporaryDirectory() as tmp:
        commands = COMMANDS | write_edits(trees[0], Path(tmp))
        outs = [Path(tmp, side) for side in ("a", "b")]
        for src, out in zip(trees, outs):
            write_outputs(src, commands, out)
        files, diffs = differing(*outs)
    for rel in diffs:
        print(f"differs: {rel}")
    print(f"{len(diffs)} of {len(files)} files differ, over {len(commands)} commands")
    return 1 if diffs else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: python3 tools/same_outputs.py A/src B/src")
    sys.exit(main(*sys.argv[1:]))
