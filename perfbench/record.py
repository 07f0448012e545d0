"""Record the reference digest of every unit the benchmark can run.

    python3 perfbench/record.py [WORKLOAD ...]

Run it on the commit whose outputs are the reference; it rewrites the
named workloads' entries (all by default) in ``reference.json``. A change
that alters simulated outputs on purpose re-records them and says which
outputs moved and why.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads


def main(names) -> int:
    program = workloads.import_program()
    try:
        reference = workloads.load_reference()
    except FileNotFoundError:
        reference = {}
    out = workloads.OUT / "record"
    for name in names or workloads.WORKLOADS:
        workload = workloads.WORKLOADS[name]
        workload.prepare(program)
        digests = {}
        for key in workload.pool:
            shutil.rmtree(out, ignore_errors=True)
            digests[str(key)] = workload.run_unit(program, key, out).digest
        reference[name] = digests
        print(f"{name}: {len(digests)} units recorded", flush=True)
    shutil.rmtree(out, ignore_errors=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
