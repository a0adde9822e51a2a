"""Regenerate references.json: the gated key values of every workload body.

    python3 perfbench/make_references.py

Runs one body of each workload, at both sizes, for every program seed, in
fresh child processes exactly as the benchmark does (two at a time), and
stores the key values of its CLI invocations.  Every invocation must exit 0.
Run it only when a workload definition changes, never to absorb a changed
result.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import run
import workloads

JOBS = 2


def reference_keys(size: str, workload: str, pseed: int) -> dict:
    keys = {}
    for rec in run.one_body(workload, size, pseed)["invocations"]:
        if rec["rc"] != 0:
            raise RuntimeError(f"{size} {workload} seed {pseed}: {rec['subcommand']} exited {rec['rc']}")
        keys.update(rec["keys"])
    return keys


def main() -> int:
    tasks = [(size, w, s) for size in ("full", "tiny") for w in workloads.WORKLOADS
             for s in range(workloads.PROGRAM_SEEDS)]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        values = list(pool.map(lambda t: reference_keys(*t), tasks))
    refs: dict = {}
    for (size, w, s), keys in zip(tasks, values):
        refs.setdefault(size, {}).setdefault(w, {})[str(s)] = keys
    with open(run.HERE / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
