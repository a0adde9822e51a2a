"""Workload definitions: the CLI invocations of one body and their key values.

A body is the unit of work timed as ``wall_s``.  Each workload yields, for
one output directory and one program seed, the sequence of
``(subcommand, config)`` pairs passed to ``sqgbox.cli.run``; the seed
reaches the program only through ``--seed``.  ``key_values`` reads back the
report values that the output gate compares with stored references.

Configs set only keys that the package plans to keep: never ``workers`` or
``solver.dealias_factor``.
"""

from __future__ import annotations

import json
import os

# Benchmark seeds map onto this many program seeds; references.json holds the
# key values of every one of them, so every run is gated.
PROGRAM_SEEDS = 16

WORKLOADS = ("sqg-m128", "estimates-m32", "structure-quad")

ESTIMATE_STEPS = ("simulate", "verify-bilinear", "verify-multipliers", "verify-duhamel", "verify-uniqueness")

_SQG = {
    "full": {
        "domain": {"modes": [128, 128], "grid": [256, 256]},
        "samples": {"mode_count": 128},
        "initial": {"type": "random", "amplitude": 2.0},
        "solver": {"dt": 1e-3, "horizon": 0.3, "scheme": "ETD2", "snapshot_stride": 10},
    },
    "tiny": {
        "domain": {"modes": [16, 16], "grid": [32, 32]},
        "samples": {"mode_count": 16},
        "initial": {"type": "random", "amplitude": 2.0},
        "solver": {"dt": 1e-3, "horizon": 0.02, "scheme": "ETD2", "snapshot_stride": 10},
    },
}

# The estimate suite runs the default config at full size; tiny shrinks
# sample counts and horizons only.
_ESTIMATES = {
    "full": {},
    "tiny": {
        "domain": {"modes": [8, 8], "grid": [16, 16]},
        "refined_grid": [32, 32],
        "samples": {"mode_count": 8, "count": 2},
        "solver": {"horizon": 0.01},
        "duhamel": {"count": 2, "horizon": 0.01},
        "uniqueness": {"horizon": 0.01, "cross_dt": 1e-3},
    },
}

_STRUCTURE = {
    "full": {},
    "tiny": {
        "domain": {"modes": [8, 8], "grid": [16, 16]},
        "samples": {"mode_count": 8},
        "structure": {"j_f": 2, "j_g": 1, "pair_count": 1},
    },
}


def program_seed(seed: int) -> int:
    return seed % PROGRAM_SEEDS


def invocations(workload: str, size: str, outdir: str):
    """Yield (subcommand, config dict, output dir) for one body, in order."""
    if workload == "sqg-m128":
        yield "simulate", _SQG[size], os.path.join(outdir, "simulate")
    elif workload == "estimates-m32":
        cfg = _ESTIMATES[size]
        for sub in ESTIMATE_STEPS:
            yield sub, cfg, os.path.join(outdir, sub)
        traj = os.path.join(outdir, "simulate", "trajectory")
        with open(os.path.join(traj, "trajectory.json")) as fh:
            final = json.load(fh)["snapshot_files"][-1]
        yield "besov-norm", dict(cfg, field_file=os.path.join(traj, final)), os.path.join(outdir, "besov-norm")
    elif workload == "structure-quad":
        yield "verify-structure", _STRUCTURE[size], os.path.join(outdir, "verify-structure")
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _load(rundir: str, name: str):
    with open(os.path.join(rundir, name)) as fh:
        return json.load(fh)


def key_values(subcommand: str, rundir: str) -> dict:
    """Gated report values of one finished invocation."""
    if subcommand == "simulate":
        rep = _load(rundir, "simulate.json")
        return {
            "simulate.final_l2": rep["final_l2"],
            "simulate.max_orthogonality_residual": rep["max_orthogonality_residual"],
        }
    if subcommand == "verify-bilinear":
        asserted = [r["max_ratio"] for r in _load(rundir, "bilinear.json") if not r["details"].get("probe")]
        return {"verify-bilinear.worst_asserted_ratio": max(asserted)}
    if subcommand == "verify-duhamel":
        return {"verify-duhamel.max_ratio": _load(rundir, "duhamel.json")["max_ratio"]}
    if subcommand == "verify-uniqueness":
        return {"verify-uniqueness.shrink_factor": _load(rundir, "uniqueness.json")["shrink_factor"]}
    if subcommand == "verify-structure":
        return {"verify-structure.worst_residual": max(r["residual"] for r in _load(rundir, "structure.json"))}
    if subcommand == "besov-norm":
        return {"besov-norm.value": _load(rundir, "besov.json")["value"]}
    return {}


def work_units(workload: str, outdir: str, quad_nodes: int | None) -> dict:
    """Units of work done by one body: solver steps, or mu-nodes x pairs.

    ``quad_nodes`` is the count of mu-nodes the program's quadratures handed
    out during the body (see ``tracer.QuadratureNodeCounter``).
    """
    if workload == "sqg-m128":
        return {"steps": _load(os.path.join(outdir, "simulate"), "simulate.json")["steps"]}
    if workload == "structure-quad" and quad_nodes:
        return {"quad_nodes": quad_nodes}
    return {}
