"""Outside-in benchmark of sqgbox: launcher, output gate and report.

    python3 perfbench/run.py --workload sqg-m128 --seed 0 --seconds 58 --trace 0

Run from anywhere; the program under test is ``src/sqgbox`` next to this
directory, imported from source.  Each run starts fresh child processes
(``child.py``) with the BLAS thread count pinned, times set-up in several of
them, runs workload bodies for ``--seconds`` in one of them (timing the
host with ``probe.py`` between CLI invocations), checks every
CLI invocation against stored references, and prints a metric table, an
environment block and, as the last line, one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.

``--workload all`` runs the three workloads in turn; its last line then
holds every workload's metrics, prefixed with the workload name.
``--size tiny`` runs miniature workloads (used by the self-test).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import workloads  # noqa: E402

# One BLAS thread: on a shared 2-core machine, 2 threads spread the M=128
# run over a ~30% range, 1 thread over ~13%.
BLAS_THREADS = 1
SETUP_CHILDREN = 10
CHILD_TIMEOUT_S = 170.0

# Gate tolerance per key value: |value - ref| <= rtol * |ref| + atol.
DEFAULT_TOL = (1e-9, 0.0)
TOLERANCES = {
    # Round-off sized by construction (~1e-15); a wrong advection term gives O(1e-3) or more.
    "simulate.max_orthogonality_residual": (0.0, 1e-12),
    # Max distance between twin runs is ~1e-7 of the state: round-off is amplified ~1e6.
    "verify-uniqueness.shrink_factor": (1e-6, 0.0),
    # A ~1e-10 residual of O(1) terms: reversing the mu-node summation order moved it by 5e-6.
    "verify-structure.worst_residual": (1e-3, 0.0),
}

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ops_failed_frac": "fraction",
         "steps_per_s": "1/s", "quad_nodes_per_s": "1/s"}

# Functions whose calls are always reported (0 when absent or unused).
NAMED = {
    "domain": ("synthesize", "analyze", "pointwise_product", "partial_derivative", "lp_norm",
               "spectral_inner", "write_field", "read_field"),
    "multipliers": ("apply_multiplier", "dyadic_block", "heat_semigroup", "resolvent", "fractional_power"),
    "besov": ("besov_norm",),
    "solver": ("nonlinear_term", "velocity", "simulate", "save_trajectory"),
    "harness": ("bilinear_battery", "symmetrized_product", "verify_derivative_structure",
                "verify_duhamel_growth", "multiplier_bound_study", "uniqueness_experiment"),
    "kernels": ("power_sum", "resolvent_quadrature_table"),
}


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output gate
# ---------------------------------------------------------------------------


def gate(values: dict, reference: dict) -> list[str]:
    """Mismatches between one invocation's key values and its reference values."""
    bad = []
    for key in sorted(set(values) | set(reference)):
        if key not in reference:
            bad.append(f"{key}: no reference value")
            continue
        if key not in values:
            bad.append(f"{key}: missing from the report")
            continue
        v, r = values[key], reference[key]
        rtol, atol = TOLERANCES.get(key, DEFAULT_TOL)
        if not (isinstance(v, (int, float)) and math.isfinite(v) and abs(v - r) <= rtol * abs(r) + atol):
            bad.append(f"{key}: {v!r} vs reference {r!r} (rtol {rtol:g}, atol {atol:g})")
    return bad


def check_invocations(bodies: list, reference: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every CLI invocation of the run.

    An invocation fails when it does not exit 0 or when one of its key
    values misses the reference stored for this workload and program seed.
    """
    attempted, failed, messages = 0, 0, []
    for b, body in enumerate(bodies):
        for rec in body["invocations"]:
            attempted += 1
            if rec["rc"] != 0:
                bad = [f"exit {rec['rc']}"]
            elif reference is None:
                bad = ["no stored reference"]
            else:
                prefix = rec["subcommand"] + "."
                bad = gate(rec["keys"], {k: v for k, v in reference.items() if k.startswith(prefix)})
            failed += bool(bad)
            messages += [f"body {b} {rec['subcommand']}: {msg}" for msg in bad]
    return attempted, failed, messages


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(extra: list[str], timeout: float) -> float:
    """Start child.py, return seconds until it is ready; wait for it to exit 0."""
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(ROOT / "src"), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, stderr=None, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RuntimeError(f"child did not become ready: {line!r}")
        rc = proc.wait(timeout=max(1.0, timeout - setup))
        if rc != 0:
            raise RuntimeError(f"child exited with code {rc}")
        return setup
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def one_body(workload: str, size: str, pseed: int) -> dict:
    """Run exactly one untraced body in a fresh child and return its record."""
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"body-{workload}-", dir=work)
    try:
        result_path = f"{tmp}/result.json"
        run_child(["--workload", workload, "--size", size, "--seed", str(pseed), "--seconds", "0",
                   "--trace", "0", "--workdir", tmp, "--result", result_path], CHILD_TIMEOUT_S)
        with open(result_path) as fh:
            return json.load(fh)["bodies"][0]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def source_fingerprint() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "not a git checkout"
    if head.is_file():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sqgbox").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(xs):
    xs = [x for x in xs if x is not None]
    return statistics.median(xs) if xs else None


def body_wall(bodies: list) -> float:
    """Mean wall time of the bodies: the sum of their CLI invocations' walls."""
    return statistics.fmean(sum(r["wall_s"] for r in b["invocations"]) for b in bodies)


def host_probe(bodies: list) -> float:
    """Mean probe time over the bodies, each probe weighted by the wall of the
    invocation it follows, so that it averages over the same time as the walls."""
    recs = [r for b in bodies for r in b["invocations"]]
    return sum(r["wall_s"] * r["probe_s"] for r in recs) / sum(r["wall_s"] for r in recs)


def end_to_end(setups: list[float], result: dict) -> dict:
    """End-to-end metrics of a trace-0 run.

    wall_ref_s is wall_s scaled by the reference host's probe time over the
    run's probe time: the body's wall time at the reference host's speed.
    The probe does not touch sqgbox, so a change to the program moves
    wall_ref_s by the same share as wall_s, while a slow phase of the host
    moves both the bodies and the probes.
    """
    bodies = [b for b in result["bodies"] if not b["traced"]]
    wall = body_wall(bodies)
    probe_s = host_probe(bodies)
    m = {"setup_s": statistics.median(setups), "wall_s": wall, "wall_ref_s": wall * probe.REFERENCE_S / probe_s,
         "peak_rss_mb": result["peak_rss_mb"], "probe_s": probe_s,
         "setup_s.samples": len(setups), "wall_s.samples": len(bodies)}
    work = bodies[0].get("work", {})
    if "steps" in work:
        m["steps_per_s"] = work["steps"] / wall
    if "quad_nodes" in work:
        m["quad_nodes_per_s"] = work["quad_nodes"] / wall
    return m


TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)


def tail_percentile(samples) -> dict:
    """Median and the highest listed percentile with >= 10 samples beyond it."""
    x = np.asarray(samples, dtype=np.float64)
    out = {"samples": int(x.size)}
    if x.size == 0:
        return out
    out["p50"] = float(np.percentile(x, 50))
    for pct in TAIL_PERCENTILES:
        if x.size * (1.0 - pct / 100.0) >= 10:
            out["tail_pct"] = pct
            out["tail"] = float(np.percentile(x, pct))
            break
    return out


def per_layer(result: dict) -> dict:
    """Medians over traced bodies of per-function and per-layer metrics."""
    traced = [b for b in result["bodies"] if b["traced"]]
    untraced = [b for b in result["bodies"] if not b["traced"]]
    summaries = [b["trace"] for b in traced]

    def med(fn):
        return _median([fn(s) for s in summaries])

    m = {}
    names = dict.fromkeys(f"{layer}.{fn}" for layer, fns in NAMED.items() for fn in fns)
    names.update(dict.fromkeys(n for s in summaries for n in s["functions"]))
    for name in names:
        m[f"{name}.calls"] = med(lambda s: s["functions"].get(name, {}).get("calls", 0))
        if any(name in s["functions"] for s in summaries):
            m[f"{name}.self_s"] = med(lambda s: s["functions"].get(name, {}).get("self_s", 0.0))
    m["domain.fields_built"] = med(lambda s: s["fields_built"])
    for key, metric in (("transform_gflop", "domain.transform_gflop"),
                        ("write_field_bytes", "domain.write_field.bytes"),
                        ("dyadic_distinct_ratio", "multipliers.dyadic_block.distinct_ratio")):
        value = med(lambda s: s.get(key))
        if value is not None:
            m[metric] = value
    for layer in dict.fromkeys(n.split(".")[0] for s in summaries for n in s["functions"]):
        m[f"{layer}.self_s"] = med(lambda s: sum(v["self_s"] for k, v in s["functions"].items() if k.startswith(layer + ".")))
    # config handling, manifest hashing and report writes: the cli layer's own time
    m["cli.overhead_s"] = m.pop("cli.self_s", 0.0)
    traced_wall = body_wall(traced)
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - body_wall(untraced)
    for sub in dict.fromkeys(r["subcommand"] for b in untraced for r in b["invocations"]):
        m[f"cli.{sub}.wall_s"] = _median([r["wall_s"] for b in untraced for r in b["invocations"] if r["subcommand"] == sub])
    nl = tail_percentile([x for s in summaries for x in s.get("nonlinear_term_ms", [])])
    if nl["samples"]:
        m["solver.nonlinear_term.p50_ms"] = nl["p50"]
        m["solver.nonlinear_term.samples"] = nl["samples"]
        if "tail" in nl:
            m[f"solver.nonlinear_term.p{nl['tail_pct']:g}_ms"] = nl["tail"]
    return m


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("gflop"):
        return "gflop"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def measure(workload: str, args, references: dict) -> dict | None:
    """Run one workload, print its report, return its result object (None on error)."""
    pseed = workloads.program_seed(args.seed)
    reference = references.get(args.size, {}).get(workload, {}).get(str(pseed))
    work = HERE / "_work"
    rundir = work / f"{workload}-{os.getpid()}"
    rundir.mkdir(parents=True)
    result_path = rundir / "result.json"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_CHILDREN):
                setups.append(run_child(["--setup-only"], 60.0))
        setups.append(run_child(
            ["--workload", workload, "--size", args.size, "--seed", str(pseed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(rundir),
             "--result", str(result_path)],
            CHILD_TIMEOUT_S,
        ))
        with open(result_path) as fh:
            result = json.load(fh)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench {workload}: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted, failed, failures = check_invocations(result["bodies"], reference)
    env = dict(result["environment"], **source_fingerprint(), sqgbox_file=result["sqgbox_file"])
    spec = benchmark_spec()
    if args.trace:
        every = per_layer(result)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        every = end_to_end(setups, result)
        wanted = [m["name"] for m in spec["end_to_end"]]
    every["ops_failed_frac"] = failed / attempted
    metrics = {k: every[k] for k in wanted if k in every}

    n_untraced = sum(1 for b in result["bodies"] if not b["traced"])
    print(f"perfbench {workload} seed {args.seed} (program seed {pseed}) size {args.size} "
          f"trace {args.trace}: {len(result['bodies'])} bodies, {n_untraced} untraced")
    shown = [*wanted, "ops_failed_frac"]
    for name in shown + sorted(k for k in every if k not in shown and every[k]):
        if name in every:
            print(f"  {name:<48} {every[name]:>16.6g} {unit_of(name)}")
    print("  body walls (s): " + " ".join(f"{sum(r['wall_s'] for r in b['invocations']):.4f}"
                                          for b in result["bodies"] if not b["traced"]))
    for msg in failures[:20]:
        print(f"  GATE FAIL {msg}")
    if len(failures) > 20:
        print(f"  ... {len(failures) - 20} more gate failures")
    fingerprints = {}
    for body in result["bodies"]:
        for rec in body["invocations"]:
            fingerprints.setdefault(rec["subcommand"], set()).add(rec["fingerprint"] or "missing")
    fingerprints = {k: sorted(v) for k, v in fingerprints.items()}
    print("fingerprints " + json.dumps(fingerprints, sort_keys=True))
    print("environment " + json.dumps(env, sort_keys=True))
    record = {
        "args": dict(vars(args), workload=workload),
        "program_seed": pseed,
        "environment": env,
        "fingerprints": fingerprints,
        "failures": failures,
        "all_metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in every.items()},
        "invocations": [[{k: r[k] for k in ("subcommand", "wall_s", "probe_s")} for r in b["invocations"]]
                        for b in result["bodies"] if not b["traced"]],
    }
    with open(work / f"last-{workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def _terminate(signum, frame):
    signal.signal(signum, signal.SIG_IGN)  # a second signal must not cut the clean-up short
    raise SystemExit(128 + signum)  # unwinds through run_child, which kills its child


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    if not (ROOT / "src" / "sqgbox" / "cli.py").is_file():
        print(f"perfbench: no sqgbox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(HERE / "references.json") as fh:
        references = json.load(fh)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = measure(name, args, references)
        if results[name] is None:
            return 1
    if len(names) == 1:
        out = results[names[0]]
    else:  # one object for the whole suite, metrics prefixed by workload
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
