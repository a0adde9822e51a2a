"""One fresh benchmark process: import sqgbox.cli, then run workload bodies.

The first thing this process does is import ``sqgbox.cli`` and print
``ready``; the launcher times set-up from process start to that line.  With
``--setup-only`` it stops there.  Otherwise it runs bodies of the workload
until ``--seconds`` are used (at least one body, and with ``--trace 1`` at
least one untraced and one traced body, alternating), with a host-speed
probe (``probe.py``) after every CLI invocation, and writes the raw
results as JSON to ``--result``.  The CLI's own prints go to stderr.
"""

import sys

import sqgbox.cli

print("ready", flush=True)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def fingerprint(rundir: str) -> str | None:
    """sha256 over the manifest's report hashes.

    config.json is left out: it records the output directory, which differs
    between bodies and runs.
    """
    try:
        with open(os.path.join(rundir, "manifest.json")) as fh:
            files = json.load(fh)["files"]
    except (OSError, ValueError, KeyError):
        return None
    listing = "".join(f"{name} {entry['sha256']}\n" for name, entry in sorted(files.items()) if name != "config.json")
    return hashlib.sha256(listing.encode()).hexdigest()


def run_body(workload: str, size: str, seed: int, outdir: str, trace: "tracer.Tracer | None") -> dict:
    """Run one body; returns its per-invocation records and trace.

    A host-speed probe runs after every invocation, outside its wall time.
    """
    records = []
    counter = tracer.QuadratureNodeCounter()
    counter.install()
    if trace is not None:
        trace.install()
    try:
        for sub, cfg, rundir in workloads.invocations(workload, size, outdir):
            cfg_path = rundir + ".config.json"
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            t = time.perf_counter()
            try:
                rc = sqgbox.cli.run([sub, "--config", cfg_path, "--out", rundir, "--seed", str(seed)])
            except Exception as exc:  # a crash is a failed operation, not a benchmark crash
                traceback.print_exc()
                rc = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t
            records.append({"subcommand": sub, "rundir": rundir, "rc": rc, "wall_s": wall, "probe_s": probe.probe()})
    except (OSError, ValueError, KeyError) as exc:  # an invocation left output the next one cannot use
        records.append({"subcommand": "next", "rundir": outdir, "rc": f"cannot prepare: {exc}", "wall_s": 0.0,
                        "probe_s": probe.probe()})
    finally:
        if trace is not None:
            trace.uninstall()
        counter.uninstall()
    for rec in records:
        rundir = rec.pop("rundir")
        rec["fingerprint"] = fingerprint(rundir)
        rec["keys"] = {}
        if rec["rc"] == 0:
            try:
                rec["keys"] = workloads.key_values(rec["subcommand"], rundir)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                rec["rc"] = f"unreadable report: {exc}"
    body = {"invocations": records, "traced": trace is not None}
    if all(r["rc"] == 0 for r in records):
        body["work"] = workloads.work_units(workload, outdir, counter.nodes)
    if trace is not None:
        body["trace"] = trace.summary()
    return body


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--src")
    ap.add_argument("--workload")
    ap.add_argument("--size", default="full")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--result")
    args = ap.parse_args()
    src = os.path.realpath(args.src)
    if not os.path.realpath(sqgbox.cli.__file__).startswith(src + os.sep):
        print(f"sqgbox imported from {sqgbox.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    if args.setup_only:
        return 0

    bodies = []
    spans = []  # each body with its probes; they plan the run's length
    start = time.perf_counter()
    probe.probe()  # the first call pays one-time costs
    with contextlib.redirect_stdout(sys.stderr):
        while True:
            t = time.perf_counter()
            traced = bool(args.trace) and len(bodies) % 2 == 1
            trace = tracer.Tracer() if traced else None
            outdir = os.path.join(args.workdir, f"body{len(bodies)}")
            os.makedirs(outdir)
            body = run_body(args.workload, args.size, args.seed, outdir, trace)
            shutil.rmtree(outdir)
            bodies.append(body)
            spans.append(time.perf_counter() - t)
            if len(bodies) == 1:  # later bodies can only add to it; their number varies with speed
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            need = 2 if args.trace else 1
            next_span = spans[-2] if len(spans) >= 2 else spans[-1]
            if len(bodies) >= need and time.perf_counter() - start + next_span > args.seconds:
                break
    result = {
        "sqgbox_file": sqgbox.cli.__file__,
        "environment": environment(),
        "peak_rss_mb": peak_kb / 1024.0,
        "bodies": bodies,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
