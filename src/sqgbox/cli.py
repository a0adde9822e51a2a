"""Command-line entry points for simulations and estimate verification runs.

Every subcommand consumes a JSON experiment config (``--config``), optional
dotted-path overrides (``--set key=value``), an output directory override
(``--out``), and a seed override (``--seed``, which sets ``samples.seed``).
Runs write deterministic reports (JSON plus CSV curves) for a fixed config
and seed; a manifest with the config hash, package version, and an
inventory of output files is written last.  Wall-clock timestamps appear
only in the run log, which is excluded from the manifest inventory.

``SCHEMA`` maps every dotted config key to its kind and default, and
``DEFAULT_CONFIG`` is built from it.  ``parse_config`` converts each key by
its kind, reports keys outside the table as unknown, checks the few
``_CROSS_RULES`` between keys, and returns either the violations or a typed
config that ``build_*`` and the handlers read without converting again.
``DomainSpec`` owns the geometry rule (a rule here adds a normal area L1 L2);
``verify-structure`` refuses a dead ``structure.j_f``/``j_g`` from its ``DyadicTable``.
``config.json`` records the merged config as written.

Exit codes: 0 on success, 1 when an asserted property fails or the
integration blows up, 2 on config validation errors and on a field file
that cannot be loaded or breaks the domain rules or grid cap of a config.
One converter, ``_report_value``, writes every JSON file of a run
(``config.json``, the reports, ``manifest.json``) and every CSV cell:
dataclasses become dicts of their fields, numpy values become Python
numbers, and non-finite floats are spelled "nan", "inf" and "-inf".  JSON is
sorted, indented and strict; a CSV float is written as its ``repr``.
``RunDir.write_json``, ``write_csv`` and ``add_tree`` record each file in
the manifest inventory, whose ``config_sha256`` hashes the config text
without its final newline.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .besov import BesovParams, besov_norm
from .domain import DomainSpec, SpectralField, eigenvalue, read_field, spectral_norm, unit_mode
from .harness import (
    SampleSpec,
    bilinear_battery,
    duhamel_ensemble,
    elliptic_ratio_study,
    heat_smoothing_study,
    holder_target,
    multiplier_bound_study,
    sample_field,
    single_block_sample,
    twin_distances,
    twin_run,
    verify_derivative_structure,
)
from .multipliers import DyadicProfile, dyadic_table
from .solver import BlowUpError, SolverConfig, write_trajectory

# verify-duhamel steps its draws together, at most this many per stack.
DUHAMEL_MEMBERS = 8

# The BLAS thread count can change the last bits of a dense transform, so
# the run log records these variables (outside the manifest).
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fixed size caps: a valid but huge size exits 2 instead of exhausting memory or time.
MAX_GRID = 4096  # points per axis of domain.grid and refined_grid
MAX_STEPS = 10**6  # time steps of any one run


# A config kind is a pair (rule, parse): parse returns the typed value of one JSON
# value or raises ValueError (or OverflowError, TypeError) to refuse it;
# rule says what the kind accepts.


def _kind(rule: str, accepts, convert=lambda x: x):
    def parse(x):
        if not accepts(x):
            raise ValueError(rule)
        return convert(x)

    return rule, parse


def _integer(lo=None, hi=None):
    """An int in [lo, hi]; an integral float such as 64.0 reads as 64, a bool is refused."""
    return _kind(
        "an integer" + (f" in {lo}..{hi}" if hi else f" >= {lo}" if lo is not None else ""),
        lambda x: (type(x) is int or (type(x) is float and x.is_integer()))
        and (lo is None or x >= lo) and (hi is None or x <= hi),
        int,
    )


def _real(rule: str, accepts=lambda x: True, inf=False):
    """A float, never NaN; infinite, also spelled "inf"/"-inf", only where ``inf`` is set."""
    return _kind(
        rule,
        lambda x: (x in ("inf", "-inf") if inf and type(x) is str else type(x) in (int, float))
        and not math.isnan(float(x)) and (inf or math.isfinite(x)) and accepts(float(x)),
        float,
    )


def _row(*kinds):
    """A list such as [m, n] with one entry per kind."""
    return _kind(
        "[" + ", ".join(rule for rule, _ in kinds) + "]",
        lambda x: type(x) is list and len(x) == len(kinds),
        lambda x: [parse(v) for (_, parse), v in zip(kinds, x)],
    )


def _list(kind, empty_ok=False):
    rule, parse = kind
    return _kind(
        f"a list of {'zero' if empty_ok else 'one'} or more items, each {rule}",
        lambda x: type(x) is list and (empty_ok or len(x) > 0),
        lambda x: [parse(v) for v in x],
    )


_POSITIVE = _real("a positive finite number", lambda x: x > 0)
_FINITE = _real("a finite number")
_AT_LEAST_ONE = _real("a finite number >= 1", lambda x: x >= 1)
_REGULARITY = _real("a number in (-1, 2)", lambda x: -1 < x < 2)
_INTEGRABILITY = _real('a number >= 1 or "inf"', lambda x: x >= 1, inf=True)
_COUNTS = _row(_integer(1), _integer(1))
_GRID = _row(_integer(1, MAX_GRID), _integer(1, MAX_GRID))

# Keys that one initial.type reads: absent from DEFAULT_CONFIG, None when unset.
_NO_DEFAULT = object()

# dotted key -> (kind, default)
SCHEMA = {
    "domain.lengths": (_row(_POSITIVE, _POSITIVE), [math.pi, math.pi]),
    "domain.modes": (_COUNTS, [32, 32]),
    "domain.grid": (_GRID, [64, 64]),
    "refined_grid": (_GRID, [128, 128]),
    "profile.sharpness": (_integer(1, 7), 2),
    "solver.dt": (_POSITIVE, 1e-3),
    "solver.horizon": (_POSITIVE, 0.1),
    "solver.scheme": (_kind("ETD2 or IF-Euler in any case", lambda x: str(x).lower() in ("etd2", "if-euler")), "ETD2"),
    "solver.snapshot_stride": (_integer(1), 10),
    "samples.mode_count": (_integer(1), 32),
    "samples.decay": (_real("a finite number >= 0", lambda x: x >= 0), 1.0),
    "samples.seed": (_integer(0), 1234),
    "samples.count": (_integer(1, 10**5), 100),
    "battery.s": (_list(_REGULARITY), [-0.5, 0.0, 0.5, 1.0, 1.5]),
    "battery.q": (_list(_INTEGRABILITY), [1, 2, "inf"]),
    "battery.pairs": (_list(_row(_AT_LEAST_ONE, _real("a finite number > 1", lambda x: x > 1))),
                      [[2, 2], [3, 6], [6, 3]]),
    "battery.probe_s": (_list(_REGULARITY, empty_ok=True), [-0.9, 1.9]),
    "initial.type": (_kind("single-mode, two-mode or random", lambda x: x in ("single-mode", "two-mode", "random")),
                     "single-mode"),
    "initial.m": (_integer(1), 1),
    "initial.n": (_integer(1), 1),
    "initial.amplitude": (_FINITE, 1.0),
    "initial.entries": (_list(_row(_integer(1), _integer(1), _FINITE)), _NO_DEFAULT),
    "initial.index": (_integer(0), _NO_DEFAULT),
    "besov.s": (_real("a number in (-2, 2)", lambda x: -2 < x < 2), 0.5),
    "besov.p": (_INTEGRABILITY, 2),
    "besov.q": (_INTEGRABILITY, "inf"),
    "structure.j_f": (_integer(), 3),
    "structure.j_g": (_integer(), 2),
    "structure.pair_count": (_integer(1, 10**3), 3),
    "structure.threshold": (_POSITIVE, 1e-6),
    "duhamel.p": (_AT_LEAST_ONE, 1.5),
    "duhamel.count": (_integer(1, 10**4), 20),
    "duhamel.modes": (_list(_COUNTS), [[1, 1], [1, 2]]),
    "duhamel.amplitude": (_POSITIVE, 0.5),
    "duhamel.dt": (_POSITIVE, 1e-3),
    "duhamel.horizon": (_POSITIVE, 0.1),
    "uniqueness.dt": (_POSITIVE, 1e-3),
    "uniqueness.horizon": (_POSITIVE, 0.1),
    "uniqueness.cross_dt": (_POSITIVE, 1e-4),
    "uniqueness.amplitude": (_POSITIVE, 0.5),
    "uniqueness.shrink_factor": (_FINITE, 3.5),
    "uniqueness.cross_tolerance": (_FINITE, 1e-5),
    "field_file": (_kind("a path string or null", lambda x: x is None or (type(x) is str and x != "")), None),
    "output_dir": (_kind("a path string", lambda x: type(x) is str and x != ""), "runs/out"),
}

_SECTIONS = {key.split(".")[0] for key in SCHEMA if "." in key}


def _set_path(cfg: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = cfg
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ValueError(f"cannot set {dotted!r}: {k!r} is not an object")
    node[keys[-1]] = value


def _nest(flat: dict) -> dict:
    out = {}
    for key, value in flat.items():
        _set_path(out, key, value)
    return out


DEFAULT_CONFIG = _nest(
    {key: copy.deepcopy(default) for key, (_, default) in SCHEMA.items() if default is not _NO_DEFAULT}
)


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def load_config(path, overrides=(), out=None, seed=None) -> dict:
    """The defaults merged with the config file and the overrides, as written."""
    with open(path) as fh:
        user = json.load(fh)
    if not isinstance(user, dict):
        raise ValueError(f"config file must hold a JSON object, not {type(user).__name__}")
    cfg = default_config()
    for key, val in user.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        _set_path(cfg, key, val)
    if out is not None:
        cfg["output_dir"] = out
    if seed is not None:
        _set_path(cfg, "samples.seed", seed)
    return cfg


def _domain(lengths, modes, grid) -> DomainSpec | None:
    """Their DomainSpec, or None when DomainSpec refuses them, the grid exceeds
    MAX_GRID, or the area L1 L2 (in every grid and Parseval weight) leaves the normal range."""
    try:
        domain = DomainSpec(*lengths, *modes, *grid)
    except ValueError:
        return None
    return domain if max(grid) <= MAX_GRID and sys.float_info.min <= domain.L1 * domain.L2 < math.inf else None


def _steps_fit(horizon: float, *dts: float) -> bool:
    try:
        return all(SolverConfig(dt=dt, horizon=horizon).n_steps for dt in dts)
    except ValueError:
        return False


def _longest_run(v) -> float:
    """Steps of the longest run: simulate at solver.dt, verify-duhamel down to
    duhamel.dt/2, verify-uniqueness down to uniqueness.dt/4 and at cross_dt."""
    return max(v["solver.horizon"] / v["solver.dt"], 2 * v["duhamel.horizon"] / v["duhamel.dt"],
               4 * v["uniqueness.horizon"] / v["uniqueness.dt"], v["uniqueness.horizon"] / v["uniqueness.cross_dt"])


def _inside(grid, modes) -> bool:
    """Whether every [m, n, ...] of ``modes`` lies inside [grid1, grid2]."""
    return all(m <= grid[0] and n <= grid[1] for m, n, *_ in modes)


_LOG_TINY, _LOG_HUGE = math.log(sys.float_info.min), math.log(sys.float_info.max)

# (keys read, holds, message).  A rule runs once every key it reads has
# parsed; when it fails, its first key counts as invalid for later rules.
_CROSS_RULES = (
    *((("domain.lengths", "domain.modes", grid),
       lambda v, grid=grid: _domain(v["domain.lengths"], v["domain.modes"], v[grid]) is not None,
       f"{grid} must resolve domain.modes, and domain.lengths must give a positive first eigenvalue, "
       f"a finite one at the top of {grid} and an area L1 L2 in the normal float range")
      for grid in ("domain.grid", "refined_grid")),
    (("battery.pairs",), lambda v: all(holder_target(p1, p2) >= 1 for p1, p2 in v["battery.pairs"]),
     "battery.pairs must satisfy 1/p1 + 1/p2 <= 1"),
    (("samples.mode_count", "domain.modes"), lambda v: v["samples.mode_count"] <= min(v["domain.modes"]),
     "samples.mode_count must not exceed domain.modes"),
    # sample_field damps by lambda^(-decay/2), largest at lambda_11; below the
    # smallest normal float every signed uniform draw can round to zero
    (("samples.decay", "domain.lengths", "domain.modes", "domain.grid"),
     lambda v: _LOG_TINY <= -v["samples.decay"] / 2 * math.log(
         eigenvalue(_domain(v["domain.lengths"], v["domain.modes"], v["domain.grid"]), 1, 1)) < _LOG_HUGE,
     "samples.decay must leave lambda^(-decay/2) finite and nonzero on the sample band"),
    (("solver.horizon", "solver.dt"), lambda v: _steps_fit(v["solver.horizon"], v["solver.dt"]),
     "solver.horizon must be an integer multiple of solver.dt"),
    # verify-duhamel runs dt and dt/2, verify-uniqueness dt, dt/2, dt/4 and cross_dt
    (("duhamel.horizon", "duhamel.dt"),
     lambda v: _steps_fit(v["duhamel.horizon"], v["duhamel.dt"], v["duhamel.dt"] / 2),
     "duhamel.horizon must be an integer multiple of duhamel.dt and duhamel.dt/2"),
    (("uniqueness.horizon", "uniqueness.dt", "uniqueness.cross_dt"),
     lambda v: _steps_fit(v["uniqueness.horizon"], v["uniqueness.dt"], v["uniqueness.dt"] / 2,
                          v["uniqueness.dt"] / 4, v["uniqueness.cross_dt"]),
     "uniqueness.horizon must be an integer multiple of uniqueness.dt, dt/2, dt/4 and cross_dt"),
    (("solver.horizon", "solver.dt", "duhamel.horizon", "duhamel.dt", "uniqueness.horizon", "uniqueness.dt",
      "uniqueness.cross_dt"), lambda v: _longest_run(v) <= MAX_STEPS,
     f"a run may take at most {MAX_STEPS} steps (horizon/dt of solver, duhamel at dt/2, uniqueness at dt/4 "
     "and cross_dt)"),
    (("initial.m", "initial.n", "initial.type", "domain.modes"),
     lambda v: v["initial.type"] != "single-mode" or _inside(v["domain.modes"], [(v["initial.m"], v["initial.n"])]),
     "initial mode outside the domain truncation"),
    (("initial.entries", "initial.type", "domain.modes"),
     lambda v: v["initial.type"] != "two-mode"
     or (v["initial.entries"] is not None and _inside(v["domain.modes"], v["initial.entries"])),
     "a two-mode initial.type needs initial.entries of [m, n, amplitude] modes inside the domain truncation"),
    (("duhamel.modes", "domain.modes"), lambda v: _inside(v["domain.modes"], v["duhamel.modes"]),
     "duhamel.modes must list [m, n] modes inside the domain truncation"),
)


def parse_config(cfg: dict) -> tuple[dict | None, list[str]]:
    """The typed config and no violations, or None and every violation.

    Reads each SCHEMA key of a merged config (its default when absent),
    converts it by its kind, then applies _CROSS_RULES.  Never raises for a
    config read from JSON.
    """
    flat, bad = {}, []
    for key, val in cfg.items():
        if key in _SECTIONS and isinstance(val, dict):
            flat.update((f"{key}.{k}", v) for k, v in val.items())
        elif key in _SECTIONS:
            bad.append(f"config section {key!r} must be an object")
        else:
            flat[key] = val
    bad += [f"unknown config key {key!r}" for key in flat if key not in SCHEMA]
    values = {}
    for key, ((rule, parse), default) in SCHEMA.items():
        raw = flat.get(key, default)
        try:
            values[key] = None if raw is _NO_DEFAULT else parse(raw)
        except (OverflowError, TypeError, ValueError):
            bad.append(f"{key} must be {rule}, got {json.dumps(raw, default=repr)}")
    for keys, holds, message in _CROSS_RULES:
        if all(k in values for k in keys) and not holds(values):
            bad.append(message)
            del values[keys[0]]
    return (None, bad) if bad else (_nest(values), [])


# ---------------------------------------------------------------------------
# typed config -> objects
# ---------------------------------------------------------------------------


def build_domain(cfg: dict, grid=None) -> DomainSpec:
    dom = cfg["domain"]
    return DomainSpec(*dom["lengths"], *dom["modes"], *(dom["grid"] if grid is None else grid))


def build_profile(cfg: dict) -> DyadicProfile:
    return DyadicProfile(cfg["profile"]["sharpness"])


def build_sample_spec(cfg: dict) -> SampleSpec:
    return SampleSpec(**cfg["samples"])


def build_solver(cfg: dict, **changes) -> SolverConfig:
    """SolverConfig of the ``solver`` section, with ``changes`` to its fields."""
    return SolverConfig(**{**cfg["solver"], **changes})


def build_initial(cfg: dict, domain: DomainSpec) -> SpectralField:
    ini = cfg["initial"]
    if ini["type"] == "single-mode":
        return unit_mode(domain, ini["m"], ini["n"], ini["amplitude"])
    if ini["type"] == "two-mode":
        pieces = [unit_mode(domain, m, n, amp) for m, n, amp in ini["entries"]]
        return sum(pieces[1:], pieces[0])
    # random: initial.index picks the draw, the first one when absent
    return sample_field(build_sample_spec(cfg), domain, ini["index"] or 0) * ini["amplitude"]


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


class RunDir:
    """Output directory of the run of subcommand ``name``, with its log and manifest."""

    def __init__(self, cfg: dict, name: str = "run"):
        self.path, self.name = cfg["output_dir"], name
        os.makedirs(self.path, exist_ok=True)
        self.files = set()  # the manifest inventory
        self.config_sha256 = hashlib.sha256(self.write_json("config.json", cfg)[:-1].encode()).hexdigest()
        self.log_path = os.path.join(self.path, "runlog.txt")
        self.log(f"{name} start")
        self.log(" ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARIABLES))

    def log(self, message: str) -> None:
        stamp = datetime.datetime.now().isoformat(timespec="seconds")
        with open(self.log_path, "a") as fh:
            fh.write(f"{stamp} {message}\n")

    def _create(self, name: str):
        """Open ``name`` for writing and record it in the manifest inventory."""
        self.files.add(name)
        return open(os.path.join(self.path, name), "w", newline="")

    def write_json(self, name: str, payload) -> str:
        """Write ``payload`` as sorted, indented strict JSON; returns the text written."""
        text = json.dumps(_report_value(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
        with self._create(name) as fh:
            fh.write(text)
        return text

    def write_csv(self, name: str, header, rows) -> None:
        with self._create(name) as fh:
            csv.writer(fh).writerows(_report_value([header, *rows]))

    def add_tree(self, relpath: str) -> None:
        for root, _, names in os.walk(os.path.join(self.path, relpath)):
            self.files.update(os.path.relpath(os.path.join(root, name), self.path) for name in names)

    def finish(self, ok: bool, summary: str) -> int:
        """Write the manifest and print the summary line; returns the exit code, 1 unless ``ok``."""
        inventory = {}
        for rel in sorted(self.files):
            with open(os.path.join(self.path, rel), "rb") as fh:
                data = fh.read()
            inventory[rel] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        self.write_json("manifest.json", {"version": __version__, "config_sha256": self.config_sha256,
                                          "files": inventory})
        self.log(f"{self.name} done")
        print(f"{self.name}: {summary}")
        return 0 if ok else 1


def _report_value(o):
    """Plain JSON data of study output ``o``, the one converter of every report.

    Dataclass instances become dicts of their fields, read without a copy;
    tuples and arrays become lists; numpy scalars become Python ones.
    Non-finite floats are spelled "nan", "inf" or "-inf": strict JSON has
    none, and "inf" is also how a config spells infinity where a key admits
    it.  Everything else passes through.
    """
    if dataclasses.is_dataclass(o) and not isinstance(o, type):
        return {f.name: _report_value(getattr(o, f.name)) for f in dataclasses.fields(o)}
    if isinstance(o, dict):
        return {k: _report_value(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_report_value(v) for v in o]
    if isinstance(o, np.ndarray):
        return _report_value(o.tolist())
    if isinstance(o, np.generic):
        o = o.item()
    if isinstance(o, float) and not math.isfinite(o):
        return "nan" if math.isnan(o) else ("inf" if o > 0 else "-inf")
    return o


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: dict, written: dict) -> int:
    run = RunDir(written, "simulate")
    domain = build_domain(cfg)
    theta0 = build_initial(cfg, domain)
    snapshots, l2, orthogonality = write_trajectory(os.path.join(run.path, "trajectory"), theta0, build_solver(cfg))
    run.add_tree("trajectory")
    summary = {
        "steps": len(l2) - 1,
        "snapshots": snapshots,
        "final_l2": float(l2[-1]),
        "max_orthogonality_residual": float(np.max(orthogonality)),
        "energy_nonincreasing": bool(np.all(np.diff(l2) <= 1e-8 * l2[:-1] + 1e-300)),
    }
    run.write_json("simulate.json", summary)
    return run.finish(True, f"{summary['steps']} steps, final L2 {summary['final_l2']:.6g}")


def _cmd_verify_bilinear(cfg: dict, written: dict) -> int:
    run = RunDir(written, "verify-bilinear")
    domain = build_domain(cfg)
    refined = build_domain(cfg, grid=cfg["refined_grid"])
    reports = bilinear_battery(domain, refined, build_sample_spec(cfg), cfg["battery"], build_profile(cfg))
    run.write_json("bilinear.json", reports)
    rows = [
        [
            r.params["s"], r.params["p1"], r.params["p2"], r.params["q"],
            r.max_ratio, r.mean_ratio, r.refined_max_ratio, int(r.stable),
            int(r.details.get("probe", False)),
        ]
        for r in reports
    ]
    run.write_csv(
        "bilinear_ratios.csv",
        ["s", "p1", "p2", "q", "max_ratio", "mean_ratio", "refined_max_ratio", "stable", "probe"],
        rows,
    )
    asserted = [r for r in reports if not r.details.get("probe", False)]
    ok = all(math.isfinite(r.max_ratio) and r.stable for r in asserted)
    worst = max(r.max_ratio for r in asserted)
    return run.finish(ok, f"{len(reports)} tuples, worst asserted max ratio {worst:.4g}, "
                          f"{'stable' if ok else 'UNSTABLE'}")


def _cmd_verify_structure(cfg: dict, written: dict) -> int:
    domain = build_domain(cfg)
    profile = build_profile(cfg)
    spec = build_sample_spec(cfg)
    st = cfg["structure"]
    # the block table the samples take their blocks from owns which j are live
    table = dyadic_table(domain, (spec.mode_count,) * 2, profile)
    live = {j for j, nonzero in zip(table.js, table.live) if nonzero}
    dead = [f"structure.{key} must name a nonzero dyadic block of the sample band"
            for key in ("j_f", "j_g") if st[key] not in live]
    if dead:
        print(*(f"config violation: {message}" for message in dead), sep="\n", file=sys.stderr)
        return 2
    run = RunDir(written, "verify-structure")
    results = []
    for i in range(st["pair_count"]):
        f = single_block_sample(spec, domain, 2 * i, st["j_f"], profile)
        g = single_block_sample(spec, domain, 2 * i + 1, st["j_g"], profile)
        residual, bound = verify_derivative_structure(f, g)
        results.append({"pair": i, "residual": residual, "truncation_bound": bound})
    run.write_json("structure.json", results)
    worst = max(r["residual"] for r in results)
    ok = worst <= st["threshold"]
    return run.finish(ok, f"{len(results)} pairs, worst residual {worst:.3e}, {'ok' if ok else 'ABOVE THRESHOLD'}")


def _cmd_verify_multipliers(cfg: dict, written: dict) -> int:
    run = RunDir(written, "verify-multipliers")
    domain = build_domain(cfg)
    profile = build_profile(cfg)
    spec = build_sample_spec(cfg)
    grids = [tuple(cfg["domain"]["grid"]), tuple(cfg["refined_grid"])]
    bounds = multiplier_bound_study(domain, spec, profile, grids=grids)
    flat_sample = sample_field(SampleSpec(spec.mode_count, 0.0, spec.seed, 1), domain, 0)
    smoothing = heat_smoothing_study(flat_sample, profile, grids=grids)
    elliptic = elliptic_ratio_study(domain, SampleSpec(spec.mode_count, spec.decay, spec.seed, min(spec.count, 20)))
    run.write_json("multipliers.json", {"bernstein": bounds, "heat_smoothing": smoothing, "elliptic": elliptic})
    # each list is finite and spans at most a factor 2 across grids
    spreads = [list(per_grid.values()) for section in ("block_ratio", "gradient_ratio")
               for per_grid in bounds[section].values()] + [list(smoothing["gradient_smoothing_sup"].values())]
    ok = all(all(map(math.isfinite, vals)) and not max(vals) > 2.0 * min(vals) for vals in spreads) and not any(
        math.ldexp(rate, -2 * j) > -0.25 * (1 - 1e-12) for j, rate in smoothing["block_decay_rates"].items()
    )
    return run.finish(ok, f"{'stable' if ok else 'UNSTABLE'} across {grids}")


def _cmd_verify_duhamel(cfg: dict, written: dict) -> int:
    run = RunDir(written, "verify-duhamel")
    domain = build_domain(cfg)
    profile = build_profile(cfg)
    du = cfg["duhamel"]
    p, count = du["p"], du["count"]
    draws = []
    for i in range(count):
        rng = np.random.default_rng([cfg["samples"]["seed"], 7000 + i])
        pieces = [unit_mode(domain, m, n, du["amplitude"] * float(rng.uniform(-1.0, 1.0))) for m, n in du["modes"]]
        draws.append(sum(pieces[1:], pieces[0]).coefficients)
    draws = np.stack(draws)
    columns = []
    for dt in (du["dt"], du["dt"] / 2.0):
        config = build_solver(cfg, dt=dt, horizon=du["horizon"], snapshot_stride=1)
        ratios = []
        for lo in range(0, count, DUHAMEL_MEMBERS):
            members = SpectralField(domain, "SS", draws[lo : lo + DUHAMEL_MEMBERS])
            try:
                ratios += duhamel_ensemble(members, config, p, profile)
            except BlowUpError as exc:
                raise BlowUpError(exc.time, exc.last_l2, lo + exc.member) from None
        columns.append(ratios)
    rows = [
        [i, a, b, int(math.isfinite(a) and math.isfinite(b) and b <= 2.0 * a + 1e-300 and a <= 2.0 * b + 1e-300)]
        for i, (a, b) in enumerate(zip(*columns))
    ]
    ok = all(row[3] for row in rows)
    run.write_csv("duhamel.csv", ["index", "ratio", "ratio_half_dt", "stable"], rows)
    run.write_json(
        "duhamel.json",
        {"p": p, "s": -1.0 + 2.0 / p, "count": count,
         "max_ratio": max(r[1] for r in rows), "all_stable": bool(ok)},
    )
    return run.finish(ok, f"max ratio {max(r[1] for r in rows):.4g}, {'stable' if ok else 'UNSTABLE'} under dt halving")


def _cmd_verify_uniqueness(cfg: dict, written: dict) -> int:
    run = RunDir(written, "verify-uniqueness")
    domain = build_domain(cfg)
    un = cfg["uniqueness"]
    amp, dt, horizon, cross_dt = un["amplitude"], un["dt"], un["horizon"], un["cross_dt"]
    # distinct eigenvalues so the advection term is active
    theta0 = unit_mode(domain, 1, 1, amp) + unit_mode(domain, 1, 2, -amp)

    runs = {}  # each distinct solver config is stepped once

    def twin(step, **scheme):
        config = build_solver(cfg, dt=step, horizon=horizon, snapshot_stride=max(1, round(horizon / step / 20)),
                              **scheme)
        if config not in runs:
            runs[config] = twin_run(theta0, config)
        return runs[config]

    t1, d1 = twin_distances(twin(dt), twin(dt / 2))
    t2, d2 = twin_distances(twin(dt / 2), twin(dt / 4))
    shrink = float(np.max(d1) / np.max(d2)) if np.max(d2) > 0 else math.inf
    tc, dc = twin_distances(twin(cross_dt, scheme="IF-Euler"), twin(cross_dt, scheme="ETD2"))
    rel_cross = float(np.max(dc) / spectral_norm(theta0))
    run.write_json("uniqueness.json", {
        "max_distance_coarse": float(np.max(d1)),
        "max_distance_fine": float(np.max(d2)),
        "shrink_factor": shrink,
        "cross_scheme_relative_distance": rel_cross,
    })
    run.write_csv(
        "uniqueness_distance.csv",
        ["time", "coarse_pair", "fine_pair"],
        [[t, a, b] for t, a, b in zip(t1, d1, np.interp(t1, t2, d2))],
    )
    run.write_csv("uniqueness_cross.csv", ["time", "distance"], list(zip(tc, dc)))
    ok = shrink >= un["shrink_factor"] and rel_cross <= un["cross_tolerance"]
    return run.finish(ok, f"shrink {shrink:.3g}, cross-scheme rel distance {rel_cross:.3e}, {'ok' if ok else 'FAILED'}")


def _cmd_besov_norm(cfg: dict, written: dict) -> int:
    if cfg["field_file"] is not None:
        try:
            field = read_field(cfg["field_file"])
            if field.parity != "SS":
                raise ValueError(f"Besov norms need an SS field, the file holds {field.parity}")
            # the domain rules and size cap of a config, for the coefficient band
            if _domain(field.domain.lengths, field.band, field.domain.grid) is None:
                raise ValueError(f"grid {list(field.domain.grid)} must resolve the band {list(field.band)} in at most "
                                 f"{MAX_GRID} points per axis, and the lengths give an area L1 L2 in the normal range")
        except (OSError, ValueError) as exc:
            print(f"config error: field_file {cfg['field_file']!r}: {exc}", file=sys.stderr)
            return 2
    else:
        field = build_initial(cfg, build_domain(cfg))
    run = RunDir(written, "besov-norm")
    params = BesovParams(**cfg["besov"])
    value, rows = besov_norm(field, params, build_profile(cfg))
    run.write_csv("besov_profile.csv", ["j", "block_lp_norm", "weighted_term"], rows)
    run.write_json("besov.json", {"s": params.s, "p": params.p, "q": params.q, "value": value})
    return run.finish(True, f"{value:.12g}")


_HANDLERS = {
    "simulate": _cmd_simulate,
    "verify-bilinear": _cmd_verify_bilinear,
    "verify-structure": _cmd_verify_structure,
    "verify-multipliers": _cmd_verify_multipliers,
    "verify-duhamel": _cmd_verify_duhamel,
    "verify-uniqueness": _cmd_verify_uniqueness,
    "besov-norm": _cmd_besov_norm,
}
SUBCOMMANDS = tuple(_HANDLERS)


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sqgbox",
        description="Dirichlet spectral toolkit: simulations and estimate verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="experiment config (JSON)")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="dotted-path config override, value parsed as JSON")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--seed", type=int, default=None, help="sets samples.seed")
    args = parser.parse_args(argv)
    try:
        written = load_config(args.config, args.set, args.out, args.seed)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    cfg, violations = parse_config(written)
    if violations:
        print(*(f"config violation: {v}" for v in violations), sep="\n", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.subcommand](cfg, written)
    except BlowUpError as exc:
        print(f"{args.subcommand}: blow-up: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
