"""Command-line entry points for simulations and estimate verification runs.

Every subcommand consumes a JSON experiment config (``--config``), optional
dotted-path overrides (``--set key=value``), an output directory override
(``--out``), and a seed override (``--seed``).  Runs write deterministic
reports (JSON plus CSV curves) for a fixed config and seed; a manifest with
the config hash, package version, and an inventory of output files is
written last.  Wall-clock timestamps appear only in the run log, which is
excluded from the manifest inventory.

Exit codes: 0 on success, 1 when an asserted property fails or the
integration blows up, 2 on config validation errors and on a field file
that cannot be loaded.  Non-finite report
values are written as the strings "nan", "inf" and "-inf".
"""

from __future__ import annotations

import argparse
import copy
import csv
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .besov import BesovParams, besov_norm
from .domain import DomainSpec, SpectralField, read_field, spectral_norm, unit_mode
from .harness import (
    SampleSpec,
    adapted_quadrature,
    bilinear_battery,
    elliptic_ratio_study,
    heat_smoothing_study,
    multiplier_bound_study,
    sample_field,
    single_block_sample,
    uniqueness_experiment,
    verify_derivative_structure,
    verify_duhamel_growth,
)
from .multipliers import DyadicProfile, QuadratureSpec, is_live_block
from .solver import BlowUpError, SolverConfig, save_trajectory, simulate

SUBCOMMANDS = (
    "simulate",
    "verify-bilinear",
    "verify-structure",
    "verify-multipliers",
    "verify-duhamel",
    "verify-uniqueness",
    "besov-norm",
)

DEFAULT_CONFIG = {
    "domain": {"lengths": [math.pi, math.pi], "modes": [32, 32], "grid": [64, 64]},
    "refined_grid": [128, 128],
    "profile": {"sharpness": 2},
    "quadrature": {"nodes_per_decade": 32, "mu_min": 1e-8, "mu_max": 1e8},
    "solver": {
        "dt": 1e-3,
        "horizon": 0.1,
        "scheme": "ETD2",
        "snapshot_stride": 10,
    },
    "samples": {"mode_count": 32, "decay": 1.0, "seed": 1234, "count": 100},
    "battery": {
        "s": [-0.5, 0.0, 0.5, 1.0, 1.5],
        "q": [1, 2, "inf"],
        "pairs": [[2, 2], [3, 6], [6, 3]],
        "probe_s": [-0.9, 1.9],
    },
    "initial": {"type": "single-mode", "m": 1, "n": 1, "amplitude": 1.0},
    "besov": {"s": 0.5, "p": 2, "q": "inf"},
    "structure": {"j_f": 3, "j_g": 2, "pair_count": 3, "adapted": True, "threshold": 1e-6},
    "duhamel": {
        "p": 1.5,
        "count": 20,
        "modes": [[1, 1], [1, 2]],
        "amplitude": 0.5,
        "dt": 1e-3,
        "horizon": 0.1,
    },
    "uniqueness": {
        "dt": 1e-3,
        "horizon": 0.1,
        "cross_dt": 1e-4,
        "amplitude": 0.5,
        "shrink_factor": 3.5,
        "cross_tolerance": 1e-5,
    },
    "field_file": None,
    "output_dir": "runs/out",
    "seed": 1234,
}


def _num(x):
    if isinstance(x, str):
        if x.lower() in ("inf", "infinity"):
            return math.inf
        return float(x)
    return float(x)


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _set_path(cfg: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = cfg
    for k in keys[:-1]:
        if not isinstance(node.get(k), dict):
            node[k] = {}
        node = node[k]
    node[keys[-1]] = value


def load_config(path, overrides=(), out=None, seed=None) -> dict:
    with open(path) as fh:
        user = json.load(fh)
    if not isinstance(user, dict):
        raise ValueError(f"config file must hold a JSON object, not {type(user).__name__}")
    cfg = _merge(DEFAULT_CONFIG, user)
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
        cfg["seed"] = int(seed)
        cfg["samples"]["seed"] = int(seed)
    return cfg


# Keys that only some initial-data types read, so DEFAULT_CONFIG lacks them.
_OPTIONAL_KEYS = ("initial.entries", "initial.index")


def _unknown_keys(cfg: dict, default: dict, prefix: str = "") -> list[str]:
    """Dotted paths in ``cfg`` that ``default`` does not define."""
    out = []
    for key, val in cfg.items():
        path = prefix + key
        if key not in default:
            if path not in _OPTIONAL_KEYS:
                out.append(path)
        elif isinstance(val, dict) and isinstance(default[key], dict):
            out.extend(_unknown_keys(val, default[key], path + "."))
    return out


def validate_config(cfg: dict) -> list[str]:
    """Structural and hypothesis checks; an empty list means runnable."""
    bad = [f"unknown config key {path!r}" for path in _unknown_keys(cfg, DEFAULT_CONFIG)]

    def check(cond, msg):
        if not cond:
            bad.append(msg)

    try:
        dom = cfg["domain"]
        check(all(_num(x) > 0 for x in dom["lengths"]), "domain.lengths must be positive")
        check(all(int(m) >= 1 for m in dom["modes"]), "domain.modes must be >= 1")
        check(
            all(int(n) >= int(m) for n, m in zip(dom["grid"], dom["modes"])),
            "domain.grid must resolve domain.modes",
        )
        check(
            all(int(n) >= int(m) for n, m in zip(cfg["refined_grid"], dom["modes"])),
            "refined_grid must resolve domain.modes",
        )
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"domain section malformed: {exc}")
    try:
        check(1 <= int(cfg["profile"]["sharpness"]) <= 7, "profile.sharpness must lie in 1..7")
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"profile section malformed: {exc}")
    try:
        q = cfg["quadrature"]
        check(int(q["nodes_per_decade"]) >= 4, "quadrature.nodes_per_decade must be >= 4")
        check(0 < _num(q["mu_min"]) < _num(q["mu_max"]), "quadrature needs 0 < mu_min < mu_max")
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"quadrature section malformed: {exc}")
    try:
        sol = cfg["solver"]
        SolverConfig(
            dt=_num(sol["dt"]),
            horizon=_num(sol["horizon"]),
            scheme=sol["scheme"],
            snapshot_stride=int(sol["snapshot_stride"]),
        ).n_steps
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"solver section invalid: {exc}")
    try:
        smp = cfg["samples"]
        SampleSpec(int(smp["mode_count"]), _num(smp["decay"]), int(smp["seed"]), int(smp["count"]))
        check(
            int(smp["mode_count"]) <= min(int(m) for m in cfg["domain"]["modes"]),
            "samples.mode_count must not exceed domain.modes",
        )
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"samples section invalid: {exc}")
    try:
        bat = cfg["battery"]
        for name in ("s", "q", "pairs"):
            check(len(bat[name]) >= 1, f"battery.{name} must not be empty")
        for s in list(bat["s"]) + list(bat.get("probe_s", [])):
            check(-1.0 < _num(s) < 2.0, f"battery regularity {s} outside (-1, 2)")
        for pair in bat["pairs"]:
            p1, p2 = _num(pair[0]), _num(pair[1])
            check(p1 >= 1, f"battery pair {pair}: p1 must be >= 1")
            check(1 < p2 < math.inf, f"battery pair {pair}: p2 must be interior to (1, inf)")
        for qv in bat["q"]:
            check(_num(qv) >= 1, f"battery q {qv} must be >= 1")
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"battery section malformed: {exc}")
    try:
        bz = cfg["besov"]
        BesovParams(_num(bz["s"]), _num(bz["p"]), _num(bz["q"]))
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"besov section invalid: {exc}")
    try:
        st = cfg["structure"]
        check(int(st["pair_count"]) >= 1, "structure.pair_count must be >= 1")
        check(
            0 < _num(st.get("threshold", 1e-6)) < math.inf, "structure.threshold must be positive and finite"
        )
        try:
            sample_band = (build_sample_spec(cfg).mode_count,) * 2
            domain, profile = build_domain(cfg), build_profile(cfg)
        except (KeyError, TypeError, ValueError):
            domain = None  # already reported with its own section
        for key in ("j_f", "j_g"):
            j = st[key]
            check(
                isinstance(j, int)
                and not isinstance(j, bool)
                and (domain is None or is_live_block(domain, sample_band, j, profile)),
                f"structure.{key} must be an integer naming a nonzero dyadic block of the sample band",
            )
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"structure section malformed: {exc}")
    try:
        modes = [int(m) for m in cfg["domain"]["modes"]]
    except (KeyError, TypeError, ValueError):
        modes = [0, 0]  # already reported with the domain section

    def in_band(m, n):
        return 1 <= int(m) <= modes[0] and 1 <= int(n) <= modes[1]

    def positive(section, keys):
        ok = [0 < _num(cfg[section][key]) < math.inf for key in keys]
        for key, good in zip(keys, ok):
            check(good, f"{section}.{key} must be positive and finite")
        return all(ok)

    def steps_fit(section, horizon, dts):
        # verify-duhamel runs dt and dt/2, verify-uniqueness dt, dt/2, dt/4 and cross_dt
        for dt in dts:
            try:
                SolverConfig(dt=dt, horizon=horizon).n_steps
            except ValueError:
                bad.append(f"{section}.horizon must be an integer multiple of step {dt:g}")

    try:
        du = cfg["duhamel"]
        check(int(du["count"]) >= 1, "duhamel.count must be >= 1")
        check(_num(du["p"]) >= 1, "duhamel.p must be >= 1")
        check(
            len(du["modes"]) >= 1 and all(in_band(m, n) for m, n in du["modes"]),
            "duhamel.modes must list [m, n] modes inside the domain truncation",
        )
        if positive("duhamel", ("dt", "horizon", "amplitude")):
            dt = _num(du["dt"])
            steps_fit("duhamel", _num(du["horizon"]), (dt, dt / 2.0))
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"duhamel section malformed: {exc}")
    try:
        un = cfg["uniqueness"]
        for key in ("shrink_factor", "cross_tolerance"):
            check(not math.isnan(_num(un[key])), f"uniqueness.{key} must be a number")
        if positive("uniqueness", ("dt", "horizon", "cross_dt", "amplitude")):
            dt = _num(un["dt"])
            steps_fit("uniqueness", _num(un["horizon"]), (dt, dt / 2.0, dt / 4.0, _num(un["cross_dt"])))
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"uniqueness section malformed: {exc}")
    field_file = cfg.get("field_file")
    check(field_file is None or isinstance(field_file, str), "field_file must be a path string or null")
    try:
        ini = cfg["initial"]
        check(
            ini["type"] in ("single-mode", "two-mode", "random"),
            "initial.type must be single-mode, two-mode, or random",
        )
        check(math.isfinite(_num(ini.get("amplitude", 1.0))), "initial.amplitude must be a finite number")
        if ini["type"] == "single-mode":
            check(in_band(ini["m"], ini["n"]), "initial mode outside the domain truncation")
        if ini["type"] == "two-mode":
            entries = ini.get("entries")
            check(
                isinstance(entries, list)
                and len(entries) >= 1
                and all(in_band(m, n) and math.isfinite(_num(amp)) for m, n, amp in entries),
                "initial.entries must list [m, n, amplitude] modes inside the domain truncation",
            )
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"initial section malformed: {exc}")
    return bad


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------


def build_domain(cfg: dict, grid=None) -> DomainSpec:
    dom = cfg["domain"]
    g = grid if grid is not None else dom["grid"]
    return DomainSpec(
        _num(dom["lengths"][0]),
        _num(dom["lengths"][1]),
        int(dom["modes"][0]),
        int(dom["modes"][1]),
        int(g[0]),
        int(g[1]),
    )


def build_profile(cfg: dict) -> DyadicProfile:
    return DyadicProfile(int(cfg["profile"]["sharpness"]))


def build_sample_spec(cfg: dict) -> SampleSpec:
    smp = cfg["samples"]
    return SampleSpec(int(smp["mode_count"]), _num(smp["decay"]), int(smp["seed"]), int(smp["count"]))


def build_solver(cfg: dict, dt=None, horizon=None, scheme=None, stride=None) -> SolverConfig:
    sol = cfg["solver"]
    return SolverConfig(
        dt=_num(dt if dt is not None else sol["dt"]),
        horizon=_num(horizon if horizon is not None else sol["horizon"]),
        scheme=scheme if scheme is not None else sol["scheme"],
        snapshot_stride=int(stride if stride is not None else sol["snapshot_stride"]),
    )


def build_initial(cfg: dict, domain: DomainSpec) -> SpectralField:
    ini = cfg["initial"]
    kind = ini["type"]
    if kind == "single-mode":
        return unit_mode(domain, int(ini["m"]), int(ini["n"]), _num(ini["amplitude"]))
    if kind == "two-mode":
        out = None
        for m, n, amp in ini["entries"]:
            piece = unit_mode(domain, int(m), int(n), _num(amp))
            out = piece if out is None else out + piece
        return out
    if kind == "random":
        spec = build_sample_spec(cfg)
        return sample_field(spec, domain, int(ini.get("index", 0))) * _num(ini.get("amplitude", 1.0))
    raise ValueError(f"unknown initial data type {kind!r}")


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


class RunDir:
    def __init__(self, cfg: dict):
        self.path = cfg["output_dir"]
        os.makedirs(self.path, exist_ok=True)
        self.cfg_text = json.dumps(
            _report_value(cfg), sort_keys=True, indent=2, allow_nan=False, default=_json_default
        )
        self.log_path = os.path.join(self.path, "runlog.txt")
        self.files = []
        with open(os.path.join(self.path, "config.json"), "w") as fh:
            fh.write(self.cfg_text + "\n")
        self.files.append("config.json")

    def log(self, message: str) -> None:
        stamp = datetime.datetime.now().isoformat(timespec="seconds")
        with open(self.log_path, "a") as fh:
            fh.write(f"{stamp} {message}\n")

    def write_json(self, name: str, payload) -> None:
        with open(os.path.join(self.path, name), "w") as fh:
            json.dump(
                _report_value(payload), fh, sort_keys=True, indent=2, allow_nan=False, default=_json_default
            )
            fh.write("\n")
        self.files.append(name)

    def write_csv(self, name: str, header, rows) -> None:
        with open(os.path.join(self.path, name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_csv_cell(c) for c in row])
        self.files.append(name)

    def add_tree(self, relpath: str) -> None:
        for root, _, names in os.walk(os.path.join(self.path, relpath)):
            for name in sorted(names):
                full = os.path.join(root, name)
                self.files.append(os.path.relpath(full, self.path))

    def finish(self) -> None:
        inventory = {}
        for rel in sorted(set(self.files)):
            full = os.path.join(self.path, rel)
            with open(full, "rb") as fh:
                data = fh.read()
            inventory[rel] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        manifest = {
            "version": __version__,
            "config_sha256": hashlib.sha256(self.cfg_text.encode()).hexdigest(),
            "files": inventory,
        }
        with open(os.path.join(self.path, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _report_value(o):
    """Copy of ``o`` with non-finite floats spelled "nan", "inf" or "-inf".

    Strict JSON has no NaN or Infinity; these are the spellings ``_num``
    reads back.  Arrays become lists, everything else passes through.
    """
    if isinstance(o, dict):
        return {k: _report_value(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_report_value(v) for v in o]
    if isinstance(o, np.ndarray):
        return _report_value(o.tolist())
    if isinstance(o, (float, np.floating)) and not math.isfinite(o):
        return "nan" if math.isnan(o) else ("inf" if o > 0 else "-inf")
    return o


def _json_default(o):
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, (np.integer,)):
        return int(o)
    raise TypeError(f"cannot serialize {type(o)}")


def _csv_cell(c):
    c = _report_value(c)
    if isinstance(c, (float, np.floating)):
        return repr(float(c))
    return c


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: dict) -> int:
    run = RunDir(cfg)
    run.log("simulate start")
    domain = build_domain(cfg)
    theta0 = build_initial(cfg, domain)
    traj = simulate(theta0, build_solver(cfg))
    save_trajectory(os.path.join(run.path, "trajectory"), traj)
    run.add_tree("trajectory")
    summary = {
        "steps": len(traj.diag_times) - 1,
        "snapshots": len(traj.snapshots),
        "final_l2": float(traj.diag_l2[-1]),
        "max_orthogonality_residual": float(np.max(traj.diag_orthogonality)),
        "energy_nonincreasing": bool(np.all(np.diff(traj.diag_l2) <= 1e-8 * traj.diag_l2[:-1] + 1e-300)),
    }
    run.write_json("simulate.json", summary)
    run.finish()
    run.log("simulate done")
    print(f"simulate: {summary['steps']} steps, final L2 {summary['final_l2']:.6g}")
    return 0


def _cmd_verify_bilinear(cfg: dict) -> int:
    run = RunDir(cfg)
    run.log("verify-bilinear start")
    domain = build_domain(cfg)
    refined = build_domain(cfg, grid=cfg["refined_grid"])
    battery = {
        "s": [_num(s) for s in cfg["battery"]["s"]],
        "q": [_num(q) for q in cfg["battery"]["q"]],
        "pairs": [[_num(a), _num(b)] for a, b in cfg["battery"]["pairs"]],
        "probe_s": [_num(s) for s in cfg["battery"].get("probe_s", [])],
    }
    reports = bilinear_battery(domain, refined, build_sample_spec(cfg), battery, build_profile(cfg))
    run.write_json("bilinear.json", [r.to_json_dict() for r in reports])
    rows = [
        [
            r.params["s"], r.params["p1"], r.params["p2"], _fmt_q(r.params["q"]),
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
    run.finish()
    run.log("verify-bilinear done")
    asserted = [r for r in reports if not r.details.get("probe", False)]
    ok = all(math.isfinite(r.max_ratio) and r.stable for r in asserted)
    worst = max(r.max_ratio for r in asserted)
    print(f"verify-bilinear: {len(reports)} tuples, worst asserted max ratio {worst:.4g}, "
          f"{'stable' if ok else 'UNSTABLE'}")
    return 0 if ok else 1


def _fmt_q(q):
    return "inf" if math.isinf(q) else q


def _cmd_verify_structure(cfg: dict) -> int:
    run = RunDir(cfg)
    run.log("verify-structure start")
    domain = build_domain(cfg)
    profile = build_profile(cfg)
    spec = build_sample_spec(cfg)
    st = cfg["structure"]
    if st.get("adapted", True):
        qspec = None
    else:
        q = cfg["quadrature"]
        qspec = QuadratureSpec(int(q["nodes_per_decade"]), _num(q["mu_min"]), _num(q["mu_max"]))
    results = []
    for i in range(int(st["pair_count"])):
        f = single_block_sample(spec, domain, 2 * i, int(st["j_f"]), profile)
        g = single_block_sample(spec, domain, 2 * i + 1, int(st["j_g"]), profile)
        residual, bound = verify_derivative_structure(f, g, qspec)
        results.append({"pair": i, "residual": residual, "truncation_bound": bound})
    run.write_json("structure.json", results)
    run.finish()
    run.log("verify-structure done")
    worst = max(r["residual"] for r in results)
    ok = worst <= _num(st.get("threshold", 1e-6))
    print(f"verify-structure: {len(results)} pairs, worst residual {worst:.3e}, "
          f"{'ok' if ok else 'ABOVE THRESHOLD'}")
    return 0 if ok else 1


def _cmd_verify_multipliers(cfg: dict) -> int:
    run = RunDir(cfg)
    run.log("verify-multipliers start")
    domain = build_domain(cfg)
    profile = build_profile(cfg)
    spec = build_sample_spec(cfg)
    grids = [tuple(cfg["domain"]["grid"]), tuple(cfg["refined_grid"])]
    grids = [(int(a), int(b)) for a, b in grids]
    bounds = multiplier_bound_study(domain, spec, profile, grids=grids)
    flat_sample = sample_field(SampleSpec(spec.mode_count, 0.0, spec.seed, 1), domain, 0)
    smoothing = heat_smoothing_study(flat_sample, profile, grids=grids)
    elliptic = elliptic_ratio_study(domain, SampleSpec(spec.mode_count, spec.decay, spec.seed, min(spec.count, 20)))
    report = {"bernstein": bounds, "heat_smoothing": smoothing, "elliptic": elliptic}
    run.write_json("multipliers.json", report)
    run.finish()
    run.log("verify-multipliers done")
    ok = True
    for section in ("block_ratio", "gradient_ratio"):
        for p, per_grid in bounds[section].items():
            vals = list(per_grid.values())
            if not all(math.isfinite(v) for v in vals):
                ok = False
            if max(vals) > 2.0 * min(vals):
                ok = False
    for j, rate in smoothing["block_decay_rates"].items():
        if rate > -0.25 * 4.0**j * (1 - 1e-12):
            ok = False
    sups = list(smoothing["gradient_smoothing_sup"].values())
    if max(sups) > 2.0 * min(sups):
        ok = False
    print(f"verify-multipliers: {'stable' if ok else 'UNSTABLE'} across {grids}")
    return 0 if ok else 1


def _cmd_verify_duhamel(cfg: dict) -> int:
    run = RunDir(cfg)
    run.log("verify-duhamel start")
    domain = build_domain(cfg)
    profile = build_profile(cfg)
    du = cfg["duhamel"]
    p = _num(du["p"])
    seed = int(cfg["samples"]["seed"])
    rows = []
    ok = True
    for i in range(int(du["count"])):
        rng = np.random.default_rng([seed, 7000 + i])
        theta0 = None
        for m, n in du["modes"]:
            amp = _num(du["amplitude"]) * float(rng.uniform(-1.0, 1.0))
            piece = unit_mode(domain, int(m), int(n), amp)
            theta0 = piece if theta0 is None else theta0 + piece
        ratios = []
        for dt in (_num(du["dt"]), _num(du["dt"]) / 2.0):
            traj = simulate(theta0, build_solver(cfg, dt=dt, horizon=du["horizon"], stride=1))
            ratio, _ = verify_duhamel_growth(traj, p, profile)
            ratios.append(ratio)
        stable = (
            math.isfinite(ratios[0])
            and math.isfinite(ratios[1])
            and (ratios[1] <= 2.0 * ratios[0] + 1e-300)
            and (ratios[0] <= 2.0 * ratios[1] + 1e-300)
        )
        ok = ok and stable
        rows.append([i, ratios[0], ratios[1], int(stable)])
    run.write_csv("duhamel.csv", ["index", "ratio", "ratio_half_dt", "stable"], rows)
    run.write_json(
        "duhamel.json",
        {"p": p, "s": -1.0 + 2.0 / p, "count": int(du["count"]),
         "max_ratio": max(r[1] for r in rows), "all_stable": bool(ok)},
    )
    run.finish()
    run.log("verify-duhamel done")
    print(f"verify-duhamel: max ratio {max(r[1] for r in rows):.4g}, "
          f"{'stable' if ok else 'UNSTABLE'} under dt halving")
    return 0 if ok else 1


def _cmd_verify_uniqueness(cfg: dict) -> int:
    run = RunDir(cfg)
    run.log("verify-uniqueness start")
    domain = build_domain(cfg)
    un = cfg["uniqueness"]
    amp = _num(un["amplitude"])
    # distinct eigenvalues so the advection term is active
    theta0 = unit_mode(domain, 1, 1, amp) + unit_mode(domain, 1, 2, -amp)
    dt = _num(un["dt"])
    horizon = _num(un["horizon"])

    def twin(dta, dtb):
        ca = build_solver(cfg, dt=dta, horizon=horizon, stride=max(1, round(horizon / dta / 20)))
        cb = build_solver(cfg, dt=dtb, horizon=horizon, stride=max(1, round(horizon / dtb / 20)))
        return uniqueness_experiment(theta0, ca, cb)

    t1, d1 = twin(dt, dt / 2)
    t2, d2 = twin(dt / 2, dt / 4)
    shrink = float(np.max(d1) / np.max(d2)) if np.max(d2) > 0 else math.inf
    cross_dt = _num(un["cross_dt"])
    ca = build_solver(cfg, dt=cross_dt, horizon=horizon, scheme="IF-Euler",
                      stride=max(1, round(horizon / cross_dt / 20)))
    cb = build_solver(cfg, dt=cross_dt, horizon=horizon, scheme="ETD2",
                      stride=max(1, round(horizon / cross_dt / 20)))
    tc, dc = uniqueness_experiment(theta0, ca, cb)
    rel_cross = float(np.max(dc) / spectral_norm(theta0))
    report = {
        "max_distance_coarse": float(np.max(d1)),
        "max_distance_fine": float(np.max(d2)),
        "shrink_factor": shrink,
        "cross_scheme_relative_distance": rel_cross,
    }
    run.write_json("uniqueness.json", report)
    run.write_csv(
        "uniqueness_distance.csv",
        ["time", "coarse_pair", "fine_pair"],
        [[t, a, b] for t, a, b in zip(t1, d1, np.interp(t1, t2, d2))],
    )
    run.write_csv("uniqueness_cross.csv", ["time", "distance"], list(zip(tc, dc)))
    run.finish()
    run.log("verify-uniqueness done")
    ok = shrink >= _num(un["shrink_factor"]) and rel_cross <= _num(un["cross_tolerance"])
    print(f"verify-uniqueness: shrink {shrink:.3g}, cross-scheme rel distance {rel_cross:.3e}, "
          f"{'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_besov_norm(cfg: dict) -> int:
    if cfg.get("field_file"):
        try:
            field = read_field(cfg["field_file"])
            if field.parity != "SS":
                raise ValueError(f"Besov norms need an SS field, the file holds {field.parity}")
        except (OSError, ValueError) as exc:
            print(f"config error: field_file {cfg['field_file']!r}: {exc}", file=sys.stderr)
            return 2
    else:
        field = build_initial(cfg, build_domain(cfg))
    run = RunDir(cfg)
    run.log("besov-norm start")
    bz = cfg["besov"]
    params = BesovParams(_num(bz["s"]), _num(bz["p"]), _num(bz["q"]))
    value, prof = besov_norm(field, params, build_profile(cfg))
    prof.to_csv(os.path.join(run.path, "besov_profile.csv"))
    run.files.append("besov_profile.csv")
    run.write_json(
        "besov.json",
        {"s": params.s, "p": _fmt_q(params.p), "q": _fmt_q(params.q), "value": value},
    )
    run.finish()
    run.log("besov-norm done")
    print(f"besov-norm: {value:.12g}")
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "verify-bilinear": _cmd_verify_bilinear,
    "verify-structure": _cmd_verify_structure,
    "verify-multipliers": _cmd_verify_multipliers,
    "verify-duhamel": _cmd_verify_duhamel,
    "verify-uniqueness": _cmd_verify_uniqueness,
    "besov-norm": _cmd_besov_norm,
}


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
        sp.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set, args.out, args.seed)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    violations = validate_config(cfg)
    if violations:
        for v in violations:
            print(f"config violation: {v}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.subcommand](cfg)
    except BlowUpError as exc:
        print(f"{args.subcommand}: blow-up: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
