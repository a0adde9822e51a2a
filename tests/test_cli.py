"""Config handling, subcommand execution, and run-directory contracts."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqgbox import BlowUpError, EstimateReport, SpectralField, j_range, simulate, unit_mode, write_field
from sqgbox.cli import (
    BLAS_THREAD_VARIABLES,
    DEFAULT_CONFIG,
    MAX_GRID,
    MAX_STEPS,
    SCHEMA,
    SUBCOMMANDS,
    RunDir,
    _report_value,
    build_domain,
    build_initial,
    build_solver,
    default_config,
    load_config,
    parse_config,
    run,
)


def _write_cfg(tmp_path, overrides=None):
    cfg = {
        "domain": {"modes": [8, 8], "grid": [16, 16]},
        "refined_grid": [32, 32],
        "samples": {"mode_count": 8, "count": 2},
        "solver": {"dt": 1e-3, "horizon": 0.01, "snapshot_stride": 5},
        "duhamel": {"count": 2, "horizon": 0.01},
        "uniqueness": {"horizon": 0.02},
        "structure": {"pair_count": 1},
    }
    if overrides:
        for k, v in overrides.items():
            cfg[k] = v
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _typed(path, overrides=()):
    cfg, violations = parse_config(load_config(path, overrides))
    assert violations == []
    return cfg


# -- config ----------------------------------------------------------------


def test_default_config_is_valid():
    assert parse_config(default_config())[1] == []


def test_schema_defaults_parse_to_themselves():
    # DEFAULT_CONFIG is built from the schema rows: each default must be a
    # value that its own kind accepts and reads back unchanged.
    typed, violations = parse_config(DEFAULT_CONFIG)
    assert violations == []
    for key, ((_, parse), default) in SCHEMA.items():
        section, _, name = key.rpartition(".")
        value = (typed[section] if section else typed)[name]
        if key in ("initial.entries", "initial.index"):  # rows without a default
            assert value is None and name not in DEFAULT_CONFIG["initial"]
            continue
        assert _report_value(value) == default, key
        assert isinstance(value, float) or type(value) is type(default), key
        assert parse(value) == value, key


def test_default_config_deep_copied():
    cfg = default_config()
    cfg["solver"]["dt"] = 123.0
    assert DEFAULT_CONFIG["solver"]["dt"] != 123.0


def test_load_config_merges_and_overrides(tmp_path):
    path = _write_cfg(tmp_path)
    cfg = load_config(path, overrides=["solver.dt=0.002", "profile.sharpness=3"], seed=42)
    assert cfg["solver"]["dt"] == 0.002
    assert cfg["profile"]["sharpness"] == 3
    assert cfg["solver"]["horizon"] == 0.01  # from file
    assert cfg["battery"]["pairs"] == [[2, 2], [3, 6], [6, 3]]  # default preserved
    assert cfg["samples"]["seed"] == 42 and "seed" not in cfg


def test_load_config_string_override(tmp_path):
    path = _write_cfg(tmp_path)
    cfg = load_config(path, overrides=["solver.scheme=IF-Euler"])
    assert cfg["solver"]["scheme"] == "IF-Euler"
    with pytest.raises(ValueError):
        load_config(path, overrides=["solver.dt"])


def test_validate_config_flags_violations():
    cfg = default_config()
    cfg["solver"]["dt"] = -1.0
    cfg["profile"]["sharpness"] = 9
    cfg["battery"]["s"] = [0.0, 2.5]
    cfg["domain"]["grid"] = [16, 16]  # cannot resolve 32 modes
    typed, out = parse_config(cfg)
    assert typed is None
    assert len(out) >= 4
    assert any("sharpness" in v for v in out)
    assert any("2.5" in v for v in out)


def test_build_domain_uses_grid_argument():
    cfg, _ = parse_config(default_config())
    d = build_domain(cfg, grid=[128, 96])
    assert (d.N1, d.N2) == (128, 96)
    assert (d.M1, d.M2) == (32, 32)


# -- subcommand runs -------------------------------------------------------


def test_simulate_run_and_manifest(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    code = run(["simulate", "--config", cfg, "--out", str(out)])
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert set(man) == {"version", "config_sha256", "files"}
    assert "runlog.txt" not in man["files"]
    assert "manifest.json" not in man["files"]
    assert "simulate.json" in man["files"]
    for rel, meta in man["files"].items():
        data = (out / rel).read_bytes()
        assert hashlib.sha256(data).hexdigest() == meta["sha256"]
        assert len(data) == meta["bytes"]
    assert (out / "runlog.txt").exists()
    summary = json.loads((out / "simulate.json").read_text())
    assert summary["energy_nonincreasing"] is True


def test_run_log_records_blas_threads_outside_the_manifest(tmp_path, monkeypatch):
    # The BLAS thread count can move the last bits of a report, so runlog.txt
    # names it; the manifest must not depend on it.
    cfg, out = _write_cfg(tmp_path), tmp_path / "out"
    manifests = []
    for value in ("1", None):
        for var in BLAS_THREAD_VARIABLES:
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    log = (out / "runlog.txt").read_text()
    for var in BLAS_THREAD_VARIABLES:
        assert f"{var}=1" in log and f"{var}=unset" in log


def test_runs_are_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["verify-structure", "--config", cfg, "--out", str(a)]) == 0
    assert run(["verify-structure", "--config", cfg, "--out", str(b)]) == 0
    ma = json.loads((a / "manifest.json").read_text())["files"]
    mb = json.loads((b / "manifest.json").read_text())["files"]
    del ma["config.json"], mb["config.json"]  # embeds output_dir
    assert ma == mb


def test_verify_bilinear_run(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "bl"
    assert run(["verify-bilinear", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "bilinear_ratios.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header[:4] == ["s", "p1", "p2", "q"]
    payload = json.loads((out / "bilinear.json").read_text())
    assert len(payload) == len(rows) - 1
    assert all(r["stable"] for r in payload if not r["details"]["probe"])


def test_verify_uniqueness_run(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "un"
    assert run(["verify-uniqueness", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "uniqueness.json").read_text())
    assert rep["shrink_factor"] >= 3.5
    assert rep["cross_scheme_relative_distance"] <= 1e-5


def test_verify_uniqueness_simulates_each_run_once(tmp_path, monkeypatch):
    # dt, dt/2, dt/4 and the two cross-scheme runs: the dt/2 run serves both pairs
    from sqgbox import cli

    configs = []

    def counted(theta0, config):
        configs.append(config)
        return simulate(theta0, config)

    monkeypatch.setattr(cli, "simulate", counted)
    assert run(["verify-uniqueness", "--config", _write_cfg(tmp_path), "--out", str(tmp_path / "un")]) == 0
    assert len(configs) == len(set(configs)) == 5


def test_verify_duhamel_reports_are_pinned(tmp_path):
    # Hashes of the reports of the per-draw implementation that the streamed
    # ensemble replaced: the ensemble must keep every reported bit.
    # Re-taken when L^1.5 norms took |v| sqrt|v|: max_ratio moved by 2.6e-16 relative
    # Re-taken when sup_t ||theta||_2 came from one BLAS dot: max_ratio moved by 3.9e-16 relative
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "duhamel"
    assert run(["verify-duhamel", "--config", cfg, "--out", str(out)]) == 0
    pinned = {
        "duhamel.csv": "1b17786884bb4e008fab1f130b0f8c65700d97c37a417382574facfd4db6cb07",
        "duhamel.json": "12375b9b5522e8371d8818311400369754994eda0dcac4922ff0c1d748b676d9",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


RANDOM_RECTANGLE = '--set initial.type="random" --set domain.lengths=[3.0,2.0]'


@pytest.mark.parametrize("subcommand, pinned", [
    # re-taken when lp_norm's |v|^p became products: 26 of 945 values moved, <= 2.6e-16 relative
    ("verify-bilinear", {
        "bilinear.json": "d8a67740fcd732928558b4a1f7082255fae83cc90fad5dd5f253a3f3d2404226",
        "bilinear_ratios.csv": "43ce904b4e58cf103a9b83a917cd78f0922656069e1149c286c1b93659896ec0",
    }),
    # re-taken when the step folded its derivative scales into its synthesis
    # tables: the twin distances moved at round-off (shrink_factor by 6e-14);
    # again when spectral_norm became one BLAS dot (shrink_factor by 4.4e-16)
    ("verify-uniqueness", {
        "uniqueness.json": "dd7ccb586d4179f3e18063560ec1517078625c42272d7242470dcf8fd257414f",
        "uniqueness_distance.csv": "eda9f7c3a604938e11db0f41374a873dd5fed9f8da63bdb314a58f8f5c1bfbae",
        "uniqueness_cross.csv": "dc668c48074b61f96a0ea7fe2e2d351c72e0753b7649ca0bf7b5ebe48e749555",
    }),
    # the heat step: the default single-mode data has no advection term;
    # diagnostics.csv re-taken for the one-dot norm (one l2 value by 1.4e-16)
    ("simulate", {
        "simulate.json": "f6d5284215cdc8e4b8eef393167520854bc0b5d9d436312e8d94c979ffb3a66b",
        "trajectory/diagnostics.csv": "edd90bbf272289dcc356a793dd48bf00fe8905210251ebee50c28e3eb765f86d",
        "trajectory/snapshot_000002.field": "4e862646e3ae1c1075233a7a4dffb9d434f4efd2bb83411afa3ea1045ba53bd3",
    }),
    # heat smoothing; re-taken for sqrt(gx*gx + gy*gy): one value moved by 2.1e-16 relative,
    # and for the one-dot spectral_norm: 6 decay rates moved, <= 3.9e-16 relative
    ("verify-multipliers", {
        "multipliers.json": "ceb492ab401f72df24e059f3baf7c08f6badd8a8940aa105a1afe556b830741e",
    }),
    # the resolvent at every quadrature node; re-taken when the mu-integral
    # was summed on the grid and transformed once (residual moved by 1.1e-16)
    ("verify-structure", {
        "structure.json": "0a679e578738e856078402fa3028b85e5f91a77c3887e9ddbfeae25927ba41f0",
    }),
    # the block norms and their per-block rows
    ("besov-norm", {
        "besov.json": "3a88e9c7de53ab8cccff30badaf453dd3f43a32447ef9a19c805e49c2a77c15d",
        "besov_profile.csv": "fee26f3ef74f58f6d3a87eb1d18d9e14e97737d96cadf275ac112456ea4c808d",
    }),
    # the step's advection arithmetic under each scheme: random data on a 3 x 2
    # rectangle, where the derivative scales m pi / L are not integers; re-taken
    # for the one-dot norms (l2 <= 4.3e-16 relative, residuals ~1e-16 by <= 3.3e-17)
    pytest.param(f"simulate {RANDOM_RECTANGLE} --set solver.scheme=\"ETD2\"", {
        "simulate.json": "0cfa0718753a08a17b41e9d64c17b9cd180924ced8f2c987a1c6045abb25621b",
        "trajectory/diagnostics.csv": "ffa706ab386640b733e23b821d7e1db4d5660eb095635b6f1fb098ce8d821690",
        "trajectory/snapshot_000002.field": "b6ad4f80f396a658afd39c2200294aed9da71ab47ea55565be3bfa0fdb09305f",
    }, id="simulate-random-ETD2"),
    pytest.param(f"simulate {RANDOM_RECTANGLE} --set solver.scheme=\"IF-Euler\"", {
        "simulate.json": "7ce2aff2d4aa8c0e749ec4e76c72a312820977cbcde4b36a20fa7b1f22038a01",
        "trajectory/diagnostics.csv": "ad66288dcd7ddabf783bf4005d86eec0f0f4642b5b42537441a976deb973945b",
        "trajectory/snapshot_000002.field": "c1c8ef41d5205535afc4b42ecaf3ce9501ec378cc213854fa66023edb446b7e3",
    }, id="simulate-random-IF-Euler"),
])
def test_estimate_reports_are_pinned(tmp_path, subcommand, pinned):
    # Hashes of the reports of the per-sample aggregation, the union of block
    # exponents, the convective step through fractional_power, and the
    # solver's private heat and velocity weight tables, and the Besov
    # profile's own CSV writer: the paths that replaced them must keep
    # every reported bit.  ``subcommand`` may carry ``--set`` overrides.
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run([*subcommand.split(), "--config", cfg, "--out", str(out)]) == 0
    for name, digest in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("subcommand", ["besov-norm", "verify-bilinear"])
def test_manifest_lists_every_report(tmp_path, subcommand):
    # RunDir writes every report, so the manifest inventory names each file
    # of the run directory but itself and the run log, with its hash
    cfg = _write_cfg(tmp_path)
    out = tmp_path / subcommand
    assert run([subcommand, "--config", cfg, "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    on_disk = {
        os.path.relpath(os.path.join(root, name), out)
        for root, _, names in os.walk(out)
        for name in names
    }
    assert set(man["files"]) == on_disk - {"manifest.json", "runlog.txt"}
    for rel, meta in man["files"].items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == meta["sha256"]


def test_besov_norm_from_field_file(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    field = unit_mode(build_domain(_typed(cfg_path)), 1, 1)
    field_file = tmp_path / "theta.field"
    write_field(field_file, field)
    out = tmp_path / "bn"
    code = run(
        ["besov-norm", "--config", cfg_path, "--out", str(out),
         "--set", f'field_file="{field_file}"']
    )
    assert code == 0
    rep = json.loads((out / "besov.json").read_text())
    assert rep["value"] > 0.0
    lines = (out / "besov_profile.csv").read_text().splitlines()
    assert lines[0] == "j,block_lp_norm,weighted_term"
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(j_range(field.domain, field.band))


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    code = run(["simulate", "--config", cfg, "--set", "solver.dt=-1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "violation" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["solver.dtt", "workers", "solver.dealias_factor",
                                 "seed", "structure.adapted", "quadrature.nodes_per_decade", "quadrature.mu_min",
                                 "quadrature.mu_max"])
def test_unknown_config_key_exits_2(tmp_path, capsys, key):
    cfg = _write_cfg(tmp_path)
    code = run(["simulate", "--config", cfg, "--set", f"{key}=2", "--out", str(tmp_path / "x")])
    assert code == 2
    section = key.split(".")[0]  # a key of a removed section is reported by its section
    named = key if section in DEFAULT_CONFIG else section
    assert f"unknown config key '{named}'" in capsys.readouterr().err


# Cases that parse_config refuses before any work, so they run in-process.
_IN_PROCESS_VIOLATIONS = [
    ("simulate", 'initial={"type": "random", "index": 1.5}'),
    ("simulate", 'initial={"type": "random", "index": -1}'),
    ("simulate", 'initial={"type": "random", "index": "a"}'),
    ("simulate", "initial.n=true"),
    ("verify-structure", "structure.j_f=true"),
    ("simulate", "solver.horizon=1e308"),
    ("verify-uniqueness", "uniqueness.horizon=1e308"),
    ("verify-bilinear", "samples.decay=Infinity"),
    ("verify-bilinear", "samples.decay=3000"),
    ("simulate", "domain.lengths=[1e400, 3]"),
    ("simulate", 'domain.lengths=["3.1", 3]'),
    # lambda_11 is finite, lambda_32,32 of the sample band is not
    ("verify-structure", "domain.lengths=[1e-153, 1e-153]"),
]


@pytest.mark.parametrize(
    "subcommand, override",
    [
        ("verify-bilinear", "battery.s=[]"),
        ("verify-structure", "structure.pair_count=0"),
        ("simulate", 'initial.type="two-mode"'),
        ("verify-duhamel", "duhamel.count=0"),
        ("verify-duhamel", "duhamel.p=0.5"),
        ("verify-duhamel", "duhamel.modes=[[1, 9]]"),
        ("verify-duhamel", "duhamel.amplitude=0"),
        ("verify-duhamel", "duhamel.horizon=0.0105"),
        ("verify-uniqueness", "uniqueness.dt=0"),
        ("verify-uniqueness", "uniqueness.horizon=NaN"),
        ("verify-uniqueness", "uniqueness.cross_dt=3e-3"),
        ("verify-structure", "structure.j_f=40"),
        ("verify-structure", "structure.j_g=-1"),
        ("verify-structure", "structure.j_g=1.5"),
        ("verify-structure", 'structure.threshold="x"'),
        ("verify-structure", "structure.threshold=0"),
        ("simulate", 'initial.amplitude="x"'),
        ("simulate", "initial.amplitude=Infinity"),
        ("besov-norm", "field_file=5"),
        # integer keys refuse fractions
        ("simulate", "domain.grid=[64.9, 64]"),
        ("simulate", "solver.snapshot_stride=2.5"),
        ("verify-bilinear", "samples.seed=1.5"),
        ("verify-structure", "structure.pair_count=1.7"),
        ("verify-duhamel", "duhamel.count=1.5"),
        # lists have a fixed shape
        ("simulate", "domain.modes=[8, 8, 8]"),
        ("verify-bilinear", "refined_grid=[32]"),
        ("simulate", "domain.lengths=[3]"),
        ("verify-bilinear", "battery.pairs=[[2]]"),
        *_IN_PROCESS_VIOLATIONS,
    ],
)
def test_config_violation_exits_2_without_traceback(tmp_path, capsys, subcommand, override):
    args = [subcommand, "--config", _write_cfg(tmp_path), "--set", override, "--out", str(tmp_path / "x")]
    if (subcommand, override) in _IN_PROCESS_VIOLATIONS:
        code, err = run(args), capsys.readouterr().err
    else:
        proc = subprocess.run([sys.executable, "-m", "sqgbox.cli", *args], capture_output=True, text=True)
        code, err = proc.returncode, proc.stderr
    assert code == 2
    assert err.count("config violation") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("overrides", [
    ["samples.count=1e308"],
    ["solver.dt=1e-308"],
    ["domain.grid=[1e308, 16]"],
    ["refined_grid=[16, 1e308]"],
    ["domain.grid=[4097, 16]"],
    ["duhamel.count=1e308"],
    ["structure.pair_count=1e308"],
    ["solver.dt=1e-6", "solver.horizon=1.000001"],  # 10**6 + 1 steps
    ["uniqueness.cross_dt=1e-9"],
    ["samples.count=100001"],
    ["structure.pair_count=1001"],
])
def test_huge_sizes_exit_2(tmp_path, capsys, overrides):
    # Refused by parse_config before any work starts, so they run in-process.
    path = _write_cfg(tmp_path)
    cfg, violations = parse_config(load_config(path, overrides))
    assert cfg is None and violations
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert run(["simulate", "--config", path, *sets, "--out", str(tmp_path / "x")]) == 2
    assert "config violation" in capsys.readouterr().err


def test_size_caps_admit_their_bounds(tmp_path):
    path = _write_cfg(tmp_path)
    at_caps = ["domain.grid=[4096, 16]", "refined_grid=[16, 4096]", "samples.count=100000", "duhamel.count=10000",
               "structure.pair_count=1000", "solver.dt=1e-6", "solver.horizon=1.0"]
    assert parse_config(load_config(path, at_caps))[1] == []


def _broken_field_file(tmp_path, case):
    """A field file path that ``besov-norm`` must refuse as a config error."""
    if case == "missing":
        return tmp_path / "nope.field"
    if case == "directory":
        return tmp_path
    domain = build_domain(_typed(_write_cfg(tmp_path)))
    path = tmp_path / "theta.field"
    if case == "non-SS parity":
        write_field(path, SpectralField(domain, "CS", np.ones((9, 8))))
        return path
    write_field(path, unit_mode(domain, 1, 1))
    header, payload = path.read_bytes().split(b"\n", 1)
    meta = json.loads(header)
    if case == "garbage header":
        header = b"not a header"
    elif case == "header missing keys":
        del meta["lengths"]
        header = json.dumps(meta).encode()
    elif case == "non-2-D shape":
        meta["shape"] = [64]
        header = json.dumps(meta).encode()
    elif case == "bool in shape":
        meta["shape"] = [True, 8]
        header, payload = json.dumps(meta).encode(), payload[: 8 * 8]  # the bytes of a 1 x 8 field
    elif case == "infinite length":
        meta["lengths"] = [math.inf, 3]
        header = json.dumps(meta).encode()
    elif case == "bool in modes":
        meta["modes"] = [True, 8]
        header = json.dumps(meta).encode()
    elif case == "infinite top eigenvalue":
        meta["lengths"] = [1e-153, 1e-153]
        header = json.dumps(meta).encode()
    elif case == "zero first eigenvalue":
        meta["lengths"] = [1e300, 1e300]
        header = json.dumps(meta).encode()
    elif case == "grid above the cap":
        meta["grid"] = [10**7, 10**7]
        header = json.dumps(meta).encode()
    elif case == "truncated payload":
        payload = payload[:-8]
    path.write_bytes(header + b"\n" + payload)
    return path


@pytest.mark.parametrize(
    "case",
    ["missing", "directory", "garbage header", "header missing keys", "non-2-D shape",
     "truncated payload", "non-SS parity", "bool in shape", "infinite length", "bool in modes"],
)
def test_bad_field_file_exits_2_without_traceback(tmp_path, case):
    path = _broken_field_file(tmp_path, case)
    proc = subprocess.run(
        [sys.executable, "-m", "sqgbox.cli", "besov-norm", "--config", _write_cfg(tmp_path),
         "--set", f"field_file={json.dumps(str(path))}", "--out", str(tmp_path / "x")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: field_file ")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", ["infinite top eigenvalue", "zero first eigenvalue", "grid above the cap"])
def test_field_file_keeps_the_domain_rules_and_size_cap(tmp_path, capsys, monkeypatch, case):
    # the rules parse_config applies to domain.lengths and domain.grid hold
    # for the header of a field file too.  The norm is stubbed out: without
    # the cap, the 10^7 grid would synthesize 800 TB per block.
    monkeypatch.setattr("sqgbox.cli.besov_norm", lambda *args: pytest.fail("besov_norm ran"))
    path = _broken_field_file(tmp_path, case)
    code = run(["besov-norm", "--config", _write_cfg(tmp_path), "--set", f"field_file={json.dumps(str(path))}",
                "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: field_file ")
    assert len(err.strip().splitlines()) == 1


def test_missing_config_exits_2(tmp_path):
    assert run(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["simulate", "--config", str(bad)]) == 2


def test_non_object_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[]")
    assert run(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "config error: config file must hold a JSON object" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_blow_up_exits_1_with_message(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    code = run(
        ["simulate", "--config", cfg, "--out", str(tmp_path / "x"),
         "--set", "solver.dt=0.5", "--set", "solver.horizon=50",
         "--set", 'initial.type="random"', "--set", "initial.amplitude=1e6"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "simulate: blow-up: non-finite state at t=" in err
    last = float(err.split("last finite L2 norm ")[1].split(")")[0])
    assert math.isfinite(last)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_blow_up_keeps_the_last_finite_norm(tmp_path):
    # The state before the blow-up has finite coefficients whose L2 norm
    # already overflows; the error must report an earlier, finite norm.
    overrides = ["solver.dt=0.5", "solver.horizon=50", 'initial.type="random"', "initial.amplitude=1e6"]
    cfg = _typed(_write_cfg(tmp_path), overrides)
    with pytest.raises(BlowUpError) as info:
        simulate(build_initial(cfg, build_domain(cfg)), build_solver(cfg))
    assert math.isfinite(info.value.last_l2) and info.value.last_l2 > 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("members", [1, 8])
def test_verify_duhamel_names_the_exploding_draw(tmp_path, capsys, monkeypatch, members):
    # With this seed draw 1 blows up at t=0.12 and draw 0 stays finite; the
    # draw is named by its index, however the draws are split into stacks.
    monkeypatch.setattr("sqgbox.cli.DUHAMEL_MEMBERS", members)
    code = run(
        ["verify-duhamel", "--config", _write_cfg(tmp_path), "--out", str(tmp_path / "x"),
         "--set", "samples.seed=13", "--set", "duhamel.amplitude=300",
         "--set", "duhamel.dt=0.01", "--set", "duhamel.horizon=0.2"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "verify-duhamel: blow-up: non-finite state in member 1 at t=0.12 " in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_multipliers_fails_when_a_smoothing_sup_is_not_finite(tmp_path, capsys):
    # On a 1e308 x pi rectangle every L2 norm overflows, so the smoothing sup is nan.
    out = tmp_path / "vm"
    code = run(["verify-multipliers", "--config", _write_cfg(tmp_path), "--out", str(out),
                "--set", f"domain.lengths=[1e308, {math.pi}]"])
    report = json.loads((out / "multipliers.json").read_text())
    assert report["heat_smoothing"]["gradient_smoothing_sup"] == {"16x16": "nan", "32x32": "nan"}
    assert code == 1 and "UNSTABLE" in capsys.readouterr().out


def test_reports_spell_nonfinite_values_as_strings(tmp_path):
    def strict(token):
        raise ValueError(f"bare {token} in a report")

    rd = RunDir(dict(DEFAULT_CONFIG, output_dir=str(tmp_path / "r")))
    values = [math.nan, math.inf, -math.inf, np.float64("nan"), 0.25]
    rd.write_json("r.json", {"list": values, "array": np.array(values), "nested": {"x": math.nan}})
    rep = json.loads((tmp_path / "r" / "r.json").read_text(), parse_constant=strict)
    spelled = ["nan", "inf", "-inf", "nan", 0.25]
    assert rep == {"list": spelled, "array": spelled, "nested": {"x": "nan"}}
    rd.write_csv("r.csv", ["a", "b", "c", "d", "e"], [values])
    row = (tmp_path / "r" / "r.csv").read_text().splitlines()[1]
    assert row == "nan,inf,-inf,nan,0.25"


def test_estimate_report_params_keep_the_sign_of_infinity(tmp_path):
    def strict(token):
        raise ValueError(f"bare {token} in a report")

    report = EstimateReport(
        params={"s": 0.5, "p": -math.inf, "q": math.inf},
        ratios=[0.5], max_ratio=0.5, mean_ratio=0.5, refined_max_ratio=0.5, stable=True,
    )
    rd = RunDir(dict(DEFAULT_CONFIG, output_dir=str(tmp_path / "r")))
    rd.write_json("bilinear.json", [dataclasses.asdict(report)])
    back = json.loads((tmp_path / "r" / "bilinear.json").read_text(), parse_constant=strict)
    assert back[0]["params"] == {"s": 0.5, "p": "-inf", "q": "inf"}


def test_seed_flag_changes_samples(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    a = load_config(cfg_path, seed=1)
    b = load_config(cfg_path, seed=2)
    assert a["samples"]["seed"] == 1 and b["samples"]["seed"] == 2


class _ReadKeys(dict):
    """A typed config (section) that records the dotted keys read from it."""

    def __init__(self, section, read, prefix=""):
        super().__init__(section)
        self.read, self.prefix = read, prefix

    def __getitem__(self, key):
        self.read.add(self.prefix + key)
        value = super().__getitem__(key)
        return _ReadKeys(value, self.read, f"{self.prefix}{key}.") if isinstance(value, dict) else value

    def get(self, key, default=None):
        return self[key] if key in self else default

    def __iter__(self):  # also sends ** unpacking through __getitem__
        for key in super().__iter__():
            self.read.add(self.prefix + key)
            yield key


def test_every_schema_key_is_read(tmp_path, monkeypatch):
    # output_dir is read by RunDir from the config as written
    from sqgbox import cli

    read = set()

    def recording(written):
        cfg, violations = parse_config(written)
        return (None if cfg is None else _ReadKeys(cfg, read)), violations

    monkeypatch.setattr(cli, "parse_config", recording)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_FUZZ_BASE))
    runs = [[name] for name in SUBCOMMANDS] + [
        ["simulate", "--set", 'initial={"type": "two-mode", "entries": [[1, 1, 0.5], [2, 1, -0.5]]}'],
        ["simulate", "--set", 'initial={"type": "random"}'],
    ]
    for i, args in enumerate(runs):
        assert _quiet_run([*args, "--config", str(path), "--out", str(tmp_path / str(i))]) == 0, args
    assert sorted(set(SCHEMA) - read) == ["output_dir"]


def test_runlog_holds_timestamps_and_reports_do_not(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "log"
    assert run(["verify-structure", "--config", cfg, "--out", str(out)]) == 0
    log = (out / "runlog.txt").read_text()
    assert "start" in log and "done" in log
    # ISO date prefix on every line
    for line in log.strip().splitlines():
        assert line[:4].isdigit() and line[4] == "-"
    report = (out / "structure.json").read_text()
    assert "20" not in json.loads(report)[0].keys()


# -- fuzzing the exit-code contract -------------------------------------------

_FUZZ_BASE = {
    "domain": {"modes": [8, 8], "grid": [16, 16]},
    "refined_grid": [16, 16],
    "samples": {"mode_count": 8, "count": 2},
    "battery": {"s": [0.5], "q": [2], "pairs": [[2, 2]], "probe_s": []},
    "solver": {"dt": 1e-3, "horizon": 0.01, "snapshot_stride": 5},
    "structure": {"j_f": 2, "j_g": 1, "pair_count": 1},
    "duhamel": {"count": 2, "horizon": 0.01},
    "uniqueness": {"dt": 2e-3, "horizon": 0.01, "cross_dt": 1e-3},
}
_WRONG_VALUES = [None, True, False, "x", "inf", [], {}, math.nan, math.inf, -math.inf, -1, 0, 1e308, 1e-308, 1.5, -2.5]
# Float keys also draw log-uniform magnitudes: refused or accepted, an extreme
# length, decay, amplitude, step or exponent must not end in a traceback.
_EXTREME = st.builds(lambda sign, exp: sign * 10.0**exp, st.sampled_from([1, -1]), st.integers(-300, 300))
_EXTREME_KEYS = ("domain.lengths", "samples.decay", "initial.amplitude", "duhamel.", "uniqueness.", "besov.",
                 "battery.pairs")
# Subcommands that read a section; domain, profile and samples are read by most.
_READERS = {
    "battery": ["verify-bilinear"],
    "besov": ["besov-norm"],
    "duhamel": ["verify-duhamel"],
    "field_file": ["besov-norm"],
    "initial": ["simulate", "besov-norm"],
    "solver": ["simulate", "verify-duhamel", "verify-uniqueness"],
    "structure": ["verify-structure"],
    "uniqueness": ["verify-uniqueness"],
}


@st.composite
def _config_mutation(draw):
    """A subcommand and one schema key of the fuzz base set to a wrong value
    (or an extreme magnitude, for the float keys of ``_EXTREME_KEYS``), or a
    list of it with one entry, at any depth, wrong or of a wrong length."""
    key = draw(st.sampled_from(sorted(SCHEMA)))
    subcommand = draw(st.sampled_from(_READERS.get(key.split(".")[0], SUBCOMMANDS)))
    section, _, name = key.rpartition(".")
    if section:
        node = {**DEFAULT_CONFIG[section], **_FUZZ_BASE.get(section, {})}
    else:
        node = {**DEFAULT_CONFIG, **_FUZZ_BASE}

    leaves = st.sampled_from(_WRONG_VALUES)
    if key.startswith(_EXTREME_KEYS):
        leaves = st.one_of(leaves, _EXTREME)

    def mutate(value):
        if isinstance(value, list) and value and draw(st.booleans()):
            i = draw(st.integers(0, len(value) - 1))
            return value[:i] + [mutate(value[i])] + value[i + 1 :]
        if isinstance(value, list) and draw(st.booleans()):
            return value[:-1] if draw(st.booleans()) else value + value[-1:]
        return draw(leaves)

    return subcommand, key, mutate(node.get(name))


def _cheap(cfg):
    """Whether running a typed config stays inside the fuzz test's cost bound."""
    sol, du, un, bat = cfg["solver"], cfg["duhamel"], cfg["uniqueness"], cfg["battery"]
    sizes = [*cfg["domain"]["modes"], *cfg["domain"]["grid"], *cfg["refined_grid"]]
    steps = [sol["horizon"] / sol["dt"], 2 * du["horizon"] / du["dt"], 4 * un["horizon"] / un["dt"],
             un["horizon"] / un["cross_dt"]]
    counts = [cfg["samples"]["count"], du["count"], len(du["modes"]), cfg["structure"]["pair_count"],
              len(cfg["initial"]["entries"] or [])]
    tuples = (len(bat["s"]) + len(bat["probe_s"])) * len(bat["q"]) * len(bat["pairs"])
    return max(sizes) <= 32 and max(steps) <= 50 and max(counts) <= 4 and tuples <= 16


def _within_caps(cfg):
    """Whether a typed config keeps to the fixed size caps of ``cli``."""
    sol, du, un = cfg["solver"], cfg["duhamel"], cfg["uniqueness"]
    steps = [sol["horizon"] / sol["dt"], 2 * du["horizon"] / du["dt"], 4 * un["horizon"] / un["dt"],
             un["horizon"] / un["cross_dt"]]
    return (max(*cfg["domain"]["grid"], *cfg["refined_grid"]) <= MAX_GRID and max(steps) <= MAX_STEPS
            and cfg["samples"]["count"] <= 10**5 and du["count"] <= 10**4 and cfg["structure"]["pair_count"] <= 10**3)


def _quiet_run(args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(args)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, derandomize=True, deadline=None)
@given(mutation=_config_mutation())
# inputs on which longer runs of this test found a traceback: a target
# exponent p < 1, a zero Hoelder bound, an L2 norm that overflows, and
# lambda_11 = 0, and an infinite lambda at the top of the sample band
@example(mutation=("verify-bilinear", "battery.pairs", [[1.5, 2]]))
@example(mutation=("verify-bilinear", "battery.pairs", [[1e308, 2]]))
@example(mutation=("verify-multipliers", "domain.lengths", [1e308, math.pi]))
@example(mutation=("verify-structure", "domain.lengths", [1e200, 1e200]))
@example(mutation=("verify-structure", "domain.lengths", [1e-153, 1e-153]))
# valid but huge sizes, refused by the size caps
@example(mutation=("verify-bilinear", "samples.count", 1e308))
@example(mutation=("simulate", "solver.dt", 1e-308))
@example(mutation=("verify-structure", "structure.pair_count", 1e308))
def test_cli_contract_holds_for_mutated_configs(mutation):
    # A refused config exits 2; an accepted one stays inside the size caps,
    # and when it is cheap to run, exits 0, 1 or 2.  Loading and parsing
    # never raise.
    subcommand, key, value = mutation
    override = f"{key}={json.dumps(value)}"
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(_FUZZ_BASE, fh)
        cfg, violations = parse_config(load_config(path, [override], out=out))
        args = [subcommand, "--config", path, "--set", override, "--out", out]
        if cfg is None:
            assert violations and _quiet_run(args) == 2
            return
        assert _within_caps(cfg)
        if _cheap(cfg):
            assert _quiet_run(args) in (0, 1, 2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_contract_holds_for_damaged_field_files(data):
    with tempfile.TemporaryDirectory() as tmp:
        path, field_file = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "theta.field")
        with open(path, "w") as fh:
            json.dump(_FUZZ_BASE, fh)
        domain = build_domain(_typed(path))
        write_field(field_file, SpectralField(domain, "SS", np.random.default_rng(0).uniform(-1, 1, (8, 8))))
        with open(field_file, "rb") as fh:
            raw = fh.read()
        # half the draws land in the header, which holds the parsed fields
        at = data.draw(st.one_of(st.integers(0, raw.index(b"\n")), st.integers(0, len(raw) - 1)))
        if data.draw(st.booleans()):
            raw = raw[:at]
        else:
            raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1 :]
        with open(field_file, "wb") as fh:
            fh.write(raw)
        args = ["besov-norm", "--config", path, "--set", f"field_file={json.dumps(field_file)}",
                "--out", os.path.join(tmp, "out")]
        assert _quiet_run(args) in (0, 1, 2)
