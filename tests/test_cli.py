"""Config handling, subcommand execution, and run-directory contracts."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sqgbox import BlowUpError, EstimateReport, SpectralField, simulate, unit_mode, write_field
from sqgbox.cli import (
    DEFAULT_CONFIG,
    RunDir,
    build_domain,
    build_initial,
    build_solver,
    default_config,
    load_config,
    run,
    validate_config,
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


# -- config ----------------------------------------------------------------


def test_default_config_is_valid():
    assert validate_config(default_config()) == []


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
    assert cfg["seed"] == 42 and cfg["samples"]["seed"] == 42


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
    out = validate_config(cfg)
    assert len(out) >= 4
    assert any("sharpness" in v for v in out)
    assert any("2.5" in v for v in out)


def test_build_domain_uses_grid_argument():
    cfg = default_config()
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


def test_verify_duhamel_reports_are_pinned(tmp_path):
    # Hashes of the reports of the per-draw implementation that the streamed
    # ensemble replaced: the ensemble must keep every reported bit.
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "duhamel"
    assert run(["verify-duhamel", "--config", cfg, "--out", str(out)]) == 0
    pinned = {
        "duhamel.csv": "5445e4ec8dda6932fc2918accc90bbd88c134ce610eadd5a1debf9651533ee12",
        "duhamel.json": "de77b464b67272ef2fab6137109d9ca2619a7eb1a730dd9db09b59c69b4aacb8",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_besov_norm_from_field_file(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    cfg = load_config(cfg_path)
    field = unit_mode(build_domain(cfg), 1, 1)
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
    assert (out / "besov_profile.csv").exists()


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    code = run(["simulate", "--config", cfg, "--set", "solver.dt=-1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "violation" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["solver.dtt", "workers", "solver.dealias_factor"])
def test_unknown_config_key_exits_2(tmp_path, capsys, key):
    cfg = _write_cfg(tmp_path)
    code = run(["simulate", "--config", cfg, "--set", f"{key}=2", "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"unknown config key '{key}'" in capsys.readouterr().err


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
    ],
)
def test_config_violation_exits_2_without_traceback(tmp_path, subcommand, override):
    cfg = _write_cfg(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "sqgbox.cli", subcommand, "--config", cfg, "--set", override,
         "--out", str(tmp_path / "x")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "config violation" in proc.stderr
    assert "Traceback" not in proc.stderr


def _broken_field_file(tmp_path, case):
    """A field file path that ``besov-norm`` must refuse as a config error."""
    if case == "missing":
        return tmp_path / "nope.field"
    if case == "directory":
        return tmp_path
    domain = build_domain(load_config(_write_cfg(tmp_path)))
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
    elif case == "truncated payload":
        payload = payload[:-8]
    path.write_bytes(header + b"\n" + payload)
    return path


@pytest.mark.parametrize(
    "case",
    ["missing", "directory", "garbage header", "header missing keys", "non-2-D shape",
     "truncated payload", "non-SS parity"],
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
    cfg = load_config(_write_cfg(tmp_path), overrides)
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
    rd.write_json("bilinear.json", [report.to_json_dict()])
    back = json.loads((tmp_path / "r" / "bilinear.json").read_text(), parse_constant=strict)
    assert back[0]["params"] == {"s": 0.5, "p": "-inf", "q": "inf"}


def test_seed_flag_changes_samples(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    a = load_config(cfg_path, seed=1)
    b = load_config(cfg_path, seed=2)
    assert a["samples"]["seed"] == 1 and b["samples"]["seed"] == 2


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
