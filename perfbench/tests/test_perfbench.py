"""Self-test of the benchmark at tiny size.

    python3 -m pytest perfbench/tests -q

Runs every workload once untraced and once traced through the real
launcher, checks that each metric named in BENCHMARK.json appears with its
unit, that the gate passes the stored references and rejects a perturbed
one on a recorded body, that the layer self times add up to the traced
wall time, and that wall_s and wall_ref_s follow their definitions.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def launch(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def last_record(workload: str, trace: int) -> dict:
    return json.loads((HERE / "_work" / f"last-{workload}-trace{trace}.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_reported(workload, trace):
    out = launch(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        for m in SPEC["end_to_end"]:
            assert out["metrics"][m["name"]]["value"] > 0, m["name"]
        record = last_record(workload, 0)
        assert record["all_metrics"]["ops_failed_frac"]["value"] == 0
        assert record["environment"]["blas_threads"] == "1"
        rate = {"sqg-m128": "steps_per_s", "structure-quad": "quad_nodes_per_s"}.get(workload)
        if rate:
            assert record["all_metrics"][rate]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_sum_to_traced_wall(workload):
    launch(workload, 1)
    m = {k: v["value"] for k, v in last_record(workload, 1)["all_metrics"].items()}
    layers = [f"{layer}.self_s" for layer in ("domain", "multipliers", "besov", "solver", "harness", "kernels")]
    total = sum(m.get(k, 0.0) for k in layers) + m["cli.overhead_s"]
    wall = m["trace.wall_s"]
    # Time outside every span is the benchmark's own glue between invocations.
    assert total <= wall + 1e-9
    assert wall - total <= abs(m["trace.overhead_s"]) + 0.02 * wall


def test_gate_accepts_round_off_and_rejects_wrong_values():
    ref = {"simulate.final_l2": 1.0355291745851358, "simulate.max_orthogonality_residual": 6.5e-15}
    assert run.gate(dict(ref), ref) == []
    shifted = {"simulate.final_l2": ref["simulate.final_l2"] * (1 + 3e-14),
               "simulate.max_orthogonality_residual": 2e-15}
    assert run.gate(shifted, ref) == []
    assert run.gate({**ref, "simulate.final_l2": ref["simulate.final_l2"] * (1 + 1e-6)}, ref)
    assert run.gate({**ref, "simulate.max_orthogonality_residual": 1e-6}, ref)
    assert run.gate({**ref, "simulate.final_l2": float("nan")}, ref)
    assert run.gate({"simulate.final_l2": 1.0}, ref)


def test_wall_is_mean_body_scaled_by_time_weighted_probe():
    ref = probe.REFERENCE_S

    def body(*walls_probes, traced=False):
        return {"traced": traced, "invocations": [{"wall_s": w, "probe_s": p} for w, p in walls_probes], "work": {}}

    result = {"bodies": [body((1.0, 2 * ref), (5.0, ref)), body((2.0, ref), (4.0, 3 * ref)),
                         body((0.1, 9 * ref), traced=True)], "peak_rss_mb": 40.0}
    m = run.end_to_end([0.3, 0.1, 0.2], result)
    assert m["wall_s"] == pytest.approx(6.0) and m["setup_s"] == 0.2
    assert m["probe_s"] == pytest.approx(ref * (2 + 5 + 2 + 12) / 12)
    assert m["wall_ref_s"] == pytest.approx(6.0 * 12 / 21)


def test_gate_rejects_perturbed_reference_of_recorded_body():
    pseed = workloads.program_seed(3)
    body = run.one_body("structure-quad", "tiny", pseed)
    reference = json.loads((HERE / "references.json").read_text())["tiny"]["structure-quad"][str(pseed)]
    assert run.check_invocations([body], reference)[:2] == (1, 0)
    perturbed = {**reference, "verify-structure.worst_residual": reference["verify-structure.worst_residual"] * 1.01}
    attempted, failed, messages = run.check_invocations([body], perturbed)
    assert failed == attempted == 1 and "worst_residual" in messages[0]
    assert body["work"]["quad_nodes"] > 0


def test_tracer_skips_missing_functions_and_restores_bindings(monkeypatch):
    import sqgbox.domain
    import sqgbox.solver
    import tracer

    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + ("no_such_layer",))
    monkeypatch.delattr(sqgbox.domain, "evaluate_at")
    original = sqgbox.solver.synthesize
    t = tracer.Tracer()
    t.install()
    try:
        assert sqgbox.solver.synthesize is sqgbox.domain.synthesize is not original
    finally:
        t.uninstall()
    assert sqgbox.solver.synthesize is original and sqgbox.domain.synthesize is original
    names = t.summary()["functions"]
    assert "domain.synthesize" in names and "domain.evaluate_at" not in names
