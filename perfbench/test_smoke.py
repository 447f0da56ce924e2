"""Self-tests of the benchmark on a 16^3 grid.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402

workloads = run.import_library()


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "not traced" not in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for m in SPEC["end_to_end"] if not trace else []:
        assert result["metrics"][m["name"]]["value"] > 0


def _break_decay(out):
    out["means"].reverse()


def _break_factorization(out):
    out["checks"][2]["error"] = 1e-3


def _break_uniqueness(out):
    rows = out["pairing"]["H"]["rows"]
    rows[-1]["abs_error"] = 2.0 * rows[0]["abs_error"]


def _break_solve64(out):
    out["solves"][0]["residual"] = 1e-6


BREAK = {
    "decay": _break_decay,
    "factorization": _break_factorization,
    "uniqueness": _break_uniqueness,
    "solve64": _break_solve64,
}


@pytest.fixture(scope="module")
def outputs():
    return {
        name: w.body(w.build(3, run.SMOKE_N)) for name, w in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("name", NAMES)
def test_gate_fails_on_perturbed_output(name, outputs):
    gate = workloads.WORKLOADS[name].gate
    out = json.loads(json.dumps(outputs[name]))
    assert all(ok for _, ok in gate(out))
    BREAK[name](out)
    assert not all(ok for _, ok in gate(out))


@pytest.mark.parametrize("name", NAMES)
def test_recorded_comparison_tolerates_round_off_only(name, outputs):
    want = json.loads(json.dumps(outputs[name]))
    volatile = workloads.WORKLOADS[name].volatile
    assert run.mismatches(json.loads(json.dumps(want)), want, volatile) == []

    def scale_floats(doc, factor):
        if isinstance(doc, dict):
            return {k: v if k in volatile else scale_floats(v, factor) for k, v in doc.items()}
        if isinstance(doc, list):
            return [scale_floats(v, factor) for v in doc]
        return doc * factor if isinstance(doc, float) else doc

    assert run.mismatches(scale_floats(want, 1.0 + 1e-13), want, volatile) == []
    assert run.mismatches(scale_floats(want, 1.0 + 1e-6), want, volatile) != []


def test_recorded_outputs_cover_every_workload():
    for name, w in workloads.WORKLOADS.items():
        reference = run.load_reference(name)
        assert reference, name
        assert all(w.seeded == (key != "*") for key in reference)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "decay", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_rebinds_by_identity_and_keeps_per_thread_stacks():
    import tracer
    from cgolab import cgo, checks, media, uniqueness

    original = media.potential
    tr = tracer.Tracer()
    tr.install()
    try:
        wrapped = media.potential
        assert wrapped is not original
        assert cgo.potential is wrapped and uniqueness.potential is wrapped
        assert checks.potential is wrapped
        w = workloads.WORKLOADS["decay"]
        inputs = w.build(3, run.SMOKE_N)
        tr.phase = "body"
        w.body(inputs)
    finally:
        tr.uninstall()
    assert media.potential is original and cgo.potential is original

    body = [s for s in tr.spans if s.phase == "body"]
    assert len({s.thread for s in body}) == 1 + workloads.POOL_WORKERS
    by_id = {s.id: s for s in body}
    for root in (s for s in body if s.parent is None):
        inside = [s for s in body if s.thread == root.thread and root.start <= s.start <= root.end]
        assert sum(s.self_s for s in inside) == pytest.approx(root.duration, rel=1e-9, abs=1e-9)
    assert all(by_id[s.parent].thread == s.thread for s in body if s.parent is not None)
    metrics = tracer.layer_metrics(tr, workloads.POOL_WORKERS)
    assert metrics["cgo.solve_cgo.calls"][0] == 3 * 8
    assert metrics["media.derive.total_s"][0] > 0


def test_setup_only_times_a_fresh_interpreter():
    proc = bench("--workload", "uniqueness", "--seed", "3", "--setup-only", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    setup_s = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    # From process start: interpreter start-up and the import of cgolab count.
    assert 0.0 < setup_s < 120.0
