"""Smoke test of the benchmark: every workload at a tiny size, timed and traced."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

WORKLOADS = [w.name for w in spec.WORKLOADS]


def _bench(*args, cwd=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd or HERE.parent) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def _tiny_run(workload: str, trace: int):
    done = _bench("--workload", workload, "--seed", "1", "--seconds", "0.3",
                  "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload):
    printed, metrics = _tiny_run(workload, trace=0)
    assert {k: v["unit"] for k, v in metrics.items()} == {m.name: m.unit for m in spec.END_TO_END}
    assert all(isinstance(v["value"], float) and v["value"] > 0 for v in metrics.values())
    for m in spec.END_TO_END + spec.REPORTED:
        assert any(line.startswith(f"{workload} {m.name} = ") and f" {m.unit} (n=" in line
                   for line in printed), m.name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    printed, metrics = _tiny_run(workload, trace=1)
    assert {k: v["unit"] for k, v in metrics.items()} == {m.name: m.unit for m in spec.PER_LAYER}
    assert not any(line.startswith("# missing layers") for line in printed)
    assert any(line.startswith("# tracing overhead from") for line in printed)


def test_benchmark_json_is_rendered_from_spec():
    assert (HERE.parent / "BENCHMARK.json").read_text() == spec.render_benchmark_json()


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
