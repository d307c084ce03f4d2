"""Smoke test of the benchmark at tiny size: every workload runs untraced
and traced, passes its gates and prints the metrics BENCHMARK.json names."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_CORPUS_LINES = 300  # workloads.TINY.corpus_lines


def run_benchmark(cwd, workdir, *args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "tiny", "--seconds", "1",
         "--workdir", str(workdir), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(stdout):
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run(workload, tmp_path):
    done = run_benchmark(ROOT, tmp_path, "--workload", workload, "--seed", "3", "--trace", "1")
    assert done.returncode == 0, done.stderr
    metrics = last_json(done.stdout)["metrics"]
    assert [(name, m["unit"]) for name, m in metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]]
    if workload == "cbow_corpus":
        # One preprocess per corpus line per embed-train call; set-up's
        # prepare and dry runs do not count.
        assert metrics["textprep.calls"]["value"] == TINY_CORPUS_LINES
    assert list((tmp_path / "results").glob(f"{workload}-seed3-trace1-spans.jsonl"))
    assert not list(tmp_path.glob(f"{workload}-*"))  # the work directory is removed


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    done = run_benchmark(ROOT, tmp_path, "--workload", "serve_mixed", "--seed", "4", "--trace", "0")
    assert done.returncode == 0, done.stderr
    metrics = last_json(done.stdout)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "cbow_corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
