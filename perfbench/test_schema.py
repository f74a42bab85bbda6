"""Checks of the benchmark's own contract: the shape of BENCHMARK.json and
the output of a run, on the seconds-long ``smoke`` stream.

    python3 -m pytest perfbench/test_schema.py -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {"frames_per_s", "frame_ms_p50", "frame_ms_p90", "precision", "peak_rss_mb", "setup_s"}
PER_LAYER = {
    "geometry.match_calls", "geometry.match_ms_mean", "geometry.match_ms_p99",
    "geometry.matches_per_call", "geometry.match_useful_ratio",
    "geometry.ransac_calls", "geometry.ransac_ms_mean", "geometry.ransac_ms_p99",
    "geometry.ransac_hypotheses_per_call", "geometry.ransac_accept_ratio",
    "geometry.ransac_errors", "geometry.eight_point_ms_mean",
    "hnsw.insert_calls", "hnsw.insert_ms_mean", "hnsw.insert_ms_p99",
    "hnsw.search_calls", "hnsw.search_ms_mean", "hnsw.search_ms_p99",
    "hnsw.index_size_final", "hnsw.search_recall",
    "descriptors.filter_ms_mean", "descriptors.kept_ratio",
    "container.read_ms_mean", "container.bytes_per_frame", "container.write_s",
    "pipeline.self_ms_mean", "pipeline.candidates_per_frame", "pipeline.verified_frames",
    "pipeline.detections", "pipeline.failed_frames", "pipeline.frame_error_rate",
    "evaluation.recall", "evaluation.synth_s", "trace.overhead_ratio",
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    tagged = {line.split(" ", 2)[1]: json.loads(line.split(" ", 2)[2]) for line in lines[:-1]}
    return tagged["env"], tagged["report"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke():
    common = ("--workload", "smoke", "--seed", "5", "--seconds", "1")
    return {
        "plain": parse(run_bench(*common, "--trace", "0")),
        "again": parse(run_bench(*common, "--trace", "0")),
        "traced": parse(run_bench(*common, "--trace", "1")),
    }


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and NAME.fullmatch(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_every_named_metric_is_declared():
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"] for m in SPEC["per_layer"]} == PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"


@pytest.mark.parametrize("mode, declared", [("plain", "end_to_end"), ("traced", "per_layer")])
def test_result_line_carries_each_metric_with_its_unit(smoke, mode, declared):
    _, report, result = smoke[mode]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and report["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] >= 0
    units = {m["name"]: m["unit"] for m in SPEC[declared]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_report_records_environment_and_correctness(smoke):
    env, report, _ = smoke["plain"]
    assert env["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    assert env["seed"] == 5 and env["held_out_seed"] != 5
    assert {"numpy", "blas", "nproc", "python"} <= set(env)
    assert set(report["score"]) == {"tp", "fp", "fn"}
    assert len(report["detections_digest"]) == 16
    assert all(report["checks"].values())
    assert set(report["host_probe"]) == {"start", "end"}
    accounting = {"failed_frames", "failures_by_type", "frame_error_rate", "latency_samples"}
    assert accounting <= set(report)


def test_correctness_output_repeats_for_one_seed(smoke):
    keys = ("score", "detections_digest", "failed_frames", "failures_by_type")
    runs = [smoke[mode][1] for mode in ("plain", "again", "traced")]
    assert all({k: r[k] for k in keys} == {k: runs[0][k] for k in keys} for r in runs)
    counts = {(smoke[mode][2]["attempted"], smoke[mode][2]["failed"]) for mode in smoke}
    assert len(counts) == 1


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "revisit_dense", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
