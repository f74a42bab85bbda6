"""Workloads, replay loop, metrics and correctness checks of the loopdet benchmark.

One run builds a workload's frames from the seed with the synthetic
generator, writes them to a feature container, and replays the container
through ``LoopClosurePipeline.process_frame``, one call per frame from a
single caller (a closed loop).  Whole passes over the stream are repeated,
each after a fresh set-up, until the measuring time is used up, so every
pass sees the same frame mix.  A frame whose ``process_frame`` raises is
counted as failed and the stream continues.

Other tenants of a shared host slow it down in bursts of a few seconds, so
every timing is a median over many samples.  A frame's time is its median
over the untraced passes, so a burst has to slow the same frame in most
passes to show; the latency percentiles and goodput are built from these
per-frame medians, and ``setup_s`` is the median set-up.  Every pass does
the same work, so ``attempted`` and ``failed`` count the frames of one pass,
and repeat exactly for a seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import tempfile
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from loopdet.container import read_features, write_features
from loopdet.evaluation import RevisitSegment, SynthConfig, exact_knn, generate_synthetic, score
from loopdet.pipeline import LoopClosurePipeline, PipelineConfig

from tracing import Tracer, layer_metrics

PSI, PHI, N_CANDIDATES = 10.0, 10.0, 5
DIM_GLOBAL, DIM_LOCAL = 256, 40
EXTRA_SETUPS = 4  # set-ups before the first pass, so setup_s has at least five samples
RECALL_SAMPLES = 64
PROBE_ITERATIONS = 1_000_000
PROBE_TABLE_SIZE = 2 * 1024 * 1024  # float64 entries: 16 MiB
# A performance claim tuned on any seed must also hold on this one.
HELD_OUT_SEED = 1703
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """A synthetic stream: ``segments`` are (origin_start, revisit_start, length)."""

    frames: int
    segments: tuple[tuple[int, int, int], ...]
    features: int
    outliers: float
    tau: int = 15


WORKLOADS = {
    "revisit_dense": Workload(300, ((0, 150, 52), (60, 220, 52)), 300, 0.3),
    "long_corridor": Workload(1000, ((100, 500, 30),), 20, 0.0),
    # Not in BENCHMARK.json: two passes take 35 s, and its spread over seeds
    # exceeded the bound (see README.md).  Run it by name for RANSAC work.
    "low_inlier": Workload(300, ((0, 150, 52), (60, 220, 52)), 300, 0.9),
    # A seconds-long stream for the benchmark's own tests; not a benchmark workload.
    "smoke": Workload(160, ((0, 120, 30),), 60, 0.3),
}


def pipeline_config(wl: Workload) -> PipelineConfig:
    return PipelineConfig(psi=PSI, phi=PHI, n=N_CANDIDATES, tau=wl.tau)


def synth_config(wl: Workload, seed: int) -> SynthConfig:
    return SynthConfig(
        n_frames=wl.frames,
        segments=tuple(RevisitSegment(*seg) for seg in wl.segments),
        dim_global=DIM_GLOBAL,
        dim_local=DIM_LOCAL,
        features_per_frame=wl.features,
        outlier_fraction=wl.outliers,
        exclusion_zone=pipeline_config(wl).n_non,
        seed=seed,
    )


@dataclass
class Pass:
    """One replay of the whole stream on a fresh pipeline."""

    wall: float
    latencies: list[float]  # seconds per frame; inf for a failed frame
    failures: dict[int, str]  # frame id -> exception type
    detections: list[tuple[int, int, int]]  # (query, matched, inliers)
    index_size: int
    sites: dict[str, str]  # exception type -> where it was first raised

    @property
    def outcome(self):
        return self.detections, self.failures


def set_up(wl: Workload, seed: int, path):
    """Synthesize the stream, write its container and build a pipeline;
    returns the ground truth, the pipeline and the (total, synth, write) seconds."""
    t0 = perf_counter()
    dataset = generate_synthetic(synth_config(wl, seed))
    t1 = perf_counter()
    write_features(path, dataset.frames, phi=PHI)
    t2 = perf_counter()
    pipeline = LoopClosurePipeline(pipeline_config(wl), DIM_GLOBAL)
    return dataset.ground_truth, pipeline, (perf_counter() - t0, t1 - t0, t2 - t1)


def replay(path, pipeline: LoopClosurePipeline, tracer: Tracer | None = None) -> Pass:
    process, frames = pipeline.process_frame, read_features(path)
    if tracer is not None:
        process, frames = tracer.frame(process), tracer.reads(frames)
    latencies, failures, detections, sites = [], {}, [], {}
    with tracer.installed() if tracer is not None else nullcontext():
        t0 = perf_counter()
        for frame_id, g, locals_ in frames:
            t = perf_counter()
            try:
                det = process(frame_id, g, locals_)
            except Exception as exc:  # counted per frame; the stream goes on
                latencies.append(math.inf)
                failures[frame_id] = type(exc).__name__
                last = traceback.extract_tb(exc.__traceback__)[-1]
                where = f"{Path(last.filename).name}:{last.lineno} {exc}"
                sites.setdefault(type(exc).__name__, where)
                continue
            latencies.append(perf_counter() - t)
            if det is not None:
                detections.append((det.query_frame, det.matched_frame, det.inlier_count))
        wall = perf_counter() - t0
    return Pass(wall, latencies, failures, detections, len(pipeline.index), sites)


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def host_probe() -> dict[str, float]:
    """Seconds for a fixed pure-Python loop and for a fixed random gather
    from a 16 MiB array, larger than a core's cache.  A diagnostic of host
    speed only: never a metric, never a rescaling factor."""
    t = perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i
    loop_s = perf_counter() - t
    rng = np.random.default_rng(0)
    table = rng.random(PROBE_TABLE_SIZE)
    index = rng.integers(0, PROBE_TABLE_SIZE, PROBE_ITERATIONS)
    t = perf_counter()
    table[index].sum()
    return {"python_loop_s": loop_s, "memory_gather_s": perf_counter() - t}


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def digest(detections) -> str:
    text = "".join(f"{q},{m},{k}\n" for q, m, k in detections)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(root: Path, name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up and measure one workload; returns (report, metrics by name)."""
    wl = WORKLOADS[name]
    probe_start = host_probe()
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=work, suffix=".fftc")
    os.close(fd)
    setups, truth = [], None

    def fresh_pipeline() -> LoopClosurePipeline:
        nonlocal truth
        truth, pipeline, times = set_up(wl, seed, tmp)
        setups.append(times)
        return pipeline

    try:
        for _ in range(EXTRA_SETUPS):
            fresh_pipeline()
        container_bytes = os.path.getsize(tmp)
        stride = max(1, wl.frames // RECALL_SAMPLES)
        plain: list[Pass] = []
        traced: list[tuple[Pass, Tracer]] = []
        min_passes = 1 if trace else 3  # a median of fewer passes is no median
        t_start = last = perf_counter()
        # Start another pass only if it should end within the measuring time.
        while len(plain) < min_passes or 2 * perf_counter() - last - t_start <= seconds:
            last = perf_counter()
            plain.append(replay(tmp, fresh_pipeline()))
            if trace:
                tracer = Tracer(stride)
                traced.append((replay(tmp, fresh_pipeline(), tracer), tracer))
    finally:
        os.unlink(tmp)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_end = host_probe()

    passes = plain + [p for p, _ in traced]
    first = plain[0]
    tp, fp, fn = score([(q, m) for q, m, _ in first.detections], truth)
    recall = tp / (tp + fn) if tp + fn else 0.0
    precision = tp / (tp + fp) if tp + fp else 1.0
    n_non = pipeline_config(wl).n_non
    queries = [q for q, _, _ in first.detections]
    checks = {
        "passes_identical": all(p.outcome == first.outcome for p in passes),
        "exclusion_zone": all(q - m >= n_non for q, m, _ in first.detections),
        "known_frames": all(0 <= m < q < wl.frames for q, m, _ in first.detections),
        "inliers_reach_tau": all(k >= wl.tau for _, _, k in first.detections),
        "one_per_query": queries == sorted(set(queries)),
        "true_positive": tp >= 1,
    }

    # A failed frame fails in every pass (passes_identical), so its median is inf.
    frame_s = [statistics.median(times) for times in zip(*(p.latencies for p in plain))]
    latencies = sorted(frame_s)
    p99, beyond_p99 = percentile(latencies, 99)

    report = {
        "workload": name,
        "environment": environment(seed),
        "host_probe": {"start": probe_start, "end": probe_end},
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_wall_s": [p.wall for p in plain],
        "frames_per_pass": len(first.latencies),
        "latency_samples": len(latencies),
        "latency_passes": len(plain),
        "frame_ms_p99": p99 * 1e3 if math.isfinite(p99) else None,
        "frame_ms_p99_beyond": beyond_p99,
        "frame_ms_p99_valid": beyond_p99 >= 10 and math.isfinite(p99),
        "score": {"tp": tp, "fp": fp, "fn": fn},
        "recall": recall,
        "precision": precision,
        "detections": len(first.detections),
        "detections_digest": digest(first.detections),
        "failed_frames": sorted(first.failures),
        "failures_by_type": dict(Counter(first.failures.values())),
        "failure_sites": first.sites,
        "frame_error_rate": len(first.failures) / len(first.latencies),
        "checks": checks,
        "correct": all(checks.values()),
        "attempted": len(first.latencies),
        "failed": len(first.failures),
    }

    setup_s, synth_s, write_s = (statistics.median(col) for col in zip(*setups))
    metrics = {"setup_s": setup_s}
    if not trace:
        successes = len(first.latencies) - len(first.failures)
        # A typical pass: each successful frame's median time, plus the median
        # time of the rest of a pass (container reads, failed frames, the loop).
        rest_s = statistics.median(
            p.wall - sum(x for x in p.latencies if math.isfinite(x)) for p in plain
        )
        pass_s = sum(x for x in frame_s if math.isfinite(x)) + rest_s
        metrics.update(
            frames_per_s=successes / pass_s,
            frame_ms_p50=percentile(latencies, 50)[0] * 1e3,
            frame_ms_p90=percentile(latencies, 90)[0] * 1e3,
            precision=precision,
            peak_rss_mb=peak_rss_mb,
        )
    else:
        tracers = [t for _, t in traced]
        metrics.update(layer_metrics([t.spans for t in tracers]))
        metrics.update(
            {
                "hnsw.index_size_final": first.index_size,
                "hnsw.search_recall": tracers[0].search_recall(exact_knn),
                "container.bytes_per_frame": container_bytes / wl.frames,
                "container.write_s": write_s,
                "evaluation.synth_s": synth_s,
                "evaluation.recall": recall,
                "pipeline.detections": len(first.detections),
                "pipeline.failed_frames": len(first.failures),
                "pipeline.frame_error_rate": report["frame_error_rate"],
                "trace.overhead_ratio": statistics.median(p.wall for p, _ in traced)
                / statistics.median(p.wall for p in plain),
            }
        )
        with open(work / f"spans-{name}.jsonl", "w", encoding="utf-8") as f:
            for k, tracer in enumerate(tracers):
                tracer.write(f, k)
    return report, metrics


def result_line(report: dict, metrics: dict, declared: list[dict]) -> str:
    """The final output line: every declared metric, by name, with its unit."""
    out = {}
    for spec in declared:
        value = metrics[spec["name"]]
        if not math.isfinite(value):
            raise ValueError(f"{spec['name']} is not finite ({value})")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": out,
        }
    )
