"""End-to-end walkthrough: synthetic trajectory in, loop detections out.

A 1,200-frame trajectory revisits two of its earlier stretches.  Frames are
fed to the online pipeline one at a time by ``collect_frame_records``, which
keeps each frame's record: its best candidate and inlier count, whatever tau
is.  The FIFO queue holds the latest psi * phi frames out of the index so a
query can never match its immediate past.  ``replay_detections`` passes the
records through the inlier gate and the temporal filter, which require beta
consecutive geometrically verified frames, and yields exactly what a live run
at that tau reports.  A final threshold sweep replays the same records to
show the precision/recall trade-off without a second pass.
"""

import time

from loopdet import (
    HnswParams,
    PipelineConfig,
    RevisitSegment,
    SynthConfig,
    collect_frame_records,
    generate_synthetic,
    pr_curve,
    recall_at_full_precision,
    replay_detections,
    score,
)

config = PipelineConfig(
    psi=10.0,            # seconds of history excluded from search
    phi=10.0,            # camera rate: exclusion zone = 100 frames
    n=5,                 # candidates per query; of an island of them within
                         # n(beta+1) ids only the most similar is verified
    epsilon=0.7,         # ratio-test threshold
    beta=2,              # consecutive verified frames required
    tau=15,              # inlier acceptance threshold
    delta=15.0,          # attention-score gate at ingestion
    hnsw=HnswParams(M=48, ef_construction=40, ef_search=40, rng_seed=11),
    seed=11,
)

dataset = generate_synthetic(
    SynthConfig(
        n_frames=1200,
        segments=(RevisitSegment(100, 500, 60), RevisitSegment(250, 900, 50)),
        dim_global=128,
        features_per_frame=60,
        sigma_global=0.02,
        sigma_px=1.0,
        outlier_fraction=0.3,
        sigma_desc=0.05,
        exclusion_zone=config.n_non,
        seed=11,
    )
)
print(f"trajectory: {len(dataset.frames)} frames, "
      f"{len(dataset.ground_truth.pairs)} labeled loop events")

t0 = time.perf_counter()
records, pipeline = collect_frame_records(dataset.frames, config, dataset.config.dim_global)
elapsed = time.perf_counter() - t0
detections = replay_detections(records, config.tau, config.beta, config.window)
print(f"processed at {elapsed / len(dataset.frames) * 1e3:.2f} ms/frame, "
      f"{len(detections)} loop closures reported")

print(f"at the end: {len(pipeline.index)} frames searchable in the index, "
      f"the last {len(pipeline.fifo)} held back in the FIFO (exclusion zone {config.n_non})")

first = next(r for r in records if r.query_frame == detections[0][0])
print(f"first detection: frame {first.query_frame} -> {first.matched_frame} "
      f"({first.inlier_count} inliers, similarity {first.similarity:.4f})")

pairs = [(query, matched) for query, matched, _ in detections]
tp, fp, fn = score(pairs, dataset.ground_truth, window=0)
print(f"\nat tau={config.tau}: tp={tp} fp={fp} fn={fn} "
      f"(precision {tp / (tp + fp):.3f}, recall {tp / (tp + fn):.3f})")

curve = pr_curve(dataset.frames, dataset.ground_truth, config, range(0, 41, 4),
                 records=records)
print(f"\n{'tau':>4} {'precision':>10} {'recall':>8}")
for p in curve:
    print(f"{p.tau:>4} {p.precision:>10.3f} {p.recall:>8.3f}")
print(f"\nrecall at 100% precision: {recall_at_full_precision(curve):.3f}")
