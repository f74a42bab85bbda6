"""Online loop-closure state machine.

Each incoming frame is score-filtered, the oldest deferred frame is moved
from the FIFO queue into the search index once the queue reaches the
exclusion size ``N_non = round(psi * phi)``, the top ``n`` revisit
candidates are retrieved and geometrically verified, and a loop is reported
only after ``beta`` consecutive frames pass the inlier gate against nearby
locations.  Frames inside the exclusion window are never searchable, so a
query can only ever match frames at least ``N_non`` ids behind it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .descriptors import GlobalDescriptor, LocalFeatureSet, filter_by_score, l2_normalize
from .geometry import brute_force_match, ransac_fundamental
from .hnsw import HnswIndex, HnswParams, Neighbor

STAGES = (
    "feature_ingestion",
    "adding_feature",
    "graph_searching",
    "feature_matching",
    "ransac",
    "whole_system",
)


@dataclass(frozen=True)
class PipelineConfig:
    """All pipeline knobs.

    ``psi`` (seconds) times ``phi`` (frames/s) defines the exclusion zone;
    ``n`` candidates are verified per query with ratio threshold ``epsilon``;
    ``delta`` filters local features at ingestion; ``beta`` consecutive
    frames whose best candidate reaches ``tau`` inliers are required before
    a loop is reported.  ``tau`` is read only by the inlier gate, never by
    verification, so the frame records do not depend on it.  The matched
    frames of a streak must lie within ``window = n * (beta + 1)`` of each
    other.  RANSAC runs with the fixed settings of
    :func:`ransac_fundamental` (budget 500, 3 px, 0.99, refit).
    """

    psi: float = 40.0
    phi: float = 10.0
    n: int = 5
    epsilon: float = 0.7
    beta: int = 2
    tau: int = 12
    delta: float = 15.0
    hnsw: HnswParams = field(default_factory=HnswParams)
    seed: int = 0

    def __post_init__(self):
        if self.psi <= 0 or self.phi <= 0 or self.psi * self.phi < 1.0:
            raise ValueError("psi and phi must be positive with psi * phi >= 1")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.beta < 1:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")

    @property
    def n_non(self) -> int:
        return max(1, int(round(self.psi * self.phi)))

    @property
    def window(self) -> int:
        return self.n * (self.beta + 1)


@dataclass(frozen=True)
class FrameRecord:
    """What one processed frame did.

    The frame's id, its max-inlier candidate, whatever ``tau`` is (before the
    inlier gate and the temporal filter), with ``matched_frame`` None and
    ``inlier_count`` -1 when no candidate yielded a model, and the
    wall-clock seconds spent in each of :data:`STAGES` (0.0 for a stage that
    did not run).  A frame that closes a loop is reported as its record.
    """

    query_frame: int
    matched_frame: int | None
    inlier_count: int
    similarity: float
    stages: dict[str, float]


def _gate(record: FrameRecord, tau: int) -> int | None:
    """The inlier gate: the record's matched frame if its best candidate has
    at least ``tau`` inliers, else None.  Live runs and replays both use it."""
    return record.matched_frame if record.inlier_count >= tau else None


class TemporalFilter:
    """Streak counter behind the beta-consecutive-frames rule.

    ``update`` is called once per processed frame with the verified match id
    (or None).  It returns True when the current frame completes a streak of
    at least ``beta`` consecutive verified frames whose matched ids stay
    within ``window`` of each other; a success outside the window starts a
    fresh streak rather than extending the old one.
    """

    def __init__(self, beta: int, window: int):
        self.beta = beta
        self.window = window
        self._streak = 0
        self._recent: deque[int] = deque(maxlen=max(beta - 1, 0))

    def update(self, matched_frame: int | None) -> bool:
        if matched_frame is None:
            self._streak = 0
            self._recent.clear()
            return False
        ids = list(self._recent) + [matched_frame]
        if self._streak > 0 and max(ids) - min(ids) <= self.window:
            self._streak += 1
        else:
            self._streak = 1
            self._recent.clear()
        self._recent.append(matched_frame)
        return self._streak >= self.beta


def _candidate_rng(seed: int, query_frame: int, candidate_frame: int) -> np.random.Generator:
    # one independent, reproducible stream per (query, candidate) pair
    return np.random.default_rng(np.random.SeedSequence([seed, query_frame, candidate_frame]))


class LoopClosurePipeline:
    """Sequential detector: feed frames in strictly increasing id order.

    ``process_frame`` is single-writer; within one call the candidate
    verifications are independent and merged deterministically in candidate
    order.  One :class:`FrameRecord` per processed frame accumulates in
    ``records``.
    """

    def __init__(self, config: PipelineConfig, dim: int):
        self.config = config
        self.index = HnswIndex(dim, config.hnsw)
        self.fifo: deque[tuple[int, np.ndarray]] = deque()
        self.locals_store: dict[int, LocalFeatureSet] = {}
        self.records: list[FrameRecord] = []
        self._temporal = TemporalFilter(config.beta, config.window)
        self._last_frame_id: int | None = None
        self._local_dim: int | None = None  # of the first non-empty stored set

    def process_frame(
        self, frame_id: int, g: GlobalDescriptor, locals_: LocalFeatureSet
    ) -> FrameRecord | None:
        """Run one step of the detection loop; returns the frame's record if
        the frame closes a loop, else None."""
        t_start = time.perf_counter()
        cfg = self.config
        if self._last_frame_id is not None and frame_id <= self._last_frame_id:
            raise ValueError(
                f"frame ids must be strictly increasing: {frame_id} after {self._last_frame_id}"
            )
        # verification seeds RANSAC with the feature set's id, the store files
        # it under frame_id: the two must agree
        for part in (g, locals_):
            if part.frame_id != frame_id:
                raise ValueError(
                    f"frame {frame_id}: {type(part).__name__} names frame {part.frame_id}"
                )
        vec = np.asarray(g.values, dtype=np.float64)
        if vec.shape[0] != self.index.dim:
            raise ValueError(
                f"descriptor dimension {vec.shape[0]} does not match index dim {self.index.dim}"
            )
        # cannot raise: a GlobalDescriptor is finite and not all zero
        unit = l2_normalize(vec).astype(np.float32)
        stages = dict.fromkeys(STAGES, 0.0)

        t0 = time.perf_counter()
        kept = filter_by_score(locals_, cfg.delta)
        stages["feature_ingestion"] = time.perf_counter() - t0
        # checked before the FIFO or the index changes: verification would
        # raise on it only after the oldest queued frame had moved into the
        # index.  An empty set matches any dimension, as in brute_force_match.
        if len(kept) and self._local_dim not in (None, kept.dim):
            raise ValueError(
                f"frame {frame_id}: local descriptor dimension {kept.dim} "
                f"does not match {self._local_dim}"
            )

        if len(self.fifo) == cfg.n_non:
            old_id, old_vec = self.fifo.popleft()
            t0 = time.perf_counter()
            self.index.insert(old_id, old_vec)
            stages["adding_feature"] = time.perf_counter() - t0

        candidates = []
        if len(self.index) > 0:
            t0 = time.perf_counter()
            candidates = self.index.knn_search(vec, cfg.n)
            stages["graph_searching"] = time.perf_counter() - t0
        record = FrameRecord(frame_id, *self.verify_candidates(kept, candidates, stages), stages)
        closes_loop = self._temporal.update(_gate(record, cfg.tau))
        if closes_loop and frame_id - record.matched_frame < cfg.n_non:
            raise RuntimeError(
                f"exclusion-zone invariant violated: {frame_id} matched {record.matched_frame}"
            )

        self.fifo.append((frame_id, unit))
        self.locals_store[frame_id] = kept
        if self._local_dim is None and len(kept):
            self._local_dim = kept.dim
        self._last_frame_id = frame_id
        stages["whole_system"] = time.perf_counter() - t_start
        self.records.append(record)
        return record if closes_loop else None

    def verify_candidates(
        self,
        query_locals: LocalFeatureSet,
        candidates: Sequence[Neighbor],
        stages: dict[str, float],
    ) -> tuple[int | None, int, float]:
        """Geometrically verify retrieval candidates; keep the max-inlier one.

        Candidates arrive sorted by similarity descending with frame-id tie
        break, and only a strictly greater inlier count displaces the
        incumbent, so ties resolve to the higher-similarity candidate.  RANSAC
        runs with no inlier threshold; ``tau`` is applied later, by the gate.
        Matching and RANSAC time accumulate in ``stages``.  Returns
        ``(matched_frame, inlier_count, similarity)``, or ``(None, -1, nan)``
        if no candidate has 8 matches and a model.
        """
        cfg = self.config
        best = (None, -1, float("nan"))
        for cand in candidates:
            # every indexed frame was stored before it entered the FIFO
            cand_locals = self.locals_store[cand.frame_id]
            t0 = time.perf_counter()
            matches = brute_force_match(query_locals, cand_locals, cfg.epsilon)
            stages["feature_matching"] += time.perf_counter() - t0
            if len(matches) < 8:
                continue
            t0 = time.perf_counter()
            result = ransac_fundamental(
                matches,
                query_locals,
                cand_locals,
                0,
                _candidate_rng(cfg.seed, query_locals.frame_id, cand.frame_id),
            )
            stages["ransac"] += time.perf_counter() - t0
            if result is not None and result.inlier_count > best[1]:
                best = (cand.frame_id, result.inlier_count, cand.similarity)
        return best


def run_pipeline(
    frames: Iterable[tuple[int, GlobalDescriptor, LocalFeatureSet]],
    config: PipelineConfig,
    dim: int,
) -> tuple[list[FrameRecord], LoopClosurePipeline]:
    """Feed a frame stream through a fresh pipeline; returns the records of
    the frames that closed a loop, and the pipeline.

    The one way to run the pipeline over a stream: the CLI, the threshold
    sweep and the timing table all go through it and read the per-frame
    records from the returned pipeline.
    """
    pipeline = LoopClosurePipeline(config, dim)
    detections = []
    for frame_id, g, locals_ in frames:
        det = pipeline.process_frame(frame_id, g, locals_)
        if det is not None:
            detections.append(det)
    return detections, pipeline


def replay_detections(
    records: Sequence[FrameRecord], tau: int, beta: int, window: int
) -> list[tuple[int, int, int]]:
    """Re-threshold the per-frame records of one run at a new ``tau``.

    Returns (query_frame, matched_frame, inlier_count) triples exactly as a
    live run with that ``tau`` would have emitted them: the records do not
    depend on ``tau``, and they pass through the same gate and temporal
    filter.
    """
    temporal = TemporalFilter(beta, window)
    out = []
    for rec in records:
        if temporal.update(_gate(rec, tau)):
            out.append((rec.query_frame, rec.matched_frame, rec.inlier_count))
    return out


def collect_frame_records(
    frames: Iterable[tuple[int, GlobalDescriptor, LocalFeatureSet]],
    config: PipelineConfig,
    dim: int,
) -> tuple[list[FrameRecord], LoopClosurePipeline]:
    """One pipeline pass for threshold sweeps: its records, which do not
    depend on ``config.tau``, replay at any ``tau``."""
    _, pipeline = run_pipeline(frames, config, dim)
    return pipeline.records, pipeline
