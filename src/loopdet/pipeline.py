"""Online loop-closure state machine.

Each incoming frame is score-filtered, the oldest deferred frame is moved
from the FIFO queue into the search index once the queue reaches the
exclusion size ``N_non = round(psi * phi)``, the top ``n`` revisit
candidates are retrieved and geometrically verified, and a loop is reported
only after ``beta`` consecutive frames pass the inlier gate against nearby
locations.  Candidates within ``window`` frame ids of each other form one
island, and only its most similar frame, the head, is matched and verified.
Frames inside the exclusion window are never searchable, so a query can only
ever match frames at least ``N_non`` ids behind it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .descriptors import GlobalDescriptor, LocalFeatureSet, filter_by_score
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
    ``n`` candidates are retrieved per query, and the head (most similar
    frame) of each island (candidates within ``window`` of each other) is
    matched with ratio threshold ``epsilon``; ``delta`` filters local
    features at ingestion; ``beta`` consecutive frames whose best candidate
    reaches ``tau`` inliers are required before a loop is reported.  ``tau``
    is read only by the inlier gate, never by verification, so the frame
    records do not depend on it.  The matched frames of a streak must lie
    within ``window = n * (beta + 1)`` of each other.  RANSAC runs with the
    fixed settings of :func:`ransac_fundamental` (budget 500, 3 px, 0.99,
    refit).
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
        # the exclusion zone round(psi * phi) must be a finite frame count
        for name, valid in (("psi", 0 < self.psi < np.inf), ("phi", 0 < self.phi < np.inf),
                            ("psi * phi", 1.0 <= self.psi * self.phi < np.inf)):
            if not valid:  # also for NaN
                raise ValueError(f"{name} out of range: psi and phi must be positive and finite "
                                 f"with 1 <= psi * phi < inf, got psi={self.psi} phi={self.phi}")
        with np.errstate(over="ignore"):  # an overflow is inf
            if not np.isfinite(np.float32(self.delta)):  # the precision of the scores
                raise ValueError(f"delta must be finite as float32, got {self.delta}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.beta < 1:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if self.seed < 0:  # numpy's seed sequences take non-negative entropy only
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def n_non(self) -> int:
        return max(1, int(round(self.psi * self.phi)))

    @property
    def window(self) -> int:
        return self.n * (self.beta + 1)


@dataclass(frozen=True)
class FrameRecord:
    """What one processed frame did.

    The frame's id, its max-inlier island head, whatever ``tau`` is (before
    the inlier gate and the temporal filter), with ``matched_frame`` None and
    ``inlier_count`` -1 when no head yielded a model, and the
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
    """Streak tracker behind the beta-consecutive-frames rule.

    ``update`` is called once per processed frame with the verified match id
    (or None).  It returns True when the current frame completes a streak of
    at least ``beta`` consecutive verified frames whose matched ids stay
    within ``window`` of each other; a success outside the window starts a
    fresh streak rather than extending the old one.  Only the streak's last
    ``beta`` ids are kept, so the streak is complete once it holds ``beta``.
    """

    def __init__(self, beta: int, window: int):
        if beta < 1:
            raise ValueError(f"beta must be >= 1, got {beta}")
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.beta = beta
        self.window = window
        self._streak: deque[int] = deque(maxlen=beta)

    def update(self, matched_frame: int | None) -> bool:
        if matched_frame is None:
            self._streak.clear()
            return False
        self._streak.append(matched_frame)
        if max(self._streak) - min(self._streak) > self.window:
            self._streak.clear()
            self._streak.append(matched_frame)
        return len(self._streak) == self.beta


def _candidate_rng(seed: int, query_frame: int, candidate_frame: int) -> np.random.Generator:
    # one independent, reproducible stream per (query, candidate) pair
    return np.random.default_rng(np.random.SeedSequence([seed, query_frame, candidate_frame]))


class LoopClosurePipeline:
    """Sequential detector: feed frames in strictly increasing id order.

    ``record_frame`` is the one step: it returns the frame's
    :class:`FrameRecord` and keeps nothing of it, so the pipeline grows only
    by its index and its local-feature store.  ``process_frame`` passes that
    record through the inlier gate and the temporal filter.  Both are
    single-writer; within one call the island heads are verified one by one
    in similarity order, so the result is deterministic.
    """

    def __init__(self, config: PipelineConfig, dim: int):
        self.config = config
        self.index = HnswIndex(dim, config.hnsw)
        self.fifo: deque[tuple[int, np.ndarray]] = deque()
        self.locals_store: dict[int, LocalFeatureSet] = {}
        self._temporal = TemporalFilter(config.beta, config.window)
        self._last_frame_id: int | None = None
        self._local_dim: int | None = None  # of the first non-empty stored set

    def record_frame(
        self, frame_id: int, g: GlobalDescriptor, locals_: LocalFeatureSet
    ) -> FrameRecord:
        """Run one step of the detection loop up to the inlier gate; returns
        the frame's record, whatever ``tau`` is."""
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
        if g.dim != self.index.dim:
            raise ValueError(
                f"descriptor dimension {g.dim} does not match index dim {self.index.dim}"
            )
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
            candidates = self.index.knn_search(g.values, cfg.n)
            stages["graph_searching"] = time.perf_counter() - t0
        record = FrameRecord(frame_id, *self.verify_candidates(kept, candidates, stages), stages)
        if record.matched_frame is not None and frame_id - record.matched_frame < cfg.n_non:
            raise RuntimeError(
                f"exclusion-zone invariant violated: {frame_id} matched {record.matched_frame}"
            )

        self.fifo.append((frame_id, g.values))
        self.locals_store[frame_id] = kept
        if self._local_dim is None and len(kept):
            self._local_dim = kept.dim
        self._last_frame_id = frame_id
        stages["whole_system"] = time.perf_counter() - t_start
        return record

    def process_frame(
        self, frame_id: int, g: GlobalDescriptor, locals_: LocalFeatureSet
    ) -> FrameRecord | None:
        """Run one step of the detection loop; returns the frame's record if
        the frame closes a loop, else None."""
        record = self.record_frame(frame_id, g, locals_)
        return record if self._temporal.update(_gate(record, self.config.tau)) else None

    def verify_candidates(
        self,
        query_locals: LocalFeatureSet,
        candidates: Sequence[Neighbor],
        stages: dict[str, float],
    ) -> tuple[int | None, int, float]:
        """Geometrically verify the island heads; keep the max-inlier one.

        Candidates arrive sorted by similarity descending with frame-id tie
        break.  A candidate within ``window`` frame ids of an earlier one
        joins that one's island and is never matched; any other heads a new
        island.  Only heads are matched, and a head with at least 8 matches
        runs RANSAC.  Only a strictly greater inlier count displaces the
        incumbent, so ties resolve to the more similar head.  RANSAC runs
        with no inlier threshold; ``tau`` is applied later, by the gate.
        Matching and RANSAC time accumulate in ``stages``.  Returns
        ``(matched_frame, inlier_count, similarity)``, or ``(None, -1, nan)``
        if no head has 8 matches and a model.
        """
        cfg = self.config
        best = (None, -1, float("nan"))
        earlier: list[int] = []  # the ids of the candidates walked so far
        for cand in candidates:
            joins = any(abs(fid - cand.frame_id) <= cfg.window for fid in earlier)
            earlier.append(cand.frame_id)
            if joins:  # a member of an earlier candidate's island
                continue
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
    """Feed a frame stream through a fresh pipeline; returns every frame's
    record and the pipeline.

    The one driver that keeps records: threshold sweeps replay them at any
    ``tau`` (they do not depend on ``config.tau``), and the timing table
    reads their stage timings.
    """
    pipeline = LoopClosurePipeline(config, dim)
    return [pipeline.record_frame(*frame) for frame in frames], pipeline
