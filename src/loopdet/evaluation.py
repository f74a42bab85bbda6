"""Ground-truth scoring, precision-recall sweeps, timing tables and synthetic data.

The synthetic generator replaces the out-of-scope CNN front end: global
descriptors drift smoothly along a simulated trajectory, revisit segments
re-emit the origin descriptors plus bounded noise, and the local features of
each loop pair are exact projections of a random two-view scene, so the
planted fundamental matrix and inlier labels are known for every stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .descriptors import GlobalDescriptor, LocalFeatureSet, l2_normalize
from .geometry import FundamentalMatrix, sampson_distance
from .pipeline import (
    STAGES,
    FrameRecord,
    PipelineConfig,
    collect_frame_records,
    replay_detections,
)

Frame = tuple[int, GlobalDescriptor, LocalFeatureSet]

# fixed settings of the synthetic generator: adjacent-frame cosine of the
# global random walk, image width and height in pixels, attention-score range
DRIFT = 0.98
IMAGE_SIZE = (1280, 960)
SCORE_RANGE = (20.0, 100.0)

# frames a detection's matched frame may lie from a labeled match and still
# count as a true positive (human labels are place-level, not frame-exact)
GT_WINDOW = 10


# ---------------------------------------------------------------------------
# ground truth and scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Labeled loop events: per-query sets of acceptable matched frames.

    ``frames``, when given, is the universe of valid frame ids and enables
    rejection of detections that reference unknown frames.
    """

    pairs: dict[int, frozenset[int]]
    frames: frozenset[int] | None = None

    def __post_init__(self):
        if self.frames is not None:
            for q, ms in self.pairs.items():
                if q not in self.frames or not ms <= self.frames:
                    raise ValueError(f"ground-truth pair for query {q} references unknown frames")


def score(
    detections: Iterable[Sequence[int]], gt: GroundTruth, window: int = GT_WINDOW
) -> tuple[int, int, int]:
    """Count (tp, fp, fn) for ``(query, matched, ...)`` detection tuples
    against labeled loops.

    A detection is a true positive iff its query is a labeled query and its
    matched frame lies within ``window`` of some labeled match for that
    query.  ``fn`` counts labeled queries with no true-positive detection;
    the pipeline emits at most one detection per query, so tp + fn covers
    each labeled query once.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    tp = 0
    fp = 0
    hit_queries: set[int] = set()
    for q, m, *_ in detections:
        if gt.frames is not None and (q not in gt.frames or m not in gt.frames):
            raise ValueError(f"detection ({q}, {m}) references unknown frames")
        accepted = gt.pairs.get(q)
        if accepted is not None and any(abs(m - lab) <= window for lab in accepted):
            tp += 1
            hit_queries.add(q)
        else:
            fp += 1
    fn = sum(1 for q in gt.pairs if q not in hit_queries)
    return tp, fp, fn


def read_ground_truth(path) -> GroundTruth:
    """Parse ``query_frame,matched_frame`` CSV lines; '#' starts a comment."""
    pairs: dict[int, set[int]] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:  # a field count other than two, or a field that is not an integer
                q, m = map(int, line.split(","))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'query_frame,matched_frame' "
                                 f"integers, got {line!r}") from None
            pairs.setdefault(q, set()).add(m)
    return GroundTruth({q: frozenset(ms) for q, ms in pairs.items()})


def write_ground_truth(fobj: TextIO, gt: GroundTruth) -> None:
    fobj.write("# query_frame,matched_frame\n")
    for q in sorted(gt.pairs):
        for m in sorted(gt.pairs[q]):
            fobj.write(f"{q},{m}\n")


# ---------------------------------------------------------------------------
# precision-recall
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrPoint:
    tau: int
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int


def _pr_point(tau: int, tp: int, fp: int, fn: int) -> PrPoint:
    precision = tp / (tp + fp) if tp + fp > 0 else 1.0  # 0/0 convention: perfect
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return PrPoint(tau, precision, recall, tp, fp, fn)


def pr_curve(
    frames: Sequence[Frame],
    gt: GroundTruth,
    config: PipelineConfig,
    tau_range: Sequence[int],
    *,
    gt_window: int = GT_WINDOW,
    records: Sequence[FrameRecord] | None = None,
) -> list[PrPoint]:
    """Sweep the inlier acceptance threshold over one cached pipeline pass.

    The pipeline runs once, recording each frame's max-inlier island head;
    every ``tau`` is then replayed through the inlier gate and the temporal
    filter, which is exact because candidate choice and inlier counts are
    independent of ``tau``.
    """
    taus = sorted(tau_range)
    if not taus:
        raise ValueError("tau_range must be non-empty")
    if taus[0] < 0:
        raise ValueError(f"tau must be >= 0, got {taus[0]}")
    if gt_window < 0:  # checked before the pipeline pass
        raise ValueError(f"gt_window must be >= 0, got {gt_window}")
    if records is None:
        dim = frames[0][1].dim if frames else 1
        records, _ = collect_frame_records(iter(frames), config, dim)
    points = []
    for tau in taus:
        detections = replay_detections(records, tau, config.beta, config.window)
        tp, fp, fn = score(detections, gt, window=gt_window)
        points.append(_pr_point(tau, tp, fp, fn))
    return points


def recall_at_full_precision(curve: Sequence[PrPoint]) -> float:
    """Largest recall among sweep points with precision exactly 1.0 (0 if none)."""
    if not curve:
        raise ValueError("curve must be non-empty")
    return max((p.recall for p in curve if p.precision == 1.0), default=0.0)


def write_pr_csv(fobj: TextIO, curve: Sequence[PrPoint]) -> None:
    fobj.write("tau,precision,recall,tp,fp,fn\n")
    for p in curve:
        fobj.write(f"{p.tau},{p.precision:.6f},{p.recall:.6f},{p.tp},{p.fp},{p.fn}\n")


# ---------------------------------------------------------------------------
# exact search oracle
# ---------------------------------------------------------------------------


def exact_knn(vectors: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Brute-force cosine k-NN: row indices of the k most similar vectors.

    Linear scan over unit-normalized rows; ties resolve to the smaller
    index.  Serves as the recall oracle for the graph index.
    """
    V = np.asarray(vectors, dtype=np.float64)
    V = V / np.linalg.norm(V, axis=1, keepdims=True)
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    Q = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    sims = Q @ V.T
    return np.argsort(-sims, axis=1, kind="stable")[:, :k]


def mean_recall(approx_ids: Sequence[Sequence[int]], exact_ids: np.ndarray) -> float:
    hits = [
        len(set(a) & set(e.tolist())) / len(e) for a, e in zip(approx_ids, exact_ids)
    ]
    return float(np.mean(hits))


# ---------------------------------------------------------------------------
# synthetic datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RevisitSegment:
    """``length`` frames starting at ``revisit_start`` re-observe the frames
    starting at ``origin_start``."""

    origin_start: int
    revisit_start: int
    length: int


@dataclass(frozen=True)
class SynthConfig:
    n_frames: int
    segments: tuple[RevisitSegment, ...] = ()
    dim_global: int = 256
    dim_local: int = 40
    features_per_frame: int = 80
    outlier_fraction: float = 0.0
    sigma_global: float = 0.0
    sigma_px: float = 0.0
    sigma_desc: float = 0.0
    exclusion_zone: int = 400
    seed: int = 0

    def __post_init__(self):
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        if self.dim_global < 1:
            raise ValueError(f"dim_global must be >= 1, got {self.dim_global}")
        if self.dim_local < 1:
            raise ValueError(f"dim_local must be >= 1, got {self.dim_local}")
        if self.features_per_frame < 0:
            raise ValueError(f"features_per_frame must be >= 0, got {self.features_per_frame}")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError(f"outlier_fraction must be in [0, 1), got {self.outlier_fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("sigma_global", "sigma_px", "sigma_desc"):
            sigma = getattr(self, name)
            if not 0.0 <= sigma < math.inf:  # also for NaN
                raise ValueError(f"{name} must be finite and >= 0, got {sigma}")
        spans = []
        for seg in self.segments:
            if seg.length < 1:
                raise ValueError("segment length must be >= 1")
            if seg.origin_start < 0 or seg.revisit_start + seg.length > self.n_frames:
                raise ValueError(f"segment {seg} exceeds the trajectory")
            if seg.revisit_start - seg.origin_start <= self.exclusion_zone:
                raise ValueError(
                    f"segment {seg} violates the exclusion constraint: revisit must "
                    f"start more than {self.exclusion_zone} frames after its origin"
                )
            spans.append((seg.origin_start, seg.origin_start + seg.length))
            spans.append((seg.revisit_start, seg.revisit_start + seg.length))
        spans.sort()
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            if b0 < a1:
                raise ValueError("revisit/origin ranges overlap")


@dataclass(frozen=True, eq=False)
class PlantedLoop:
    """Generator-side truth for one loop pair.

    ``fundamental`` satisfies ``x_query^T F x_origin = 0``, as
    ``sampson_distance(fundamental, origin_points, query_points)`` reads it.
    ``ransac_fundamental(matches, query, origin)``, as the pipeline calls it,
    estimates its transpose.
    """

    query_frame: int
    origin_frame: int
    fundamental: np.ndarray
    inlier_count: int


@dataclass(eq=False)
class SyntheticDataset:
    frames: list[Frame]
    ground_truth: GroundTruth
    planted: dict[int, PlantedLoop]
    config: SynthConfig


class EpipolarScene:
    """Random calibrated two-view rig used to plant exact correspondences."""

    def __init__(self, rng: np.random.Generator):
        w, h = IMAGE_SIZE
        f = 0.9 * w
        self.K = np.array([[f, 0.0, w / 2.0], [0.0, f, h / 2.0], [0.0, 0.0, 1.0]])
        angles = rng.uniform(-0.12, 0.12, size=3)
        self.R = self._rotation(angles)
        t = rng.uniform(-1.0, 1.0, size=3)
        t[0] += np.sign(t[0]) + 0.5  # keep a solid baseline so F is well defined
        self.t = t
        Kinv = np.linalg.inv(self.K)
        tx = np.array(
            [[0, -t[2], t[1]], [t[2], 0, -t[0]], [-t[1], t[0], 0]], dtype=np.float64
        )
        self.F = FundamentalMatrix(Kinv.T @ tx @ self.R @ Kinv).m
        self._rng = rng

    @staticmethod
    def _rotation(angles) -> np.ndarray:
        cx, cy, cz = np.cos(angles)
        sx, sy, sz = np.sin(angles)
        Rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
        Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
        Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
        return Rz @ Ry @ Rx

    @staticmethod
    def _accepted_pairs(n: int, draw) -> tuple[np.ndarray, np.ndarray]:
        """The first ``n`` accepted pairs of ``draw(batch) -> (xa, xb, ok)``,
        drawn in batches of twice the shortfall (at least 16) until ``n``
        are accepted."""
        pts_a = np.empty((n, 2))
        pts_b = np.empty((n, 2))
        got = 0
        while got < n:
            xa, xb, ok = draw(max(2 * (n - got), 16))
            take = min(int(ok.sum()), n - got)
            pts_a[got : got + take] = xa[ok][:take]
            pts_b[got : got + take] = xb[ok][:take]
            got += take
        return pts_a, pts_b

    def correspondences(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample n 3-D points visible in both views; returns exact pixel pairs."""
        w, h = IMAGE_SIZE

        def draw(batch):
            X = np.column_stack(
                [
                    self._rng.uniform(-4.0, 4.0, batch),
                    self._rng.uniform(-3.0, 3.0, batch),
                    self._rng.uniform(4.0, 12.0, batch),
                ]
            )
            xa = (self.K @ X.T).T
            xa = xa[:, :2] / xa[:, 2:3]
            Xb = (self.R @ X.T).T + self.t
            xb = (self.K @ Xb.T).T
            ok_depth = Xb[:, 2] > 0.1
            xb = np.where(ok_depth[:, None], xb[:, :2] / np.where(ok_depth, xb[:, 2], 1.0)[:, None], -1e9)
            ok = (
                ok_depth
                & (xa[:, 0] >= 0) & (xa[:, 0] < w) & (xa[:, 1] >= 0) & (xa[:, 1] < h)
                & (xb[:, 0] >= 0) & (xb[:, 0] < w) & (xb[:, 1] >= 0) & (xb[:, 1] < h)
            )
            return xa, xb, ok

        return self._accepted_pairs(n, draw)

    def outlier_pairs(self, n: int, min_sampson: float = 6.0) -> tuple[np.ndarray, np.ndarray]:
        """Uniform point pairs rejection-sampled away from the epipolar
        constraint, so outlier labels are geometrically meaningful."""
        w, h = IMAGE_SIZE

        def draw(batch):
            xa = np.column_stack(
                [self._rng.uniform(0, w, batch), self._rng.uniform(0, h, batch)]
            )
            xb = np.column_stack(
                [self._rng.uniform(0, w, batch), self._rng.uniform(0, h, batch)]
            )
            return xa, xb, sampson_distance(self.F, xa, xb) >= min_sampson

        return self._accepted_pairs(n, draw)


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    X = rng.standard_normal((n, dim))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def generate_synthetic(config: SynthConfig) -> SyntheticDataset:
    """Build a deterministic synthetic trajectory with planted revisits.

    Global descriptors follow a smooth random walk on the unit sphere
    (adjacent-frame cosine about :data:`DRIFT`); each revisit frame re-emits its
    origin descriptor plus a noise vector of norm ``sigma_global``.  Loop
    pairs share planted local correspondences generated from a random
    fundamental matrix, with ``sigma_px`` keypoint noise and an
    ``outlier_fraction`` of matchable distractor pairs at random positions.

    The streams depend on the draw order: one draw for the walk (its start
    and ``n_frames`` steps, the last unused), then frame by frame.  A revisit
    frame draws its global noise, its scene and its pair's local features,
    origin set first; an origin frame draws nothing; any other frame draws
    its own local features.
    """
    cfg = config
    rng = np.random.default_rng(cfg.seed)
    T, D, d = cfg.n_frames, cfg.dim_global, cfg.dim_local

    # row i becomes frame i's global descriptor in place
    walk = _unit_rows(rng, T + 1, D)
    step = math.sqrt(1.0 - DRIFT**2)
    for i in range(1, T):
        walk[i] = l2_normalize(DRIFT * walk[i - 1] + step * walk[i])

    origin_of = {s.revisit_start + j: s.origin_start + j
                 for s in cfg.segments for j in range(s.length)}
    origins = set(origin_of.values())

    n_total = cfg.features_per_frame
    n_out = int(round(cfg.outlier_fraction * n_total))
    n_inl = n_total - n_out
    lo, hi = SCORE_RANGE
    w_img, h_img = IMAGE_SIZE

    locals_: dict[int, LocalFeatureSet] = {}
    planted: dict[int, PlantedLoop] = {}
    for i in range(T):
        if i in origin_of:
            # segments never overlap, so an origin row is never overwritten
            o = origin_of[i]
            walk[i] = l2_normalize(walk[o] + cfg.sigma_global * _unit_rows(rng, 1, D)[0])
            scene = EpipolarScene(rng)
            pa, pb = scene.correspondences(n_inl)
            if cfg.sigma_px > 0:
                pb = pb + rng.normal(0.0, cfg.sigma_px, pb.shape)
            desc = _unit_rows(rng, n_inl, d)
            desc_b = desc
            if cfg.sigma_desc > 0:
                desc_b = desc + cfg.sigma_desc * rng.standard_normal((n_inl, d))
                desc_b /= np.linalg.norm(desc_b, axis=1, keepdims=True)
            oa, ob = scene.outlier_pairs(n_out)
            odesc = _unit_rows(rng, n_out, d)
            for f, pts, outl, ds in ((o, pa, oa, desc), (i, pb, ob, desc_b)):
                locals_[f] = LocalFeatureSet(
                    f, np.vstack([pts, outl]), rng.uniform(lo, hi, n_total), np.vstack([ds, odesc])
                )
            planted[i] = PlantedLoop(i, o, scene.F, n_inl)
        elif i not in origins:
            locals_[i] = LocalFeatureSet(
                i,
                np.column_stack([rng.uniform(0, w_img, n_total), rng.uniform(0, h_img, n_total)]),
                rng.uniform(lo, hi, n_total),
                _unit_rows(rng, n_total, d),
            )

    frames = [(i, GlobalDescriptor(i, walk[i]), locals_[i]) for i in range(T)]
    pairs = {q: frozenset([p.origin_frame]) for q, p in planted.items()}
    return SyntheticDataset(frames, GroundTruth(pairs, frozenset(range(T))), planted, cfg)


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------


def aggregate_timings(records: Sequence[FrameRecord]) -> dict[str, tuple[float, ...]]:
    """Per-stage wall-clock (mean, std, max, min) in ms over the frames where
    the stage ran, in :data:`STAGES` order; stages that never ran are absent."""
    table = {}
    for stage in STAGES:
        ms = np.array([r.stages[stage] for r in records if r.stages[stage] > 0.0]) * 1e3
        if ms.size:
            table[stage] = (float(ms.mean()), float(ms.std()), float(ms.max()), float(ms.min()))
    return table


def write_timing_csv(fobj: TextIO, records: Sequence[FrameRecord]) -> None:
    fobj.write("stage,mean_ms,std_ms,max_ms,min_ms\n")
    for stage, stats in aggregate_timings(records).items():
        fobj.write(",".join([stage] + [f"{v:.6f}" for v in stats]) + "\n")
