"""Outside-in layer trace for the loopdet benchmark.

``Tracer.installed()`` wraps the public calls the pipeline makes into each
layer (matching, RANSAC, the eight-point solver, score filtering, HNSW insert
and search) and restores the originals on exit.  Every wrapped call appends a
span ``(name, start, end, parent, frame_id, info)`` to an in-memory list; the
harness opens one root span per ``process_frame`` call and one span per
container read.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import loopdet.geometry as geometry
import loopdet.hnsw as hnsw
import loopdet.pipeline as pipeline

NAME, START, END, PARENT, FRAME, INFO = range(6)


class Tracer:
    """Span recorder for one traced replay pass.

    ``recall_stride`` selects the fixed subsample of searches whose results
    are kept, with the vectors inserted so far, for the exact-search oracle.
    """

    def __init__(self, recall_stride: int):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._frame = -1
        self.recall_stride = recall_stride
        self.inserted: list[tuple[int, np.ndarray]] = []
        self.search_samples: list[tuple[np.ndarray, list[int], int]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), 0.0, parent, self._frame, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list, info) -> None:
        span[END] = perf_counter()
        span[INFO] = info
        self._stack.pop()

    def _wrap(self, name: str, fn, describe):
        """Wrap ``fn`` so each call records a span; ``describe(args, result)``
        gives the span's info, and a raised exception is recorded by type."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(span, {"error": type(exc).__name__})
                raise
            self._close(span, describe(args, result))
            return result

        return traced

    def frame(self, process_frame):
        """Wrap ``process_frame`` as the root span of its frame."""
        root = self._wrap("pipeline.process_frame", process_frame, _no_info)

        def traced(frame_id, g, locals_):
            self._frame = frame_id
            return root(frame_id, g, locals_)

        return traced

    def reads(self, frames):
        """Yield from a container iterator, one span per frame read."""
        it = iter(frames)
        while True:
            span = self._open("container.read")
            try:
                item = next(it)
            except StopIteration:
                self._close(span, None)
                self.spans.pop()
                return
            span[FRAME] = item[0]
            self._close(span, None)
            yield item

    def _insert(self, fn):
        def insert(index, frame_id, values):
            self.inserted.append((frame_id, np.asarray(values, dtype=np.float64).copy()))
            return fn(index, frame_id, values)

        return self._wrap("hnsw.insert", insert, _no_info)

    def _search(self, fn):
        def search(index, query, k, ef=None):
            result = fn(index, query, k, ef)
            if self._frame % self.recall_stride == 0:
                q = np.asarray(query, dtype=np.float64).copy()
                self.search_samples.append((q, [nb.frame_id for nb in result], len(self.inserted)))
            return result

        return self._wrap("hnsw.search", search, lambda args, res: len(res))

    @contextmanager
    def installed(self):
        """Patch the layer entry points for the duration of the block."""
        def spans(name, describe):
            return lambda fn: self._wrap(name, fn, describe)

        targets = [
            (pipeline, "brute_force_match", spans("geometry.match", lambda a, r: len(r))),
            (pipeline, "ransac_fundamental",
             spans("geometry.ransac", lambda a, r: {"accepted": r is not None})),
            (pipeline, "filter_by_score",
             spans("descriptors.filter", lambda a, r: (len(a[0]), len(r)))),
            (geometry, "eight_point", spans("geometry.eight_point", _no_info)),
            (hnsw.HnswIndex, "insert", self._insert),
            (hnsw.HnswIndex, "knn_search", self._search),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for (owner, attr, make), (_, _, fn) in zip(targets, originals):
                setattr(owner, attr, make(fn))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
            self._stack.clear()

    def search_recall(self, exact_knn) -> float:
        """Mean recall@k of the sampled searches against an exact scan over
        the vectors inserted before each search."""
        if not self.search_samples:
            return math.nan
        ids = np.array([fid for fid, _ in self.inserted])
        vecs = np.stack([v for _, v in self.inserted])
        hits = []
        for q, found, size in self.search_samples:
            exact = ids[exact_knn(vecs[:size], q, len(found))[0]]
            hits.append(len(set(found) & set(exact.tolist())) / len(found))
        return float(np.mean(hits))

    def write(self, f, pass_no: int) -> None:
        """Append this pass's spans to an open text file, one JSON list a line."""
        for span in self.spans:
            f.write(json.dumps([pass_no, *span]) + "\n")


def _no_info(args, result):
    return None


def _ms(spans) -> np.ndarray:
    return np.array([(s[END] - s[START]) * 1e3 for s in spans], dtype=np.float64)


def _p99(values: np.ndarray) -> float:
    return float(np.percentile(values, 99)) if values.size else 0.0


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else 0.0


def _self_ms(spans: list[list]) -> np.ndarray:
    """Root-span duration minus the durations of its direct children."""
    child_ms: dict[int, float] = {}
    for s in spans:
        if s[PARENT] >= 0:
            child_ms[s[PARENT]] = child_ms.get(s[PARENT], 0.0) + (s[END] - s[START]) * 1e3
    return np.array(
        [
            (s[END] - s[START]) * 1e3 - child_ms.get(k, 0.0)
            for k, s in enumerate(spans)
            if s[NAME] == "pipeline.process_frame"
        ]
    )


def layer_metrics(passes: list[list[list]]) -> dict[str, float]:
    """Per-layer counts and timings from the spans of traced passes.

    Every pass replays the same stream, so counts and ratios come from the
    first pass; times pool the spans of all passes, in milliseconds.
    """

    def named(name: str, spans=None) -> list[list]:
        return [s for s in (passes[0] if spans is None else spans) if s[NAME] == name]

    def pooled(name: str) -> np.ndarray:
        return np.concatenate([_ms(named(name, spans)) for spans in passes])

    first = passes[0]
    match, ransac = named("geometry.match"), named("geometry.ransac")
    filt, search = named("descriptors.filter"), named("hnsw.search")
    frames = named("pipeline.process_frame")
    ransac_ids = {k for k, s in enumerate(first) if s[NAME] == "geometry.ransac"}
    hypotheses = sum(
        1 for s in first if s[NAME] == "geometry.eight_point" and s[PARENT] in ransac_ids
    )
    match_sizes = [s[INFO] for s in match if isinstance(s[INFO], int)]
    ransac_done = [s[INFO]["accepted"] for s in ransac if "accepted" in s[INFO]]
    accepted_frames = {s[FRAME] for s in ransac if s[INFO].get("accepted")}
    kept = np.array([s[INFO] for s in filt if isinstance(s[INFO], tuple)], dtype=float)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "geometry.match_calls": len(match),
        "geometry.match_ms_mean": _mean(pooled("geometry.match")),
        "geometry.match_ms_p99": _p99(pooled("geometry.match")),
        "geometry.matches_per_call": share(sum(match_sizes), len(match_sizes)),
        "geometry.match_useful_ratio": share(sum(1 for m in match_sizes if m >= 8), len(match)),
        "geometry.ransac_calls": len(ransac),
        "geometry.ransac_ms_mean": _mean(pooled("geometry.ransac")),
        "geometry.ransac_ms_p99": _p99(pooled("geometry.ransac")),
        "geometry.ransac_hypotheses_per_call": share(hypotheses, len(ransac)),
        "geometry.ransac_accept_ratio": share(sum(ransac_done), len(ransac)),
        "geometry.ransac_errors": len(ransac) - len(ransac_done),
        "geometry.eight_point_ms_mean": _mean(pooled("geometry.eight_point")),
        "hnsw.insert_calls": len(named("hnsw.insert")),
        "hnsw.insert_ms_mean": _mean(pooled("hnsw.insert")),
        "hnsw.insert_ms_p99": _p99(pooled("hnsw.insert")),
        "hnsw.search_calls": len(search),
        "hnsw.search_ms_mean": _mean(pooled("hnsw.search")),
        "hnsw.search_ms_p99": _p99(pooled("hnsw.search")),
        "descriptors.filter_ms_mean": _mean(pooled("descriptors.filter")),
        "descriptors.kept_ratio": share(kept[:, 1].sum(), kept[:, 0].sum()) if kept.size else 0.0,
        "container.read_ms_mean": _mean(pooled("container.read")),
        "pipeline.self_ms_mean": _mean(np.concatenate([_self_ms(spans) for spans in passes])),
        "pipeline.candidates_per_frame": share(
            sum(s[INFO] for s in search if isinstance(s[INFO], int)), len(frames)
        ),
        "pipeline.verified_frames": len(accepted_frames),
    }
