"""Incremental hierarchical navigable small-world graph over global descriptors.

The index is append-only by ascending frame id and lives in memory for one
run: every frame descriptor is assigned a random top layer with exponentially
decaying probability, linked greedily layer by layer, and stays searchable
until the run ends.  Similarity between frames is the normalized scalar
product (cosine); descriptors are unit-normalized once at insertion so the
inner loops reduce to dot products, and the graph internally minimizes
``1 - cosine`` which is order-equivalent.

Queries descend from the sparse top layers with a greedy beam of one, then
run a best-first search with a dynamic candidate list of size ``ef`` on the
ground layer.  Recall is controlled by ``ef``; connectivity by ``M`` (layer
degree cap, ground layer allows ``2*M``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from typing import Sequence

import numpy as np

from .descriptors import l2_normalize


class IndexAuditError(RuntimeError):
    """The graph violates a structural invariant."""


@dataclass(frozen=True)
class HnswParams:
    """Graph construction and search knobs.

    The ground-layer degree cap ``M0`` is ``2 * M`` and the level scale
    ``level_lambda`` is ``1 / ln(M)``, following the standard HNSW
    construction.  ``ef_construction`` below ``M`` is accepted (it is a
    common published operating point) and is clamped to ``M`` internally
    when gathering link candidates.
    """

    M: int = 48
    ef_construction: int = 40
    ef_search: int = 40
    rng_seed: int = 0

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")
        if self.ef_construction < 1:
            raise ValueError(f"ef_construction must be >= 1, got {self.ef_construction}")
        if self.ef_search < 1:
            raise ValueError(f"ef_search must be >= 1, got {self.ef_search}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")

    @property
    def M0(self) -> int:
        return 2 * self.M

    @property
    def level_lambda(self) -> float:
        return 1.0 / math.log(self.M)

    @property
    def ef_construction_effective(self) -> int:
        return max(self.ef_construction, self.M)


@dataclass(frozen=True)
class Neighbor:
    """One search result: frame and its cosine similarity to the query."""

    frame_id: int
    similarity: float


def assign_level(rng: np.random.Generator, level_lambda: float) -> int:
    """Draw a maximum layer: floor(-ln(U) * level_lambda), U uniform in (0, 1]."""
    u = 1.0 - rng.random()  # random() is [0, 1); map to (0, 1] so log is finite
    return int(math.floor(-math.log(u) * level_lambda))


def _keep_diverse(
    base_dists: Sequence[float],
    pair: np.ndarray,
    m: int,
    *,
    backfill: bool,
) -> list[int]:
    """The neighbor-selection heuristic over candidates sorted by distance ascending.

    ``base_dists[i]`` is candidate ``i``'s distance to the base element and
    ``pair[i, j]`` the distance between candidates ``i`` and ``j``.  Position
    ``i`` is kept only if it is closer to the base element than to every
    already-kept position (``pair[i, kept]`` strictly greater than
    ``base_dists[i]``).  With ``backfill`` the nearest discarded candidates
    top the result up to ``m``.
    """
    # close[i, k]: candidate i is no closer to the base element than to k.
    # The distances are compared in pair's dtype, as a Python float would be.
    close = pair <= np.asarray(base_dists, dtype=pair.dtype)[:, None]
    blocked = np.zeros(len(base_dists), dtype=bool)
    kept: list[int] = []
    for i in range(len(base_dists)):
        if len(kept) == m:
            break
        if not blocked[i]:
            kept.append(i)
            blocked |= close[:, i]
    if backfill and len(kept) < m:
        # every candidate was examined, so the discarded ones are the rest
        taken = set(kept)
        kept += [i for i in range(len(base_dists)) if i not in taken][: m - len(kept)]
    return kept


def _doubled(a: np.ndarray) -> np.ndarray:
    """``a`` with twice its rows; the new rows are zero."""
    grown = np.zeros((2 * a.shape[0],) + a.shape[1:], dtype=a.dtype)
    grown[: a.shape[0]] = a
    return grown


class HnswIndex:
    """Append-only multi-layer proximity graph with cosine k-NN search.

    Concurrency contract: any number of concurrent searchers OR a single
    inserter at a time; searches running concurrently with an insert are
    not supported.  Search results reflect the inserts completed so far.
    """

    def __init__(self, dim: int, params: HnswParams | None = None):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.params = params if params is not None else HnswParams()
        self._dim = dim
        self._rng = np.random.default_rng(self.params.rng_seed)
        self._vectors = np.zeros((256, dim), dtype=np.float32)
        self._ids: list[int] = []
        self._levels: list[int] = []
        # Links, one fixed-width row per node on each of its layers 0..level:
        # _adj[layer][r, :_deg[layer][r]] are row r's neighbor idxs.  Node idx
        # is row idx on layer 0 and row _rows[layer][idx] above it; upper-layer
        # rows follow insertion order.  Rows grow by doubling, like _vectors.
        self._adj = [np.zeros((256, self.params.M0), dtype=np.int64)]
        self._deg = [np.zeros(256, dtype=np.int64)]
        self._rows: list[dict[int, int]] = [{}]  # _rows[0] stays empty
        self._entry: int | None = None
        self._max_level = -1

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def dim(self) -> int:
        return self._dim

    # -- construction -------------------------------------------------------------

    def _append_node(self, frame_id: int, vec32: np.ndarray, level: int) -> int:
        idx = len(self._ids)
        if idx == self._vectors.shape[0]:
            self._vectors = _doubled(self._vectors)
            self._adj[0] = _doubled(self._adj[0])
            self._deg[0] = _doubled(self._deg[0])
        self._vectors[idx] = vec32
        self._ids.append(frame_id)
        self._levels.append(level)
        for layer in range(1, level + 1):
            if layer == len(self._adj):
                self._adj.append(np.zeros((16, self.params.M), dtype=np.int64))
                self._deg.append(np.zeros(16, dtype=np.int64))
                self._rows.append({})
            rows = self._rows[layer]
            if len(rows) == self._adj[layer].shape[0]:
                self._adj[layer] = _doubled(self._adj[layer])
                self._deg[layer] = _doubled(self._deg[layer])
            rows[idx] = len(rows)
        return idx

    def _row(self, idx: int, layer: int) -> int:
        return self._rows[layer][idx] if layer else idx

    def _neighbors(self, idx: int, layer: int) -> np.ndarray:
        """Node ``idx``'s neighbor idxs on ``layer``: a view into its row."""
        r = self._row(idx, layer)
        return self._adj[layer][r, : self._deg[layer][r]]

    def _unit(self, values) -> np.ndarray:
        """The float64 unit vector of one descriptor of the index dimension."""
        vec = np.asarray(values, dtype=np.float64).reshape(-1)
        if vec.shape[0] != self._dim:
            raise ValueError(f"dimension mismatch: index dim {self._dim}, got {vec.shape[0]}")
        return l2_normalize(vec)

    def insert(self, frame_id: int, values) -> None:
        """Append one descriptor, of any scale: the index unit-normalizes it
        and stores it as float32.  The node becomes searchable immediately.

        Raises ``ValueError``, leaving the index and its level draws as they
        were, on an id not above the last inserted one (ids ascend from 0), a
        dimension mismatch or a zero vector.
        """
        last = self._ids[-1] if self._ids else -1
        if frame_id <= last:
            raise ValueError(f"frame id {frame_id} is not above {last}: ids must ascend from 0")
        q = self._unit(values).astype(np.float32)

        level = assign_level(self._rng, self.params.level_lambda)
        idx = self._append_node(frame_id, q, level)

        if self._entry is None:
            self._entry = idx
            self._max_level = level
            return

        ep = self._descend(q, level)
        ef = self.params.ef_construction_effective
        for layer in range(min(level, self._max_level), -1, -1):
            candidates = self._search_layer(q, ep, layer, ef)
            ep = [i for _, i in candidates]
            chosen = self._select(ep, [d for d, _ in candidates], self.params.M, backfill=True)
            self._link(idx, layer, np.array(chosen, dtype=np.int64))

        if level > self._max_level:
            self._entry = idx
            self._max_level = level

    def _link(self, idx: int, layer: int, chosen: np.ndarray) -> None:
        """Give node ``idx`` the links ``chosen`` on ``layer``, and each of
        them a backlink to ``idx``."""
        adj, deg = self._adj[layer], self._deg[layer]
        cap = adj.shape[1]
        r = self._row(idx, layer)
        adj[r, : chosen.shape[0]] = chosen
        deg[r] = chosen.shape[0]
        rows = chosen if layer == 0 else np.array([self._rows[layer][j] for j in chosen.tolist()])
        # one row per neighbor, so the appends and the re-selections below
        # touch disjoint rows and may run in either order
        d = deg[rows]
        room = d < cap
        adj[rows[room], d[room]] = idx
        deg[rows[room]] += 1
        for j, rj in zip(chosen[~room].tolist(), rows[~room].tolist()):
            # re-select j's links without backfill: leaving headroom below
            # the cap avoids re-pruning on every later backlink
            cand = np.concatenate((adj[rj], [idx]))
            dists = 1.0 - self._vectors[cand] @ self._vectors[j]
            order = np.lexsort((cand, dists))
            kept = self._select(cand[order], dists[order].tolist(), cap, backfill=False)
            adj[rj, : len(kept)] = kept
            deg[rj] = len(kept)

    def _select(self, ids, dists: list[float], m: int, *, backfill: bool) -> list[int]:
        """The one neighbor-selection routine: up to ``m`` of ``ids`` by :func:`_keep_diverse`.

        ``ids`` are sorted by (distance to the base element, id) and
        ``dists`` holds those distances; ``m`` or fewer candidates are all kept.
        """
        if len(ids) <= m:
            return list(ids)
        vecs = self._vectors[ids]
        kept = _keep_diverse(dists, 1.0 - vecs @ vecs.T, m, backfill=backfill)
        return [ids[i] for i in kept]

    # -- search -------------------------------------------------------------------

    def _search_layer(
        self, q: np.ndarray, entry_points: list[int], layer: int, ef: int
    ) -> list[tuple[float, int]]:
        """Best-first search on one layer; returns (dist, idx) sorted ascending.

        Fresh neighbors need no vectorized prefilter against the worst result
        before the loop: once ``results`` holds ``ef`` items its worst distance
        can only fall, so every neighbor such a filter would drop fails the
        loop's ``dist < worst`` test too.  An expanded node costs numpy call
        overhead on at most ``2M`` elements, not arithmetic, so the loop makes
        as few numpy calls per node as it can.
        """
        vectors = self._vectors
        unvisited = np.ones(len(self._ids), dtype=bool)
        unvisited[entry_points] = False
        d0 = 1.0 - vectors[entry_points] @ q
        candidates = list(zip(d0.tolist(), entry_points))
        heapify(candidates)
        results = [(-d, i) for d, i in candidates]
        heapify(results)
        while len(results) > ef:
            heappop(results)
        full = len(results) == ef
        worst = -results[0][0]  # read only once full

        adj, deg, rows = self._adj[layer], self._deg[layer], self._rows[layer]
        while candidates:
            d, c = heappop(candidates)
            if full and d > worst:
                break
            r = rows[c] if layer else c  # _row inlined: this runs per expanded node
            nbrs = adj[r, : deg[r]]
            fresh = nbrs[unvisited[nbrs]]
            if not len(fresh):
                continue
            unvisited[fresh] = False
            # the fresh rows only: sgemv over every row would cost O(N) per
            # search and round some rows differently (by their block position)
            dd = vectors.take(fresh, axis=0) @ q
            np.subtract(1.0, dd, out=dd)
            for dist, i in zip(dd.tolist(), fresh.tolist()):
                if full:
                    if dist < worst:
                        heapreplace(results, (-dist, i))
                        heappush(candidates, (dist, i))
                        worst = -results[0][0]
                else:
                    heappush(results, (-dist, i))
                    heappush(candidates, (dist, i))
                    full = len(results) == ef
                    worst = -results[0][0]
        return sorted((-nd, i) for nd, i in results)

    def _descend(self, q: np.ndarray, level: int) -> list[int]:
        """Greedy beam-of-one descent from the entry point to layer ``level``;
        returns the entry points for that layer."""
        ep = [self._entry]
        for layer in range(self._max_level, level, -1):
            ep = [i for _, i in self._search_layer(q, ep, layer, 1)]
        return ep

    def knn_search(self, query, k: int, ef: int | None = None) -> list[Neighbor]:
        """Approximate k nearest frames by cosine similarity.

        Returns ``min(k, len(index))`` neighbors sorted by similarity
        descending, ties broken by smaller frame id.  ``ef`` (default
        ``max(params.ef_search, k)``) controls the ground-layer beam width
        and must be at least ``k``.
        """
        if len(self._ids) == 0:
            raise ValueError("cannot search an empty index")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if ef is None:
            ef = max(self.params.ef_search, k)
        if ef < k:
            raise ValueError(f"ef ({ef}) must be >= k ({k})")
        q64 = self._unit(query)
        q = q64.astype(np.float32)
        found = self._search_layer(q, self._descend(q, 0), 0, ef)[:k]

        # one float64 cast for the k rows, then one 1-d dot per row: a
        # matrix-vector product would round some similarities differently
        rows = self._vectors[[i for _, i in found]].astype(np.float64)
        out = []
        for (_, i), row in zip(found, rows):
            sim = float(np.dot(row, q64))
            out.append(Neighbor(self._ids[i], min(1.0, max(-1.0, sim))))
        out.sort(key=lambda nb: (-nb.similarity, nb.frame_id))
        return out

    # -- integrity ----------------------------------------------------------------

    def audit(self) -> None:
        """Verify structural invariants; raises :class:`IndexAuditError`.

        Checks degree caps, layer containment, edge validity, per-node layer
        coverage and entry-point maximality.
        """
        n = len(self._ids)
        if n == 0:
            if self._entry is not None:
                raise IndexAuditError("empty index with an entry point")
            return
        if self._entry is None:
            raise IndexAuditError("non-empty index without entry point")
        levels = np.array(self._levels)
        if levels[self._entry] != levels.max():
            raise IndexAuditError("entry point is not on the globally maximal layer")
        if levels.max() >= len(self._adj):
            idx = int(np.argmax(levels))
            raise IndexAuditError(f"node {idx} lacks adjacency for layers 0..{levels[idx]}")
        for layer in range(len(self._adj)):
            # the layer's nodes in row order, their degrees, and every link in
            # row order with its owner node
            nodes = np.flatnonzero(levels >= layer)
            counts = self._deg[layer][: nodes.shape[0]]
            row, pos = np.nonzero(np.arange(self._adj[layer].shape[1]) < counts[:, None])
            owners, links = nodes[row], self._adj[layer][row, pos]
            rows = self._rows[layer]
            if layer and list(rows.items()) != list(zip(nodes.tolist(), range(len(nodes)))):
                raise IndexAuditError(f"layer {layer} rows do not list the nodes on it")
            cap = self._adj[layer].shape[1]
            over = np.flatnonzero(counts > cap)
            if over.size:
                i = over[0]
                raise IndexAuditError(
                    f"node {nodes[i]} exceeds degree cap on layer {layer}: {counts[i]} > {cap}"
                )
            bad = np.flatnonzero((links < 0) | (links >= n))
            if bad.size:
                k = bad[0]
                raise IndexAuditError(f"node {owners[k]} links to missing node {links[k]}")
            bad = np.flatnonzero(links == owners)
            if bad.size:
                raise IndexAuditError(f"node {owners[bad[0]]} links to itself")
            bad = np.flatnonzero(levels[links] < layer)
            if bad.size:
                k = bad[0]
                raise IndexAuditError(
                    f"node {owners[k]} links to node {links[k]} above its top layer"
                )
