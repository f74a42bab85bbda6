import heapq
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopdet import (
    DegenerateDescriptorError,
    HnswIndex,
    HnswParams,
    IndexAuditError,
    Neighbor,
    exact_knn,
    mean_recall,
)
from loopdet.descriptors import l2_normalize
from loopdet.hnsw import _keep_diverse, assign_level
from conftest import unit_rows

SMALL = HnswParams(M=8, ef_construction=32, ef_search=32, rng_seed=7)


def build_index(vectors, params=SMALL):
    index = HnswIndex(vectors.shape[1], params)
    for i, v in enumerate(vectors):
        index.insert(i, v)
    return index


def cosine(p, q):
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    return float(p @ q / (np.linalg.norm(p) * np.linalg.norm(q)))


def reported_similarity(stored, query):
    """Similarity that a one-element index reports for ``query``."""
    index = HnswIndex(len(stored))
    index.insert(0, stored)
    (hit,) = index.knn_search(query, 1)
    return hit.similarity


# ---------------------------------------------------------------------------
# Oracle: the index as it was before links moved into fixed-width arrays,
# with one int64 array per node and layer, grown by np.append, and the
# per-candidate selection loop.  The index must match it bit for bit.
# ---------------------------------------------------------------------------


def oracle_keep_diverse(base_dists, pair, m, backfill):
    kept, discarded = [], []
    for i, d in enumerate(base_dists):
        if len(kept) == m:
            break
        if kept and (pair[i, kept] <= d).any():
            discarded.append(i)
            continue
        kept.append(i)
    if backfill:
        for i in discarded:
            if len(kept) == m:
                break
            kept.append(i)
    return kept


class OracleIndex:
    def __init__(self, dim, params):
        self.params = params
        self._rng = np.random.default_rng(params.rng_seed)
        self._vectors = np.zeros((0, dim), dtype=np.float32)
        self._ids, self._levels, self._links = [], [], []
        self._entry, self._max_level = None, -1

    def insert(self, frame_id, values):
        q = l2_normalize(np.asarray(values, dtype=np.float64).reshape(-1)).astype(np.float32)
        level = assign_level(self._rng, self.params.level_lambda)
        idx = len(self._ids)
        self._vectors = np.vstack([self._vectors, q[None]])
        self._ids.append(frame_id)
        self._levels.append(level)
        self._links.append([np.zeros(0, dtype=np.int64)] * (level + 1))
        if self._entry is None:
            self._entry, self._max_level = idx, level
            return
        ep = self._descend(q, level)
        for layer in range(min(level, self._max_level), -1, -1):
            candidates = self._search_layer(q, ep, layer, self.params.ef_construction_effective)
            ep = [i for _, i in candidates]
            chosen = self._select(ep, [d for d, _ in candidates], self.params.M, True)
            self._links[idx][layer] = np.array(chosen, dtype=np.int64)
            cap = self.params.M0 if layer == 0 else self.params.M
            for j in chosen:
                arr = self._links[j][layer]
                if arr.shape[0] < cap:
                    self._links[j][layer] = np.append(arr, idx)
                    continue
                cand = np.append(arr, idx)
                dists = 1.0 - self._vectors[cand] @ self._vectors[j]
                order = np.lexsort((cand, dists))
                kept = self._select(cand[order], dists[order].tolist(), cap, False)
                self._links[j][layer] = np.array(kept, dtype=np.int64)
        if level > self._max_level:
            self._entry, self._max_level = idx, level

    def _select(self, ids, dists, m, backfill):
        if len(ids) <= m:
            return list(ids)
        vecs = self._vectors[ids]
        return [ids[i] for i in oracle_keep_diverse(dists, 1.0 - vecs @ vecs.T, m, backfill)]

    def _search_layer(self, q, entry_points, layer, ef):
        visited = np.zeros(len(self._ids), dtype=bool)
        visited[entry_points] = True
        d0 = 1.0 - self._vectors[entry_points] @ q
        candidates = list(zip(d0.tolist(), entry_points))
        heapq.heapify(candidates)
        results = [(-d, i) for d, i in candidates]
        heapq.heapify(results)
        while len(results) > ef:
            heapq.heappop(results)
        while candidates:
            d, c = heapq.heappop(candidates)
            if d > -results[0][0] and len(results) >= ef:
                break
            nbrs = self._links[c][layer]
            if nbrs.shape[0] == 0:
                continue
            fresh = nbrs[~visited[nbrs]]
            if fresh.shape[0] == 0:
                continue
            visited[fresh] = True
            dd = 1.0 - self._vectors[fresh] @ q
            if len(results) >= ef:
                closer = dd < -results[0][0]
                dd, fresh = dd[closer], fresh[closer]
            for dist, i in zip(dd.tolist(), fresh.tolist()):
                if len(results) < ef:
                    heapq.heappush(results, (-dist, i))
                    heapq.heappush(candidates, (dist, i))
                elif dist < -results[0][0]:
                    heapq.heapreplace(results, (-dist, i))
                    heapq.heappush(candidates, (dist, i))
        return sorted((-nd, i) for nd, i in results)

    def _descend(self, q, level):
        ep = [self._entry]
        for layer in range(self._max_level, level, -1):
            ep = [i for _, i in self._search_layer(q, ep, layer, 1)]
        return ep

    def knn_search(self, query, k, ef):
        q64 = l2_normalize(np.asarray(query, dtype=np.float64).reshape(-1))
        q = q64.astype(np.float32)
        found = self._search_layer(q, self._descend(q, 0), 0, ef)[:k]
        out = []
        for _, i in found:
            sim = float(np.dot(self._vectors[i].astype(np.float64), q64))
            out.append(Neighbor(self._ids[i], min(1.0, max(-1.0, sim))))
        out.sort(key=lambda nb: (-nb.similarity, nb.frame_id))
        return out


class TestSimilarity:
    """Search results carry the cosine of the query and the stored descriptor."""

    def test_self_similarity(self):
        assert reported_similarity([0.6, 0.8], [0.6, 0.8]) == pytest.approx(1.0, abs=1e-7)

    def test_orthogonal(self):
        assert reported_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_45_degrees(self):
        assert reported_similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.7071, abs=1e-4)

    def test_symmetry_and_range(self, rng):
        for _ in range(50):
            p, q = rng.standard_normal((2, 16))
            s_pq = reported_similarity(p, q)
            # descriptors are stored as float32
            assert abs(s_pq - reported_similarity(q, p)) < 1e-6
            assert abs(s_pq - cosine(p, q)) < 1e-6
            assert -1.0 <= s_pq <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reported_similarity([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            reported_similarity([1.0, 0.0], [0.0, 0.0])


class TestAssignLevel:
    def test_zero_lambda_always_ground(self, rng):
        assert all(assign_level(rng, 0.0) == 0 for _ in range(100))

    def test_deterministic_given_seed(self):
        a = [assign_level(np.random.default_rng(5), 1.0) for _ in range(1)]
        draws1 = [assign_level(np.random.default_rng(99), 0.5) for _ in range(200)]
        draws2 = [assign_level(np.random.default_rng(99), 0.5) for _ in range(200)]
        assert draws1 == draws2 and a == a

    def test_mean_matches_closed_form(self):
        # floor of an exponential with rate ln(M) is geometric on {0,1,...}
        # with ratio 1/M, so the closed-form mean is 1/(M-1)
        M = 48
        lam = 1.0 / math.log(M)
        rng = np.random.default_rng(2024)
        u = 1.0 - rng.random(1_000_000)
        levels = np.floor(-np.log(u) * lam)
        assert abs(levels.mean() - 1.0 / (M - 1)) < 2e-3
        # the vectorized draw matches the scalar op stream
        rng2 = np.random.default_rng(2024)
        first = [assign_level(rng2, lam) for _ in range(100)]
        assert first == levels[:100].astype(int).tolist()


class TestInsert:
    def test_first_insert_becomes_entry(self, rng):
        index = HnswIndex(4, SMALL)
        index.insert(3, [1.0, 0.0, 0.0, 0.0])
        assert index._ids == [3]
        index.audit()
        res = index.knn_search([1.0, 0.0, 0.0, 0.0], 1, ef=1)
        assert res == [Neighbor(3, 1.0)]

    def test_three_nodes_complete_ground_layer(self, rng):
        vectors = unit_rows(rng, 3, 8)
        params = HnswParams(M=48, ef_construction=40, ef_search=40, rng_seed=1)
        index = build_index(vectors, params)
        for i in range(3):
            others = {index._ids[j] for j in range(3) if j != i}
            linked = {index._ids[n] for n in index._neighbors(index._ids.index(i), 0).tolist()}
            assert linked == others

    def test_duplicate_frame_rejected(self, rng):
        # the index is append-only: a repeated or smaller id is rejected before
        # the level draw, so the next accepted insert builds the graph that the
        # same inserts without the rejected calls build
        vectors = unit_rows(rng, 5, 8)
        index, reference = build_index(vectors[:4]), build_index(vectors[:4])
        state = (len(index), list(index._levels), index._entry, index._max_level,
                 index._rng.bit_generator.state)
        for frame_id in (3, 2, 0, -1):
            with pytest.raises(ValueError, match="must ascend"):
                index.insert(frame_id, vectors[4])
            assert (len(index), index._levels, index._entry, index._max_level,
                    index._rng.bit_generator.state) == state
        with pytest.raises(ValueError, match="must ascend"):
            HnswIndex(8, SMALL).insert(-1, vectors[0])
        index.insert(4, vectors[4])
        reference.insert(4, vectors[4])
        assert index._ids == reference._ids == [0, 1, 2, 3, 4]
        assert (index._levels, index._entry) == (reference._levels, reference._entry)
        for layer in range(len(reference._adj)):
            for idx in range(len(reference)):
                if reference._levels[idx] >= layer:
                    assert (index._neighbors(idx, layer).tolist()
                            == reference._neighbors(idx, layer).tolist())

    def test_dimension_mismatch_rejected(self, rng):
        index = build_index(unit_rows(rng, 4, 8))
        with pytest.raises(ValueError, match="dimension"):
            index.insert(99, np.ones(5))

    def test_zero_vector_rejected(self, rng):
        # and vectors with a NaN or an infinite entry: a NaN node would be
        # returned ahead of an exact match
        index = HnswIndex(2)
        index.insert(0, [1.0, 0.0])
        for bad in ([0.0, 0.0], [math.nan, 1.0], [math.inf, 1.0]):
            with pytest.raises(DegenerateDescriptorError):
                index.insert(1, bad)
            with pytest.raises(DegenerateDescriptorError):
                index.knn_search(bad, 1)
        assert index._ids == [0]
        index.insert(2, [0.0, 1.0])
        assert index.knn_search([0.0, 1.0], 2) == [Neighbor(2, 1.0), Neighbor(0, 0.0)]

    def test_degree_caps_after_many_inserts(self, rng):
        vectors = unit_rows(rng, 2000, 16)
        params = HnswParams(M=48, ef_construction=40, ef_search=40, rng_seed=5)
        index = build_index(vectors, params)
        index.audit()
        degrees = index._deg[0][: len(index)]
        assert degrees.max() <= 96
        assert [len(index._neighbors(idx, 0)) for idx in range(len(index))] == degrees.tolist()


class TestKnnSearch:
    def test_single_element(self, rng):
        index = HnswIndex(8)
        v = unit_rows(rng, 2, 8)
        index.insert(0, v[0])
        res = index.knn_search(v[1], 1, ef=4)
        assert len(res) == 1 and res[0].frame_id == 0
        assert res[0].similarity == pytest.approx(cosine(v[0], v[1]), abs=1e-6)

    def test_exact_hit_ranked_first(self, rng):
        vectors = unit_rows(rng, 200, 16)
        index = build_index(vectors)
        res = index.knn_search(vectors[42], 5, ef=100)
        assert res[0].frame_id == 42
        assert res[0].similarity == pytest.approx(1.0, abs=1e-6)

    def test_recall_against_linear_scan(self, rng):
        vectors = unit_rows(rng, 1500, 32)
        queries = unit_rows(rng, 50, 32)
        index = build_index(vectors, HnswParams(M=16, ef_construction=48, ef_search=48, rng_seed=3))
        exact = exact_knn(vectors, queries, 10)
        found = [[n.frame_id for n in index.knn_search(q, 10, ef=200)] for q in queries]
        assert mean_recall(found, exact) >= 0.95

    def test_result_count_capped_by_index_size(self, rng):
        index = build_index(unit_rows(rng, 3, 8))
        assert len(index.knn_search(unit_rows(rng, 1, 8)[0], 10, ef=16)) == 3

    def test_sorted_by_similarity_then_id(self, rng):
        index = build_index(unit_rows(rng, 300, 8))
        res = index.knn_search(unit_rows(rng, 1, 8)[0], 10, ef=64)
        keys = [(-n.similarity, n.frame_id) for n in res]
        assert keys == sorted(keys)

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            HnswIndex(4).knn_search(np.ones(4), 1)

    def test_default_beam_widens_to_k(self, rng):
        # k above SMALL.ef_search (32): without ef the beam is max(ef_search, k);
        # an explicit ef below k still raises (test_ef_below_k_rejected)
        index = build_index(unit_rows(rng, 40, 8))
        q = unit_rows(rng, 1, 8)[0]
        assert len(index.knn_search(q, 36)) == 36
        assert len(index.knn_search(q, 50)) == 40

    def test_ef_below_k_rejected(self, rng):
        index = build_index(unit_rows(rng, 10, 8))
        with pytest.raises(ValueError, match="ef"):
            index.knn_search(unit_rows(rng, 1, 8)[0], 5, ef=3)

    def test_ef_monotonic_recall(self, rng):
        vectors = unit_rows(rng, 800, 24)
        queries = unit_rows(rng, 40, 24)
        index = build_index(vectors, HnswParams(M=12, ef_construction=32, ef_search=32, rng_seed=9))
        exact = exact_knn(vectors, queries, 10)
        recalls = []
        for ef in (10, 20, 40, 80):
            found = [[n.frame_id for n in index.knn_search(q, 10, ef=ef)] for q in queries]
            recalls.append(mean_recall(found, exact))
        for lo, hi in zip(recalls, recalls[1:]):
            assert hi >= lo - 0.02

    def test_concurrent_searches_match_serial(self, rng):
        vectors = unit_rows(rng, 400, 16)
        queries = unit_rows(rng, 32, 16)
        index = build_index(vectors)
        serial = [index.knn_search(q, 5, ef=40) for q in queries]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda q: index.knn_search(q, 5, ef=40), queries))
        assert serial == parallel


def keep_rule_oracle(base, vecs, m, backfill=True):
    """Literal brute-force transcription of the diversity keep rule over
    candidate rows sorted by distance to ``base`` ascending."""
    kept = []
    discarded = []
    dist = lambda a, b: 1.0 - float(np.dot(a, b))
    for i, v in enumerate(vecs):
        if len(kept) == m:
            break
        d_base = dist(v, base)
        if all(d_base < dist(v, vecs[k]) for k in kept):
            kept.append(i)
        else:
            discarded.append(i)
    for i in discarded if backfill else ():
        if len(kept) == m:
            break
        kept.append(i)
    return kept


class TestSelectNeighbors:
    """The one neighbour-selection rule behind linking and pruning."""

    @staticmethod
    def by_distance(base, vecs):
        """Candidates sorted by cosine distance to ``base``, with the inputs
        of :func:`_keep_diverse`: distances to base and the pair matrix."""
        vecs = np.asarray(vecs, dtype=np.float64)
        d = 1.0 - vecs @ base
        order = np.argsort(d, kind="stable")
        vecs = vecs[order]
        return vecs, d[order].tolist(), 1.0 - vecs @ vecs.T

    @staticmethod
    def on_circle(angles):
        return np.column_stack([np.cos(angles), np.sin(angles)])

    def test_identity_when_under_capacity(self):
        base = np.array([1.0, 0.0])
        _, d, pair = self.by_distance(base, self.on_circle([0.3, 1.2, 2.2]))
        assert sorted(_keep_diverse(d, pair, 5, backfill=True)) == [0, 1, 2]

    def test_near_duplicates_pruned_to_nearer(self):
        base = np.array([1.0, 0.0])
        _, d, pair = self.by_distance(base, self.on_circle([0.31, 0.30]))
        assert _keep_diverse(d, pair, 1, backfill=True) == [0]
        assert _keep_diverse(d, pair, 2, backfill=False) == [0]

    def test_two_clusters_both_represented(self, rng):
        # clusters on either side of the base survive the keep rule together
        angles = np.concatenate([
            0.35 + 0.05 * rng.random(10),
            -0.80 - 0.05 * rng.random(10),
        ])
        base = np.array([1.0, 0.0])
        vecs, d, pair = self.by_distance(base, self.on_circle(angles))
        kept = _keep_diverse(d, pair, 4, backfill=True)
        assert kept == keep_rule_oracle(base, vecs, 4)
        assert (vecs[kept, 1] > 0).any() and (vecs[kept, 1] < 0).any()

    def test_matches_oracle_on_random_instances(self, rng):
        for trial in range(20):
            base = unit_rows(rng, 1, 6)[0]
            vecs, d, pair = self.by_distance(base, unit_rows(rng, 15, 6))
            for m in (1, 3, 7):
                for backfill in (True, False):
                    assert _keep_diverse(d, pair, m, backfill=backfill) == keep_rule_oracle(
                        base, vecs, m, backfill
                    )


class TestBitIdentity:
    """The fixed-width layout builds and searches exactly what the
    list-of-arrays index did."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["normal", "duplicated", "lattice"]),
    )
    # duplicated vectors and lattice points tie distances, which the id order
    # then breaks; in the lattice examples backfill puts tied neighbors out of
    # id order in a row, so re-selecting it needs lexsort's id tie-break
    @example(300, 2, 2, 1, 0, "duplicated")
    @example(300, 16, 8, 24, 1, "duplicated")
    @example(300, 4, 3, 7, 0, "lattice")
    @example(300, 3, 3, 7, 0, "lattice")
    @example(120, 3, 3, 4, 2, "normal")
    def test_graph_equals_oracle(self, n, dim, M, ef_c, seed, kind):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((n, dim))
        if kind == "duplicated":
            vectors[n // 3 :] = vectors[rng.integers(0, max(n // 3, 1), n - n // 3)]
        elif kind == "lattice":
            vectors = rng.choice([-2.0, -1.0, 1.0, 2.0], (n, dim))
        params = HnswParams(M=M, ef_construction=ef_c, ef_search=8, rng_seed=seed % 1000)
        index, oracle = self.build_both(vectors, params)
        for q in rng.standard_normal((5, dim)):
            assert index.knn_search(q, min(5, n), ef=8) == oracle.knn_search(q, min(5, n), 8)

    @staticmethod
    def build_both(vectors, params):
        """The index and the oracle after the same inserts; their graphs are equal."""
        index, oracle = HnswIndex(vectors.shape[1], params), OracleIndex(vectors.shape[1], params)
        for i, v in enumerate(vectors):
            index.insert(i, v)
            oracle.insert(i, v)
        assert index._levels == oracle._levels
        assert index._entry == oracle._entry
        for idx, layers in enumerate(oracle._links):
            for layer, nbrs in enumerate(layers):
                assert index._neighbors(idx, layer).tolist() == nbrs.tolist()
        return index, oracle

    def test_pipeline_params_at_256d_equal_oracle(self):
        # the pipeline's dimension and HnswParams(): the float32 gathers and
        # matrix-vector products, and the float64 similarity dots, run on
        # OpenBLAS's blocked paths, which the <=16-d examples never reach
        rng = np.random.default_rng(11)
        index, oracle = self.build_both(rng.standard_normal((300, 256)), HnswParams())
        for q in rng.standard_normal((20, 256)):
            assert index.knn_search(q, 5) == oracle.knn_search(q, 5, HnswParams().ef_search)

    @pytest.mark.parametrize("case", ["entry_points_over_ef", "ef_over_layer", "linkless_nodes"])
    def test_search_layer_equals_oracle(self, case):
        rng = np.random.default_rng(3)
        params = HnswParams(M=3, ef_construction=8, ef_search=8, rng_seed=3)
        index, oracle = self.build_both(rng.standard_normal((200, 8)), params)
        queries = [l2_normalize(q).astype(np.float32) for q in rng.standard_normal((5, 8))]
        if case == "entry_points_over_ef":
            searches = [(rng.choice(200, 30, replace=False).tolist(), 0, 5)]
        elif case == "ef_over_layer":
            # results never fill: the walk returns every node it reaches
            searches = [([0], 0, 250), ([index._entry], 1, len(index._rows[1]) + 1)]
        else:
            # a node alone on an upper layer has no links there
            upper = [
                (idx, layer) for layer in range(1, len(index._adj)) for idx in index._rows[layer]
            ]
            assert any(index._neighbors(idx, layer).shape[0] == 0 for idx, layer in upper)
            searches = [([idx], layer, 4) for idx, layer in upper]
        for q in queries:
            for entry_points, layer, ef in searches:
                got = index._search_layer(q, entry_points, layer, ef)
                assert got == oracle._search_layer(q, entry_points, layer, ef)
                if case == "entry_points_over_ef":
                    assert len(got) == ef
                elif case == "ef_over_layer":
                    assert len(got) < ef

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([np.float32, np.float64]),
        st.booleans(),
    )
    def test_keep_diverse_equals_oracle(self, n, m, seed, dtype, float64_base):
        # lattice directions make ties between distances common
        rng = np.random.default_rng(seed)
        lattice = rng.choice([-2.0, -1.0, 1.0, 2.0], (n + 1, 3))
        lattice /= np.linalg.norm(lattice, axis=1, keepdims=True)
        vecs, base = lattice[:n].astype(dtype), lattice[n].astype(dtype)
        # base distances as a layer search (pair's dtype) or a test (float64) computes them
        d = 1.0 - vecs.astype(np.float64 if float64_base else dtype) @ base
        order = np.argsort(d, kind="stable")
        vecs, d = vecs[order], d[order].tolist()
        pair = 1.0 - vecs @ vecs.T
        for backfill in (True, False):
            assert _keep_diverse(d, pair, m, backfill=backfill) == oracle_keep_diverse(
                d, pair, m, backfill
            )


class TestDeterminism:
    def test_identical_runs_identical_results(self, rng):
        vectors = unit_rows(rng, 500, 16)
        queries = unit_rows(rng, 20, 16)
        a = build_index(vectors)
        b = build_index(vectors)
        for q in queries:
            assert a.knn_search(q, 8, ef=50) == b.knn_search(q, 8, ef=50)


class TestAudit:
    def test_passes_after_inserts(self, rng):
        build_index(unit_rows(rng, 300, 8)).audit()

    def test_detects_degree_violation(self, rng):
        index = build_index(unit_rows(rng, 50, 8))
        index._deg[0][5] = SMALL.M0 + 1
        with pytest.raises(IndexAuditError, match="node 5 exceeds degree cap"):
            index.audit()

    def test_detects_dangling_edge(self, rng):
        index = build_index(unit_rows(rng, 20, 8))
        index._neighbors(3, 0)[0] = 999
        with pytest.raises(IndexAuditError, match="node 3 links to missing node 999"):
            index.audit()

    def test_detects_self_link(self, rng):
        index = build_index(unit_rows(rng, 20, 8))
        index._neighbors(3, 0)[-1] = 3
        with pytest.raises(IndexAuditError, match="node 3 links to itself"):
            index.audit()

    def test_detects_link_above_top_layer(self, rng):
        index = build_index(unit_rows(rng, 300, 8))
        upper = next(i for i in range(300) if index._levels[i] >= 1 and len(index._neighbors(i, 1)))
        ground = next(i for i in range(300) if index._levels[i] == 0)
        index._neighbors(upper, 1)[0] = ground
        with pytest.raises(IndexAuditError, match=f"links to node {ground} above its top layer"):
            index.audit()

    def test_detects_bad_entry_point(self, rng):
        index = build_index(unit_rows(rng, 100, 8))
        lowest = next(i for i in range(100) if index._levels[i] == 0)
        index._entry = lowest
        if max(index._levels) > 0:
            with pytest.raises(IndexAuditError, match="entry"):
                index.audit()


class TestParams:
    def test_derived_defaults(self):
        p = HnswParams(M=48)
        assert p.M0 == 96
        assert p.level_lambda == pytest.approx(1.0 / math.log(48))
        assert p.ef_construction_effective == 48

    def test_validation(self):
        with pytest.raises(ValueError):
            HnswParams(M=1)
        with pytest.raises(ValueError):
            HnswParams(M=4, ef_search=0)
