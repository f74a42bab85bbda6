import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loopdet.geometry as geometry
import loopdet.pipeline as pipeline
from loopdet import (
    DegenerateGeometryError,
    EpipolarScene,
    FundamentalMatrix,
    HnswParams,
    LocalFeatureSet,
    Matches,
    PipelineConfig,
    RevisitSegment,
    SynthConfig,
    VerificationResult,
    brute_force_match,
    collect_frame_records,
    eight_point,
    generate_synthetic,
    ransac_fundamental,
    replay_detections,
    sampson_distance,
)
from conftest import empty_set, planted_matches, unit_rows


def descriptor_set(descriptors, frame_id=0, coords=None):
    n = len(descriptors)
    coords = coords if coords is not None else np.zeros((n, 2))
    return LocalFeatureSet(frame_id, coords, np.ones(n), np.asarray(descriptors, dtype=float))


# ---------------------------------------------------------------------------
# Oracles: one-at-a-time implementations of the ratio test, the eight-point
# solver and RANSAC's draw-solve-score loop.  The fast code must match them
# bit for bit, on whatever numpy and LAPACK build runs the suite.
# ---------------------------------------------------------------------------


def oracle_match(a, b, epsilon):
    """Ratio test by a stable sort of every row of ``|b|^2 - 2 a.b`` in
    float32, with the norms computed afresh on every call and ``|a|^2``
    added to the two picked values only."""
    if len(a) == 0 or len(b) < 2:
        return Matches(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0, np.float32))
    A = np.asarray(a.descriptors, np.float32)
    B = np.asarray(b.descriptors, np.float32)
    E = (B * B).sum(axis=1) - 2 * (A @ B.T)
    order = np.argsort(E, axis=1, kind="stable")[:, :2]
    picked = np.take_along_axis(E, order, axis=1) + (A * A).sum(axis=1)[:, None]
    d1, dn2 = np.sqrt(np.maximum(picked, 0.0)).T
    accepted = d1 < epsilon * dn2.astype(np.float64)
    return Matches(np.nonzero(accepted)[0], order[accepted, 0], d1[accepted])


def float64_oracle_match(a, b, epsilon):
    """The float64 matcher that float32 matching replaced: a stable sort of
    every row of the clamped ``|a|^2 + |b|^2 - 2 a.b``."""
    if len(a) == 0 or len(b) < 2:
        return Matches(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))
    A = np.asarray(a.descriptors, dtype=np.float64)
    B = np.asarray(b.descriptors, dtype=np.float64)
    d2 = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :2]
    rows = np.arange(A.shape[0])
    d1 = np.sqrt(d2[rows, order[:, 0]])
    dn2 = np.sqrt(d2[rows, order[:, 1]])
    accepted = d1 < epsilon * dn2
    return Matches(np.nonzero(accepted)[0], order[accepted, 0], d1[accepted])


def assert_same_matches(got, expected):
    assert np.array_equal(got.idx_a, expected.idx_a)
    assert np.array_equal(got.idx_b, expected.idx_b)
    assert got.dist.tobytes() == expected.dist.tobytes()


def oracle_sampson(F, pa, pb):
    xa = np.hstack([pa, np.ones((pa.shape[0], 1))])
    xb = np.hstack([pb, np.ones((pb.shape[0], 1))])
    la = xa @ F.T
    lb = xb @ F
    e = np.einsum("ij,ij->i", xb, la)
    den = la[:, 0] ** 2 + la[:, 1] ** 2 + lb[:, 0] ** 2 + lb[:, 1] ** 2
    out = np.full(xa.shape[0], np.inf)
    ok = den > 0.0
    out[ok] = np.abs(e[ok]) / np.sqrt(den[ok])
    return out


def oracle_hartley(pts):
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    mean_dist = float(np.linalg.norm(centered, axis=1).mean())
    if mean_dist == 0.0:
        raise DegenerateGeometryError("all points coincide")
    s = math.sqrt(2.0) / mean_dist
    T = np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])
    return T, centered * s


def oracle_design(pa, pb):
    """Hartley transforms of both sets and the (n, 9) design matrix."""
    Ta, na = oracle_hartley(pa)
    Tb, nb = oracle_hartley(pb)
    x1, y1 = na[:, 0], na[:, 1]
    x2, y2 = nb[:, 0], nb[:, 1]
    A = np.column_stack([x2 * x1, x2 * y1, x2, y2 * x1, y2 * y1, y2, x1, y1, np.ones(len(pa))])
    return Ta, Tb, A


def oracle_eight_point(pa, pb):
    """One 3x3 matrix per call: on 8 points the null vector is the last
    column of the complete QR of the transposed design matrix, on more the
    last right singular vector of its full SVD."""
    Ta, Tb, A = oracle_design(pa, pb)
    if len(pa) == 8:
        Q, R = np.linalg.qr(A.T, mode="complete")
        d = np.abs(np.diag(R))
        if d.max() == 0.0 or d.min() <= d.max() * 1e-10:
            raise DegenerateGeometryError("degenerate point configuration (rank < 8)")
        F = Q[:, -1].reshape(3, 3)
    else:
        _, S, Vt = np.linalg.svd(A)
        if S[0] == 0.0 or S[7] <= S[0] * 1e-10:
            raise DegenerateGeometryError("degenerate point configuration (rank < 8)")
        F = Vt[-1].reshape(3, 3)
    U, s, Vt2 = np.linalg.svd(F)
    s[2] = 0.0
    F = Tb.T @ ((U * s) @ Vt2) @ Ta
    F /= np.linalg.norm(F)
    return -F if F.flat[np.abs(F).argmax()] < 0 else F


def oracle_sample(u, m):
    """Floyd's algorithm on eight uniforms: a sorted 8-subset of range(m)."""
    picked = []
    for s in range(8):
        j = m - 8 + s
        t = int(u[s] * (j + 1))
        picked.append(j if t in picked else t)
    return np.array(sorted(picked))


def oracle_ransac(matches, a, b, tau, rng, max_iters=500):
    """Sequential RANSAC: one ``rng.random(8)`` draw, one solve and one
    score per iteration."""
    m = len(matches)
    if m < 8:
        return None
    pa = np.asarray(a.coords, dtype=np.float64)[[mt.idx_a for mt in matches]]
    pb = np.asarray(b.coords, dtype=np.float64)[[mt.idx_b for mt in matches]]
    best_F, best_mask, best_count = None, None, 0
    budget, i = max_iters, 0
    while i < budget:
        i += 1
        sample = oracle_sample(rng.random(8), m)
        try:
            F = oracle_eight_point(pa[sample], pb[sample])
        except DegenerateGeometryError:
            continue
        mask = oracle_sampson(F, pa, pb) < geometry.PX_THRESH
        count = int(mask.sum())
        if count > best_count:
            best_F, best_mask, best_count = F, mask, count
            budget = min(max_iters, geometry._iterations_needed(count / m))
    if best_F is None:
        return None
    if best_count >= 8:
        try:
            F2 = oracle_eight_point(pa[best_mask], pb[best_mask])
        except DegenerateGeometryError:
            pass
        else:
            mask2 = oracle_sampson(F2, pa, pb) < geometry.PX_THRESH
            if int(mask2.sum()) >= best_count:
                best_F, best_mask, best_count = F2, mask2, int(mask2.sum())
    if best_count < tau:
        return None
    return best_F, tuple(np.nonzero(best_mask)[0].tolist())


def match_set(m, inlier_frac, seed, duplicate):
    """``planted_matches`` at 1 px noise, so that inlier counts vary between
    hypotheses; with ``duplicate`` the first half shares one coordinate pair,
    so that many samples are degenerate."""
    a, b, matches, _, _ = planted_matches(
        seed=seed, n_matches=m, inlier_frac=inlier_frac, sigma_px=1.0
    )
    if duplicate:
        for s in (a, b):
            s.coords[: m // 2] = s.coords[0]
    return a, b, matches


def revisit_outcome():
    """Every frame's record, timings aside, and the detecting frames (the
    records replayed at the run's tau) of a revisit stream with 30% outlier
    features and noisy descriptor copies."""
    dataset = generate_synthetic(SynthConfig(
        n_frames=120, segments=(RevisitSegment(10, 60, 25),), dim_global=32,
        features_per_frame=60, outlier_fraction=0.3, sigma_px=1.0,
        sigma_desc=0.05, exclusion_zone=20, seed=5,
    ))
    config = PipelineConfig(
        psi=2.0, phi=10.0, n=3, tau=10, delta=0.0, seed=1,
        hnsw=HnswParams(M=8, ef_construction=24, ef_search=24, rng_seed=1),
    )
    records, _ = collect_frame_records(dataset.frames, config, 32)
    detections = replay_detections(records, config.tau, config.beta, config.window)
    return [
        (r.query_frame, r.matched_frame, r.inlier_count, np.float64(r.similarity).tobytes())
        for r in records
    ], [q for q, _, _ in detections]


class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.5, 0.7, 0.95, 1.0, 1.5]),
        st.booleans(),
    )
    @example(5, 6, 3, 0, 0.7, True)
    def test_matches_equal_argsort_oracle(self, na, nb, dim, seed, epsilon, duplicate):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((nb, dim))
        if duplicate:
            # rows come in equal pairs (tying both minima) and some query rows
            # sit exactly on them, at distance zero
            B[1::2] = B[0::2][: nb // 2]
        A = rng.standard_normal((na, dim))
        if duplicate:
            A[::2] = B[rng.integers(0, nb, len(A[::2]))]
        a, b = descriptor_set(A), descriptor_set(B, 1)
        assert_same_matches(brute_force_match(a, b, epsilon), oracle_match(a, b, epsilon))

    @staticmethod
    def query_and_candidates(na, sizes, dim, seed, duplicate):
        """A float32 query set and one float32 candidate set per size.  With
        ``duplicate`` the first half of each candidate copies query rows in
        equal pairs, so those rows have two squared distances that are zero
        up to rounding, and rounding can put both below zero."""
        rng = np.random.default_rng(seed)
        A = unit_rows(rng, na, dim).astype(np.float32)
        query = LocalFeatureSet(0, np.zeros((na, 2)), np.ones(na), A)
        candidates = []
        for k, nb in enumerate(sizes):
            B = unit_rows(rng, nb, dim).astype(np.float32)
            if duplicate:
                B[: nb // 2] = A[rng.integers(0, na, nb // 2)]
                B[1 : nb // 2 : 2] = B[0 : nb // 2 - 1 : 2]
            candidates.append(LocalFeatureSet(k + 1, np.zeros((nb, 2)), np.ones(nb), B))
        return query, candidates

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.5, 0.7, 0.95]),
        st.booleans(),
    )
    @example(6, [8, 5, 12], 8, 1, 0.7, True)  # x86-64 OpenBLAS: a row with two picks below zero
    @example(40, [300, 8193], 40, 3, 0.7, True)  # the shapes of revisit_dense, then a wide set
    def test_one_query_against_many_candidates(self, na, sizes, dim, seed, epsilon, duplicate):
        # the query's cached norms serve every candidate; the oracle
        # computes all norms afresh
        query, candidates = self.query_and_candidates(na, sizes, dim, seed, duplicate)
        for cand in candidates:
            assert_same_matches(
                brute_force_match(query, cand, epsilon), oracle_match(query, cand, epsilon)
            )
        assert "_sq_norms" in vars(query)

    def test_rows_with_negative_squared_distances(self):
        # whatever the BLAS build rounds, setting the query's cached float32
        # norm one ulp low puts the squared distance to each copy of row 0
        # below zero; row 1's norm is set high, so its distance to a copy is
        # 2**-11 where the true norm gives 0, which shows the cache is read
        a = descriptor_set([[1.0, 0.0], [0.0, 1.0]])
        vars(a)["_sq_norms"] = np.array([1.0 - 2.0**-24, 1.0 + 2.0**-22], np.float32)
        assert a._sq_norms[0] - np.float32(1.0) < 0.0
        twice = descriptor_set([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 1)
        once = descriptor_set([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]], 2)
        # row 0: two picks below zero, rejected as a tie at zero
        assert list(brute_force_match(a, twice, 0.7)) == [geometry.Match(1, 2, 2.0**-11)]
        # row 0: one pick below zero, matched at distance 0
        assert list(brute_force_match(a, once, 0.7)) == [
            geometry.Match(0, 1, 0.0), geometry.Match(1, 0, 2.0**-11)
        ]

    def test_ties_go_to_the_lowest_index(self):
        b = descriptor_set([[0.0], [1.0], [1.0], [3.0], [3.0]])
        a = descriptor_set([[1.0], [0.1], [1.1], [2.0]])
        # a0 sits on the equal pair b1 = b2 and a2 next to it; a3 is equally
        # far from b1 to b4; a1's nearest is b0 and its second minima tie
        for eps in (0.7, 1.5):
            assert_same_matches(brute_force_match(a, b, eps), oracle_match(a, b, eps))
        assert [(m.idx_a, m.idx_b) for m in brute_force_match(a, b, 0.7)] == [(1, 0)]
        matches = brute_force_match(a, b, 1.5)
        assert [(m.idx_a, m.idx_b) for m in matches] == [(1, 0), (2, 1), (3, 1)]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=8, max_value=300),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    @example(8, 0, True)  # all eight points coincide
    @example(9, 3, True)
    @example(8, 1, False)  # a minimal sample, solved by QR
    def test_eight_point_equals_oracle(self, n, seed, duplicate):
        rng = np.random.default_rng(seed)
        pa = rng.uniform(0, [1280, 960], (n, 2))
        pb = rng.uniform(0, [1280, 960], (n, 2))
        if duplicate:
            pa[: max(n // 2, 8)] = pa[0]
            pb[: max(n // 2, 8)] = pb[0]
        try:
            expected = oracle_eight_point(pa, pb)
        except DegenerateGeometryError:
            with pytest.raises(DegenerateGeometryError):
                eight_point(pa, pb)
        else:
            assert np.array_equal(eight_point(pa, pb).m, expected)
            assert np.array_equal(sampson_distance(expected, pa, pb),
                                  oracle_sampson(expected, pa, pb))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=8, max_value=300),
        st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    @example(10, 0.7, 0, True)  # every sample holds coincident points: all degenerate
    @example(40, 1.0, 1, True)  # degenerate samples among valid ones
    @example(60, 0.3, 2, True)
    @example(300, 0.0, 3, False)  # the full budget
    @example(30, 1.0, 8, False)  # the budget ends inside a block that holds
    @example(150, 0.7, 34, False)  # a later hypothesis with more inliers
    @example(150, 0.7, 25, False)  # ... and one whose later ones have no more
    def test_ransac_equals_sequential_oracle(self, m, inlier_frac, seed, duplicate):
        a, b, matches = match_set(m, inlier_frac, seed, duplicate)
        result = ransac_fundamental(matches, a, b, 12, np.random.default_rng(seed))
        expected = oracle_ransac(matches, a, b, 12, np.random.default_rng(seed))
        if expected is None:
            assert result is None
        else:
            assert result.inlier_indices == expected[1]
            assert np.array_equal(result.matrix.m, expected[0])

    def test_pipeline_equals_oracle_verifier(self, monkeypatch):
        # run once as shipped and once with verification done by the oracles
        def oracle_verifier(matches, a, b, tau, rng):
            found = oracle_ransac(matches, a, b, tau, rng)
            if found is None:
                return None
            return VerificationResult(FundamentalMatrix(found[0]), found[1])

        fast = revisit_outcome()
        monkeypatch.setattr(pipeline, "brute_force_match", oracle_match)
        monkeypatch.setattr(pipeline, "ransac_fundamental", oracle_verifier)
        assert revisit_outcome() == fast
        assert len(fast[1]) > 0 and any(r[2] >= 8 for r in fast[0])

    def test_float32_matching_keeps_the_float64_records(self, monkeypatch):
        # the change from float64 to float32 matching: where revisit
        # descriptors are noisy copies, every match call keeps its index
        # pairs and every frame its record
        same_pairs = []

        def float64_matching(a, b, epsilon):
            new, old = brute_force_match(a, b, epsilon), float64_oracle_match(a, b, epsilon)
            same_pairs.append(
                np.array_equal(new.idx_a, old.idx_a) and np.array_equal(new.idx_b, old.idx_b)
            )
            return old

        shipped = revisit_outcome()
        monkeypatch.setattr(pipeline, "brute_force_match", float64_matching)
        assert revisit_outcome() == shipped
        assert len(same_pairs) > 0 and all(same_pairs)
        assert len(shipped[1]) > 0 and any(r[2] >= 8 for r in shipped[0])

    @pytest.mark.parametrize("m, inlier_frac, seed, duplicate", [
        (300, 0.0, 3, False),  # the full budget of 500
        (60, 0.3, 2, True),  # degenerate samples among valid ones
        (30, 1.0, 8, False),  # the budget ends inside a block
        (150, 0.7, 34, False),
    ])
    def test_result_does_not_depend_on_block_size(
        self, monkeypatch, m, inlier_frac, seed, duplicate
    ):
        a, b, matches = match_set(m, inlier_frac, seed, duplicate)

        def run():
            r = ransac_fundamental(matches, a, b, 12, np.random.default_rng(seed))
            return r.inlier_indices, r.matrix.m.tobytes()

        shipped = run()
        for max_block in (1, 512):
            monkeypatch.setattr(geometry, "_MAX_BLOCK", max_block)
            assert run() == shipped

    def test_early_exit_solves_one_hypothesis(self, monkeypatch):
        # a noiseless set reaches consensus on its first hypothesis; the only
        # other solve is the refit on all 50 matches
        solves = []
        stack = geometry._eight_point_stack

        def counted(pa, pb):
            solves.append(pa.shape[:2])
            return stack(pa, pb)

        monkeypatch.setattr(geometry, "_eight_point_stack", counted)
        a, b, matches, _, _ = planted_matches(seed=0, n_matches=50, inlier_frac=1.0)
        result = ransac_fundamental(matches, a, b, 12, np.random.default_rng(1))
        assert result.inlier_count == 50
        assert solves == [(1, 8), (1, 50)]


class FixedUniforms:
    """Stands in for a generator whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


class TestDrawSamples:
    @pytest.mark.parametrize("m", [8, 9, 10, 300, 3000])
    def test_rows_are_sorted_distinct_and_in_range(self, m):
        for rng in (np.random.default_rng(m), FixedUniforms(0.0), FixedUniforms(1 - 2**-53)):
            rows = geometry._draw_samples(rng, m, 1000)
            assert rows.shape == (1000, 8)
            assert (np.diff(rows, axis=1) > 0).all()
            assert rows.min() >= 0 and rows.max() < m

    def test_largest_uniform_picks_the_top_of_each_range(self):
        # floor(u * (j + 1)) = j at every step, so the row is m-8 .. m-1
        for m in (8, 20, 2**40):
            rows = geometry._draw_samples(FixedUniforms(1 - 2**-53), m, 1)
            assert rows.tolist() == [list(range(m - 8, m))]

    @pytest.mark.parametrize("m", [8, 12, 300])
    def test_rows_equal_one_draw_each(self, m):
        rows = geometry._draw_samples(np.random.default_rng(m), m, 50)
        rng = np.random.default_rng(m)
        for row in rows:
            assert row.tolist() == oracle_sample(rng.random(8), m).tolist()

    def test_every_subset_is_equally_likely(self):
        # 45 subsets of 8 from 10, 10,000 expected draws each: a standard
        # deviation of 99, so +-5% is five of them
        rows = geometry._draw_samples(np.random.default_rng(0), 10, 450_000)
        _, counts = np.unique((1 << rows).sum(axis=1), return_counts=True)
        assert len(counts) == 45
        assert np.abs(counts - 10_000).max() <= 500


class TestBruteForceMatch:
    def test_exact_duplicate_matches_at_zero_distance(self):
        a = descriptor_set([[1, 0, 0, 0]])
        b = descriptor_set([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        matches = brute_force_match(a, b, 0.7)
        assert [(m.idx_a, m.idx_b, m.dist) for m in matches] == [(0, 0, 0.0)]

    def test_ratio_boundary_is_strict(self):
        # d1 = 0.5, d2 = 1.0, both exact in float32: 0.5 < 0.5 * 1.0 is
        # false -> rejected
        a = descriptor_set([[0.0]])
        b = descriptor_set([[0.5], [1.0]])
        assert len(brute_force_match(a, b, 0.5)) == 0
        assert list(brute_force_match(a, b, 0.51)) == [geometry.Match(0, 0, 0.5)]

    def test_planted_correspondences_recovered(self, rng):
        planted = unit_rows(rng, 100, 40)
        noisy = planted + 0.05 * rng.standard_normal((100, 40))
        distractors_a = unit_rows(rng, 100, 40)
        distractors_b = unit_rows(rng, 100, 40)
        a = descriptor_set(np.vstack([planted, distractors_a]))
        b = descriptor_set(np.vstack([noisy, distractors_b]))
        matches = brute_force_match(a, b, 0.7)
        correct = sum(1 for m in matches if m.idx_a == m.idx_b and m.idx_a < 100)
        assert correct >= 95

    def test_small_candidate_set_yields_nothing(self):
        a = descriptor_set([[1, 0]])
        assert len(brute_force_match(a, descriptor_set([[1, 0]]), 0.7)) == 0
        assert len(brute_force_match(a, empty_set(1, 2), 0.7)) == 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            brute_force_match(descriptor_set([[1, 0]]), descriptor_set([[1, 0, 0]] * 2), 0.7)

    def test_each_query_feature_matches_at_most_once(self, rng):
        a = descriptor_set(unit_rows(rng, 30, 8))
        b = descriptor_set(unit_rows(rng, 50, 8))
        idx_a = brute_force_match(a, b, 0.95).idx_a
        assert len(idx_a) == len(set(idx_a.tolist()))

    def test_match_set_grows_with_epsilon(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            a = descriptor_set(unit_rows(r, 40, 16))
            b = descriptor_set(unit_rows(r, 40, 16))
            sets = [
                {(m.idx_a, m.idx_b) for m in brute_force_match(a, b, eps)}
                for eps in (0.6, 0.7, 0.8)
            ]
            assert sets[0] <= sets[1] <= sets[2]


class TestEpipolarError:
    def test_exact_correspondence_has_zero_error(self, rng):
        scene = EpipolarScene(rng)
        pa, pb = scene.correspondences(50)
        assert sampson_distance(scene.F, pa, pb).max() < 1e-9

    def test_gross_violation_is_large(self, rng):
        scene = EpipolarScene(rng)
        oa, ob = scene.outlier_pairs(50, min_sampson=6.0)
        errs = sampson_distance(scene.F, oa, ob)
        assert errs.min() >= 6.0

    def test_pixel_noise_gives_pixel_scale_error(self, rng):
        scene = EpipolarScene(rng)
        pa, pb = scene.correspondences(500)
        pb = pb + rng.normal(0.0, 1.0, pb.shape)
        med = float(np.median(sampson_distance(scene.F, pa, pb)))
        assert 0.1 < med < 3.0

    def test_degenerate_denominator_is_infinite(self):
        F = np.zeros((3, 3))
        F[2, 2] = 1.0  # both epipolar line gradients vanish everywhere
        errs = sampson_distance(F, np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
        assert errs.tolist() == [np.inf]


class TestInlierMasks:
    """RANSAC's inlier test, ``e^2 < PX_THRESH^2 |grad|^2`` from two GEMMs
    over per-match quadratic features, against the reference Sampson error."""

    @staticmethod
    def recorded_blocks(monkeypatch, duplicate):
        """Every matrix stack that one RANSAC call scores, with its masks,
        and the call's points.  Inlier fraction 0.3 keeps the budget at 500:
        blocks of one (the first hypothesis and the refit) and full blocks."""
        blocks = []
        masks_of = geometry._inlier_masks

        def recorded(F, Z, Q):
            masks = masks_of(F, Z, Q)
            blocks.append((F.copy(), masks))
            return masks

        monkeypatch.setattr(geometry, "_inlier_masks", recorded)
        a, b, matches = match_set(300, 0.3, 3, duplicate)
        ransac_fundamental(matches, a, b, 12, np.random.default_rng(3))
        monkeypatch.undo()
        sizes = [len(F) for F, _ in blocks]
        assert 1 in sizes and geometry._MAX_BLOCK in sizes
        return blocks, a.coords[matches.idx_a], b.coords[matches.idx_b]

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_block_masks_equal_sampson_distance(self, monkeypatch, duplicate):
        blocks, pa, pb = self.recorded_blocks(monkeypatch, duplicate)
        for F, masks in blocks:
            for f, mask in zip(F, masks):
                assert np.array_equal(mask, sampson_distance(f, pa, pb) < geometry.PX_THRESH)

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_scaled_hypotheses_score_the_same(self, monkeypatch, scale):
        # RANSAC scores the solver's matrices at whatever scale they come
        # out; the test is homogeneous in F, so a rescaled block scores the
        # same, and still equals the reference Sampson error
        blocks, pa, pb = self.recorded_blocks(monkeypatch, False)
        xa, xb = geometry._homogeneous(pa), geometry._homogeneous(pb)
        Z, Q = geometry._pair_features(xa, xb)
        for F, masks in blocks:
            scaled = geometry._inlier_masks(scale * F, Z, Q)
            assert np.array_equal(scaled, masks)
            for f, mask in zip(scale * F, scaled):
                assert np.array_equal(mask, sampson_distance(f, pa, pb) < geometry.PX_THRESH)

    def test_vanishing_gradient_is_an_outlier(self):
        # under `zero_at`, the match (2, 3) -> (5, 7) has F x_a = F^T x_b =
        # (0, 0, -30) exactly; under `nowhere`, every match's gradient is zero
        zero_at = np.array([[1.0, 0.0, -2.0], [0.0, 1.0, -3.0], [-5.0, -7.0, 1.0]])
        nowhere = np.diag([0.0, 0.0, 1.0])
        a, b, matches = match_set(60, 0.7, 2, False)
        pa = np.vstack([a.coords[matches.idx_a], [[2.0, 3.0]]])
        pb = np.vstack([b.coords[matches.idx_b], [[5.0, 7.0]]])
        samples = geometry._draw_samples(np.random.default_rng(0), 60, geometry._MAX_BLOCK - 2)
        F, _ = geometry._eight_point_stack(pa[samples], pb[samples])
        F = np.concatenate([F, [zero_at, nowhere]])
        Z, Q = geometry._pair_features(geometry._homogeneous(pa), geometry._homogeneous(pb))
        masks = geometry._inlier_masks(F, Z, Q)
        assert sampson_distance(zero_at, pa, pb)[-1] == np.inf
        assert (sampson_distance(nowhere, pa, pb) == np.inf).all()
        assert not masks[-2, -1] and not masks[-1].any()
        for f, mask in zip(F, masks):
            assert np.array_equal(mask, sampson_distance(f, pa, pb) < geometry.PX_THRESH)


class TestEightPoint:
    def test_recovers_planted_matrix_from_minimal_sample(self):
        for seed in range(20):
            scene = EpipolarScene(np.random.default_rng(seed))
            pa, pb = scene.correspondences(8)
            F = eight_point(pa, pb).m
            err = min(np.abs(F - scene.F).max(), np.abs(F + scene.F).max())
            assert err < 1e-6

    def test_overdetermined_fit_is_consistent(self, rng):
        scene = EpipolarScene(rng)
        pa, pb = scene.correspondences(20)
        F = eight_point(pa, pb)
        assert sampson_distance(F.m, pa, pb).max() < 1e-9
        ha = np.hstack([pa, np.ones((20, 1))])
        hb = np.hstack([pb, np.ones((20, 1))])
        algebraic = np.abs(np.einsum("ij,jk,ik->i", hb, F.m, ha))
        assert algebraic.max() < 1e-9

    def test_rank_two_enforced(self, rng):
        scene = EpipolarScene(rng)
        pa, pb = scene.correspondences(12)
        F = eight_point(pa, pb).m
        s = np.linalg.svd(F, compute_uv=False)
        assert s[2] < 1e-6 * s[0]
        assert abs(np.linalg.det(F)) < 1e-6
        assert np.linalg.norm(F) == pytest.approx(1.0, abs=1e-12)

    def test_identical_points_degenerate(self):
        pts = np.tile([10.0, 20.0], (8, 1))
        with pytest.raises(DegenerateGeometryError):
            eight_point(pts, pts)

    def test_rank_deficient_configuration_degenerate(self, rng):
        # all points on one line constrain at most 7 of the 9 unknowns
        t = np.linspace(0, 1, 8)
        pa = np.column_stack([100 + 50 * t, 200 + 30 * t])
        pb = np.column_stack([110 + 40 * t, 190 + 20 * t])
        with pytest.raises(DegenerateGeometryError):
            eight_point(pa, pb)

    def test_qr_null_vector_matches_svd(self):
        rng = np.random.default_rng(0)
        A = np.stack([
            oracle_design(rng.uniform(0, [1280, 960], (8, 2)), rng.uniform(0, [1280, 960], (8, 2)))[2]
            for _ in range(200)
        ])
        null, rank_deficient = geometry._null_vectors(A)
        assert not rank_deficient.any()
        svd_null = np.linalg.svd(A)[2][:, -1]
        cos = np.abs((null * svd_null).sum(axis=1))
        assert cos.min() >= 1 - 1e-12

    @pytest.mark.parametrize("n", [8, 9])
    def test_degenerate_samples_are_flagged(self, n):
        rng = np.random.default_rng(n)
        pa = rng.uniform(0, [1280, 960], (4, n, 2))
        pb = rng.uniform(0, [1280, 960], (4, n, 2))
        pa[1] = pa[1, 0]  # coincident in the first view
        t = np.linspace(0, 1, n)  # both views on a line: rank <= 3
        pa[2] = np.column_stack([100 + 50 * t, 200 + 30 * t])
        pb[2] = np.column_stack([110 + 40 * t, 190 + 20 * t])
        # four copies of one correspondence: n - 3 distinct rows, rank < 8
        pa[3, n - 3:] = pa[3, 0]
        pb[3, n - 3:] = pb[3, 0]
        _, valid = geometry._eight_point_stack(pa, pb)
        assert valid.tolist() == [True, False, False, False]
        for k in (1, 2, 3):
            with pytest.raises(DegenerateGeometryError):
                eight_point(pa[k], pb[k])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("view", [0, 1])
    def test_non_finite_point_rejected_without_warning(self, rng, bad, view):
        scene = EpipolarScene(rng)
        points = list(scene.correspondences(12))
        points[view][5, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite") as err:
                eight_point(*points)
        assert not isinstance(err.value, DegenerateGeometryError)

    def test_too_few_points_rejected(self, rng):
        scene = EpipolarScene(rng)
        pa, pb = scene.correspondences(7)
        with pytest.raises(ValueError, match="at least 8"):
            eight_point(pa, pb)

    def test_scale_equivariance(self, rng):
        # scaling coordinates by s transforms the constraint exactly:
        # x' = s x satisfies x2'^T F' x1' = 0 with F' ~ D F D,
        # D = diag(1/s, 1/s, 1); Hartley normalization makes the estimate
        # track this transform to machine precision
        scene = EpipolarScene(rng)
        pa, pb = scene.correspondences(30)
        F1 = eight_point(pa, pb).m
        for s in (0.01, 3.7, 250.0):
            F2 = eight_point(s * pa, s * pb).m
            D = np.diag([1 / s, 1 / s, 1.0])
            expected = D @ F1 @ D
            expected /= np.linalg.norm(expected)
            err = min(np.abs(F2 - expected).max(), np.abs(F2 + expected).max())
            assert err < 1e-6


class TestFundamentalMatrix:
    def test_canonical_form(self, rng):
        raw = rng.standard_normal((3, 3))
        canonical = FundamentalMatrix(raw).m
        unit = raw / np.linalg.norm(raw)
        assert canonical.tobytes() == (unit * np.sign(unit.flat[np.abs(unit).argmax()])).tobytes()
        assert np.linalg.norm(canonical) == pytest.approx(1.0, abs=1e-15)
        assert canonical.flat[np.abs(canonical).argmax()] > 0
        # any non-zero multiple, including ones whose squares would overflow
        # or underflow, has the same form
        for c in (-1.0, 2.5, -1e-3, 1e200, -1e-200):
            np.testing.assert_allclose(FundamentalMatrix(c * raw).m, canonical, atol=1e-15)

    @pytest.mark.parametrize("bad, message", [
        (np.eye(2), "3x3"),
        (np.ones(9), "3x3"),
        (np.zeros((3, 3)), "not all zero"),
        (np.diag([1.0, np.nan, 1.0]), "finite"),
        (np.diag([1.0, np.inf, 1.0]), "finite"),
        (np.diag([1.0, 2.0, -np.inf]), "finite"),
    ])
    def test_invalid_input_rejected(self, bad, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                FundamentalMatrix(bad)


class TestRansac:
    def test_winning_refit_is_returned_as_solved(self, monkeypatch):
        # a noiseless set: the refit on all 50 matches keeps every inlier,
        # so it wins, and RANSAC returns eight_point's object unchanged
        refits = []
        solve = geometry.eight_point

        def recorded(pa, pb):
            refits.append(solve(pa, pb))
            return refits[-1]

        monkeypatch.setattr(geometry, "eight_point", recorded)
        a, b, matches, _, _ = planted_matches(seed=0, n_matches=50, inlier_frac=1.0)
        result = ransac_fundamental(matches, a, b, 12, np.random.default_rng(1))
        assert result.inlier_count == 50 and len(refits) == 1
        assert result.matrix is refits[0]
        pa, pb = a.coords[matches.idx_a], b.coords[matches.idx_b]
        assert result.matrix.m.tobytes() == solve(pa, pb).m.tobytes()

    def test_noiseless_consensus_is_total(self):
        a, b, matches, mask, _ = planted_matches(seed=0, n_matches=50, inlier_frac=1.0)
        result = ransac_fundamental(matches, a, b, 12, np.random.default_rng(1))
        assert result is not None and result.inlier_count == 50

    def test_below_minimal_sample_fails(self):
        a, b, matches, _, _ = planted_matches(seed=1, n_matches=7, inlier_frac=1.0)
        assert ransac_fundamental(matches, a, b, 0, np.random.default_rng(1)) is None

    def test_unreachable_tau_fails(self):
        a, b, matches, _, _ = planted_matches(seed=2, n_matches=20, inlier_frac=1.0)
        assert ransac_fundamental(matches, a, b, 21, np.random.default_rng(1)) is None

    def test_robust_to_outliers(self):
        for seed in range(5):
            a, b, matches, mask, _ = planted_matches(
                seed=seed, n_matches=100, inlier_frac=0.7, sigma_px=1.0
            )
            result = ransac_fundamental(
                matches, a, b, 12, np.random.default_rng(seed), 500
            )
            found = np.zeros(100, dtype=bool)
            found[list(result.inlier_indices)] = True
            planted_found = (found & mask).sum() / mask.sum()
            contamination = (found & ~mask).sum() / found.sum()
            assert planted_found >= 0.95
            assert contamination <= 0.02

    def test_inliers_satisfy_threshold_under_returned_model(self):
        a, b, matches, _, _ = planted_matches(
            seed=7, n_matches=80, inlier_frac=0.8, sigma_px=1.0
        )
        result = ransac_fundamental(matches, a, b, 12, np.random.default_rng(3))
        pa = a.coords[matches.idx_a]
        pb = b.coords[matches.idx_b]
        errs = sampson_distance(result.matrix.m, pa, pb)
        assert (errs[list(result.inlier_indices)] < 3.0).all()

    def test_deterministic_given_seed(self):
        a, b, matches, _, _ = planted_matches(seed=4, n_matches=60, inlier_frac=0.7)
        r1 = ransac_fundamental(matches, a, b, 12, np.random.default_rng(11))
        r2 = ransac_fundamental(matches, a, b, 12, np.random.default_rng(11))
        assert r1.inlier_indices == r2.inlier_indices
        np.testing.assert_array_equal(r1.matrix.m, r2.matrix.m)

    def test_returned_matrix_is_rank_two(self):
        a, b, matches, _, _ = planted_matches(seed=5, n_matches=40, inlier_frac=0.9)
        result = ransac_fundamental(matches, a, b, 12, np.random.default_rng(2))
        s = np.linalg.svd(result.matrix.m, compute_uv=False)
        assert s[2] < 1e-6 * s[0]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=8, max_value=300), st.integers(min_value=0, max_value=2**32 - 1))
    @example(300, 0)  # inlier fraction so low that w**8 underflows 1 - w**8 to 1.0
    @example(300, 3)
    def test_any_match_set_returns_result_or_none(self, m, seed):
        rng = np.random.default_rng(seed)
        a = LocalFeatureSet(0, rng.uniform(0, [1280, 960], (m, 2)), np.ones(m), np.zeros((m, 4)))
        b = LocalFeatureSet(1, rng.uniform(0, [1280, 960], (m, 2)), np.ones(m), np.zeros((m, 4)))
        matches = Matches(np.arange(m), np.arange(m), np.zeros(m))
        result = ransac_fundamental(matches, a, b, 12, np.random.default_rng(seed))
        assert result is None or result.inlier_count >= 12

    @pytest.mark.parametrize("m, spread", [
        (20, (8, 9.0, 10)),
        (100, (9, 10.0, 14)),
        (300, (13, 14.0, 16)),
        (600, (17, 20.0, 24)),
    ])
    def test_chance_count_on_pure_outliers(self, m, spread):
        # the best inlier count that the 3 px threshold and the budget of 500
        # reach by chance when no fundamental matrix relates the matches:
        # min, median and max over seeds 0-19.  A tau below it accepts noise.
        from loopdet.evaluation import IMAGE_SIZE

        counts = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a, b = (LocalFeatureSet(k, rng.uniform(0, IMAGE_SIZE, (m, 2)), np.ones(m),
                                    np.zeros((m, 4))) for k in (0, 1))
            matches = Matches(np.arange(m), np.arange(m), np.zeros(m))
            counts.append(ransac_fundamental(matches, a, b, 0, rng).inlier_count)
        assert (min(counts), float(np.median(counts)), max(counts)) == spread
