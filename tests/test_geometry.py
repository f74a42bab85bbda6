import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopdet import (
    DegenerateGeometryError,
    EpipolarScene,
    LocalFeatureSet,
    Match,
    brute_force_match,
    eight_point,
    ransac_fundamental,
    sampson_distance,
)
from conftest import planted_matches, unit_rows


def descriptor_set(descriptors, frame_id=0, coords=None):
    n = len(descriptors)
    coords = coords if coords is not None else np.zeros((n, 2))
    return LocalFeatureSet(frame_id, coords, np.ones(n), np.asarray(descriptors, dtype=float))


class TestBruteForceMatch:
    def test_exact_duplicate_matches_at_zero_distance(self):
        a = descriptor_set([[1, 0, 0, 0]])
        b = descriptor_set([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        matches = brute_force_match(a, b, 0.7)
        assert matches == [Match(0, 0, 0.0)]

    def test_ratio_boundary_is_strict(self):
        # d1 = 0.7, d2 = 1.0: 0.7 < 0.7 * 1.0 is false -> rejected
        a = descriptor_set([[0.0]])
        b = descriptor_set([[0.7], [1.0]])
        assert brute_force_match(a, b, 0.7) == []
        assert len(brute_force_match(a, b, 0.71)) == 1

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
        assert brute_force_match(a, descriptor_set([[1, 0]]), 0.7) == []
        assert brute_force_match(a, LocalFeatureSet.empty(1, 2), 0.7) == []

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            brute_force_match(descriptor_set([[1, 0]]), descriptor_set([[1, 0, 0]] * 2), 0.7)

    def test_each_query_feature_matches_at_most_once(self, rng):
        a = descriptor_set(unit_rows(rng, 30, 8))
        b = descriptor_set(unit_rows(rng, 50, 8))
        matches = brute_force_match(a, b, 0.95)
        idx_a = [m.idx_a for m in matches]
        assert len(idx_a) == len(set(idx_a))

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
        assert sampson_distance(F, pa, pb).max() < 1e-9
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


class TestRansac:
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
        pa = a.coords[[m.idx_a for m in matches]]
        pb = b.coords[[m.idx_b for m in matches]]
        errs = sampson_distance(result.matrix, pa, pb)
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
        matches = [Match(i, i, 0.0) for i in range(m)]
        result = ransac_fundamental(matches, a, b, 12, np.random.default_rng(seed))
        assert result is None or result.inlier_count >= 12
