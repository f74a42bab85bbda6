import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopdet import (
    DegenerateDescriptorError,
    LocalFeatureSet,
    PcaModel,
    filter_by_score,
    fit_pca,
    l2_normalize,
    load_pca_model,
    reduce_features,
    save_pca_model,
)
from conftest import empty_set


def feature_set(scores, dim=4, frame_id=0, rng=None):
    rng = rng or np.random.default_rng(0)
    n = len(scores)
    return LocalFeatureSet(
        frame_id,
        rng.uniform(0, 100, (n, 2)),
        np.asarray(scores, dtype=float),
        rng.standard_normal((n, dim)),
    )


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize([3, 4]), [0.6, 0.8])

    def test_already_unit(self):
        np.testing.assert_allclose(l2_normalize([1, 0, 0]), [1, 0, 0])

    def test_zero_vector_rejected(self):
        # and vectors with a NaN or an infinite entry, which would divide to NaNs
        for bad in ([0.0, 0.0], [math.nan, 1.0], [math.inf, 1.0]):
            with pytest.raises(DegenerateDescriptorError):
                l2_normalize(bad)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=32,
        ).filter(lambda v: any(x != 0 for x in v))
    )
    def test_idempotent(self, v):
        once = l2_normalize(v)
        np.testing.assert_allclose(l2_normalize(once), once, atol=1e-6)
        assert math.isclose(np.linalg.norm(once), 1.0, abs_tol=1e-6)


def eigh_oracle(samples, out_dim):
    """Independent covariance route: dense eigendecomposition, descending."""
    X = np.asarray(samples, dtype=np.float64)
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    cov = np.cov(X, rowvar=False, ddof=1)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:out_dim]
    return w[order], v[:, order]


class TestFitPca:
    def test_planted_two_dimensional_subspace(self, rng):
        basis2 = np.linalg.qr(rng.standard_normal((64, 2)))[0]
        samples = rng.standard_normal((1000, 2)) @ basis2.T
        model = fit_pca(samples, out_dim=6)
        w, _ = eigh_oracle(samples, 6)
        np.testing.assert_allclose(model.eigenvalues, np.maximum(w, 0.0), atol=1e-10)
        assert (model.eigenvalues[2:] <= 1e-8 * model.eigenvalues[0]).all()
        assert model.degenerate

    def test_matches_eigendecomposition_oracle(self, rng):
        samples = rng.standard_normal((200, 16))
        model = fit_pca(samples, out_dim=4)
        w, v = eigh_oracle(samples, 4)
        np.testing.assert_allclose(model.eigenvalues, w, atol=1e-10)
        # directions agree up to per-column sign
        dots = np.abs(np.sum(model.basis * v, axis=0))
        np.testing.assert_allclose(dots, 1.0, atol=1e-8)

    def test_projected_variance_is_maximal(self, rng):
        # empirical projected variance equals the oracle's top eigenvalue sum
        samples = rng.standard_normal((200, 16))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        model = fit_pca(samples, out_dim=4)
        Z = (samples - samples.mean(axis=0)) @ model.basis
        projected = Z.var(axis=0, ddof=1).sum()
        w, _ = eigh_oracle(samples, 4)
        assert abs(projected - w.sum()) < 1e-8

    def test_small_instance_matches_exhaustive_oracle(self, rng):
        # 50 random 8-d samples, 3 components: the eigendecomposition bound
        # is the maximum over all orthonormal 3-d projections
        samples = rng.standard_normal((50, 8))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        model = fit_pca(samples, out_dim=3)
        projected = ((samples - samples.mean(0)) @ model.basis).var(axis=0, ddof=1)
        w, _ = eigh_oracle(samples, 3)
        np.testing.assert_allclose(projected, w, atol=1e-8)

    def test_minimal_sample_count(self, rng):
        samples = rng.standard_normal((41, 60))
        model = fit_pca(samples, out_dim=40)
        assert model.out_dim == 40 and not model.degenerate
        w, _ = eigh_oracle(samples, 40)
        np.testing.assert_allclose(model.eigenvalues, w, atol=1e-10)

    def test_too_few_samples(self, rng):
        with pytest.raises(ValueError):
            fit_pca(rng.standard_normal((40, 16)), out_dim=40)

    def test_identical_samples_flagged_degenerate(self):
        samples = np.tile([1.0, 2.0, 2.0, 0.0], (10, 1))
        model = fit_pca(samples, out_dim=2)
        assert model.degenerate
        np.testing.assert_allclose(model.eigenvalues, 0.0)

    def test_basis_orthonormal(self, rng):
        for _ in range(3):
            model = fit_pca(rng.standard_normal((80, 24)), out_dim=8)
            gram = model.basis.T @ model.basis
            assert np.abs(gram - np.eye(8)).max() < 1e-5


def hadamard_pair(rows):
    """Two orthonormal columns with entries 0 and +-1/2, exact in float32: the
    first four of ``rows`` hold them, ``(1, 1, 1, 1)`` and ``(1, -1, 1, -1)``
    halved."""
    Q = np.zeros((len(rows), 2))
    Q[rows[:4]] = 0.5 * np.array([[1, 1], [1, -1], [1, 1], [1, -1]])
    return Q


def reduce_one(model, raw, x=1.0, y=2.0, score=3.0):
    """Reduce a single raw local descriptor through :func:`reduce_features`."""
    fs = LocalFeatureSet(7, [[x, y]], [score], np.asarray(raw, dtype=float)[None, :])
    return reduce_features(model, fs)


class TestReduceLocal:
    def make_model(self, rng, raw_dim=8, out_dim=2, n=64):
        samples = rng.standard_normal((n, raw_dim))
        return fit_pca(samples, out_dim=out_dim)

    def test_unit_norm_output_matches_matrix_oracle(self, rng):
        samples = np.random.default_rng(5).standard_normal((100, 1024))
        model = fit_pca(samples, out_dim=40)
        raw = rng.standard_normal(1024).astype(np.float32)  # as the set stores it
        out = reduce_one(model, raw)
        assert math.isclose(np.linalg.norm(out.descriptors[0]), 1.0, abs_tol=1e-6)
        # direct float64 matrix-multiply oracle, rounded to the stored float32
        v = raw.astype(np.float64)
        z = model.basis.T @ (v / np.linalg.norm(v) - model.mean)
        oracle = (z / np.linalg.norm(z)).astype(np.float32)
        np.testing.assert_array_equal(out.descriptors[0], oracle)
        assert out.frame_id == 7
        assert (*out.coords[0], out.scores[0]) == (1.0, 2.0, 3.0)

    def test_zero_projection_row_dropped(self, rng):
        # a unit-norm input whose centered form is orthogonal to the basis, all
        # exact in float32, so the projection is the origin itself: a fitted
        # basis would leave the stored float32 input ~1e-8 off the null space
        perm = rng.permutation(8)
        model = PcaModel(0.5 * np.eye(8)[perm[4]], hadamard_pair(perm), np.array([2.0, 1.0]))
        raw = np.eye(8)[perm[4]]
        good = rng.standard_normal(8)
        fs = LocalFeatureSet(0, [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [5.0, 6.0, 7.0],
                             np.stack([good, raw, np.zeros(8)]))
        out = reduce_features(model, fs)
        assert len(out) == 1 and out.dim == 2
        np.testing.assert_array_equal(out.coords, [[1.0, 1.0]])
        np.testing.assert_array_equal(out.scores, [5.0])
        np.testing.assert_array_equal(out.descriptors, reduce_one(model, good).descriptors)

    def test_principal_axis_maps_to_unit_basis_vector(self, rng):
        # model with a known eigenbasis, exact in float32: raw along the first
        # axis -> +-e1
        Q = hadamard_pair(rng.permutation(6))
        model = PcaModel(np.zeros(6), Q, np.array([2.0, 1.0]))
        out = reduce_one(model, 5.0 * Q[:, 0])
        np.testing.assert_array_equal(np.abs(out.descriptors[0]), [1.0, 0.0])

    def test_dimension_mismatch(self, rng):
        model = self.make_model(rng)
        with pytest.raises(ValueError):
            reduce_one(model, np.ones(5))

    def test_empty_set_is_projected_like_any_other(self, rng):
        # (0, out_dim) float32 out, as every reduced set; a dimension other
        # than the model's raw_dim is rejected, rows or not
        model = self.make_model(rng, raw_dim=8, out_dim=2)
        out = reduce_features(model, empty_set(3, 8))
        assert out.frame_id == 3 and len(out) == 0
        assert out.descriptors.shape == (0, 2) and out.descriptors.dtype == np.float32
        with pytest.raises(ValueError, match="raw_dim"):
            reduce_features(model, empty_set(3, 5))

    def test_reduce_features_matches_per_feature_path(self, rng):
        # each row is reduced independently of the others in its set
        model = self.make_model(rng, raw_dim=16, out_dim=4, n=80)
        fs = feature_set([1, 2, 3, 4, 5], dim=16, rng=rng)
        batch = reduce_features(model, fs)
        assert len(batch) == 5 and batch.dim == 4
        for i, (x, y) in enumerate(fs.coords):
            single = reduce_one(model, fs.descriptors[i], x, y, fs.scores[i])
            np.testing.assert_allclose(batch.descriptors[i], single.descriptors[0], atol=1e-9)
            np.testing.assert_array_equal(batch.coords[i], single.coords[0])


class TestFilterByScore:
    def test_strict_threshold(self):
        fs = feature_set([10, 15, 16])
        out = filter_by_score(fs, 15)
        assert len(out) == 1 and out.scores[0] == 16

    def test_zero_threshold_is_identity(self):
        fs = feature_set([1, 2, 3])
        out = filter_by_score(fs, 0)
        assert len(out) == 3
        np.testing.assert_array_equal(out.descriptors, fs.descriptors)

    def test_infinite_threshold_empties(self):
        out = filter_by_score(feature_set([1, 2, 3]), float("inf"))
        assert len(out) == 0

    @given(st.lists(st.floats(min_value=0, max_value=100), max_size=20), st.floats(0, 100))
    def test_output_is_subsequence(self, scores, delta):
        if not scores:
            return
        fs = feature_set(scores)
        out = filter_by_score(fs, delta)
        # the float32 scores as the set stores them, each compared as the filter
        # compares them, with delta rounded to float32
        kept = [i for i, s in enumerate(fs.scores) if s > delta]
        np.testing.assert_array_equal(out.scores, fs.scores[kept])
        np.testing.assert_array_equal(out.coords, fs.coords[kept])


class TestPcaModelFile:
    def test_round_trip(self, tmp_path, rng):
        model = fit_pca(rng.standard_normal((60, 12)), out_dim=5)
        path = tmp_path / "model.fpca"
        save_pca_model(path, model)
        loaded = load_pca_model(path)
        assert (loaded.raw_dim, loaded.out_dim) == (12, 5)
        np.testing.assert_allclose(loaded.mean, model.mean, atol=1e-6)
        np.testing.assert_allclose(loaded.basis, model.basis, atol=1e-6)
        np.testing.assert_allclose(loaded.eigenvalues, model.eigenvalues, atol=1e-6)
        gram = loaded.basis.T @ loaded.basis
        assert np.abs(gram - np.eye(5)).max() < 1e-5

    @pytest.mark.parametrize("raw_dim, out_dim", [(1, 1), (12, 5), (40, 40)])
    def test_file_is_header_arrays_and_a_zero_flag_byte(self, raw_dim, out_dim, tmp_path):
        path = tmp_path / "model.fpca"
        save_pca_model(path, PcaModel(np.zeros(raw_dim), np.eye(raw_dim)[:, :out_dim],
                                      np.ones(out_dim)))
        raw = path.read_bytes()
        assert len(raw) == 16 + 4 * (raw_dim + raw_dim * out_dim + out_dim) + 1
        assert raw[-1] == 0

    def test_zero_components_rejected(self, tmp_path):
        # such a model drops every local feature; fit_pca never makes one,
        # but a file can declare one
        with pytest.raises(ValueError, match="out_dim >= 1"):
            PcaModel(np.zeros(4), np.zeros((4, 0)), np.zeros(0))
        path = tmp_path / "empty.fpca"
        path.write_bytes(b"FPCA" + struct.pack("<III", 1, 4, 0) + bytes(4 * 4 + 1))
        with pytest.raises(ValueError, match="out_dim >= 1"):
            load_pca_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fpca"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            load_pca_model(path)

    def test_truncated(self, tmp_path, rng):
        model = fit_pca(rng.standard_normal((30, 6)), out_dim=2)
        path = tmp_path / "model.fpca"
        save_pca_model(path, model)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_pca_model(path)


class TestInvariants:
    def test_model_shape_validation(self):
        with pytest.raises(ValueError):
            PcaModel(np.zeros(4), np.zeros((4, 2)), np.array([1.0, 2.0]))  # increasing eig

    def test_feature_set_rejects_negative_scores(self):
        with pytest.raises(ValueError):
            feature_set([-1.0])
        # and non-finite entries, which would otherwise fail deep inside RANSAC
        good = feature_set([1.0, 2.0])
        for name, at in (("coords", (0, 1)), ("scores", 1), ("descriptors", (1, 2))):
            arrays = {k: getattr(good, k).copy() for k in ("coords", "scores", "descriptors")}
            arrays[name][at] = math.inf if name == "scores" else math.nan
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                LocalFeatureSet(0, **arrays)

    def test_malformed_empty_set_rejected(self):
        # an empty set still needs (0, 2) coords and (0, d) descriptors
        for coords, descriptors in (([], np.zeros((0, 4))), (np.zeros((0, 3)), np.zeros((0, 4))),
                                    (np.zeros((0, 2)), [])):
            with pytest.raises(ValueError):
                LocalFeatureSet(0, coords, [], descriptors)
        assert LocalFeatureSet(0, np.zeros((0, 2)), [], np.zeros((0, 4))).dim == 4

    def test_feature_set_is_frozen(self):
        # matching caches the squared descriptor norms on the set
        fs = feature_set([1.0, 2.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            fs.descriptors = np.zeros((2, 4))
