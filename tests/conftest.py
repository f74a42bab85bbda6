import numpy as np
import pytest

from loopdet import EpipolarScene, LocalFeatureSet, Matches


def unit_rows(rng, n, dim):
    X = rng.standard_normal((n, dim))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def empty_set(frame_id, dim):
    """A frame's feature set with no features, float32 as the reader yields."""
    return LocalFeatureSet(
        frame_id,
        np.zeros((0, 2), dtype=np.float32),
        np.zeros(0, dtype=np.float32),
        np.zeros((0, dim), dtype=np.float32),
    )


def planted_matches(seed, n_matches=100, inlier_frac=0.7, sigma_px=0.0):
    """Labeled matches from a random two-view scene, match ``i`` pairing
    feature ``i`` of both sets.

    Inlier pairs are exact projections (plus ``sigma_px`` noise on the second
    view); outlier pairs are sampled at least 15 px away from the planted
    epipolar constraint so their labels stay meaningful even under a
    noise-tilted estimate.  Returns (set_a, set_b, matches, inlier_mask,
    true_F).
    """
    rng = np.random.default_rng(seed)
    scene = EpipolarScene(rng)
    n_inl = int(round(inlier_frac * n_matches))
    n_out = n_matches - n_inl
    pa, pb = scene.correspondences(n_inl)
    if sigma_px > 0:
        pb = pb + rng.normal(0.0, sigma_px, pb.shape)
    if n_out:
        oa, ob = scene.outlier_pairs(n_out, min_sampson=15.0)
        pa, pb = np.vstack([pa, oa]), np.vstack([pb, ob])
    dummy = np.zeros((n_matches, 4))
    set_a = LocalFeatureSet(0, pa, np.ones(n_matches), dummy)
    set_b = LocalFeatureSet(1, pb, np.ones(n_matches), dummy)
    matches = Matches(np.arange(n_matches), np.arange(n_matches), np.zeros(n_matches))
    mask = np.zeros(n_matches, dtype=bool)
    mask[:n_inl] = True
    return set_a, set_b, matches, mask, scene.F


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
