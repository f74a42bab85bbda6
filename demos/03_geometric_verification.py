"""Verification walkthrough: ratio-test matching, then RANSAC epipolar check.

A random two-view scene plants ground-truth correspondences and a known
fundamental matrix.  Descriptor matching recovers candidate pairs, the
ratio test discards ambiguous ones, and RANSAC separates geometric inliers
from planted outliers.
"""

import numpy as np

from loopdet import (
    EpipolarScene,
    LocalFeatureSet,
    brute_force_match,
    ransac_fundamental,
    sampson_distance,
)

rng = np.random.default_rng(3)
scene = EpipolarScene(rng)

# 70 true correspondences with 1 px keypoint noise, 30 unrelated pairs
n_inl, n_out, dim = 70, 30, 40
pa, pb = scene.correspondences(n_inl)
pb = pb + rng.normal(0.0, 1.0, pb.shape)
oa, ob = scene.outlier_pairs(n_out, min_sampson=15.0)

shared = rng.standard_normal((n_inl, dim))
shared /= np.linalg.norm(shared, axis=1, keepdims=True)
noisy = shared + 0.05 * rng.standard_normal(shared.shape)
noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
junk_a = rng.standard_normal((n_out, dim))
junk_a /= np.linalg.norm(junk_a, axis=1, keepdims=True)

view_a = LocalFeatureSet(0, np.vstack([pa, oa]), np.full(100, 50.0),
                         np.vstack([shared, junk_a]))
view_b = LocalFeatureSet(1, np.vstack([pb, ob]), np.full(100, 50.0),
                         np.vstack([noisy, junk_a]))  # outliers share descriptors too

# the matches come back as aligned index arrays, which RANSAC gathers with
matches = brute_force_match(view_a, view_b, epsilon=0.7)
same = matches.idx_a == matches.idx_b
true_pairs = int((same & (matches.idx_a < n_inl)).sum())
outlier_pairs = int((same & (matches.idx_a >= n_inl)).sum())
print(f"ratio test at 0.7: {len(matches)} matches "
      f"({true_pairs} planted, {outlier_pairs} planted outliers)")

result = ransac_fundamental(matches, view_a, view_b, tau=12,
                            rng=np.random.default_rng(9), max_iters=500)
inliers = list(result.inlier_indices)
mislabeled = int((matches.idx_a[inliers] >= n_inl).sum())
print(f"RANSAC consensus: {result.inlier_count} inliers ({mislabeled} mislabeled)")

err = np.abs(result.matrix.m - scene.F).max()
err = min(err, np.abs(result.matrix.m + scene.F).max())
print(f"estimated F vs planted F: max entry difference {err:.2e}")

errs = sampson_distance(result.matrix,
                        view_a.coords[matches.idx_a[inliers]],
                        view_b.coords[matches.idx_b[inliers]])
print(f"epipolar residuals of accepted matches: median {np.median(errs):.2f} px, "
      f"max {errs.max():.2f} px (gate 3.0 px)")
