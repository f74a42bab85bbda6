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

matches = brute_force_match(view_a, view_b, epsilon=0.7)
true_pairs = sum(1 for m in matches if m.idx_a == m.idx_b and m.idx_a < n_inl)
outlier_pairs = sum(1 for m in matches if m.idx_a == m.idx_b and m.idx_a >= n_inl)
print(f"ratio test at 0.7: {len(matches)} matches "
      f"({true_pairs} planted, {outlier_pairs} planted outliers)")

result = ransac_fundamental(matches, view_a, view_b, tau=12,
                            rng=np.random.default_rng(9), max_iters=500)
inliers = set(result.inlier_indices)
labels = ["inlier" if matches[i].idx_a < n_inl else "OUTLIER" for i in inliers]
print(f"RANSAC consensus: {result.inlier_count} inliers "
      f"({labels.count('OUTLIER')} mislabeled)")

err = np.abs(result.matrix.m - scene.F).max()
err = min(err, np.abs(result.matrix.m + scene.F).max())
print(f"estimated F vs planted F: max entry difference {err:.2e}")

kept = [m for i, m in enumerate(matches) if i in inliers]
errs = sampson_distance(result.matrix,
                        view_a.coords[[m.idx_a for m in kept]],
                        view_b.coords[[m.idx_b for m in kept]])
print(f"epipolar residuals of accepted matches: median {np.median(errs):.2f} px, "
      f"max {errs.max():.2f} px (gate 3.0 px)")
