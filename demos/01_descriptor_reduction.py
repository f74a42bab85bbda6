"""Local-descriptor reduction walkthrough: L2 normalize -> PCA -> L2 renormalize.

Raw local descriptors (1024-d here) are compressed to 40 dimensions so that
brute-force matching stays cheap.  The reduction chain normalizes first,
projects onto the top principal directions of the normalized population,
and renormalizes, which keeps Euclidean matching meaningful afterwards.
"""

import os
import tempfile

import numpy as np

from loopdet import (
    LocalFeatureSet,
    filter_by_score,
    fit_pca,
    load_pca_model,
    reduce_features,
    save_pca_model,
)

rng = np.random.default_rng(0)

# a synthetic descriptor population with decaying per-direction variance,
# standing in for CNN activations
raw_dim, out_dim, n = 1024, 40, 3000
spectrum = 1.0 / np.sqrt(1.0 + np.arange(raw_dim))
population = rng.standard_normal((n, raw_dim)) * spectrum

model = fit_pca(population, out_dim=out_dim)
print(f"fit PCA {raw_dim}-d -> {out_dim}-d on {n} samples")
print(f"  top-5 eigenvalues : {np.round(model.eigenvalues[:5], 5)}")
normalized = population / np.linalg.norm(population, axis=1, keepdims=True)
explained = model.eigenvalues.sum() / normalized.var(axis=0, ddof=1).sum()
print(f"  variance of the normalized population explained: {explained:.1%}")

# one frame's worth of local features: scores decide which survive ingestion
frame = LocalFeatureSet(
    frame_id=0,
    coords=rng.uniform(0, 1000, (200, 2)),
    scores=rng.gamma(2.0, 12.0, 200),  # long-tailed attention scores
    descriptors=rng.standard_normal((200, raw_dim)) * spectrum,
)
kept = filter_by_score(frame, delta=15.0)
print(f"\nattention filter at delta=15: {len(frame)} -> {len(kept)} features")

reduced = reduce_features(model, kept)
norms = np.linalg.norm(reduced.descriptors, axis=1)
print(f"reduced set: dim={reduced.dim}, norms in [{norms.min():.6f}, {norms.max():.6f}]")

# the model round-trips through its binary file format
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo_model.fpca")
    save_pca_model(path, model)
    loaded = load_pca_model(path)
drift = np.abs(loaded.basis - model.basis).max()
print(f"\nmodel file round trip: max basis drift {drift:.2e} (float32 storage)")
