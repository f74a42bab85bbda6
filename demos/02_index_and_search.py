"""Incremental graph index walkthrough: insert online, search approximately.

Frames are inserted one by one, exactly as they would arrive from a camera,
and the index stays searchable the whole time.  Recall is measured against
an exact linear scan, sweeping the search beam width ef.
"""

import time

import numpy as np

from loopdet import HnswIndex, HnswParams, exact_knn, mean_recall

rng = np.random.default_rng(7)
dim, n, n_queries, k = 64, 4000, 200, 10

data = rng.standard_normal((n, dim))
data /= np.linalg.norm(data, axis=1, keepdims=True)
queries = rng.standard_normal((n_queries, dim))
queries /= np.linalg.norm(queries, axis=1, keepdims=True)

params = HnswParams(M=48, ef_construction=40, ef_search=40, rng_seed=42)
index = HnswIndex(dim, params)

t0 = time.perf_counter()
for frame_id, vector in enumerate(data):
    index.insert(frame_id, vector)
build = time.perf_counter() - t0
print(f"inserted {n} descriptors in {build:.1f}s ({build / n * 1e3:.2f} ms each)")

truth = exact_knn(data, queries, k)
print(f"\n{'ef':>5} {'recall@10':>10} {'ms/query':>9}")
for ef in (10, 20, 40, 80, 160):
    t0 = time.perf_counter()
    found = [[nb.frame_id for nb in index.knn_search(q, k, ef=ef)] for q in queries]
    ms = (time.perf_counter() - t0) / n_queries * 1e3
    print(f"{ef:>5} {mean_recall(found, truth):>10.4f} {ms:>9.3f}")

# a search for a stored vector comes back first with similarity 1
hit = index.knn_search(data[1234], 3, ef=50)[0]
print(f"\nself-query: frame {hit.frame_id}, similarity {hit.similarity:.6f}")
