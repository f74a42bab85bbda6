"""Candidate image-pair verification.

Brute-force descriptor matching with Lowe's distance-ratio check, the
normalized eight-point fundamental-matrix solver, Sampson epipolar error,
and a RANSAC consensus loop with adaptive early exit.  RANSAC solves its
hypotheses in blocks and scores a block's Sampson inlier test with two
GEMMs over per-match quadratic features, on hypotheses as solved; only
:class:`FundamentalMatrix` applies the canonical form.  All operations are
pure given an explicit random generator, so candidate pairs may be verified
in parallel with one generator stream each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .descriptors import LocalFeatureSet


class DegenerateGeometryError(ValueError):
    """The point configuration does not constrain a fundamental matrix."""


@dataclass(frozen=True)
class Match:
    """Best-match pair: feature ``idx_a`` in the query set, ``idx_b`` in the
    candidate set, and their Euclidean descriptor distance."""

    idx_a: int
    idx_b: int
    dist: float


@dataclass(frozen=True, eq=False)
class Matches:
    """Accepted matches of one set pair as three aligned 1-d arrays, in
    query order: ``idx_a[i]`` in the query set matches ``idx_b[i]`` in the
    candidate set at distance ``dist[i]``.  ``len`` is the match count and
    iterating yields :class:`Match` items."""

    idx_a: np.ndarray
    idx_b: np.ndarray
    dist: np.ndarray

    def __len__(self) -> int:
        return len(self.idx_a)

    def __iter__(self) -> Iterator[Match]:
        for i, j, d in zip(self.idx_a.tolist(), self.idx_b.tolist(), self.dist.tolist()):
            yield Match(i, j, d)


@dataclass(frozen=True, eq=False)
class FundamentalMatrix:
    """A 3x3 epipolar constraint matrix in canonical form, equal up to rounding
    for every non-zero multiple: ``F / np.linalg.norm(F)`` with its
    largest-magnitude entry positive.  Rejects a shape other than 3x3,
    non-finite entries and the zero matrix."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError(f"fundamental matrix must be 3x3, got {m.shape}")
        peak = float(np.abs(m).max())
        if not 0.0 < peak < math.inf:  # also for NaN
            raise ValueError("fundamental matrix must be finite and not all zero")
        if not 1e-150 < peak < 1e150:  # keep the squares in range
            m = m / peak
        f = m.reshape(9)  # sqrt(f . f) is the norm np.linalg.norm takes
        m = m / math.sqrt(f.dot(f))
        if m.flat[np.abs(m).argmax()] < 0:
            m = -m
        object.__setattr__(self, "m", m)


@dataclass(frozen=True, eq=False)
class VerificationResult:
    """Consensus outcome: estimated matrix and the surviving match indices."""

    matrix: FundamentalMatrix
    inlier_indices: tuple[int, ...]

    @property
    def inlier_count(self) -> int:
        return len(self.inlier_indices)


def brute_force_match(a: LocalFeatureSet, b: LocalFeatureSet, epsilon: float) -> Matches:
    """Exhaustive nearest-neighbor matching with a distance-ratio check.

    For every feature of ``a`` the two nearest descriptors of ``b`` are
    found by Euclidean distance; a match is emitted only if
    ``d1 < epsilon * d2`` (strict).  A tie for the nearest goes to the lowest
    index of ``b``, and its tied twin is then the second nearest, so the
    feature is rejected.  Matching is one-directional (best match per query
    feature).  Returns no matches when ``b`` has fewer than two features,
    since the ratio is then undefined.

    Distances are float32, the container's precision.  Each row ranks
    ``|b|^2 - 2 a.b``, one GEMM on the descriptors cast to float32 with the
    squared norms cached on each set, so a frame's norms are computed once
    however many candidates it meets.  ``|a|^2`` is added to the two picked
    values only, which are then clamped at zero: rounding can put a squared
    distance slightly below it, and a row whose two picks are both at or
    below zero is rejected as a tie.  ``dist`` is float32; the ratio is
    tested in float64, whatever the type of ``epsilon``.
    """
    if len(a) and len(b) and a.dim != b.dim:
        raise ValueError(f"descriptor dimension mismatch: {a.dim} vs {b.dim}")
    if len(a) == 0 or len(b) < 2:
        none = np.empty(0, np.intp)
        return Matches(none, none, np.empty(0, np.float32))
    # scaling by -2 is exact, so (-2A) B^T equals -2 (A B^T) bit for bit
    # (outside the subnormal range), and costs a pass over A instead of E
    A = np.multiply(a.descriptors, -2.0, dtype=np.float32)
    E = A @ np.asarray(b.descriptors, np.float32).T
    E += b._sq_norms
    # argmin keeps the first of tied minima; once it is masked, a second
    # argmin finds the second nearest (numpy's row argmin is faster than its
    # row min)
    rows = np.arange(len(E))
    first = E.argmin(axis=1)
    picked = np.empty((2, len(E)), np.float32)
    picked[0] = E[rows, first]
    E[rows, first] = np.inf
    picked[1] = E[rows, E.argmin(axis=1)]
    picked += a._sq_norms
    np.maximum(picked, 0.0, out=picked)
    np.sqrt(picked, out=picked)
    d1, dn2 = picked
    accepted = (d1 < np.multiply(dn2, epsilon, dtype=np.float64)).nonzero()[0]
    return Matches(accepted, first[accepted], d1[accepted])


def _homogeneous(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.float64)
    return np.hstack([pts, np.ones((pts.shape[0], 1))])


def sampson_distance(F: np.ndarray, points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Vectorized first-order epipolar error, in pixels, of a 3x3 array ``F``
    for (n, 2) point arrays (pass ``FundamentalMatrix.m`` for a model).

    The Sampson error ``|e| / |grad|`` of Hartley & Zisserman, *Multiple View
    Geometry*, section 11.4.3: ``e = x_b^T F x_a`` and ``|grad|^2`` the sum of
    the squares of the first two entries of ``F x_a`` and of ``F^T x_b``.
    Correspondences with an all-zero epipolar gradient get ``+inf``.  This is
    the reference definition: RANSAC's inlier masks equal
    ``sampson_distance(F, pa, pb) < PX_THRESH`` (see :func:`_inlier_masks`).
    """
    Fm = np.asarray(F, dtype=np.float64)
    xa = _homogeneous(np.atleast_2d(points_a))
    xb = _homogeneous(np.atleast_2d(points_b))
    la = xa @ Fm.T  # rows: F x1
    lb = xb @ Fm  # rows: F^T x2
    e = np.abs(np.einsum("ij,ij->i", la, xb))
    # the gradient norm: the four squares summed left to right, in place
    den = np.square(la[:, 0])
    den += np.square(la[:, 1])
    den += np.square(lb[:, 0])
    den += np.square(lb[:, 1])
    np.sqrt(den, out=den)
    return np.divide(e, den, out=np.full(den.shape, np.inf), where=den > 0.0)


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u[:, i] (x) v[:, i]`` for two ``(3, ...)`` point stacks, as ``(9, ...)``."""
    return (u[:, None] * v[None]).reshape(9, *u.shape[1:])


def _pair_features(xa: np.ndarray, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-match quadratic features of the inlier test, for ``(m, 3)``
    homogeneous point pairs: ``Z`` (9, m), column ``i`` holding
    ``x_b[i] (x) x_a[i]``, and ``Q`` (18, m), column ``i`` holding
    ``x_a[i] (x) x_a[i]`` over ``x_b[i] (x) x_b[i]``."""
    ta, tb = xa.T, xb.T
    return _outer(tb, ta), np.concatenate([_outer(ta, ta), _outer(tb, tb)])


def _inlier_masks(F: np.ndarray, Z: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Sampson inlier masks of a ``(K, 3, 3)`` matrix stack over the
    features of :func:`_pair_features`, as a ``(K, m)`` bool array.

    The test is ``e^2 < PX_THRESH^2 |grad|^2``, the Sampson error below
    ``PX_THRESH`` with both sides squared, so it needs no square root or
    division.  ``e = vec(F) . Z`` and ``|grad|^2 = [vec(Sa); vec(Sb)] . Q``,
    where ``Sa`` sums the outer products of F's first two rows and ``Sb``
    those of its first two columns: two GEMMs for the whole stack.  A match
    whose gradient is all zero fails it, as its ``+inf`` error does.

    The masks equal ``sampson_distance(F, pa, pb) < PX_THRESH``.  The two
    round differently, by about 1e-11 of the error on the benchmark's
    streams, so only a match that close to the threshold could land on the
    other side; of 63M (hypothesis, match) pairs scored on those streams
    none came within 1e-6 px of it.
    """
    K = len(F)
    e = F.reshape(K, 9) @ Z
    rows, cols = F[:, :2], F[:, :, :2]
    S = np.concatenate([rows.transpose(0, 2, 1) @ rows, cols @ cols.transpose(0, 2, 1)], axis=1)
    S *= PX_THRESH * PX_THRESH
    bound = S.reshape(K, 18) @ Q
    np.square(e, out=e)
    return e < bound


def _hartley_stack(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic normalization of each set of a ``(K, n, 2)`` stack: centroid
    to origin, mean distance to sqrt(2).

    Returns the ``(K, 3, 3)`` transforms and the normalized homogeneous
    points as a ``(3, K, n)`` stack.  A set whose points coincide is scaled
    by 1, so its fit is finite and fails the rank test of :func:`_null_vectors`.
    """
    centroid = pts.mean(axis=1)
    centered = pts - centroid[:, None, :]
    mean_dist = np.linalg.norm(centered, axis=2).mean(axis=1)
    s = math.sqrt(2.0) / np.where(mean_dist == 0.0, 1.0, mean_dist)
    T = np.zeros((pts.shape[0], 3, 3))
    T[:, 0, 0] = T[:, 1, 1] = s
    T[:, :2, 2] = -s[:, None] * centroid
    T[:, 2, 2] = 1.0
    h = np.ones((3,) + pts.shape[:2])
    h[:2] = (centered * s[:, None, None]).transpose(2, 0, 1)
    return T, h


def _null_vectors(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit null vectors of a ``(K, n, 9)`` stack of design matrices, n >= 8,
    and the ``(K,)`` mask of stacks with rank < 8.

    A minimal sample (n == 8) takes the last column of the complete QR of
    ``A^T``, which is orthogonal to its eight rows; the sample is rank
    deficient when ``min|diag R| <= 1e-10 max|diag R|`` or diag R is all
    zero.  Larger sets need the least-squares solution, the right singular
    vector of the smallest singular value, and are rank deficient when
    ``S[7] <= 1e-10 S[0]`` or ``S[0] == 0``.
    """
    if A.shape[1] == 8:
        Q, R = np.linalg.qr(A.transpose(0, 2, 1), mode="complete")
        d = np.abs(np.diagonal(R, axis1=1, axis2=2))
        top = d.max(axis=1)
        return Q[..., -1], (top == 0.0) | (d.min(axis=1) <= top * 1e-10)
    _, S, Vt = np.linalg.svd(A, full_matrices=False)
    return Vt[:, -1], (S[:, 0] == 0.0) | (S[:, 7] <= S[:, 0] * 1e-10)


def _eight_point_stack(pa: np.ndarray, pb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eight-point fits of a ``(K, n, 2)`` stack of point-set pairs, n >= 8.

    Returns the ``(K, 3, 3)`` rank-2 matrices, denormalized and unscaled, and
    the ``(K,)`` mask of valid fits: False (the matrix then meaningless) where
    the design matrix has rank < 8 by the tests of :func:`_null_vectors`.  Each
    step works per matrix, so a fit does not depend on the rest of the stack.
    """
    K = len(pa)
    T, h = _hartley_stack(np.concatenate([pa, pb]))
    # row i of a design matrix is x_b[i] (x) x_a[i] on the normalized points
    null, rank_deficient = _null_vectors(np.moveaxis(_outer(h[:, K:], h[:, :K]), 0, -1))
    U, s, Vt = np.linalg.svd(null.reshape(K, 3, 3))
    s[:, 2] = 0.0
    F = T[K:].transpose(0, 2, 1) @ ((U * s[:, None, :]) @ Vt) @ T[:K]
    return F, ~rank_deficient


def eight_point(points_a, points_b) -> FundamentalMatrix:
    """Normalized eight-point estimate of F with x_b^T F x_a = 0.

    Hartley-normalizes both point sets and solves the epipolar system: on
    exactly 8 correspondences for the null vector of the design matrix, by
    complete QR; on more, in the least-squares sense, by SVD.  Then enforces
    rank 2 by truncating the smallest singular value and denormalizes; the
    returned :class:`FundamentalMatrix` is in its canonical form.

    Raises ``ValueError`` for fewer than 8 correspondences or a non-finite
    coordinate, and :class:`DegenerateGeometryError` when the design matrix
    has rank < 8 (as when either point set coincides) by the tests of
    :func:`_null_vectors`.
    """
    pa = np.asarray(points_a, dtype=np.float64).reshape(-1, 2)
    pb = np.asarray(points_b, dtype=np.float64).reshape(-1, 2)
    if pa.shape != pb.shape:
        raise ValueError(f"point sets differ in shape: {pa.shape} vs {pb.shape}")
    n = pa.shape[0]
    if n < 8:
        raise ValueError(f"need at least 8 correspondences, got {n}")
    if not (np.isfinite(pa).all() and np.isfinite(pb).all()):
        raise ValueError("point coordinates must be finite")
    F, valid = _eight_point_stack(pa[None], pb[None])
    if not valid[0]:
        raise DegenerateGeometryError("degenerate point configuration (rank < 8)")
    return FundamentalMatrix(F[0])


# fixed RANSAC settings: Sampson inlier gate in pixels and the confidence of
# the adaptive iteration budget
PX_THRESH = 3.0
CONFIDENCE = 0.99
# RANSAC solves its first hypothesis alone, then blocks of up to this many;
# one block then holds the whole budget once a hypothesis reaches w = 0.7
# (78 hypotheses), and larger blocks gained nothing at the full budget of 500
_MAX_BLOCK = 80


def _draw_samples(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """``k`` uniform 8-subsets of ``range(m)``, m >= 8, one sorted row each,
    from one ``rng.random((k, 8))`` draw.

    Floyd's algorithm, run on all rows at once: at step ``s``, with
    ``j = m - 8 + s``, the row picks ``floor(u * (j + 1))`` unless it holds
    that value already, and ``j`` then.  Row ``i`` depends only on the
    ``i``-th eight uniforms, so ``k`` rows equal ``k`` one-row draws in turn.
    """
    # column s holds floor(u * (j + 1)) for j = m - 8 + s; u < 1 and
    # j + 1 < 2**53, so the product rounds below j + 1 and the floor is at most j
    picked = (rng.random((k, 8)) * np.arange(m - 7, m + 1)).astype(np.intp)
    for s in range(1, 8):
        taken = (picked[:, :s] == picked[:, s, None]).any(axis=1)
        picked[taken, s] = m - 8 + s
    picked.sort(axis=1)
    return picked


def _iterations_needed(inlier_fraction: float) -> int:
    p8 = inlier_fraction**8
    if p8 >= 1.0:
        return 1
    if p8 <= 0.0:
        return 1 << 30
    # log1p keeps the denominator non-zero when p8 is below float epsilon
    return int(math.ceil(math.log(1.0 - CONFIDENCE) / math.log1p(-p8)))


def ransac_fundamental(
    matches: Matches,
    a: LocalFeatureSet,
    b: LocalFeatureSet,
    tau: int,
    rng: np.random.Generator,
    max_iters: int = 500,
) -> VerificationResult | None:
    """RANSAC fundamental-matrix estimation over matched keypoints.

    The keypoint pairs are gathered from ``a.coords`` and ``b.coords`` with
    the index arrays of ``matches``, and ``inlier_indices`` are positions in
    ``matches``.  Repeatedly fits the eight-point model on 8 sampled
    matches, keeps the model with the most Sampson inliers below
    ``PX_THRESH`` pixels (the test of :func:`_inlier_masks`, whose masks
    equal ``sampson_distance(F, pa, pb) < PX_THRESH``), adapts the
    iteration budget (at most ``max_iters``) with the standard (1 - w^8)
    formula at ``CONFIDENCE``, and refits on the final consensus set (kept
    only if it does not lose inliers).  A degenerate sample still counts as
    an iteration, and only a strictly greater inlier count replaces the best.

    Hypothesis ``i`` is the sorted 8-subset that Floyd's algorithm maps
    the ``i``-th eight uniforms of ``rng`` to (:func:`_draw_samples`), and
    is solved by the eight-point QR null vector, flagged degenerate by its
    ``|diag R|`` test; the refit on more points keeps the SVD.  Hypotheses
    are drawn, solved and scored in blocks, the first hypothesis alone and
    then up to ``_MAX_BLOCK`` at a time but never past the current budget,
    and walked in draw order under those rules, so the result does not
    depend on the block sizes: it equals drawing and solving them one at a
    time.  The inlier test's per-match features are built once per call; the
    test is homogeneous in F, so hypotheses are scored unscaled and only the
    winner is put in canonical form (a winning refit is returned as
    :func:`eight_point` made it).  A call whose first hypothesis meets the
    budget solves just that one.  A block may draw samples that a budget
    lowered inside it leaves unused, so ``rng`` can end up further advanced.

    Returns ``None`` - failure, not a fault - when fewer than 8 matches are
    available or no model reaches ``tau`` inliers.
    """
    m = len(matches)
    if m < 8:
        return None
    pa = np.asarray(a.coords, dtype=np.float64)[matches.idx_a]
    pb = np.asarray(b.coords, dtype=np.float64)[matches.idx_b]
    Z, Q = _pair_features(_homogeneous(pa), _homogeneous(pb))

    best_F: np.ndarray | None = None
    best_mask: np.ndarray | None = None
    best_count = 0
    budget = max_iters
    i = 0
    block = 1
    while i < budget:
        samples = _draw_samples(rng, m, min(block, budget - i))
        block = _MAX_BLOCK
        Fs, valid = _eight_point_stack(pa[samples], pb[samples])
        masks = _inlier_masks(Fs, Z, Q)
        counts = masks.sum(axis=1)
        for j in range(len(samples)):
            i += 1
            if valid[j] and counts[j] > best_count:
                best_F, best_mask, best_count = Fs[j], masks[j], int(counts[j])
                budget = min(max_iters, _iterations_needed(best_count / m))
            if i >= budget:
                break
    if best_F is None:
        return None

    model = None  # the refit, once it wins
    if best_count >= 8:
        try:
            refit = eight_point(pa[best_mask], pb[best_mask])
        except DegenerateGeometryError:
            pass
        else:
            mask2 = _inlier_masks(refit.m[None], Z, Q)[0]
            if mask2.sum() >= best_count:
                model, best_mask, best_count = refit, mask2, int(mask2.sum())

    if best_count < tau:
        return None
    if model is None:
        model = FundamentalMatrix(best_F)
    return VerificationResult(model, tuple(np.nonzero(best_mask)[0].tolist()))
