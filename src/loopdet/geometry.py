"""Candidate image-pair verification.

Brute-force descriptor matching with Lowe's distance-ratio check, the
normalized eight-point fundamental-matrix solver, Sampson epipolar error,
and a RANSAC consensus loop with adaptive early exit.  All operations are
pure given an explicit random generator, so candidate pairs may be verified
in parallel with one generator stream each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
class FundamentalMatrix:
    """Rank-2, Frobenius-normalized 3x3 epipolar constraint matrix."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError(f"fundamental matrix must be 3x3, got {m.shape}")
        object.__setattr__(self, "m", m)


@dataclass(frozen=True, eq=False)
class VerificationResult:
    """Consensus outcome: estimated matrix and the surviving match indices."""

    matrix: FundamentalMatrix
    inlier_indices: tuple[int, ...]

    @property
    def inlier_count(self) -> int:
        return len(self.inlier_indices)


def brute_force_match(a: LocalFeatureSet, b: LocalFeatureSet, epsilon: float) -> list[Match]:
    """Exhaustive nearest-neighbor matching with a distance-ratio check.

    For every feature of ``a`` the two nearest descriptors of ``b`` are
    found by Euclidean distance; a match is emitted only if
    ``d1 < epsilon * d2`` (strict).  Matching is one-directional (best match
    per query feature).  Returns an empty list when ``b`` has fewer than two
    features, since the ratio is then undefined.
    """
    if len(a) and len(b) and a.dim != b.dim:
        raise ValueError(f"descriptor dimension mismatch: {a.dim} vs {b.dim}")
    if len(a) == 0 or len(b) < 2:
        return []
    A = np.asarray(a.descriptors, dtype=np.float64)
    B = np.asarray(b.descriptors, dtype=np.float64)
    d2 = (
        (A * A).sum(axis=1)[:, None]
        + (B * B).sum(axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    np.maximum(d2, 0.0, out=d2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :2]
    rows = np.arange(A.shape[0])
    d1 = np.sqrt(d2[rows, order[:, 0]])
    dn2 = np.sqrt(d2[rows, order[:, 1]])
    accepted = d1 < epsilon * dn2
    return [
        Match(int(i), int(order[i, 0]), float(d1[i]))
        for i in np.nonzero(accepted)[0]
    ]


def _homogeneous(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.float64)
    return np.hstack([pts, np.ones((pts.shape[0], 1))])


def sampson_distance(F, points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Vectorized first-order epipolar error, in pixels, for (n, 2) point arrays.

    Correspondences with an all-zero epipolar gradient get ``+inf``.
    """
    Fm = F.m if isinstance(F, FundamentalMatrix) else np.asarray(F, dtype=np.float64)
    xa = _homogeneous(np.atleast_2d(points_a))
    xb = _homogeneous(np.atleast_2d(points_b))
    la = xa @ Fm.T  # rows: F x1
    lb = xb @ Fm  # rows: F^T x2
    e = np.einsum("ij,ij->i", xb, la)
    den = la[:, 0] ** 2 + la[:, 1] ** 2 + lb[:, 0] ** 2 + lb[:, 1] ** 2
    out = np.full(xa.shape[0], np.inf)
    ok = den > 0.0
    out[ok] = np.abs(e[ok]) / np.sqrt(den[ok])
    return out


def _hartley_transform(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic normalization: centroid to origin, mean distance to sqrt(2)."""
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    mean_dist = float(np.linalg.norm(centered, axis=1).mean())
    if mean_dist == 0.0:
        raise DegenerateGeometryError("all points coincide")
    s = math.sqrt(2.0) / mean_dist
    T = np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )
    return T, centered * s


def eight_point(points_a, points_b) -> FundamentalMatrix:
    """Normalized eight-point estimate of F with x_b^T F x_a = 0.

    Hartley-normalizes both point sets, solves the epipolar system in the
    least-squares sense, enforces rank 2 by truncating the smallest singular
    value, denormalizes, and scales to unit Frobenius norm with a canonical
    sign (largest-magnitude entry positive).

    Raises ``ValueError`` for fewer than 8 correspondences and
    :class:`DegenerateGeometryError` when the design matrix has rank < 8.
    """
    pa = np.asarray(points_a, dtype=np.float64).reshape(-1, 2)
    pb = np.asarray(points_b, dtype=np.float64).reshape(-1, 2)
    if pa.shape != pb.shape:
        raise ValueError(f"point sets differ in shape: {pa.shape} vs {pb.shape}")
    n = pa.shape[0]
    if n < 8:
        raise ValueError(f"need at least 8 correspondences, got {n}")
    Ta, na = _hartley_transform(pa)
    Tb, nb = _hartley_transform(pb)

    x1, y1 = na[:, 0], na[:, 1]
    x2, y2 = nb[:, 0], nb[:, 1]
    A = np.column_stack(
        [x2 * x1, x2 * y1, x2, y2 * x1, y2 * y1, y2, x1, y1, np.ones(n)]
    )
    _, S, Vt = np.linalg.svd(A)
    if S[0] == 0.0 or S[7] <= S[0] * 1e-10:
        raise DegenerateGeometryError("degenerate point configuration (rank < 8)")
    F = Vt[-1].reshape(3, 3)

    U, s, Vt2 = np.linalg.svd(F)
    s[2] = 0.0
    F = (U * s) @ Vt2
    F = Tb.T @ F @ Ta
    F /= np.linalg.norm(F)
    if F.flat[np.abs(F).argmax()] < 0:
        F = -F
    return FundamentalMatrix(F)


# fixed RANSAC settings: Sampson inlier gate in pixels and the confidence of
# the adaptive iteration budget
PX_THRESH = 3.0
CONFIDENCE = 0.99


def _iterations_needed(inlier_fraction: float) -> int:
    p8 = inlier_fraction**8
    if p8 >= 1.0:
        return 1
    if p8 <= 0.0:
        return 1 << 30
    # log1p keeps the denominator non-zero when p8 is below float epsilon
    return int(math.ceil(math.log(1.0 - CONFIDENCE) / math.log1p(-p8)))


def ransac_fundamental(
    matches: list[Match],
    a: LocalFeatureSet,
    b: LocalFeatureSet,
    tau: int,
    rng: np.random.Generator,
    max_iters: int = 500,
) -> VerificationResult | None:
    """RANSAC fundamental-matrix estimation over matched keypoints.

    Repeatedly fits :func:`eight_point` on 8 sampled matches, keeps the model
    with the most Sampson inliers below ``PX_THRESH`` pixels, adapts the
    iteration budget (at most ``max_iters``) with the standard (1 - w^8)
    formula at ``CONFIDENCE``, and refits on the final consensus set (kept
    only if it does not lose inliers).

    Returns ``None`` - failure, not a fault - when fewer than 8 matches are
    available or no model reaches ``tau`` inliers.
    """
    m = len(matches)
    if m < 8:
        return None
    pa = np.asarray(a.coords, dtype=np.float64)[[mt.idx_a for mt in matches]]
    pb = np.asarray(b.coords, dtype=np.float64)[[mt.idx_b for mt in matches]]

    best_F: FundamentalMatrix | None = None
    best_mask: np.ndarray | None = None
    best_count = 0
    budget = max_iters
    i = 0
    while i < budget:
        i += 1
        sample = rng.choice(m, size=8, replace=False)
        try:
            F = eight_point(pa[sample], pb[sample])
        except DegenerateGeometryError:
            continue
        mask = sampson_distance(F.m, pa, pb) < PX_THRESH
        count = int(mask.sum())
        if count > best_count:
            best_F, best_mask, best_count = F, mask, count
            budget = min(max_iters, _iterations_needed(count / m))
    if best_F is None:
        return None

    if best_count >= 8:
        try:
            F2 = eight_point(pa[best_mask], pb[best_mask])
        except DegenerateGeometryError:
            pass
        else:
            mask2 = sampson_distance(F2.m, pa, pb) < PX_THRESH
            count2 = int(mask2.sum())
            if count2 >= best_count:
                best_F, best_mask, best_count = F2, mask2, count2

    if best_count < tau:
        return None
    return VerificationResult(best_F, tuple(np.nonzero(best_mask)[0].tolist()))
