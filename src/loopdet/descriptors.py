"""Descriptor containers, normalization, attention-score filtering and PCA reduction.

Global descriptors are single fixed-length vectors used for retrieval; local
features carry keypoint coordinates, an attention score and a compact
descriptor used for spatial verification.  Local descriptors follow the
L2-normalize -> PCA project -> L2-renormalize reduction chain.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

DEFAULT_REDUCED_DIM = 40

PCA_MAGIC = b"FPCA"
PCA_VERSION = 1


class DegenerateDescriptorError(ValueError):
    """A descriptor or projection collapsed to the zero vector, or a
    descriptor holds a NaN or an infinite entry."""


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale ``v`` to unit Euclidean norm, preserving direction.

    Raises :class:`DegenerateDescriptorError` on the zero vector and on any
    non-finite entry.  Pre-scales by the largest magnitude so subnormal
    inputs do not underflow to zero.
    """
    v = np.asarray(v, dtype=np.float64)
    peak = float(np.abs(v).max()) if v.size else 0.0
    if peak == 0.0:
        raise DegenerateDescriptorError("cannot normalize zero vector")
    if not np.isfinite(peak):  # max propagates NaN, and inf is the max if present
        raise DegenerateDescriptorError("cannot normalize a non-finite vector")
    w = v / peak
    return w / float(np.linalg.norm(w))


@dataclass(frozen=True, eq=False)
class GlobalDescriptor:
    """Per-frame retrieval vector, stored as a read-only float32 copy (the
    container's precision); one that is not finite, or is all zero, as
    float32 raises :class:`DegenerateDescriptorError`."""

    frame_id: int
    values: np.ndarray

    def __post_init__(self):
        if self.frame_id < 0:
            raise ValueError(f"frame_id must be non-negative, got {self.frame_id}")
        with np.errstate(over="ignore"):  # an overflow is inf
            values = np.array(self.values, dtype=np.float32)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("descriptor values must be a non-empty 1-d vector")
        if not np.isfinite(values).all():
            raise DegenerateDescriptorError("non-finite global descriptor")
        if not values.any():
            raise DegenerateDescriptorError("zero global descriptor")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class LocalFeatureSet:
    """Ordered local features of one frame, stored column-wise for speed.

    ``coords`` is (n, 2), ``scores`` is (n,), ``descriptors`` is (n, d), all
    stored as float32, the container's and matching's precision.  Coords and
    scores are finite, scores non-negative, and descriptor entries at most
    ``2**62 / sqrt(d)`` in magnitude, so norms are at most 2**62 (4.6e18) and
    matching cannot overflow.  The largest entry is zero or at least
    ``2**-60``, so its square stays above float32's smallest normal number
    (``2**-126``) and matching keeps its precision.  The set is frozen because
    it caches the squared descriptor norms, so ``descriptors`` must not be
    written in place either.
    """

    frame_id: int
    coords: np.ndarray
    scores: np.ndarray
    descriptors: np.ndarray

    def __post_init__(self):
        if self.frame_id < 0:
            raise ValueError(f"frame_id must be non-negative, got {self.frame_id}")
        with np.errstate(over="ignore"):  # an overflow is inf
            coords = np.atleast_2d(np.asarray(self.coords, dtype=np.float32))
            scores = np.asarray(self.scores, dtype=np.float32).reshape(-1)
            descriptors = np.atleast_2d(np.asarray(self.descriptors, dtype=np.float32))
        n = scores.shape[0]
        if coords.shape != (n, 2):
            raise ValueError(f"coords must have shape ({n}, 2), got {coords.shape}")
        if descriptors.shape[0] != n:
            raise ValueError(
                f"descriptor count {descriptors.shape[0]} does not match {n} features"
            )
        for name, arr in (("coords", coords), ("scores", scores)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite as float32")
            object.__setattr__(self, name, arr)
        if (scores < 0).any():
            raise ValueError("attention scores must be non-negative")
        # norms of at most 2**62 keep |a|^2 - 2 a.b + |b|^2 below 2**126
        peak = float(np.abs(descriptors).max(initial=0.0))
        if not descriptors.shape[1] * peak**2 <= 2.0**124:  # also for NaN
            raise ValueError("descriptors must be finite, entries at most 2**62 / sqrt(d)")
        if 0.0 < peak < 2.0**-60:
            raise ValueError(f"largest descriptor entry {peak:.3g} is below 2**-60; "
                             "matching would lose precision")
        object.__setattr__(self, "descriptors", descriptors)

    @functools.cached_property
    def _sq_norms(self) -> np.ndarray:
        """Float32 squared descriptor norms, computed on first use.  A frame's
        set is matched against its candidates and later stored as one, so
        this runs once per frame."""
        D = self.descriptors
        return (D * D).sum(axis=1)

    @property
    def dim(self) -> int:
        return self.descriptors.shape[1]

    def __len__(self) -> int:
        return self.scores.shape[0]


def filter_by_score(fs: LocalFeatureSet, delta: float) -> LocalFeatureSet:
    """Keep features whose attention score is strictly greater than ``delta``.

    Order is preserved; ties at exactly ``delta`` are dropped.  The float32
    scores are compared with ``delta`` rounded to float32.
    """
    mask = fs.scores > delta
    return LocalFeatureSet(fs.frame_id, fs.coords[mask], fs.scores[mask], fs.descriptors[mask])


@dataclass(frozen=True, eq=False)
class PcaModel:
    """The chain's PCA step: centered projection onto orthonormal components.

    ``basis`` is (raw_dim, out_dim) with orthonormal columns sorted by
    decreasing explained variance; ``eigenvalues`` holds the matching sample
    variances (non-negative, non-increasing), which do not scale the
    projection.  All values are finite.  A model is ``degenerate`` (a
    rank-deficient fit) when a trailing component is an arbitrary
    orthonormal completion with zero variance.
    """

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        basis = np.asarray(self.basis, dtype=np.float64)
        eig = np.asarray(self.eigenvalues, dtype=np.float64)
        if basis.ndim != 2 or mean.shape != (basis.shape[0],) or eig.shape != (basis.shape[1],):
            raise ValueError("inconsistent PCA model shapes")
        if basis.shape[1] < 1:
            raise ValueError("a PCA model needs out_dim >= 1, got 0")
        if not all(np.isfinite(a).all() for a in (mean, basis, eig)):
            raise ValueError("PCA model mean, basis and eigenvalues must be finite")
        if (eig < 0).any() or (np.diff(eig) > 1e-12).any():
            raise ValueError("eigenvalues must be non-negative and non-increasing")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "eigenvalues", eig)

    @property
    def raw_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def out_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def degenerate(self) -> bool:
        return bool((self.eigenvalues <= 0).any())


def fit_pca(samples, out_dim: int = DEFAULT_REDUCED_DIM) -> PcaModel:
    """Fit the PCA step of the reduction chain on raw local descriptors.

    Samples are L2-normalized (a no-op for already unit-norm rows),
    centered, and decomposed; the returned basis spans the top ``out_dim``
    principal directions of the sample covariance (1/(n-1) normalization).
    A rank-deficient covariance yields a model padded with an orthonormal
    completion with zero variance, so it is ``degenerate``.

    Raises ``ValueError`` unless the sample count exceeds ``out_dim``.
    """
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("samples must be a 2-d array (n_samples, raw_dim)")
    n, d = X.shape
    if out_dim < 1 or out_dim > d:
        raise ValueError(f"out_dim must be in [1, {d}], got {out_dim}")
    if n <= out_dim:
        raise ValueError(f"need more than {out_dim} samples, got {n}")

    norms = np.linalg.norm(X, axis=1)
    if (norms == 0.0).any():
        raise DegenerateDescriptorError("samples contain a zero descriptor")
    X = X / norms[:, None]

    mean = X.mean(axis=0)
    Xc = X - mean
    # full_matrices=False still yields min(n, d) >= out_dim right-singular rows
    _, S, Vt = np.linalg.svd(Xc, full_matrices=False)
    # rows are unit vectors, so singular values below the eps floor are noise
    tol = max(n, d) * np.finfo(np.float64).eps * max(S[0], 1.0)
    eigenvalues = (S[:out_dim] ** 2) / (n - 1)
    eigenvalues[S[:out_dim] <= tol] = 0.0
    return PcaModel(mean, Vt[:out_dim].T, eigenvalues)


# projections of unit-norm inputs have O(1) coordinates; anything this small
# is numerically indistinguishable from the origin
_ZERO_PROJECTION = 1e-12


def reduce_features(model: PcaModel, fs: LocalFeatureSet) -> LocalFeatureSet:
    """Reduce every local descriptor of a set by the chain: L2 norm, PCA step, L2 renorm.

    The reduction runs in float64; the returned set stores it as float32,
    as every set does.  Rows whose raw descriptor is zero or whose
    projection lands on the origin (norm at most 1e-12) are dropped together
    with their coordinates and scores.
    """
    X = np.asarray(fs.descriptors, dtype=np.float64)
    if X.shape[1] != model.raw_dim:
        raise ValueError(
            f"descriptor dimension {X.shape[1]} does not match model raw_dim {model.raw_dim}"
        )
    norms = np.linalg.norm(X, axis=1)
    keep = norms > 0.0
    Z = np.zeros((X.shape[0], model.out_dim))
    Z[keep] = (X[keep] / norms[keep, None] - model.mean) @ model.basis
    z_norms = np.linalg.norm(Z, axis=1)
    keep &= z_norms > _ZERO_PROJECTION
    out = Z[keep] / z_norms[keep, None]
    return LocalFeatureSet(fs.frame_id, fs.coords[keep], fs.scores[keep], out)


def save_pca_model(path, model: PcaModel) -> None:
    """Write a model as little-endian binary: FPCA header, mean, basis, eigenvalues, u8 0.

    :class:`PcaModel` checks the float32 arrays to be written, so a model they
    cannot hold (inf from an overflow) raises ``ValueError`` and writes nothing;
    nor does a failed write, which keeps an existing file."""
    from .container import atomic_output  # container imports this module
    with np.errstate(over="ignore"):
        stored = [np.asarray(a, "<f4") for a in (model.mean, model.basis, model.eigenvalues)]
    PcaModel(*stored)
    with atomic_output(path) as f:
        f.write(PCA_MAGIC)
        f.write(struct.pack("<III", PCA_VERSION, model.raw_dim, model.out_dim))
        for a in stored:  # the basis row-major (raw_dim, out_dim)
            f.write(a.tobytes())
        f.write(struct.pack("<B", 0))  # the flag byte, which load_pca_model requires be 0


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise ValueError(f"truncated PCA model file while reading {what}")
    return data


def load_pca_model(path) -> PcaModel:
    """Read a model written by :func:`save_pca_model`; validates magic,
    version and the zero flag byte, and checks the payload size that the
    header's dimensions imply against the file's size before reading it."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != PCA_MAGIC:
            raise ValueError(f"bad PCA model magic {magic!r}")
        version, raw_dim, out_dim = struct.unpack("<III", _read_exact(f, 12, "header"))
        if version != PCA_VERSION:
            raise ValueError(f"unsupported PCA model version {version}")
        # the payload the header implies, checked before any read allocates it
        payload = 4 * (raw_dim + raw_dim * out_dim + out_dim) + 1
        remaining = os.fstat(f.fileno()).st_size - f.tell()
        if payload > remaining:
            raise ValueError(
                f"truncated PCA model file: dimensions {raw_dim} x {out_dim} need "
                f"{payload} payload bytes, {remaining} remain"
            )
        mean = np.frombuffer(_read_exact(f, 4 * raw_dim, "mean"), dtype="<f4")
        basis = np.frombuffer(
            _read_exact(f, 4 * raw_dim * out_dim, "basis"), dtype="<f4"
        ).reshape(raw_dim, out_dim)
        eig = np.frombuffer(_read_exact(f, 4 * out_dim, "eigenvalues"), dtype="<f4")
        (flag,) = struct.unpack("<B", _read_exact(f, 1, "flag byte"))
        if flag != 0:
            raise ValueError(f"PCA model flag byte is {flag}: a whitened model is not supported")
        if f.read(1):
            raise ValueError("trailing bytes after PCA model payload")
    return PcaModel(mean, basis, eig)
