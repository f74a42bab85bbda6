"""Binary feature-container format (magic ``FFTC``), streaming reader/writer.

Layout, all little-endian, floats IEEE-754 binary32:

    header:   magic "FFTC", u32 version, u32 frame_count, u32 D, u32 d,
              f32 phi, f32 s_g, f32 s_l
    frame:    u64 frame_id, f32 global[D], u32 n_local,
              n_local x (f32 x, f32 y, f32 score, f32 desc[d])

Rejections carry a machine-readable ``category``: "format" for bad
magic/version/header values, "corruption" for truncation, count mismatches,
a non-finite or all-zero global descriptor, or local features that
:class:`LocalFeatureSet` rejects, "order" for non-monotonic frame ids.
"""

from __future__ import annotations

import errno
import os
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .descriptors import GlobalDescriptor, LocalFeatureSet

MAGIC = b"FFTC"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIfff")


class ContainerError(Exception):
    """Base class for feature-container rejections."""

    category = "container"


class FormatError(ContainerError):
    category = "format"


class CorruptionError(ContainerError):
    category = "corruption"

    def __init__(self, message: str, offset: int | None = None, frame_index: int | None = None):
        where = []
        if frame_index is not None:
            where.append(f"frame {frame_index}")
        if offset is not None:
            where.append(f"byte offset {offset}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.offset = offset
        self.frame_index = frame_index


class OrderError(ContainerError):
    category = "order"


@dataclass(frozen=True)
class ContainerHeader:
    frame_count: int
    dim_global: int
    dim_local: int
    phi: float
    s_g: float
    s_l: float
    version: int = VERSION


def _read_exact(f: BinaryIO, n: int, frame_index: int | None = None) -> bytes:
    offset = f.tell()
    data = f.read(n)
    if len(data) != n:
        raise CorruptionError("truncated payload", offset=offset, frame_index=frame_index)
    return data


def _parse_header(f: BinaryIO) -> ContainerHeader:
    raw = f.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise FormatError("file too short for a container header")
    magic, version, count, dim_g, dim_l, phi, s_g, s_l = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if dim_g < 1 or dim_l < 1:
        raise FormatError(f"descriptor dimensions must be positive, got D={dim_g} d={dim_l}")
    if not np.isfinite(phi) or phi <= 0:
        raise FormatError(f"frame rate must be positive and finite, got {phi}")
    return ContainerHeader(count, dim_g, dim_l, float(phi), float(s_g), float(s_l))


def read_header(path) -> ContainerHeader:
    with open(path, "rb") as f:
        return _parse_header(f)


def read_features(path) -> Iterator[tuple[int, GlobalDescriptor, LocalFeatureSet]]:
    """Stream frames from a container in ascending frame-id order.

    Memory is bounded per frame.  The header is validated before the first
    frame is yielded; every structural defect raises a ContainerError
    subclass with the offending offset / frame index.  A local block is
    checked by :class:`LocalFeatureSet` alone; its rejections are corruption.
    """
    with open(path, "rb") as f:
        header = _parse_header(f)
        file_size = os.fstat(f.fileno()).st_size
        record = 4 * (3 + header.dim_local)
        prev_id: int | None = None
        for k in range(header.frame_count):
            (frame_id,) = struct.unpack("<Q", _read_exact(f, 8, k))
            if prev_id is not None and frame_id <= prev_id:
                raise OrderError(
                    f"frame ids not strictly ascending: {frame_id} after {prev_id}"
                )
            prev_id = frame_id
            g = np.frombuffer(
                _read_exact(f, 4 * header.dim_global, k), dtype="<f4"
            ).copy()
            if not np.isfinite(g).all():
                raise CorruptionError(
                    "non-finite global descriptor", offset=f.tell(), frame_index=k
                )
            if not g.any():
                raise CorruptionError("zero global descriptor", offset=f.tell(), frame_index=k)
            (n_local,) = struct.unpack("<I", _read_exact(f, 4, k))
            if n_local * record > file_size - f.tell():
                raise CorruptionError(
                    f"local feature count {n_local} exceeds remaining payload",
                    offset=f.tell(),
                    frame_index=k,
                )
            block = np.frombuffer(
                _read_exact(f, n_local * record, k), dtype="<f4"
            ).reshape(n_local, 3 + header.dim_local)
            try:
                locals_ = LocalFeatureSet(
                    frame_id, block[:, 0:2].copy(), block[:, 2].copy(), block[:, 3:].copy()
                )
            except ValueError as exc:
                raise CorruptionError(
                    f"invalid local features: {exc}", offset=f.tell(), frame_index=k
                ) from exc
            yield frame_id, GlobalDescriptor(frame_id, g), locals_
        if f.read(1):
            raise CorruptionError(
                "trailing bytes after declared frame count", offset=f.tell() - 1
            )


@contextmanager
def atomic_output(path, mode: str = "wb"):
    """Write to a same-directory temp file, renamed over ``path`` on success;
    a ``path`` that names a directory is refused before anything is written.
    A temp file that cannot be made is reported under ``path``."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_features(
    path,
    frames: Sequence[tuple[int, GlobalDescriptor, LocalFeatureSet]] | Iterable,
    *,
    phi: float,
    s_g: float = 0.5,
    s_l: float = 1.4,
    dim_global: int | None = None,
    dim_local: int | None = None,
) -> None:
    """Write a container in one pass, checking each frame just before its bytes.

    A rejected frame raises and leaves no file at ``path`` (an existing one
    is kept).  ``s_g`` / ``s_l`` are the feature-extraction image scales,
    carried as metadata only.  Dimensions are inferred from the first frame
    unless the frame list is empty, in which case they must be given explicitly.
    """
    frames = list(frames)
    if frames:
        dim_global = frames[0][1].dim if dim_global is None else dim_global
        dim_local = frames[0][2].dim if dim_local is None else dim_local
    elif dim_global is None or dim_local is None:
        raise ValueError("dim_global and dim_local are required for an empty container")
    if dim_global < 1 or dim_local < 1:  # the reader rejects such a header
        raise ValueError(
            f"descriptor dimensions must be positive, got dim_global={dim_global} "
            f"dim_local={dim_local}"
        )
    if phi <= 0 or not np.isfinite(phi):
        raise ValueError(f"phi must be positive and finite, got {phi}")

    with atomic_output(path) as f:
        f.write(_HEADER.pack(MAGIC, VERSION, len(frames), dim_global, dim_local, phi, s_g, s_l))
        prev_id = -1
        for frame_id, g, locals_ in frames:
            if frame_id <= prev_id:
                raise OrderError("frame ids must be non-negative and strictly ascending")
            prev_id = frame_id
            if g.dim != dim_global:
                raise ValueError(f"frame {frame_id}: global dimension {g.dim} != {dim_global}")
            if locals_.dim != dim_local:
                raise ValueError(f"frame {frame_id}: local dimension {locals_.dim} != {dim_local}")
            # checked as stored, so the reader accepts every frame written
            stored = np.asarray(g.values, dtype="<f4")
            if not np.isfinite(stored).all():
                raise ValueError(f"frame {frame_id}: non-finite global descriptor")
            if not stored.any():
                raise ValueError(f"frame {frame_id}: zero global descriptor")
            block = np.empty((len(locals_), 3 + dim_local), dtype="<f4")
            block[:, 0:2] = locals_.coords
            block[:, 2] = locals_.scores
            block[:, 3:] = locals_.descriptors
            if not np.isfinite(block).all():
                raise ValueError(f"frame {frame_id}: non-finite local features")
            f.write(struct.pack("<Q", frame_id))
            f.write(stored.tobytes())
            f.write(struct.pack("<I", len(block)))
            f.write(block.tobytes())
