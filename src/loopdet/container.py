"""Binary feature-container format (magic ``FFTC``), streaming reader/writer.

Layout, all little-endian, floats IEEE-754 binary32:

    header:   magic "FFTC", u32 version, u32 frame_count, u32 D, u32 d,
              f32 phi, f32 s_g, f32 s_l
    frame:    u64 frame_id, f32 global[D], u32 n_local,
              n_local x (f32 x, f32 y, f32 score, f32 desc[d])

Rejections carry a machine-readable ``category``: "format" for bad magic or
a header that :class:`ContainerHeader` rejects, "corruption" for truncation,
count mismatches or a frame that :class:`GlobalDescriptor` or
:class:`LocalFeatureSet` rejects, "order" for non-monotonic frame ids.
"""

from __future__ import annotations

import errno
import os
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .descriptors import GlobalDescriptor, LocalFeatureSet

MAGIC = b"FFTC"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIfff")
# the image scales the writer puts in every header, metadata only
S_G = 0.5
S_L = 1.4


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
    """Version 1, both dimensions at least 1.  The float fields hold their
    float32 values, and ``phi`` must be positive and finite as float32."""

    frame_count: int
    dim_global: int
    dim_local: int
    phi: float
    s_g: float
    s_l: float
    version: int = VERSION

    def __post_init__(self):
        if self.version != VERSION:
            raise ValueError(f"unsupported container version {self.version}")
        if self.dim_global < 1 or self.dim_local < 1:
            raise ValueError(f"descriptor dimensions must be positive, got "
                             f"D={self.dim_global} d={self.dim_local}")
        with np.errstate(over="ignore"):  # an overflow is inf
            if not 0 < np.float32(self.phi) < np.inf:
                raise ValueError(f"phi must be positive and finite as float32, got {self.phi}")
            for name in ("phi", "s_g", "s_l"):
                object.__setattr__(self, name, float(np.float32(getattr(self, name))))


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
    magic, version, *values = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    try:
        return ContainerHeader(*values, version=version)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def read_header(path) -> ContainerHeader:
    with open(path, "rb") as f:
        return _parse_header(f)


def read_features(path) -> Iterator[tuple[int, GlobalDescriptor, LocalFeatureSet]]:
    """Stream frames from a container in ascending frame-id order.

    Memory is bounded per frame.  The header is validated before the first
    frame is yielded; every structural defect raises a ContainerError
    subclass with the offending offset / frame index, as does a frame that
    :class:`GlobalDescriptor` or :class:`LocalFeatureSet` rejects.
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
            g = np.frombuffer(_read_exact(f, 4 * header.dim_global, k), dtype="<f4")
            try:
                g = GlobalDescriptor(frame_id, g.copy())
            except ValueError as exc:
                raise CorruptionError(str(exc), offset=f.tell(), frame_index=k) from exc
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
                locals_ = LocalFeatureSet(frame_id, block[:, 0:2].copy(), block[:, 2].copy(),
                                          block[:, 3:].copy())
            except ValueError as exc:
                raise CorruptionError(str(exc), offset=f.tell(), frame_index=k) from exc
            yield frame_id, g, locals_
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
    dim_global: int | None = None,
    dim_local: int | None = None,
) -> None:
    """Write a container in one pass, checking each frame just before its bytes.

    Frame types check their values as float32, so every frame that can be
    built is one the reader accepts; :class:`ContainerHeader` checks the
    header.  A rejected frame leaves no file at ``path`` (an existing one is
    kept).  The header's image scales are ``S_G`` and ``S_L``.  Dimensions
    come from the first frame, and must be given for an empty frame list.
    """
    frames = list(frames)
    if frames:
        dim_global = frames[0][1].dim if dim_global is None else dim_global
        dim_local = frames[0][2].dim if dim_local is None else dim_local
    elif dim_global is None or dim_local is None:
        raise ValueError("dim_global and dim_local are required for an empty container")
    h = ContainerHeader(len(frames), dim_global, dim_local, phi, S_G, S_L)

    with atomic_output(path) as f:
        f.write(_HEADER.pack(MAGIC, h.version, *astuple(h)[:-1]))
        prev_id = -1
        for frame_id, g, locals_ in frames:
            if frame_id <= prev_id:
                raise OrderError("frame ids must be non-negative and strictly ascending")
            prev_id = frame_id
            if (g.dim, locals_.dim) != (dim_global, dim_local):
                raise ValueError(f"frame {frame_id}: dimensions D={g.dim} d={locals_.dim}, "
                                 f"container D={dim_global} d={dim_local}")
            block = np.empty((len(locals_), 3 + dim_local), dtype="<f4")
            block[:, 0:2] = locals_.coords
            block[:, 2] = locals_.scores
            block[:, 3:] = locals_.descriptors
            f.write(struct.pack("<Q", frame_id))
            f.write(np.asarray(g.values, dtype="<f4").tobytes())
            f.write(struct.pack("<I", len(block)))
            f.write(block.tobytes())
