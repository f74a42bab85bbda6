import struct

import numpy as np
import pytest

from loopdet import (
    CorruptionError,
    FormatError,
    GlobalDescriptor,
    LocalFeatureSet,
    OrderError,
    read_features,
    read_header,
    write_features,
)
from conftest import empty_set, unit_rows


def make_frames(rng, count=5, dim_global=8, dim_local=4, n_local=3):
    frames = []
    for i in range(count):
        locals_ = LocalFeatureSet(
            i,
            rng.uniform(0, 100, (n_local, 2)).astype(np.float32),
            rng.uniform(1, 50, n_local).astype(np.float32),
            unit_rows(rng, n_local, dim_local).astype(np.float32),
        )
        frames.append((i, GlobalDescriptor(i, unit_rows(rng, 1, dim_global)[0].astype(np.float32)), locals_))
    return frames


def write_sample(path, rng, **kw):
    frames = make_frames(rng, **kw)
    write_features(path, frames, phi=10.0)
    return frames


class TestRoundTrip:
    def test_bit_identical_payload(self, tmp_path, rng):
        path = tmp_path / "f.fftc"
        frames = write_sample(path, rng)
        loaded = list(read_features(path))
        assert [f[0] for f in loaded] == [f[0] for f in frames]
        for (i, g, ls), (i2, g2, ls2) in zip(frames, loaded):
            np.testing.assert_array_equal(g.values, g2.values)
            np.testing.assert_array_equal(ls.coords, ls2.coords)
            np.testing.assert_array_equal(ls.scores, ls2.scores)
            np.testing.assert_array_equal(ls.descriptors, ls2.descriptors)

    def test_header_metadata(self, tmp_path, rng):
        path = tmp_path / "f.fftc"
        write_features(path, make_frames(rng), phi=15.0, s_g=0.5, s_l=1.4)
        header = read_header(path)
        assert header.frame_count == 5
        assert (header.dim_global, header.dim_local) == (8, 4)
        assert header.phi == pytest.approx(15.0)
        assert (header.s_g, header.s_l) == (pytest.approx(0.5), pytest.approx(1.4))

    def test_empty_container(self, tmp_path):
        path = tmp_path / "empty.fftc"
        write_features(path, [], phi=10.0, dim_global=4, dim_local=2)
        assert read_header(path).frame_count == 0
        assert list(read_features(path)) == []
        assert path.stat().st_size == 32  # header only

    def test_frames_without_local_features(self, tmp_path, rng):
        path = tmp_path / "f.fftc"
        frames = [(0, GlobalDescriptor(0, np.ones(4, dtype=np.float32)),
                   empty_set(0, 2))]
        write_features(path, frames, phi=10.0)
        (fid, g, ls), = read_features(path)
        assert fid == 0 and len(ls) == 0
        for name in ("coords", "scores", "descriptors"):
            want = getattr(frames[0][2], name)
            assert (getattr(ls, name).dtype, getattr(ls, name).shape) == (want.dtype, want.shape)

    def test_exact_byte_size(self, tmp_path, rng):
        # header 32 + id 8 + 4 global f32 + count 4 + 2 * (3 + 3) f32
        path = tmp_path / "f.fftc"
        frames = make_frames(rng, count=1, dim_global=4, dim_local=3, n_local=2)
        write_features(path, frames, phi=10.0)
        assert path.stat().st_size == 32 + 8 + 16 + 4 + 2 * 6 * 4


class TestWriterValidation:
    def test_descending_ids_rejected_before_write(self, tmp_path, rng):
        path = tmp_path / "f.fftc"
        frames = make_frames(rng, count=2)
        frames = [(2, frames[0][1], frames[0][2]), (1, frames[1][1], frames[1][2])]
        with pytest.raises(OrderError):
            write_features(path, frames, phi=10.0)
        assert not path.exists()

    def test_non_finite_rejected(self, tmp_path, rng):
        path = tmp_path / "f.fftc"
        bad = GlobalDescriptor(0, np.array([1.0, np.nan], dtype=np.float32))
        with pytest.raises(ValueError, match="finite"):
            write_features(path, [(0, bad, empty_set(0, 2))], phi=10.0)
        assert not path.exists()

    def test_float32_overflow_rejected(self, tmp_path):
        path = tmp_path / "f.fftc"
        big = GlobalDescriptor(0, np.array([1e39, 1.0]))
        with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="finite"):
            write_features(path, [(0, big, empty_set(0, 2))], phi=10.0)
        assert not path.exists()

    def test_float32_overflow_of_local_features_rejected(self, tmp_path):
        # a keypoint coordinate that the float32 record stores as inf
        path = tmp_path / "f.fftc"
        g = GlobalDescriptor(0, np.ones(4, dtype=np.float32))
        locals_ = LocalFeatureSet(0, [[1e39, 1.0]], [1.0], [[1.0, 0.0]])
        with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="non-finite local"):
            write_features(path, [(0, g, locals_)], phi=10.0)
        assert list(tmp_path.iterdir()) == []

    def test_zero_global_rejected(self, tmp_path):
        path = tmp_path / "f.fftc"
        zero = GlobalDescriptor(0, np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError, match="zero global"):
            write_features(path, [(0, zero, empty_set(0, 2))], phi=10.0)
        assert not path.exists()

    def test_rejected_frame_mid_stream_leaves_no_file(self, tmp_path, rng):
        # frames are checked as they are written; the partial file is removed
        path = tmp_path / "f.fftc"
        frames = make_frames(rng, count=5)
        zero = GlobalDescriptor(3, np.zeros(8, dtype=np.float32))
        for bad, error in (
            ((3, zero, frames[3][2]), ValueError),
            ((3, frames[3][1], empty_set(3, 5)), ValueError),  # empty, but 5-d
            ((1, frames[3][1], frames[3][2]), OrderError),
        ):
            with pytest.raises(error):
                write_features(path, frames[:3] + [bad] + frames[4:], phi=10.0)
            assert list(tmp_path.iterdir()) == []

    def test_empty_needs_explicit_dims(self, tmp_path):
        with pytest.raises(ValueError):
            write_features(tmp_path / "f.fftc", [], phi=10.0)

    def test_non_positive_dims_rejected_before_write(self, tmp_path):
        # the reader rejects a header with a zero dimension, so the writer must too
        path = tmp_path / "f.fftc"
        g = GlobalDescriptor(0, np.ones(4, dtype=np.float32))
        for frames, dims in (
            ([], dict(dim_global=0, dim_local=3)),
            ([], dict(dim_global=4, dim_local=0)),
            ([(0, g, empty_set(0, 0))], {}),
        ):
            with pytest.raises(ValueError, match="dimensions must be positive"):
                write_features(path, frames, phi=10.0, **dims)
            assert not path.exists()

    def test_bad_phi_rejected(self, tmp_path, rng):
        with pytest.raises(ValueError, match="phi"):
            write_features(tmp_path / "f.fftc", make_frames(rng), phi=0.0)


class TestReaderRejections:
    def test_bad_magic(self, tmp_path, rng):
        path = tmp_path / "f.fftc"
        write_sample(path, rng)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            list(read_features(path))
        assert err.value.category == "format"

    def test_bad_version(self, tmp_path, rng):
        path = tmp_path / "f.fftc"
        write_sample(path, rng)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            list(read_features(path))

    def test_truncated_mid_record_names_frame(self, tmp_path, rng):
        path = tmp_path / "f.fftc"
        write_sample(path, rng)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CorruptionError) as err:
            list(read_features(path))
        assert err.value.category == "corruption"
        assert err.value.frame_index == 4
        assert err.value.offset is not None
        assert "frame 4" in str(err.value)

    def test_short_header(self, tmp_path):
        path = tmp_path / "f.fftc"
        path.write_bytes(b"FFTC\x01")
        with pytest.raises(FormatError, match="short"):
            read_header(path)

    def test_count_mismatch_too_many_declared(self, tmp_path, rng):
        path = tmp_path / "f.fftc"
        write_sample(path, rng, count=3)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 4)  # claim one more frame than present
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError):
            list(read_features(path))

    def test_count_mismatch_trailing_data(self, tmp_path, rng):
        path = tmp_path / "f.fftc"
        write_sample(path, rng, count=3)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 2)  # declare fewer frames than present
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError, match="trailing"):
            list(read_features(path))

    def test_local_count_bomb(self, tmp_path, rng):
        path = tmp_path / "f.fftc"
        write_sample(path, rng, count=1, dim_global=4)
        raw = bytearray(path.read_bytes())
        offset = 32 + 8 + 16  # header + id + global
        raw[offset : offset + 4] = struct.pack("<I", 2**31)
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError, match="count"):
            list(read_features(path))

    def test_non_monotonic_ids(self, tmp_path, rng):
        path = tmp_path / "f.fftc"
        write_sample(path, rng, count=2, dim_global=4, dim_local=2, n_local=1)
        raw = bytearray(path.read_bytes())
        record = 8 + 16 + 4 + 1 * (3 + 2) * 4
        second = 32 + record
        raw[second : second + 8] = struct.pack("<Q", 0)  # same id as frame 0
        path.write_bytes(bytes(raw))
        with pytest.raises(OrderError) as err:
            list(read_features(path))
        assert err.value.category == "order"

    def test_non_finite_descriptor(self, tmp_path, rng):
        path = tmp_path / "f.fftc"
        write_sample(path, rng, count=1, dim_global=4)
        raw = bytearray(path.read_bytes())
        raw[40:44] = struct.pack("<f", float("nan"))  # first global component
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError, match="finite"):
            list(read_features(path))

    def test_zero_global_descriptor_names_frame(self, tmp_path, rng):
        path = tmp_path / "f.fftc"
        write_sample(path, rng, count=30, dim_global=8, dim_local=4, n_local=3)
        raw = bytearray(path.read_bytes())
        record = 8 + 8 * 4 + 4 + 3 * (3 + 4) * 4
        start = 32 + 25 * record + 8  # frame 25's global descriptor
        raw[start : start + 8 * 4] = bytes(8 * 4)
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError, match="zero global") as err:
            list(read_features(path))
        assert err.value.category == "corruption"
        assert err.value.frame_index == 25
        assert err.value.offset == start + 8 * 4
        assert "frame 25" in str(err.value)

    @pytest.mark.parametrize("frame, column, value", [
        (1, 0, float("nan")),  # frame 1's first keypoint x
        (2, 2, -1.0),  # frame 2's first attention score
    ])
    def test_local_payload_rejected_by_the_feature_set(self, frame, column, value, tmp_path,
                                                       rng):
        path = tmp_path / "f.fftc"
        write_sample(path, rng, count=3, dim_global=4, dim_local=2, n_local=2)
        raw = bytearray(path.read_bytes())
        record = 8 + 4 * 4 + 4 + 2 * (3 + 2) * 4
        block = 32 + frame * record + 8 + 4 * 4 + 4  # the frame's first local feature
        raw[block + 4 * column : block + 4 * column + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError) as err:
            list(read_features(path))
        assert err.value.category == "corruption"
        assert err.value.frame_index == frame
        assert err.value.offset == 32 + (frame + 1) * record

    def test_zero_dimension_header(self, tmp_path, rng):
        path = tmp_path / "f.fftc"
        write_sample(path, rng)
        raw = bytearray(path.read_bytes())
        raw[12:16] = struct.pack("<I", 0)  # D = 0
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="dimension"):
            read_header(path)
