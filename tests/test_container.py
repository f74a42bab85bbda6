import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopdet import (
    CorruptionError,
    DegenerateDescriptorError,
    FormatError,
    GlobalDescriptor,
    LocalFeatureSet,
    OrderError,
    PcaModel,
    load_pca_model,
    read_features,
    read_header,
    save_pca_model,
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
        write_features(path, make_frames(rng), phi=15.0)
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

    def test_non_finite_rejected(self):
        # by the type, so no such frame reaches the writer
        for bad in (np.nan, np.inf):
            with pytest.raises(DegenerateDescriptorError, match="non-finite global"):
                GlobalDescriptor(0, np.array([1.0, bad], dtype=np.float32))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float32_overflow_rejected(self):
        # finite in float64, inf as the container's float32
        with pytest.raises(DegenerateDescriptorError, match="non-finite global"):
            GlobalDescriptor(0, np.array([1e39, 1.0]))
        largest = float(np.finfo(np.float32).max)
        assert GlobalDescriptor(0, np.array([largest, 1.0])).dim == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float32_overflow_of_local_features_rejected(self):
        # a keypoint coordinate or score that the float32 record would store as inf
        for coords, score, name in (([[1e39, 1.0]], 1.0, "coords"), ([[1.0, 1.0]], 1e39, "scores")):
            with pytest.raises(ValueError, match=f"{name} must be finite as float32"):
                LocalFeatureSet(0, coords, [score], [[1.0, 0.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_global_rejected(self):
        # by the type, also where float32 underflows a vector to zero
        for zero in (np.zeros(4, dtype=np.float32), np.array([1e-300, 0.0])):
            with pytest.raises(DegenerateDescriptorError, match="zero global"):
                GlobalDescriptor(0, zero)
        assert GlobalDescriptor(0, np.array([1e-45, 0.0])).dim == 2  # a float32 subnormal

    def test_rejected_frame_mid_stream_leaves_no_file(self, tmp_path, rng):
        # frames are checked as they are written; the partial file is removed
        path = tmp_path / "f.fftc"
        frames = make_frames(rng, count=5)
        for bad, error in (
            ((3, frames[3][1], empty_set(3, 5)), ValueError),  # empty, but 5-d
            ((3, GlobalDescriptor(3, np.ones(7)), frames[3][2]), ValueError),
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_phi_rejected(self, tmp_path, rng):
        # phi is checked as float32: 1e-50 stores as 0 and 1e39 as inf
        for phi in (0.0, -1.0, math.nan, math.inf, 1e-50, 1e39):
            with pytest.raises(ValueError, match="phi must be positive and finite"):
                write_features(tmp_path / "f.fftc", make_frames(rng), phi=phi)
            assert list(tmp_path.iterdir()) == []


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


# float64 magnitudes from below float32's smallest subnormal to past its
# largest finite value, and the largest descriptor entry allowed at d = 1,
# 2**62, with its float32 neighbours (the upper one fails the bound)
MAGNITUDES = [0.0, 1e-46, 1e-45, 1e-40, 1e-38, 1.0, 1e18, 1e19, 3e38, 3.5e38, 1e39]
EDGE = np.float32(2.0**62)
EDGES = [float(np.nextafter(EDGE, np.float32(0))), float(EDGE),
         float(np.nextafter(EDGE, np.float32(np.inf)))]
# most entries are common ones, so that most frames are written
magnitudes = st.one_of(st.sampled_from([1.0, 1e-40, 0.1]), st.sampled_from(MAGNITUDES + EDGES))
values = st.builds(lambda m, sign: sign * m, magnitudes, st.sampled_from([1.0, -1.0]))


def f32(x) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.asarray(x, "<f4")


@st.composite
def containers(draw):
    """(D, d, phi, frames): each frame (global, coords, scores, descriptors)
    as float64 lists, n local features each."""
    dim_g, dim_l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    phi = draw(st.one_of(st.just(10.0), st.sampled_from(MAGNITUDES + [1e-50])))
    frames = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 3))
        frames.append((
            draw(st.lists(values, min_size=dim_g, max_size=dim_g)),
            draw(st.lists(values, min_size=2 * n, max_size=2 * n)),
            draw(st.lists(magnitudes, min_size=n, max_size=n)),
            # each descriptor row one value at one entry, so its norm is exact
            [np.eye(dim_l)[draw(st.integers(0, dim_l - 1))] * draw(values) for _ in range(n)],
        ))
    return dim_g, dim_l, phi, frames


@st.composite
def pca_models(draw):
    """(mean, basis, eigenvalues, whiten) as float64 lists."""
    raw_dim = draw(st.integers(1, 3))
    out_dim = draw(st.integers(1, raw_dim))
    eig = draw(st.lists(magnitudes, min_size=out_dim, max_size=out_dim))
    return (draw(st.lists(values, min_size=raw_dim, max_size=raw_dim)),
            np.reshape(draw(st.lists(values, min_size=raw_dim * out_dim,
                                     max_size=raw_dim * out_dim)), (raw_dim, out_dim)),
            sorted(eig, reverse=True), draw(st.booleans()))


def one_frame(descriptor_row, phi=10.0):
    return 1, len(descriptor_row), phi, [([1.0], [[3.0, 4.0]], [1.0], [descriptor_row])]


class TestFloat32RoundTrip:
    """A writer either raises and leaves no file, or its reader returns the
    float32 values written, bit for bit."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(containers())
    @example(one_frame([EDGES[1]]))  # norm 2**62: written
    @example(one_frame([EDGES[2]]))  # one float32 step more: rejected
    @example(one_frame([2.0**61] * 4))  # norm 2**62 at d = 4: written
    @example(one_frame([1.0, 0.0], phi=1e-50))  # 0 as float32
    @example(one_frame([1.0, 0.0], phi=1e39))  # inf as float32
    def test_container(self, case):
        dim_g, dim_l, phi, raw = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.fftc"
            try:
                frames = [(i, GlobalDescriptor(i, np.array(g)),
                           LocalFeatureSet(i, np.reshape(c, (-1, 2)), s,
                                           np.reshape(x, (len(s), dim_l))))
                          for i, (g, c, s, x) in enumerate(raw)]
                write_features(path, frames, phi=phi, dim_global=dim_g, dim_local=dim_l)
            except ValueError:
                assert list(Path(tmp).iterdir()) == []
                return
            assert read_header(path).phi == f32(phi)
            loaded = list(read_features(path))
        assert [i for i, _, _ in loaded] == list(range(len(frames)))
        for (_, g, ls), (_, g2, ls2) in zip(frames, loaded):
            assert g2.values.tobytes() == f32(g.values).tobytes()
            for name in ("coords", "scores", "descriptors"):
                assert getattr(ls2, name).tobytes() == f32(getattr(ls, name)).tobytes()

    def test_descriptor_norm_bound(self):
        # entries at most 2**62 / sqrt(d): each side of the bound, by the type
        above = float(np.nextafter(np.float32(2.0**61), np.float32(np.inf)))
        for row in (EDGES[:1], EDGES[1:2], [2.0**61] * 4, [2.0**61, 0.0, 0.0, 0.0]):
            assert LocalFeatureSet(0, [[0.0, 0.0]], [1.0], [row])._sq_norms <= 2.0**124
        for row in (EDGES[2:], [above, 0.0, 0.0, 0.0], [EDGES[1], 0.0], [1e39],
                    [math.inf], [math.nan]):
            with pytest.raises(ValueError, match="descriptors must be finite"):
                LocalFeatureSet(0, [[0.0, 0.0]], [1.0], [row])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(pca_models())
    @example(([1.0], [[1e39]], [1.0], False))  # a basis entry that is inf as float32
    @example(([1e-46], [[1.0]], [1e-45], True))  # subnormal and zero values kept
    def test_pca_model(self, case):
        mean, basis, eig, whiten = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.fpca"
            try:
                model = PcaModel(mean, basis, eig, whiten=whiten)
                save_pca_model(path, model)
            except ValueError:
                assert list(Path(tmp).iterdir()) == []
                return
            loaded = load_pca_model(path)
        assert loaded.whiten == whiten
        for name in ("mean", "basis", "eigenvalues"):
            assert f32(getattr(loaded, name)).tobytes() == f32(getattr(model, name)).tobytes()

    def test_non_finite_pca_model_file_rejected(self, tmp_path):
        # a NaN patched into a saved model's first basis entry
        path = tmp_path / "m.fpca"
        save_pca_model(path, PcaModel(np.zeros(3), np.eye(3)[:, :2], [2.0, 1.0]))
        raw = bytearray(path.read_bytes())
        raw[16 + 4 * 3 : 16 + 4 * 4] = struct.pack("<f", math.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="must be finite"):
            load_pca_model(path)
