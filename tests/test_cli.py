import errno
import os
import struct
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from loopdet.cli import RunConfig, main

from conftest import empty_set, unit_rows


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_paths(tmp_path_factory):
    """Small synthetic container with one revisit segment plus ground truth."""
    root = tmp_path_factory.mktemp("cli")
    feats, gt = root / "feats.fftc", root / "gt.csv"
    code = run(
        ["synth", "--frames", 160, "--segments", "10:80:30", "--dim-global", 32,
         "--features-per-frame", 30, "--psi", 2, "--phi", 10, "--seed", 11,
         "--out", feats, "--gt", gt]
    )
    assert code == 0
    return feats, gt


def echoed(capsys) -> dict[str, str]:
    """The key=value pairs of the run's ``resolved config:`` line."""
    line = next(ln for ln in capsys.readouterr().err.splitlines()
                if ln.startswith("resolved config:"))
    return dict(tok.split("=", 1) for tok in line.split()[2:])


def usage_error(argv, capsys) -> str:
    """Run argv expecting argparse's usage error; return its error line."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "resolved config" not in err
    return err.strip().splitlines()[-1]


def one_error(capsys) -> str:
    """The run's one ``error:`` line; no traceback was printed."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [ln for ln in err.splitlines() if ln.startswith("error")]
    assert len(errors) == 1
    return errors[0]


DETECT_FLAGS = ["--psi", 2, "--phi", 10, "--n", 3, "--M", 8,
                "--ef-construction", 24, "--ef-search", 24, "--seed", 11]


class TestRunConfig:
    def test_defaults_are_the_librarys(self):
        from loopdet import PipelineConfig
        from loopdet.cli import _pipeline_config

        assert _pipeline_config(RunConfig(phi=PipelineConfig.phi)) == PipelineConfig()

    def test_synth_defaults_are_the_generators(self):
        import dataclasses

        from loopdet import SynthConfig

        cfg = RunConfig()
        defaults = {f.name: f.default for f in dataclasses.fields(SynthConfig)}
        defaults["outlier_frac"] = defaults["outlier_fraction"]
        for name in ("dim_global", "dim_local", "features_per_frame", "outlier_frac",
                     "sigma_global", "sigma_px", "sigma_desc"):
            assert getattr(cfg, name) == defaults[name], name

    def test_pca_fit_default_is_the_librarys(self):
        from loopdet.descriptors import DEFAULT_REDUCED_DIM

        assert RunConfig().out_dim == DEFAULT_REDUCED_DIM

    def test_text_round_trip(self):
        import dataclasses

        every = RunConfig(
            psi=12.5, phi=30.0, n=7, epsilon=0.6, beta=3, tau=9, delta=2.5, M=12,
            ef_construction=50, ef_search=60, seed=4, gt_window=3, tau_range=(2, 30, 4),
            features="a.fftc", pca="m.fpca", gt="g.csv", out="o", frames=300,
            segments=((1, 50, 5), (10, 80, 6)), dim_global=32, dim_local=16,
            features_per_frame=12, outlier_frac=0.25, sigma_global=0.1, sigma_px=0.5,
            sigma_desc=0.05, bench_dim=8, bench_frames=90, n_list=(2, 6), out_dim=12,
            max_samples=500,
        )
        # the second input pins every field's show against its parser
        assert [f.name for f in dataclasses.fields(RunConfig)
                if getattr(every, f.name) == f.default] == []
        for cfg in (RunConfig(psi=12.5, n=7, tau_range=(2, 30, 4), features="a.fftc"), every):
            text = "".join(f"{k}={v}\n" for k, v in cfg.items())
            assert RunConfig.from_text(text) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            RunConfig.from_text("bogus=1\n")

    def test_comments_ignored(self):
        cfg = RunConfig.from_text("# comment\npsi=5\n\nn=2\n")
        assert cfg.psi == 5.0 and cfg.n == 2

    @pytest.mark.parametrize("line", ["tau_range=0", "psi=abc", "gt_window=-5",
                                      "tau_range=-5:0:5"])
    def test_malformed_value_names_its_config_line(self, line, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        capsys.readouterr()
        assert run(["eval", "--config", config, "--out", tmp_path / "pr.csv"]) == 1
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error")]
        assert len(errors) == 1 and errors[0].startswith("error: config line 1: ")
        assert list(tmp_path.iterdir()) == [config]


class TestDetect:
    def test_detections_csv_is_exclusion_safe(self, synth_paths, tmp_path):
        feats, _ = synth_paths
        out = tmp_path / "det.csv"
        assert run(["detect", "--features", feats, "--out", out, "--tau", 10] + DETECT_FLAGS) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "query_frame,matched_frame,inliers,similarity"
        assert len(lines) > 1
        for line in lines[1:]:
            q, m, inl, sim = line.split(",")
            assert int(q) - int(m) >= 20  # psi * phi
            assert int(inl) >= 10

    @pytest.mark.parametrize("argv, knob", [
        (["--psi", "inf"], "psi"),
        (["--phi", "inf"], "phi"),
        (["--psi", 1e308, "--phi", 10], "psi * phi"),  # an inf exclusion zone
        (["--psi", "nan"], "psi"),
        (["--delta", 1e39], "delta"),  # inf as the scores' float32
        (["--delta", "nan"], "delta"),  # would drop every feature
        (["--seed", -1], "seed"),  # numpy would refuse it at the first verification
    ])
    def test_knob_out_of_range_exits_1_without_output(self, argv, knob, synth_paths, tmp_path,
                                                      capsys):
        feats, _ = synth_paths
        out = tmp_path / "det.csv"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # as the CI steps run
            assert run(["detect", "--features", feats, "--out", out] + DETECT_FLAGS + argv) == 1
        assert not out.exists()
        assert one_error(capsys).startswith(f"error: {knob} ")

    def test_no_revisits_empty_csv(self, tmp_path):
        feats = tmp_path / "plain.fftc"
        assert run(["synth", "--frames", 60, "--segments", "", "--dim-global", 16,
                    "--features-per-frame", 10, "--psi", 2, "--phi", 10,
                    "--seed", 3, "--out", feats]) == 0
        out = tmp_path / "det.csv"
        assert run(["detect", "--features", feats, "--out", out] + DETECT_FLAGS) == 0
        assert out.read_text() == "query_frame,matched_frame,inliers,similarity\n"

    def test_missing_file_exits_2_without_output(self, tmp_path):
        out = tmp_path / "det.csv"
        code = run(["detect", "--features", tmp_path / "absent.fftc", "--out", out])
        assert code == 2
        assert not out.exists()

    def test_corrupt_file_exits_2_without_output(self, synth_paths, tmp_path):
        feats, _ = synth_paths
        bad = tmp_path / "bad.fftc"
        bad.write_bytes(open(feats, "rb").read()[:-20])
        out = tmp_path / "det.csv"
        assert run(["detect", "--features", bad, "--out", out] + DETECT_FLAGS) == 2
        assert not out.exists()

    def test_zero_global_descriptor_exits_2_without_output(self, tmp_path, capsys):
        from loopdet import GlobalDescriptor, write_features

        rng = np.random.default_rng(4)
        feats = tmp_path / "zero.fftc"
        frames = [
            (i, GlobalDescriptor(i, rng.standard_normal(8).astype(np.float32)),
             empty_set(i, 4))
            for i in range(30)
        ]
        write_features(feats, frames, phi=10.0)
        raw = bytearray(feats.read_bytes())
        start = 32 + 25 * (8 + 8 * 4 + 4) + 8  # frame 25's global descriptor
        raw[start : start + 8 * 4] = bytes(8 * 4)
        feats.write_bytes(bytes(raw))
        out = tmp_path / "det.csv"
        capsys.readouterr()
        assert run(["detect", "--features", feats, "--out", out] + DETECT_FLAGS) == 2
        assert not out.exists()
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error")]
        assert len(errors) == 1
        assert "corruption" in errors[0] and "frame 25" in errors[0]

    def test_descriptors_past_the_norm_bound_exit_2_without_output(self, tmp_path, capsys):
        # a 5x4 descriptor set scaled by 1e20 overflows float32 matching, so
        # the reader rejects it; scaled by 1e18 it still matches all 5 rows
        from loopdet import GlobalDescriptor, LocalFeatureSet, brute_force_match, write_features

        rng = np.random.default_rng(4)
        frames = [
            (i, GlobalDescriptor(i, rng.standard_normal(8).astype(np.float32)),
             LocalFeatureSet(i, rng.uniform(0, 100, (5, 2)), np.full(5, 50.0),
                             unit_rows(rng, 5, 4)))
            for i in range(30)
        ]
        big = frames[25][2]
        big = LocalFeatureSet(25, big.coords, big.scores, big.descriptors * np.float32(1e18))
        assert len(brute_force_match(big, big, 0.7)) == 5
        feats = tmp_path / "big.fftc"
        write_features(feats, frames, phi=10.0)
        raw = bytearray(feats.read_bytes())
        start = 32 + 25 * (8 + 8 * 4 + 4 + 5 * 7 * 4) + 8 + 8 * 4 + 4  # frame 25's block
        block = np.frombuffer(raw[start : start + 5 * 7 * 4], "<f4").reshape(5, 7).copy()
        block[:, 3:] *= np.float32(1e20)
        raw[start : start + 5 * 7 * 4] = block.tobytes()
        feats.write_bytes(bytes(raw))
        out = tmp_path / "det.csv"
        capsys.readouterr()
        assert run(["detect", "--features", feats, "--out", out] + DETECT_FLAGS) == 2
        assert not out.exists()
        error = one_error(capsys)
        assert "corruption" in error and "frame 25" in error and "descriptors" in error

    def test_descriptor_scale_changes_no_record(self, tmp_path, capsys):
        # local descriptors times s: float32 matching loses its precision
        # below about s = 1e-20, so a scale either keeps the s = 1 records or
        # the reader refuses it
        from loopdet import RevisitSegment, SynthConfig, generate_synthetic, write_features

        frames = generate_synthetic(SynthConfig(
            n_frames=80, segments=(RevisitSegment(0, 50, 20),), dim_global=16, dim_local=8,
            features_per_frame=40, exclusion_zone=20, seed=1)).frames
        clean = tmp_path / "s1.fftc"
        write_features(clean, frames, phi=10.0)
        outputs = {}
        for scale in (1.0, 1e-22, 1e-30):
            raw = bytearray(clean.read_bytes())
            start = 32
            for _, g, ls in frames:
                start += 8 + 4 * g.dim + 4
                end = start + 4 * len(ls) * (3 + ls.dim)
                block = np.frombuffer(raw[start:end], "<f4").reshape(len(ls), -1).copy()
                block[:, 3:] *= np.float32(scale)
                raw[start:end] = block.tobytes()
                start = end
            feats, out = tmp_path / f"{scale}.fftc", tmp_path / f"{scale}.csv"
            feats.write_bytes(bytes(raw))
            capsys.readouterr()
            code = run(["detect", "--features", feats, "--out", out,
                        "--psi", 2, "--phi", 10, "--tau", 8])
            if code == 0:
                outputs[scale] = out.read_text()
            else:
                assert code == 2 and not out.exists()
                assert one_error(capsys).startswith("error: invalid feature file (corruption)")
        assert len(outputs[1.0].splitlines()) > 1
        assert all(text == outputs[1.0] for text in outputs.values())

    @pytest.mark.parametrize("frame_count, dim_global, size, code", [
        (0, 40, 32, 0),
        (0, 2**32 - 1, 32, 0),  # an empty stream: no storage of the dimension is made
        (1, 2**28, 92, 2),  # the declared 1 GiB descriptor is truncated
        (1, 2**32 - 1, 92, 2),  # and so is 16 GiB, refused before a read allocates it
    ])
    def test_declared_global_dimension_allocates_nothing_up_front(
        self, frame_count, dim_global, size, code, tmp_path, capsys
    ):
        feats, out = tmp_path / "huge.fftc", tmp_path / "det.csv"
        header = struct.pack("<4sIIIIfff", b"FFTC", 1, frame_count, dim_global, 40,
                             10.0, 0.5, 1.4)
        feats.write_bytes(header.ljust(size, b"\0"))
        capsys.readouterr()
        assert run(["detect", "--features", feats, "--out", out]) == code
        if code == 0:
            assert "Traceback" not in capsys.readouterr().err
            assert out.read_text() == "query_frame,matched_frame,inliers,similarity\n"
        else:
            assert one_error(capsys).startswith("error: invalid feature file (corruption)")
            assert not out.exists()

    def test_byte_identical_reruns(self, synth_paths, tmp_path):
        feats, _ = synth_paths
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["detect", "--features", feats, "--out", out, "--tau", 10]
                       + DETECT_FLAGS) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, synth_paths, tmp_path):
        feats, _ = synth_paths
        config = tmp_path / "run.cfg"
        config.write_text(
            f"features={feats}\npsi=2\nphi=10\nn=3\nM=8\n"
            "ef_construction=24\nef_search=24\nseed=11\ntau=10\n"
        )
        out = tmp_path / "det.csv"
        assert run(["detect", "--config", config, "--out", out]) == 0
        baseline = out.read_bytes()
        # overriding tau via flag beats the config file
        out2 = tmp_path / "det2.csv"
        assert run(["detect", "--config", config, "--out", out2, "--tau", 10_000]) == 0
        assert out2.read_text() == "query_frame,matched_frame,inliers,similarity\n"
        assert baseline != out2.read_bytes()

    def test_config_echoed_to_stderr(self, synth_paths, tmp_path, capsys):
        feats, _ = synth_paths
        out = tmp_path / "det.csv"
        run(["detect", "--features", feats, "--out", out, "--tau", 10] + DETECT_FLAGS)
        err = capsys.readouterr().err
        assert "resolved config:" in err
        assert "psi=2.0" in err and "epsilon=0.7" in err and "delta=15.0" in err
        # f32 header fields are echoed at f32 precision
        tokens = err.split()
        assert "s_g=0.5" in tokens and "s_l=1.4" in tokens


class TestInvariantViolation:
    """A violated internal invariant ends the run with exit 3 and one line."""

    @pytest.fixture
    def near_matches(self, monkeypatch):
        # every verified frame "matches" the frame just before it, so the
        # temporal filter fires inside the exclusion zone
        from loopdet.pipeline import LoopClosurePipeline

        def verify(self, query_locals, candidates, stages):
            return query_locals.frame_id - 1, 20, 1.0

        monkeypatch.setattr(LoopClosurePipeline, "verify_candidates", verify)

    def errors(self, capsys):
        return [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error")]

    def test_exclusion_zone_violation_exits_3_without_output(
        self, synth_paths, tmp_path, capsys, near_matches
    ):
        feats, gt = synth_paths
        capsys.readouterr()
        for argv in (["detect", "--features", feats], ["eval", "--features", feats, "--gt", gt]):
            out = tmp_path / "out.csv"
            assert run(argv + ["--out", out] + DETECT_FLAGS) == 3
            assert not out.exists()
            errors = self.errors(capsys)
            assert len(errors) == 1
            assert errors[0].startswith("error: internal invariant violated: exclusion-zone")

    def test_index_audit_error_exits_3(self, synth_paths, tmp_path, capsys, monkeypatch):
        # any RuntimeError out of the library is an internal invariant violation
        from loopdet import HnswIndex

        def insert(self, frame_id, values):
            raise RuntimeError(f"node {frame_id} links to itself")

        monkeypatch.setattr(HnswIndex, "insert", insert)
        feats, _ = synth_paths
        out = tmp_path / "det.csv"
        capsys.readouterr()
        assert run(["detect", "--features", feats, "--out", out] + DETECT_FLAGS) == 3
        assert not out.exists()
        assert self.errors(capsys) == ["error: internal invariant violated: node 0 links to itself"]


class TestEval:
    def test_pr_csv_and_summary(self, synth_paths, tmp_path, capsys):
        feats, gt = synth_paths
        out = tmp_path / "pr.csv"
        code = run(["eval", "--features", feats, "--gt", gt, "--out", out,
                    "--tau-range", "0:30:5"] + DETECT_FLAGS)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tau,precision,recall,tp,fp,fn"
        assert len(lines) == 8  # taus 0,5,...,30
        summary = capsys.readouterr().out
        assert "recall_at_100_precision=" in summary

    def test_negative_seed_exits_1_naming_seed(self, synth_paths, tmp_path, capsys):
        feats, gt = synth_paths
        out = tmp_path / "pr.csv"
        capsys.readouterr()
        assert run(["eval", "--features", feats, "--gt", gt, "--out", out]
                   + DETECT_FLAGS + ["--seed", -1]) == 1
        assert one_error(capsys) == "error: seed must be >= 0, got -1"
        assert not out.exists()

    def test_beta_one_reaches_full_recall(self, synth_paths, tmp_path, capsys):
        feats, gt = synth_paths
        code = run(["eval", "--features", feats, "--gt", gt, "--beta", 1,
                    "--tau-range", "10:10"] + DETECT_FLAGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "recall_at_100_precision=1.000000" in out


class TestSynth:
    def test_byte_identical_given_seed(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            feats = tmp_path / f"{name}.fftc"
            gt = tmp_path / f"{name}.csv"
            assert run(["synth", "--frames", 80, "--segments", "5:40:10",
                        "--dim-global", 16, "--features-per-frame", 12,
                        "--psi", 2, "--phi", 10, "--seed", 9,
                        "--out", feats, "--gt", gt]) == 0
            outs.append((feats.read_bytes(), gt.read_bytes()))
        assert outs[0] == outs[1]

    def test_invalid_segments_exit_1(self, tmp_path):
        code = run(["synth", "--frames", 80, "--segments", "5:10:10",
                    "--psi", 2, "--phi", 10, "--out", tmp_path / "x.fftc"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["--psi", -5, "--phi", 10],  # the exclusion zone every pipeline subcommand rejects
        ["--dim-global", 0],
        ["--dim-local", 0],
        ["--features-per-frame", -3],
        ["--psi", 1, "--phi", 1e39],  # inf as the container's float32
        ["--psi", 1e51, "--phi", 1e-50],  # 0 as float32
        ["--sigma-px", -1],
        ["--sigma-px", "nan"],  # would write a stream with no pixel noise
        ["--sigma-desc", -0.5],
        ["--sigma-global", -0.3],
        ["--sigma-desc", "inf"],
        ["--sigma-global", "nan"],
        ["--psi", "inf"],
        ["--psi", "nan"],
        ["--psi", 1e308, "--phi", 10],  # an inf exclusion zone
        ["--seed", -1],
        ["--frames", 0],
        ["--outlier-frac", 1.5],
    ])
    def test_invalid_stream_exits_1_without_output(self, argv, tmp_path, capsys):
        out = tmp_path / "x.fftc"
        capsys.readouterr()
        assert run(["synth", "--frames", 50, "--out", out, "--gt", tmp_path / "gt.csv"]
                   + argv) == 1
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if ln.startswith("error")]
        assert len(errors) == 1
        # the line names the offending knob, the last flag given
        assert argv[-2][2:].replace("-", "_") in errors[0]
        if argv[-2] in ("--frames", "--outlier-frac"):  # named by a field that holds the flag
            assert errors[0].endswith(f"got {argv[-1]}")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("gt, message", [
        ("nodir/gt.csv", "No such file or directory"),
        ("gtdir", "Is a directory"),  # an existing directory
    ])
    def test_unwritable_gt_writes_neither_file(self, gt, message, tmp_path, capsys):
        (tmp_path / "gtdir").mkdir()
        capsys.readouterr()
        assert run(["synth", "--frames", 50, "--out", tmp_path / "new.fftc",
                    "--gt", tmp_path / gt]) == 2
        error = one_error(capsys)
        # the path given, not the temp file beside it
        assert message in error and error.endswith(f"'{tmp_path / gt}'")
        assert list(tmp_path.iterdir()) == [tmp_path / "gtdir"]
        assert list((tmp_path / "gtdir").iterdir()) == []

    def test_echo_holds_own_flags_in_their_flag_form(self, tmp_path, capsys):
        argv = ["synth", "--frames", 40, "--segments", "1:22:4,8:30:4", "--dim-global", 8,
                "--features-per-frame", 6, "--psi", 2, "--phi", 10, "--out", tmp_path / "x.fftc"]
        assert run(argv) == 0
        echo = echoed(capsys)
        assert echo["frames"] == "40" and echo["segments"] == "1:22:4,8:30:4"
        assert echo["dim_global"] == "8" and echo["sigma_px"] == "0.0"
        assert "tau" not in echo and "features" not in echo
        # the echoed values parse back to the same run
        again = ["synth", "--out", tmp_path / "y.fftc"]
        for key in ("frames", "segments", "dim_global", "features_per_frame", "psi", "phi"):
            again += ["--" + key.replace("_", "-"), echo[key]]
        assert run(again) == 0
        assert (tmp_path / "x.fftc").read_bytes() == (tmp_path / "y.fftc").read_bytes()
        # and so does the echo as a config file, whose out the flag overrides
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{k}={v}\n" for k, v in echo.items()))
        assert run(["synth", "--config", config, "--out", tmp_path / "z.fftc"]) == 0
        assert (tmp_path / "x.fftc").read_bytes() == (tmp_path / "z.fftc").read_bytes()


class TestBench:
    def test_tables_written_with_monotone_ef_recall(self, tmp_path, capsys):
        # bench writes only these two tables; graph recall against ef is
        # test_acceptance.py::test_ef_monotonic_recall's, at N = 5,000
        out = tmp_path / "bench"
        code = run(["bench", "--out", out, "--bench-frames", 120,
                    "--psi", 2, "--phi", 10, "--seed", 5, "--M", 8,
                    "--ef-construction", 24, "--ef-search", 24,
                    "--n-list", "1,3", "--tau-range", "0:20:5"])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["n_sweep.csv", "timing.csv"]
        timing = (out / "timing.csv").read_text().splitlines()
        assert timing[0] == "stage,mean_ms,std_ms,max_ms,min_ms"
        assert len(timing) > 1
        n_rows = (out / "n_sweep.csv").read_text().strip().splitlines()
        assert n_rows[0] == "n,recall_at_100_precision,mean_frame_ms"
        assert len(n_rows) == 3
        echo = echoed(capsys)
        assert (echo["bench_frames"], echo["n_list"]) == ("120", "1,3")
        assert (echo["bench_dim"], echo["tau_range"]) == ("64", "0:20:5")
        assert "features" not in echo and "gt" not in echo

    @pytest.mark.parametrize("flag, value, field", [
        ("--n-list", "0", "n"),
        ("--seed", "-1", "seed"),
    ])
    def test_rejected_list_value_writes_no_table(self, flag, value, field, tmp_path, capsys):
        capsys.readouterr()
        code = run(["bench", "--out", tmp_path / "bench", "--bench-frames", 50, flag, value])
        assert code == 1
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and f"{field} must be" in errors[0]
        assert list(tmp_path.iterdir()) == []


class TestPcaFit:
    def test_fits_model_from_container(self, tmp_path):
        feats = tmp_path / "raw.fftc"
        assert run(["synth", "--frames", 50, "--segments", "", "--dim-global", 16,
                    "--dim-local", 64, "--features-per-frame", 20,
                    "--psi", 2, "--phi", 10, "--seed", 4, "--out", feats]) == 0
        model_path = tmp_path / "model.fpca"
        assert run(["pca-fit", "--features", feats, "--out", model_path,
                    "--out-dim", 40]) == 0
        from loopdet import load_pca_model

        model = load_pca_model(model_path)
        assert (model.raw_dim, model.out_dim) == (64, 40)
        gram = model.basis.T @ model.basis
        assert np.abs(gram - np.eye(40)).max() < 1e-5

    def test_failed_write_keeps_the_existing_model(self, synth_paths, tmp_path, capsys,
                                                   monkeypatch):
        # a write that fails after the header bytes leaves the old model as it
        # was and no temp file beside it
        from loopdet import descriptors

        feats, _ = synth_paths
        model_path = tmp_path / "model.fpca"
        assert run(["pca-fit", "--features", feats, "--out", model_path, "--out-dim", 8]) == 0
        old = model_path.read_bytes()
        formats = []

        def pack(fmt, *values):
            formats.append(fmt)
            if fmt == "<B":  # the flag byte, written after the header and the arrays
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return struct.pack(fmt, *values)

        monkeypatch.setattr(descriptors, "struct", SimpleNamespace(pack=pack))
        capsys.readouterr()
        assert run(["pca-fit", "--features", feats, "--out", model_path, "--out-dim", 16]) == 2
        assert formats == ["<III", "<B"]
        assert os.strerror(errno.ENOSPC) in one_error(capsys)
        assert list(tmp_path.iterdir()) == [model_path]
        assert model_path.read_bytes() == old

    def test_detect_applies_model_to_raw_locals(self, tmp_path):
        feats = tmp_path / "raw.fftc"
        assert run(["synth", "--frames", 120, "--segments", "10:60:20",
                    "--dim-global", 32, "--dim-local", 64,
                    "--features-per-frame", 30, "--psi", 2, "--phi", 10,
                    "--seed", 4, "--out", feats]) == 0
        model_path = tmp_path / "model.fpca"
        assert run(["pca-fit", "--features", feats, "--out", model_path,
                    "--out-dim", 40]) == 0
        out = tmp_path / "det.csv"
        assert run(["detect", "--features", feats, "--pca", model_path,
                    "--out", out, "--tau", 10] + DETECT_FLAGS) == 0
        assert len(out.read_text().splitlines()) > 1

    def test_model_keeping_the_dimension_is_applied(self, synth_paths, tmp_path):
        # a 40 -> 40 model whose basis is all zeros drops every local feature
        from loopdet import PcaModel, save_pca_model

        feats, _ = synth_paths
        model_path = tmp_path / "zero.fpca"
        save_pca_model(model_path, PcaModel(np.zeros(40), np.zeros((40, 40)), np.zeros(40)))
        plain, reduced = tmp_path / "plain.csv", tmp_path / "reduced.csv"
        assert run(["detect", "--features", feats, "--out", plain, "--tau", 10]
                   + DETECT_FLAGS) == 0
        assert len(plain.read_text().splitlines()) > 1
        assert run(["detect", "--features", feats, "--pca", model_path,
                    "--out", reduced, "--tau", 10] + DETECT_FLAGS) == 0
        assert reduced.read_text() == "query_frame,matched_frame,inliers,similarity\n"

    def test_dimension_mismatch_exits_1_before_any_work(self, synth_paths, tmp_path, capsys,
                                                        monkeypatch):
        # a 64 -> 40 model on a container that already holds 40-d locals
        from loopdet import LoopClosurePipeline, PcaModel, save_pca_model

        def never(*args, **kwargs):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(LoopClosurePipeline, "record_frame", never)
        feats, _ = synth_paths
        model_path = tmp_path / "model.fpca"
        basis = np.eye(64)[:, :40]
        save_pca_model(model_path, PcaModel(np.zeros(64), basis, np.zeros(40)))
        out = tmp_path / "det.csv"
        capsys.readouterr()
        assert run(["detect", "--features", feats, "--pca", model_path, "--out", out]
                   + DETECT_FLAGS) == 1
        assert not out.exists()
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error")]
        assert len(errors) == 1 and "64" in errors[0] and "40" in errors[0]

    @pytest.mark.parametrize("damage", ["nan", "truncated", "whitened", "no_components"])
    def test_damaged_model_exits_1_before_any_work(self, damage, synth_paths, tmp_path, capsys,
                                                   monkeypatch):
        from loopdet import LoopClosurePipeline, PcaModel, save_pca_model

        def never(*args, **kwargs):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(LoopClosurePipeline, "record_frame", never)
        feats, _ = synth_paths
        model_path = tmp_path / "model.fpca"
        save_pca_model(model_path, PcaModel(np.zeros(40), np.eye(40), np.ones(40)))
        raw = model_path.read_bytes()
        if damage == "nan":  # the first basis entry
            raw = raw[: 16 + 4 * 40] + np.float32(np.nan).tobytes() + raw[16 + 4 * 41 :]
        elif damage == "whitened":  # the flag byte an earlier build set for whitening
            raw = raw[:-1] + bytes([1])
        elif damage == "no_components":  # out_dim 0: the mean, then the flag byte
            raw = raw[:12] + struct.pack("<I", 0) + raw[16 : 16 + 4 * 40] + bytes(1)
        else:
            raw = raw[:-5]
        model_path.write_bytes(raw)
        out = tmp_path / "det.csv"
        capsys.readouterr()
        assert run(["detect", "--features", feats, "--pca", model_path, "--out", out]
                   + DETECT_FLAGS) == 1
        assert not out.exists()
        message = {"nan": "must be finite", "truncated": "truncated",
                   "whitened": "flag byte is 1", "no_components": "out_dim >= 1"}[damage]
        assert message in one_error(capsys)

    def test_oversized_header_exits_1_without_reading_the_payload(
            self, synth_paths, tmp_path, capsys, monkeypatch):
        # raw_dim = out_dim = 2**31 claim a 16 EiB payload; no read may ask
        # for more bytes than the file holds
        from loopdet import LoopClosurePipeline, PcaModel, descriptors, save_pca_model

        def never(*args, **kwargs):
            raise AssertionError("the pipeline ran")

        read_exact = descriptors._read_exact

        def bounded(f, n, what):
            assert n <= size, f"read of {n} bytes from a {size}-byte model"
            return read_exact(f, n, what)

        monkeypatch.setattr(LoopClosurePipeline, "record_frame", never)
        monkeypatch.setattr(descriptors, "_read_exact", bounded)
        feats, _ = synth_paths
        model_path = tmp_path / "model.fpca"
        save_pca_model(model_path, PcaModel(np.zeros(40), np.eye(40), np.ones(40)))
        raw = model_path.read_bytes()
        size = len(raw)
        model_path.write_bytes(raw[:8] + struct.pack("<II", 2**31, 2**31) + raw[16:])
        out = tmp_path / "det.csv"
        capsys.readouterr()
        assert run(["detect", "--features", feats, "--pca", model_path, "--out", out]
                   + DETECT_FLAGS) == 1
        assert not out.exists()
        line = one_error(capsys)
        assert "truncated" in line and str(2**31) in line


class TestFlagSurface:
    """Each subcommand takes the knobs it reads; a malformed list flag is a
    usage error before any work."""

    @pytest.mark.parametrize("argv, flag", [
        (["eval", "--features", "f.fftc", "--gt", "g.csv", "--tau", 0], "--tau"),
        (["synth", "--M", 8], "--M"),
        (["pca-fit", "--features", "f.fftc", "--psi", 99], "--psi"),
        (["detect", "--features", "f.fftc", "--tau-range", "0:9"], "--tau-range"),
        # not taken as an abbreviation of --tau-range, --gt-window or --features-per-frame
        (["eval", "--features", "f.fftc", "--gt", "g.csv", "--tau", "0:9"], "--tau"),
        (["bench", "--gt", 5], "--gt"),
        (["synth", "--features", 5], "--features"),
        (["bench", "--tau", 3], "--tau"),
        # bench times the pipeline, not the graph on random vectors
        *((["bench", flag, value], flag) for flag, value in (
            ("--bench-vectors", 50), ("--bench-queries", 5), ("--k", 10),
            ("--ef-list", "20,40"), ("--m-list", "8"))),
    ])
    def test_flag_a_subcommand_never_reads_exits_2(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "out"
        line = usage_error(argv + ["--out", out], capsys)
        assert "unrecognized arguments" in line and flag in line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["synth", "--segments", "1:2"],
        ["synth", "--segments", "1:x:3"],
        ["bench", "--n-list", "20,x"],
        # a negative window, and a sweep from a tau that detect --tau refuses
        ["eval", "--gt-window", "-5"],
        ["bench", "--gt-window", "-5"],
        ["eval", "--tau-range=-5:0:5"],
        ["bench", "--tau-range=-5:0:5"],
    ])
    def test_malformed_list_flag_exits_2_before_any_work(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        line = usage_error(argv + ["--out", out], capsys)
        flag = argv[1].split("=")[0]
        assert line.startswith("loopdet ") and f"error: argument {flag}: expected" in line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--bench-dim", -3), ("--bench-frames", 0)])
    def test_bench_sizes_must_be_positive(self, flag, value, tmp_path, capsys):
        out = tmp_path / "bench"
        line = usage_error(["bench", flag, value, "--out", out], capsys)
        assert f"error: argument {flag}: expected a positive integer" in line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [-5, 0])
    def test_max_samples_must_be_positive(self, value, tmp_path, capsys):
        out = tmp_path / "model.fpca"
        line = usage_error(["pca-fit", "--features", "f.fftc", "--max-samples", value,
                            "--out", out], capsys)
        assert "error: argument --max-samples: expected a positive integer" in line
        assert list(tmp_path.iterdir()) == []

    def test_malformed_tau_range_names_its_form(self, tmp_path, capsys):
        line = usage_error(["eval", "--tau-range", "0", "--out", tmp_path / "pr.csv"], capsys)
        assert "argument --tau-range" in line and "lo:hi" in line
        assert "_parse_tau_range" not in line
        assert list(tmp_path.iterdir()) == []

    def test_per_subcommand_flag_counts(self):
        import argparse

        from loopdet.cli import build_parser

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        counts = {name: sum(o.startswith("--") and o != "--help"
                            for a in p._actions for o in a.option_strings)
                  for name, p in sub.choices.items()}
        assert counts == {"detect": 15, "eval": 16, "synth": 15, "bench": 17, "pca-fit": 5}

    def test_config_file_keys_of_other_subcommands_still_load(self, synth_paths, tmp_path,
                                                              capsys):
        feats, gt = synth_paths
        config = tmp_path / "run.cfg"
        config.write_text(
            f"features={feats}\ngt={gt}\npsi=2\nphi=10\nn=3\nM=8\nef_construction=24\n"
            "ef_search=24\nseed=11\ntau=10\ntau_range=0:30:5\ngt_window=5\n"
        )
        out = tmp_path / "det.csv"
        assert run(["detect", "--config", config, "--out", out]) == 0
        assert len(out.read_text().splitlines()) > 1
        echo = echoed(capsys)
        assert echo["tau"] == "10"
        assert "tau_range" not in echo and "gt" not in echo and "gt_window" not in echo
        # eval reads the same file; it does not read tau
        assert run(["eval", "--config", config, "--out", tmp_path / "pr.csv"]) == 0
        echo = echoed(capsys)
        assert echo["tau_range"] == "0:30:5" and "tau" not in echo

    def test_config_keys_a_subcommand_does_not_read_never_reach_its_run(self, synth_paths,
                                                                        tmp_path, capsys):
        feats, gt = synth_paths
        config = tmp_path / "run.cfg"
        config.write_text("tau=-1\n")
        plain, loaded = tmp_path / "plain.csv", tmp_path / "loaded.csv"
        argv = ["eval", "--features", feats, "--gt", gt, "--tau-range", "0:30:5"] + DETECT_FLAGS
        assert run(argv + ["--out", plain]) == 0
        assert run(argv + ["--config", config, "--out", loaded]) == 0
        assert loaded.read_bytes() == plain.read_bytes()
        assert run(["bench", "--config", config, "--out", tmp_path / "bench", "--bench-frames", 50,
                    "--n-list", 1]) == 0
        # detect reads tau, so there the key reaches the run
        capsys.readouterr()
        assert run(["detect", "--features", feats, "--config", config,
                    "--out", tmp_path / "det.csv"]) == 1
        assert one_error(capsys) == "error: tau must be >= 0, got -1"


class TestEvalGroundTruth:
    def test_malformed_gt_fails_before_the_pipeline(self, synth_paths, tmp_path, capsys,
                                                    monkeypatch):
        from loopdet import cli

        def never(*args, **kwargs):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(cli, "collect_frame_records", never)
        feats, _ = synth_paths
        gt = tmp_path / "gt.csv"
        gt.write_text("5,1,2\n")
        out = tmp_path / "pr.csv"
        capsys.readouterr()
        assert run(["eval", "--features", feats, "--gt", gt, "--out", out]
                   + DETECT_FLAGS) == 1
        assert not out.exists()
        assert "expected 'query_frame,matched_frame'" in capsys.readouterr().err

    def test_non_integer_gt_field_names_its_line(self, synth_paths, tmp_path, capsys,
                                                 monkeypatch):
        from loopdet import cli

        def never(*args, **kwargs):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(cli, "collect_frame_records", never)
        feats, _ = synth_paths
        gt = tmp_path / "gt.csv"
        gt.write_text("# query_frame,matched_frame\n5,1\n6,x\n")
        out = tmp_path / "pr.csv"
        capsys.readouterr()
        assert run(["eval", "--features", feats, "--gt", gt, "--out", out]
                   + DETECT_FLAGS) == 1
        assert not out.exists()
        assert one_error(capsys) == (f"error: {gt}:3: expected 'query_frame,matched_frame' "
                                     "integers, got '6,x'")

    def test_gt_naming_an_unknown_frame_exits_1(self, synth_paths, tmp_path, capsys):
        feats, _ = synth_paths
        gt = tmp_path / "gt.csv"
        gt.write_text("150,10\n500,20\n")
        out = tmp_path / "pr.csv"
        capsys.readouterr()
        assert run(["eval", "--features", feats, "--gt", gt, "--out", out]
                   + DETECT_FLAGS) == 1
        assert not out.exists()
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error")]
        assert errors == ["error: ground-truth pair for query 500 references unknown frames"]


class TestEnvironmentErrors:
    """An unusable output path or log level exits 2 with one line, writing nothing."""

    BENCH = ["bench", "--bench-frames", 50]

    @pytest.mark.parametrize("out, message", [
        ("taken", "File exists"),
        ("taken/sub", "Not a directory"),
    ])
    def test_bench_out_blocked_by_a_file(self, out, message, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        capsys.readouterr()
        assert run(self.BENCH + ["--out", tmp_path / out]) == 2
        assert message in one_error(capsys)
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"

    def test_unknown_log_level(self, synth_paths, tmp_path, capsys, monkeypatch):
        feats, _ = synth_paths
        monkeypatch.setenv("FILDPP_LOG", "bogus")
        capsys.readouterr()
        assert run(["detect", "--features", feats, "--out", tmp_path / "det.csv"]) == 2
        assert one_error(capsys) == "error: unknown FILDPP_LOG level 'BOGUS'"
        assert list(tmp_path.iterdir()) == []
