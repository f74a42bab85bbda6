import io
import math

import numpy as np
import pytest

from loopdet import (
    FrameRecord,
    GroundTruth,
    HnswParams,
    PipelineConfig,
    PrPoint,
    RevisitSegment,
    SynthConfig,
    generate_synthetic,
    pr_curve,
    read_ground_truth,
    recall_at_full_precision,
    score,
    write_ground_truth,
)
from loopdet.evaluation import aggregate_timings, write_timing_csv
from loopdet.pipeline import STAGES, collect_frame_records

FAST_HNSW = HnswParams(M=8, ef_construction=24, ef_search=24, rng_seed=1)


def fast_config(**kw):
    base = dict(psi=2.0, phi=10.0, n=3, beta=2, tau=10, delta=0.0, hnsw=FAST_HNSW, seed=1)
    base.update(kw)
    return PipelineConfig(**base)


def similarity(p, q):
    """Cosine of two global descriptors, in float64."""
    p, q = p.values.astype(np.float64), q.values.astype(np.float64)
    return float(p @ q / (np.linalg.norm(p) * np.linalg.norm(q)))


def gt_of(pairs, frames=None):
    table = {}
    for q, m in pairs:
        table.setdefault(q, set()).add(m)
    return GroundTruth(
        {q: frozenset(ms) for q, ms in table.items()},
        frozenset(frames) if frames is not None else None,
    )


class TestScore:
    def test_no_detections(self):
        gt = gt_of([(i, i + 100) for i in range(10)])
        assert score([], gt) == (0, 0, 10)

    def test_perfect_detections(self):
        pairs = [(i, i + 100) for i in range(10)]
        gt = gt_of(pairs)
        tp, fp, fn = score(pairs, gt)
        assert (tp, fp, fn) == (10, 0, 0)

    def test_mixed_detections(self):
        gt = gt_of([(i, i + 100) for i in range(12)])
        detections = [(i, i + 100) for i in range(9)] + [(20, 500)]
        tp, fp, fn = score(detections, gt, window=0)
        assert (tp, fp, fn) == (9, 1, 3)
        assert tp / (tp + fp) == pytest.approx(0.9)
        assert tp / (tp + fn) == pytest.approx(0.75)

    def test_window_tolerance(self):
        gt = gt_of([(100, 40)])
        assert score([(100, 47)], gt, window=10) == (1, 0, 0)
        assert score([(100, 51)], gt, window=10) == (0, 1, 1)
        assert score([(100, 41)], gt, window=0) == (0, 1, 1)

    def test_negative_window_rejected(self):
        # at window=-5 an exact match would count as a false positive
        gt = GroundTruth({500: frozenset({100})})
        assert score([(500, 100, 30)], gt, window=0) == (1, 0, 0)
        with pytest.raises(ValueError, match="window must be >= 0, got -5"):
            score([(500, 100, 30)], gt, window=-5)

    def test_unknown_frame_rejected(self):
        gt = gt_of([(100, 40)], frames=range(200))
        with pytest.raises(ValueError, match="unknown"):
            score([(1000, 40)], gt)

    def test_counts_are_consistent(self):
        gt = gt_of([(i, i + 50) for i in range(20)])
        detections = [(i, i + 50) for i in range(5)] + [(i, 0) for i in range(30, 35)]
        tp, fp, fn = score(detections, gt, window=0)
        assert tp + fp == len(detections)
        assert tp + fn == len(gt.pairs)


class TestGroundTruthCsv:
    def test_round_trip(self, tmp_path):
        gt = gt_of([(5, 1), (5, 2), (9, 3)])
        path = tmp_path / "gt.csv"
        with open(path, "w", encoding="utf-8") as f:
            write_ground_truth(f, gt)
        loaded = read_ground_truth(path)
        assert loaded.pairs == gt.pairs

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("# header\n\n10,2\n# trailing\n11,3\n")
        assert read_ground_truth(path).pairs == {10: frozenset({2}), 11: frozenset({3})}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("10,2,9\n")
        with pytest.raises(ValueError):
            read_ground_truth(path)


def revisit_dataset(**kw):
    cfg = dict(
        n_frames=120,
        segments=(RevisitSegment(10, 60, 25),),
        dim_global=32,
        features_per_frame=30,
        exclusion_zone=20,
        seed=5,
    )
    cfg.update(kw)
    return generate_synthetic(SynthConfig(**cfg))


class TestPrCurve:
    def test_tau_zero_is_weakest_filter(self):
        ds = revisit_dataset()
        curve = pr_curve(ds.frames, ds.ground_truth, fast_config(), range(0, 40, 6))
        assert curve[0].recall == max(p.recall for p in curve)
        assert curve[0].precision == min(p.precision for p in curve)

    def test_tau_above_all_inliers_gives_defined_one_precision(self):
        ds = revisit_dataset()
        curve = pr_curve(ds.frames, ds.ground_truth, fast_config(), [10_000])
        assert curve[0].precision == 1.0 and curve[0].recall == 0.0
        assert curve[0].tp == 0 and curve[0].fp == 0

    def test_counts_monotone_in_tau(self):
        ds = revisit_dataset(sigma_px=1.0, outlier_fraction=0.3, sigma_desc=0.05)
        curve = pr_curve(ds.frames, ds.ground_truth, fast_config(), range(0, 32, 2))
        tps = [p.tp for p in curve]
        fps = [p.fp for p in curve]
        assert tps == sorted(tps, reverse=True)
        assert fps == sorted(fps, reverse=True)

    def test_planted_loops_separable(self):
        ds = revisit_dataset()
        curve = pr_curve(ds.frames, ds.ground_truth, fast_config(), range(0, 31, 2))
        best = recall_at_full_precision(curve)
        assert best >= 0.9

    def test_points_ordered_by_tau(self):
        ds = revisit_dataset()
        curve = pr_curve(ds.frames, ds.ground_truth, fast_config(), [8, 2, 5])
        assert [p.tau for p in curve] == [2, 5, 8]

    @pytest.mark.parametrize("taus, gt_window, message", [
        ([-5, 0], 10, "tau must be >= 0, got -5"),
        ([0, 5], -1, "gt_window must be >= 0, got -1"),
    ])
    def test_negative_tau_or_gt_window_rejected(self, taus, gt_window, message):
        gt = GroundTruth({500: frozenset({100})})
        with pytest.raises(ValueError, match=message):
            pr_curve((), gt, PipelineConfig(), taus, gt_window=gt_window, records=[])


class TestRecallAtFullPrecision:
    def test_no_full_precision_point(self):
        curve = [PrPoint(0, 0.99, 0.9, 99, 1, 11)]
        assert recall_at_full_precision(curve) == 0.0

    def test_max_recall_under_constraint(self):
        curve = [
            PrPoint(0, 1.0, 0.7, 7, 0, 3),
            PrPoint(1, 1.0, 0.8, 8, 0, 2),
            PrPoint(2, 0.99, 0.95, 95, 1, 5),
        ]
        assert recall_at_full_precision(curve) == pytest.approx(0.8)

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            recall_at_full_precision([])


class TestGenerator:
    def test_zero_noise_revisit_similarity_is_one(self):
        ds = revisit_dataset(sigma_global=0.0)
        by_id = {f[0]: f[1] for f in ds.frames}
        for q, loop in ds.planted.items():
            s = similarity(by_id[q], by_id[loop.origin_frame])
            assert math.isclose(s, 1.0, abs_tol=1e-12)

    def test_disjoint_segments_give_exactly_their_pairs(self):
        ds = revisit_dataset(
            n_frames=200,
            segments=(RevisitSegment(10, 60, 10), RevisitSegment(100, 150, 12)),
        )
        expected = {60 + j: frozenset({10 + j}) for j in range(10)}
        expected.update({150 + j: frozenset({100 + j}) for j in range(12)})
        assert ds.ground_truth.pairs == expected

    def test_revisit_and_background_similarity_separated(self):
        # Monte-Carlo check of the generator's separation claim
        ds = revisit_dataset(
            n_frames=600,
            segments=(RevisitSegment(50, 400, 40),),
            dim_global=256,
            sigma_global=0.05,
            exclusion_zone=300,
            seed=77,
        )
        by_id = {f[0]: f[1] for f in ds.frames}
        revisit = [
            similarity(by_id[q], by_id[loop.origin_frame])
            for q, loop in ds.planted.items()
        ]
        assert min(revisit) >= 0.99
        # a revisit frame occupies its origin's trajectory position; background
        # pairs are those whose effective positions lie beyond the exclusion
        # zone (closer pairs are deliberately similar: that is what the
        # FIFO-deferred indexing protects against)
        position = {
            i: ds.planted[i].origin_frame if i in ds.planted else i for i in range(600)
        }
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(4000):
            i, j = (int(x) for x in rng.integers(0, 600, 2))
            if abs(position[i] - position[j]) < 300:
                continue
            worst = max(worst, abs(similarity(by_id[i], by_id[j])))
        assert worst <= 0.3

    def test_planted_geometry_is_exact_without_noise(self):
        from loopdet import sampson_distance

        ds = revisit_dataset()
        locals_by_id = {f[0]: f[2] for f in ds.frames}
        for q, loop in ds.planted.items():
            query, origin = locals_by_id[q], locals_by_id[loop.origin_frame]
            n = loop.inlier_count
            errs = sampson_distance(loop.fundamental, origin.coords[:n], query.coords[:n])
            # coordinates are stored float32: exact up to pixel rounding noise
            assert errs.max() < 1e-3

    def test_overlapping_segments_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            SynthConfig(
                n_frames=200,
                segments=(RevisitSegment(10, 60, 20), RevisitSegment(15, 120, 20)),
                exclusion_zone=20,
            )

    def test_exclusion_violation_rejected(self):
        with pytest.raises(ValueError, match="exclusion"):
            SynthConfig(
                n_frames=200,
                segments=(RevisitSegment(10, 25, 10),),
                exclusion_zone=20,
            )

    @pytest.mark.parametrize("field, value", [
        ("dim_global", 0), ("dim_local", 0), ("features_per_frame", -3),
        ("sigma_px", -1.0), ("sigma_desc", math.inf), ("sigma_global", math.nan),
        ("seed", -1),
    ])
    def test_bad_size_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            SynthConfig(n_frames=10, **{field: value})

    def test_deterministic_per_seed(self):
        a = revisit_dataset(seed=9)
        b = revisit_dataset(seed=9)
        for (ia, ga, la), (ib, gb, lb) in zip(a.frames, b.frames):
            assert ia == ib
            np.testing.assert_array_equal(ga.values, gb.values)
            np.testing.assert_array_equal(la.descriptors, lb.descriptors)
            np.testing.assert_array_equal(la.coords, lb.coords)

    def test_noiseless_round_trip_recall_bound(self):
        # only streak-leading frames may be missed: recall >= 1 - (beta-1)/L
        ds = revisit_dataset()
        seg_len = 25
        cfg = fast_config(tau=8)
        curve = pr_curve(ds.frames, ds.ground_truth, cfg, [8])
        point = curve[0]
        assert point.precision == 1.0
        assert point.recall >= 1.0 - (cfg.beta - 1) / seg_len


def oracle_generate_synthetic(cfg):
    """The frame-by-frame generator with a separate walk copy and role
    tuples, kept as the reference that pins every stream's bytes."""
    from loopdet import GlobalDescriptor, LocalFeatureSet, l2_normalize
    from loopdet.evaluation import (
        DRIFT,
        IMAGE_SIZE,
        SCORE_RANGE,
        EpipolarScene,
        PlantedLoop,
        _unit_rows,
    )

    rng = np.random.default_rng(cfg.seed)
    T, D, d = cfg.n_frames, cfg.dim_global, cfg.dim_local

    base = np.empty((T, D))
    v = _unit_rows(rng, 1, D)[0]
    step = math.sqrt(1.0 - DRIFT**2)
    for i in range(T):
        base[i] = v
        w = _unit_rows(rng, 1, D)[0]
        v = l2_normalize(DRIFT * v + step * w)

    role = {}  # frame -> ("origin"|"revisit", partner)
    for seg in cfg.segments:
        for j in range(seg.length):
            role[seg.origin_start + j] = ("origin", seg.revisit_start + j)
            role[seg.revisit_start + j] = ("revisit", seg.origin_start + j)

    n_total = cfg.features_per_frame
    n_out = int(round(cfg.outlier_fraction * n_total))
    n_inl = n_total - n_out
    lo, hi = SCORE_RANGE

    globals_ = np.empty((T, D))
    locals_, planted, gt_pairs = {}, {}, {}
    for i in range(T):
        kind, partner = role.get(i, (None, -1))
        if kind == "revisit":
            noise = cfg.sigma_global * _unit_rows(rng, 1, D)[0]
            globals_[i] = l2_normalize(base[partner] + noise)
        else:
            globals_[i] = base[i]

        if kind == "revisit":
            scene = EpipolarScene(rng)
            pa, pb = scene.correspondences(n_inl)
            if cfg.sigma_px > 0:
                pb = pb + rng.normal(0.0, cfg.sigma_px, pb.shape)
            desc = _unit_rows(rng, n_inl, d)
            desc_b = desc
            if cfg.sigma_desc > 0:
                desc_b = desc + cfg.sigma_desc * rng.standard_normal((n_inl, d))
                desc_b /= np.linalg.norm(desc_b, axis=1, keepdims=True)
            oa, ob = scene.outlier_pairs(n_out) if n_out else (np.empty((0, 2)),) * 2
            odesc = _unit_rows(rng, n_out, d) if n_out else np.empty((0, d))
            locals_[partner] = LocalFeatureSet(
                partner,
                np.vstack([pa, oa]).astype(np.float32),
                rng.uniform(lo, hi, n_total).astype(np.float32),
                np.vstack([desc, odesc]).astype(np.float32),
            )
            locals_[i] = LocalFeatureSet(
                i,
                np.vstack([pb, ob]).astype(np.float32),
                rng.uniform(lo, hi, n_total).astype(np.float32),
                np.vstack([desc_b, odesc]).astype(np.float32),
            )
            planted[i] = PlantedLoop(i, partner, scene.F, n_inl)
            gt_pairs[i] = frozenset([partner])
        elif kind is None:
            w_img, h_img = IMAGE_SIZE
            locals_[i] = LocalFeatureSet(
                i,
                np.column_stack(
                    [rng.uniform(0, w_img, n_total), rng.uniform(0, h_img, n_total)]
                ).astype(np.float32),
                rng.uniform(lo, hi, n_total).astype(np.float32),
                _unit_rows(rng, n_total, d).astype(np.float32),
            )

    frames = [
        (i, GlobalDescriptor(i, globals_[i].astype(np.float32)), locals_[i])
        for i in range(T)
    ]
    return frames, planted, GroundTruth(gt_pairs, frozenset(range(T)))


class TestBitIdentity:
    """The one-array generator draws exactly the streams of the oracle above;
    a change to any existing stream shows here first."""

    @pytest.mark.parametrize("cfg", [
        SynthConfig(n_frames=200, segments=(RevisitSegment(10, 60, 10),
                                            RevisitSegment(100, 150, 12)),
                    dim_global=32, features_per_frame=30, exclusion_zone=20, seed=5),
        # demo 04's noisy stream: every noise source and outliers
        SynthConfig(n_frames=1200, segments=(RevisitSegment(100, 500, 60),
                                             RevisitSegment(250, 900, 50)),
                    dim_global=128, features_per_frame=60, sigma_global=0.02,
                    sigma_px=1.0, outlier_fraction=0.3, sigma_desc=0.05,
                    exclusion_zone=100, seed=11),
        SynthConfig(n_frames=120, segments=(RevisitSegment(10, 60, 25),), dim_global=16,
                    features_per_frame=0, exclusion_zone=20, seed=3),
        SynthConfig(n_frames=1, dim_global=8, features_per_frame=5, seed=4),
    ], ids=["two_segments", "demo04_noisy", "no_features", "one_frame"])
    def test_streams_equal_oracle(self, cfg):
        ds = generate_synthetic(cfg)
        frames, planted, gt = oracle_generate_synthetic(cfg)
        assert len(ds.frames) == len(frames) == cfg.n_frames
        for (i, g, loc), (oi, og, oloc) in zip(ds.frames, frames):
            assert (i, g.frame_id, loc.frame_id) == (oi, og.frame_id, oloc.frame_id)
            assert g.values.tobytes() == og.values.tobytes()
            for field in ("coords", "scores", "descriptors"):
                a, b = getattr(loc, field), getattr(oloc, field)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert list(ds.planted) == list(planted)
        for q, loop in ds.planted.items():
            want = planted[q]
            assert (loop.query_frame, loop.origin_frame, loop.inlier_count) == (
                want.query_frame, want.origin_frame, want.inlier_count)
            assert loop.fundamental.tobytes() == want.fundamental.tobytes()
        assert list(ds.ground_truth.pairs.items()) == list(gt.pairs.items())
        assert ds.ground_truth.frames == gt.frames


def timed_records(ds, cfg):
    records, _ = collect_frame_records(ds.frames, cfg, ds.config.dim_global)
    return records


class TestTimingHarness:
    """The per-stage timing table is aggregated from the per-frame records."""

    def test_empty_dataset_empty_report(self):
        assert aggregate_timings([]) == {}
        # CSV still well formed
        buf = io.StringIO()
        write_timing_csv(buf, [])
        assert buf.getvalue() == "stage,mean_ms,std_ms,max_ms,min_ms\n"

    def test_stats_internally_consistent(self):
        ds = revisit_dataset()
        records = timed_records(ds, fast_config())
        assert len(records) == len(ds.frames)
        table = aggregate_timings(records)
        assert {"feature_ingestion", "adding_feature", "graph_searching",
                "whole_system"} <= set(table)
        assert list(table) == [s for s in STAGES if s in table]
        for mean_ms, std_ms, max_ms, min_ms in table.values():
            assert min_ms <= mean_ms <= max_ms
            assert std_ms >= 0.0
        buf = io.StringIO()
        write_timing_csv(buf, records)
        rows = buf.getvalue().splitlines()
        assert rows[0] == "stage,mean_ms,std_ms,max_ms,min_ms"
        assert [r.split(",")[0] for r in rows[1:]] == list(table)

    def test_search_time_grows_sublinearly(self):
        # ten-fold more frames must not cost ten-fold search time per query
        small = revisit_dataset(n_frames=150, segments=(), seed=3)
        large = revisit_dataset(n_frames=1500, segments=(), seed=3)
        cfg = fast_config()
        t_small = aggregate_timings(timed_records(small, cfg))["graph_searching"][0]
        t_large = aggregate_timings(timed_records(large, cfg))["graph_searching"][0]
        assert t_large < 5.0 * t_small

    def test_aggregate_skips_stages_that_never_ran(self):
        stages = dict.fromkeys(STAGES, 0.0) | {"feature_ingestion": 0.001}
        table = aggregate_timings([FrameRecord(0, None, -1, math.nan, stages)])
        assert table == {"feature_ingestion": (1.0, 0.0, 1.0, 1.0)}
