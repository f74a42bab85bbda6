import numpy as np
import pytest

import loopdet.pipeline as pipeline
from loopdet import (
    DegenerateDescriptorError,
    EpipolarScene,
    GlobalDescriptor,
    HnswIndex,
    HnswParams,
    LocalFeatureSet,
    LoopClosurePipeline,
    Neighbor,
    PipelineConfig,
    RevisitSegment,
    SynthConfig,
    generate_synthetic,
    l2_normalize,
    replay_detections,
    run_pipeline,
)
from loopdet.pipeline import TemporalFilter
from conftest import empty_set, unit_rows

FAST_HNSW = HnswParams(M=8, ef_construction=24, ef_search=24, rng_seed=1)


def tiny_config(**kw):
    base = dict(
        psi=2.0, phi=10.0, n=3, beta=2, tau=10, delta=0.0, hnsw=FAST_HNSW, seed=1
    )
    base.update(kw)
    return PipelineConfig(**base)


def drifting_frames(rng, count, dim=16):
    """Featureless frames with slowly drifting globals (no revisits)."""
    frames = []
    v = unit_rows(rng, 1, dim)[0]
    for i in range(count):
        frames.append((i, GlobalDescriptor(i, v.astype(np.float32)), empty_set(i, 4)))
        w = unit_rows(rng, 1, dim)[0]
        v = 0.97 * v + 0.243 * w
        v /= np.linalg.norm(v)
    return frames


def small_revisit_dataset(**kw):
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


class TestConfig:
    def test_defaults_follow_parameter_table(self):
        cfg = PipelineConfig()
        assert (cfg.psi, cfg.n, cfg.epsilon, cfg.beta, cfg.delta) == (40.0, 5, 0.7, 2, 15.0)
        assert cfg.hnsw.M == 48 and cfg.hnsw.ef_search == 40
        assert cfg.window == 5 * 3

    def test_exclusion_size(self):
        assert PipelineConfig(psi=40.0, phi=10.0).n_non == 400
        assert PipelineConfig(psi=0.5, phi=2.0).n_non == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(psi=0.01, phi=1.0)  # psi*phi < 1
        with pytest.raises(ValueError):
            PipelineConfig(epsilon=1.0)
        with pytest.raises(ValueError):
            PipelineConfig(beta=0)
        with pytest.raises(ValueError):
            PipelineConfig(n=0)


class TestTemporalFilter:
    def test_emits_on_beta_th_consecutive_success(self):
        tf = TemporalFilter(beta=2, window=15)
        assert tf.update(100) is False
        assert tf.update(101) is True
        assert tf.update(102) is True  # streak keeps emitting

    def test_isolated_success_never_emits(self):
        tf = TemporalFilter(beta=2, window=15)
        assert tf.update(100) is False
        assert tf.update(None) is False
        assert tf.update(200) is False
        assert tf.update(None) is False

    def test_failure_resets_streak(self):
        tf = TemporalFilter(beta=3, window=15)
        assert [tf.update(m) for m in (10, 11, None, 12, 13, 14)] == [
            False, False, False, False, False, True
        ]

    def test_far_apart_matches_start_new_streak(self):
        tf = TemporalFilter(beta=2, window=15)
        assert tf.update(100) is False
        assert tf.update(500) is False  # outside window: new streak, not emission
        assert tf.update(501) is True

    def test_beta_one_emits_immediately(self):
        tf = TemporalFilter(beta=1, window=15)
        assert tf.update(7) is True


class TestProcessFrame:
    def test_no_detection_inside_initial_exclusion(self, rng):
        cfg = tiny_config()  # N_non = 20
        frames = drifting_frames(rng, 20)
        detections, pipe = run_pipeline(frames, cfg, 16)
        assert detections == []
        assert len(pipe.index) == 0  # nothing popped yet

    def test_monotonic_frame_ids_enforced(self, rng):
        cfg = tiny_config()
        pipe = LoopClosurePipeline(cfg, 16)
        g = GlobalDescriptor(5, unit_rows(rng, 1, 16)[0])
        pipe.process_frame(5, g, empty_set(5, 4))
        with pytest.raises(ValueError, match="increasing"):
            pipe.process_frame(5, g, empty_set(5, 4))

    def test_dimension_mismatch_rejected(self, rng):
        pipe = LoopClosurePipeline(tiny_config(), 16)
        with pytest.raises(ValueError, match="dimension"):
            pipe.process_frame(0, GlobalDescriptor(0, np.ones(8)), empty_set(0, 4))

    def test_zero_descriptor_rejected_before_any_state_changes(self, rng):
        cfg = tiny_config()  # N_non = 20
        pipe = LoopClosurePipeline(cfg, 16)
        for fid, g, lf in drifting_frames(rng, 25):
            pipe.process_frame(fid, g, lf)
        assert len(pipe.fifo) == cfg.n_non
        fifo, indexed = list(pipe.fifo), len(pipe.index)
        records, last = list(pipe.records), pipe._last_frame_id
        # and descriptors with a NaN or an infinite entry: the type rejects
        # them, so no such frame reaches the pipeline
        for bad in (0.0, np.nan, np.inf):
            g = np.zeros(16)
            g[3] = bad
            with pytest.raises(DegenerateDescriptorError):
                GlobalDescriptor(25, g)
            assert list(pipe.fifo) == fifo
            assert len(pipe.index) == indexed
            assert pipe.records == records
            assert pipe._last_frame_id == last == 24
            assert 25 not in pipe.locals_store

    @pytest.mark.parametrize("named", ["locals", "global"])
    def test_feature_set_of_another_frame_rejected_before_any_state_changes(
        self, rng, named
    ):
        cfg = tiny_config()  # N_non = 20
        pipe = LoopClosurePipeline(cfg, 16)
        for fid, g, lf in drifting_frames(rng, 25):
            pipe.process_frame(fid, g, lf)
        fifo, indexed = list(pipe.fifo), len(pipe.index)
        records, last = list(pipe.records), pipe._last_frame_id
        v = unit_rows(rng, 1, 16)[0]
        g = GlobalDescriptor(24 if named == "global" else 25, v)
        lf = empty_set(24 if named == "locals" else 25, 4)
        with pytest.raises(ValueError, match="names frame 24"):
            pipe.process_frame(25, g, lf)
        assert list(pipe.fifo) == fifo
        assert len(pipe.index) == indexed
        assert pipe.records == records
        assert pipe._last_frame_id == last == 24
        assert 25 not in pipe.locals_store
        pipe.process_frame(25, GlobalDescriptor(25, v), empty_set(25, 4))

    def test_local_dimension_change_rejected_before_any_state_changes(self, rng):
        cfg = tiny_config(psi=1.0, phi=2.0)  # N_non = 2

        def frame(fid, local_dim, count=10):
            coords = rng.uniform(0.0, 640.0, (count, 2))
            lf = LocalFeatureSet(
                fid, coords, np.ones(count), rng.standard_normal((count, local_dim))
            )
            return fid, GlobalDescriptor(fid, unit_rows(rng, 1, 16)[0]), lf

        pipe = LoopClosurePipeline(cfg, 16)
        # an empty set matches any dimension; the first non-empty one sets it
        pipe.process_frame(*frame(0, 4, count=0))
        for fid in range(1, 6):
            pipe.process_frame(*frame(fid, 16))
        assert len(pipe.fifo) == cfg.n_non == 2
        fifo, indexed = [fid for fid, _ in pipe.fifo], len(pipe.index)
        stored, records, last = list(pipe.locals_store), list(pipe.records), pipe._last_frame_id
        with pytest.raises(ValueError, match="local descriptor dimension 12 does not match 16"):
            pipe.process_frame(*frame(6, 12))
        assert [fid for fid, _ in pipe.fifo] == fifo
        assert len(pipe.index) == indexed
        assert list(pipe.locals_store) == stored
        assert pipe.records == records
        assert pipe._last_frame_id == last == 5
        pipe.process_frame(*frame(6, 16))
        pipe.process_frame(*frame(7, 12, count=0))
        assert pipe._last_frame_id == 7 and len(pipe.fifo) == 2

    def test_detection_starts_on_second_revisit_frame(self):
        # beta = 2: the streak-leading revisit frame is never reported
        ds = small_revisit_dataset()
        detections, _ = run_pipeline(ds.frames, tiny_config(), 32)
        assert detections, "expected loop detections"
        assert min(d.query_frame for d in detections) == 61
        assert all(d.query_frame != 60 for d in detections)
        assert {d.query_frame for d in detections} == set(range(61, 85))

    def test_matched_frames_follow_the_origin(self):
        ds = small_revisit_dataset()
        detections, _ = run_pipeline(ds.frames, tiny_config(), 32)
        for det in detections:
            assert det.matched_frame == det.query_frame - 50
            assert det.similarity > 0.99
            assert det.inlier_count >= 10

    def test_single_frame_revisit_never_detected(self):
        ds = small_revisit_dataset(segments=(RevisitSegment(10, 60, 1),))
        detections, _ = run_pipeline(ds.frames, tiny_config(), 32)
        assert detections == []

    def test_exclusion_zone_safety(self):
        ds = small_revisit_dataset()
        cfg = tiny_config()
        detections, _ = run_pipeline(ds.frames, cfg, 32)
        assert all(d.query_frame - d.matched_frame >= cfg.n_non for d in detections)

    def test_caller_buffer_reuse_does_not_reach_the_index(self, rng):
        # GlobalDescriptor keeps the caller's array; frame 0 enters the
        # index N_non = 100 frames later, after its buffer was overwritten
        pipe = LoopClosurePipeline(tiny_config(psi=10.0), 16)
        frames = drifting_frames(rng, 101)
        buf = unit_rows(rng, 1, 16)[0]
        expected = l2_normalize(buf).astype(np.float32)
        g = GlobalDescriptor(0, buf)
        pipe.process_frame(0, g, frames[0][2])
        g.values[:] = unit_rows(rng, 1, 16)[0]
        for fid, g_, lf in frames[1:]:
            pipe.process_frame(fid, g_, lf)
        assert len(pipe.index) == 1
        assert pipe.index._vectors[0].tobytes() == expected.tobytes()

    def test_fifo_conservation(self, rng):
        cfg = tiny_config()
        pipe = LoopClosurePipeline(cfg, 16)
        for i, (fid, g, lf) in enumerate(drifting_frames(rng, 50)):
            pipe.process_frame(fid, g, lf)
            assert len(pipe.fifo) + len(pipe.index) == i + 1
            assert len(pipe.fifo) <= cfg.n_non

    def test_streak_semantics(self):
        # a detection at frame i implies verified records at i-beta+1 .. i
        ds = small_revisit_dataset()
        cfg = tiny_config(beta=3)
        detections, pipe = run_pipeline(ds.frames, cfg, 32)
        assert detections
        by_frame = {r.query_frame: r for r in pipe.records}
        for det in detections:
            for back in range(cfg.beta):
                rec = by_frame[det.query_frame - back]
                assert rec.matched_frame is not None
                assert rec.inlier_count >= cfg.tau

    def test_determinism(self):
        ds = small_revisit_dataset()
        cfg = tiny_config()
        d1, _ = run_pipeline(ds.frames, cfg, 32)
        d2, _ = run_pipeline(ds.frames, cfg, 32)
        assert d1
        assert [(d.query_frame, d.matched_frame, d.inlier_count, d.similarity) for d in d1] == [
            (d.query_frame, d.matched_frame, d.inlier_count, d.similarity) for d in d2
        ]

    def test_detection_is_the_frames_record(self):
        ds = small_revisit_dataset()
        pipe = LoopClosurePipeline(tiny_config(), 32)
        returned = [pipe.process_frame(*frame) for frame in ds.frames]
        assert any(returned)
        for out, rec in zip(returned, pipe.records):
            assert out is None or out is rec

    def test_score_filter_applied_at_ingestion(self):
        ds = small_revisit_dataset()
        cfg = tiny_config(delta=1e9)  # filters every local feature away
        detections, pipe = run_pipeline(ds.frames, cfg, 32)
        assert detections == []
        assert all(len(ls) == 0 for ls in pipe.locals_store.values())


class TestSearchableRegion:
    """The index holds every frame but the last ``n_non``, which wait in the FIFO."""

    def run_empty_frames(self, count, cfg, dim=8):
        rng = np.random.default_rng(0)
        frames = [
            (i, GlobalDescriptor(i, unit_rows(rng, 1, dim)[0]), empty_set(i, 4))
            for i in range(count)
        ]
        _, pipe = run_pipeline(frames, cfg, dim)
        return pipe

    def test_empty_before_queue_fills(self):
        cfg = PipelineConfig(psi=40.0, phi=10.0, hnsw=FAST_HNSW, n=2)
        pipe = self.run_empty_frames(100, cfg)
        assert len(pipe.index) == 0 and [fid for fid, _ in pipe.fifo] == list(range(100))

    def test_range_after_thousand_frames(self):
        cfg = PipelineConfig(psi=40.0, phi=10.0, hnsw=FAST_HNSW, n=2)
        pipe = self.run_empty_frames(1000, cfg)
        assert len(pipe.index) == 600 and [fid for fid, _ in pipe.fifo] == list(range(600, 1000))

    def test_minimal_exclusion(self):
        cfg = PipelineConfig(psi=0.1, phi=10.0, hnsw=FAST_HNSW, n=2)
        pipe = self.run_empty_frames(10, cfg)
        assert cfg.n_non == 1
        # all but frame 9 itself
        assert len(pipe.index) == 9 and [fid for fid, _ in pipe.fifo] == [9]


def verify(pipe, query, candidates):
    return pipe.verify_candidates(query, candidates, dict.fromkeys(pipeline.STAGES, 0.0))


class TestVerifyCandidates:
    def planted_candidate(self, rng, frame_id, n_inliers, query_dim=40):
        """Candidate locals plus the matching query-side features."""
        scene = EpipolarScene(rng)
        pa, pb = scene.correspondences(n_inliers)
        desc = unit_rows(rng, n_inliers, query_dim)
        cand = LocalFeatureSet(frame_id, pa, np.full(n_inliers, 50.0), desc)
        return cand, pb, desc

    def build(self, tau=15):
        return LoopClosurePipeline(tiny_config(tau=tau, n=5), 16)

    def test_all_failures_give_none(self, rng):
        pipe = self.build()
        junk = LocalFeatureSet(7, rng.uniform(0, 100, (20, 2)), np.full(20, 50.0),
                               unit_rows(rng, 20, 40))
        pipe.locals_store[7] = junk
        query = LocalFeatureSet(99, rng.uniform(0, 100, (20, 2)), np.full(20, 50.0),
                                unit_rows(rng, 20, 40))
        matched, inliers, sim = verify(pipe, query, [Neighbor(7, 0.9)])
        assert (matched, inliers) == (None, -1) and np.isnan(sim)

    def test_single_verified_candidate_wins(self, rng):
        pipe = self.build()
        cand, pb, desc = self.planted_candidate(rng, 7, 40)
        pipe.locals_store[7] = cand
        query = LocalFeatureSet(99, pb, np.full(40, 50.0), desc)
        assert verify(pipe, query, [Neighbor(7, 0.9)]) == (7, 40, 0.9)

    def test_highest_inlier_candidate_selected(self, rng):
        # two overlapping revisits of different quality: 20 vs 35 inliers
        pipe = self.build(tau=15)
        cand_a, pb_a, desc_a = self.planted_candidate(rng, 7, 20)
        cand_b, pb_b, desc_b = self.planted_candidate(rng, 8, 35)
        pipe.locals_store[7] = cand_a
        pipe.locals_store[8] = cand_b
        query = LocalFeatureSet(
            99,
            np.vstack([pb_a, pb_b]),
            np.full(55, 50.0),
            np.vstack([desc_a, desc_b]),
        )
        assert verify(pipe, query, [Neighbor(7, 0.99), Neighbor(8, 0.98)]) == (8, 35, 0.98)

    def test_tau_gates_the_record_not_verification(self):
        # a 20-inlier candidate below tau=25 is the frame's recorded best
        # candidate; the gate keeps it from the temporal filter
        for tau, fires in ((25, False), (20, True)):
            rng = np.random.default_rng(0)
            pipe = LoopClosurePipeline(tiny_config(psi=0.1, tau=tau, beta=1, n=5), 16)
            cand, pb, desc = self.planted_candidate(rng, 7, 20)
            v = unit_rows(rng, 1, 16)[0]
            assert pipe.process_frame(7, GlobalDescriptor(7, v), cand) is None
            detection = pipe.process_frame(
                99, GlobalDescriptor(99, v), LocalFeatureSet(99, pb, np.full(20, 50.0), desc)
            )
            rec = pipe.records[-1]
            assert (rec.matched_frame, rec.inlier_count) == (7, 20)
            assert (detection is not None) == fires


class TestVerificationCalls:
    def test_matcher_and_ransac_run_once_per_candidate(self, monkeypatch):
        # perfbench's tracer wraps these two names in loopdet.pipeline, and
        # reads a call's match count with len()
        searches, matched, verified = [], [], []
        knn = HnswIndex.knn_search
        match, ransac = pipeline.brute_force_match, pipeline.ransac_fundamental

        def counted_knn(index, query, k, ef=None):
            result = knn(index, query, k, ef)
            searches.append(result)
            return result

        def counted_match(a, b, epsilon):
            result = match(a, b, epsilon)
            assert len(result) == len(list(result)) == result.idx_a.size == result.dist.size
            matched.append((a.frame_id, b.frame_id, len(result)))
            return result

        def counted_ransac(matches, a, b, tau, rng):
            verified.append((a.frame_id, b.frame_id, len(matches)))
            return ransac(matches, a, b, tau, rng)

        monkeypatch.setattr(HnswIndex, "knn_search", counted_knn)
        monkeypatch.setattr(pipeline, "brute_force_match", counted_match)
        monkeypatch.setattr(pipeline, "ransac_fundamental", counted_ransac)
        ds = small_revisit_dataset(outlier_fraction=0.3)
        pipe = LoopClosurePipeline(tiny_config(), 32)
        expected = []
        for frame_id, g, locals_ in ds.frames:
            searched = len(searches)
            pipe.process_frame(frame_id, g, locals_)
            for found in searches[searched:]:
                expected += [(frame_id, nb.frame_id) for nb in found]
        assert [(q, c) for q, c, _ in matched] == expected
        assert verified == [call for call in matched if call[2] >= 8]
        assert 0 < len(verified) < len(matched)


class TestReplay:
    def test_replay_matches_live_run_across_taus(self):
        ds = small_revisit_dataset(sigma_px=1.0, outlier_fraction=0.3, sigma_desc=0.05)
        base = tiny_config(tau=0)
        _, permissive = run_pipeline(ds.frames, base, 32)
        for tau in (5, 12, 20, 28):
            cfg = tiny_config(tau=tau)
            live, live_pipe = run_pipeline(ds.frames, cfg, 32)
            replayed = replay_detections(permissive.records, tau, cfg.beta, cfg.window)
            assert [(d.query_frame, d.matched_frame) for d in live] == [
                (q, m) for q, m, _ in replayed
            ]
            # the records do not depend on tau
            assert [(r.query_frame, r.matched_frame, r.inlier_count)
                    for r in live_pipe.records] == [
                (r.query_frame, r.matched_frame, r.inlier_count) for r in permissive.records
            ]
