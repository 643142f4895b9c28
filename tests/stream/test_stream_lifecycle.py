"""Unit coverage for the streaming lifecycle pieces: the seeded
reservoir sampler (determinism by construction — the RL007 story),
detector parameter validation, manual refits, and the stats surface."""

import numpy as np
import pytest

from repro import LocalOutlierFactor, obs
from repro.exceptions import ValidationError
from repro.stream import ReservoirSampler, StreamingDetector


class TestReservoirSampler:
    def test_rejects_unseeded_construction(self):
        # Replay determinism is by construction: an unseeded reservoir
        # would make every drift decision irreproducible.
        with pytest.raises(ValidationError, match="seeded"):
            ReservoirSampler(8, seed=None)

    def test_rejects_empty_capacity(self):
        with pytest.raises(ValidationError):
            ReservoirSampler(0)

    def test_fills_then_stays_bounded(self):
        rs = ReservoirSampler(4, seed=0)
        for i in range(20):
            rs.offer([float(i)])
        assert len(rs) == 4
        assert rs.n_seen == 20
        assert rs.sample().shape == (4, 1)

    def test_same_seed_same_stream_same_sample(self):
        a, b = ReservoirSampler(5, seed=123), ReservoirSampler(5, seed=123)
        rng = np.random.default_rng(9)
        stream = rng.normal(size=(100, 3))
        for row in stream:
            a.offer(row)
            b.offer(row)
        np.testing.assert_array_equal(a.sample(), b.sample())

    def test_different_seed_may_differ_but_stays_uniform_sized(self):
        a, b = ReservoirSampler(5, seed=1), ReservoirSampler(5, seed=2)
        rng = np.random.default_rng(9)
        for row in rng.normal(size=(100, 2)):
            a.offer(row)
            b.offer(row)
        assert a.sample().shape == b.sample().shape == (5, 2)


class TestDetectorValidation:
    def test_requires_store_dir(self):
        with pytest.raises(ValidationError, match="store_dir"):
            StreamingDetector(3, 12, None)

    def test_rejects_bad_drift_quantile(self, tmp_path):
        with pytest.raises(ValidationError, match="drift_quantile"):
            StreamingDetector(3, 12, tmp_path, drift_quantile=1.5)

    def test_rejects_negative_drift_factor(self, tmp_path):
        with pytest.raises(ValidationError, match="drift_factor"):
            StreamingDetector(3, 12, tmp_path, drift_factor=-0.1)

    def test_rejects_warmup_not_exceeding_min_pts(self, tmp_path):
        with pytest.raises(ValidationError, match="warmup"):
            StreamingDetector(5, 12, tmp_path, warmup=5)

    def test_rejects_bad_refit_range(self, tmp_path):
        with pytest.raises(ValidationError, match="refit_min_pts"):
            StreamingDetector(3, 12, tmp_path, refit_min_pts=(5, 3))

    def test_rejects_unseeded_reservoir(self, tmp_path):
        with pytest.raises(ValidationError, match="seeded"):
            StreamingDetector(3, 12, tmp_path, seed=None)


class TestLifecycle:
    def test_bootstrap_refit_at_warmup(self, tmp_path):
        rng = np.random.default_rng(0)
        det = StreamingDetector(3, 16, tmp_path, warmup=8, seed=0)
        updates = [det.observe(p) for p in rng.normal(size=(8, 2))]
        assert det.serving is not None
        assert [u.refit_triggered for u in updates].index(True) == 7
        recs = det.refits
        assert len(recs) == 1 and recs[0].reason == "bootstrap"
        assert recs[0].parent is None
        assert recs[0].n_points == 8
        # Scores flow once a model serves.
        upd = det.observe(rng.normal(size=2))
        assert upd.score is not None and upd.score > 0.0

    def test_no_scores_and_no_checks_before_any_model(self, tmp_path):
        det = StreamingDetector(3, 16, tmp_path, warmup=10, check_every=1, seed=0)
        rng = np.random.default_rng(1)
        for p in rng.normal(size=(5, 2)):
            upd = det.observe(p)
            assert upd.score is None
            assert not upd.drift_checked
        assert det.serving is None
        assert det.stats()["drift"]["checks"] == 0

    def test_manual_refit_single_flight_and_reason(self, tmp_path):
        rng = np.random.default_rng(2)
        det = StreamingDetector(3, 16, tmp_path, warmup=8, seed=0)
        assert not det.request_refit()  # window far too small
        for p in rng.normal(size=(10, 2)):
            det.observe(p)
        assert det.request_refit(reason="manual")
        recs = det.refits
        assert [r.reason for r in recs] == ["bootstrap", "manual"]
        assert recs[1].parent == recs[0].fingerprint

    def test_initial_store_first_check_seeds_reference(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        store = tmp_path / "seed.rlof"
        LocalOutlierFactor(min_pts=4).fit(X).save(store)
        det = StreamingDetector(
            4, 16, tmp_path / "refits",
            check_every=1, drift_factor=0.0, cooldown=1000,
            initial_store=store, seed=0,
        )
        first = det.observe(rng.normal(size=2))
        assert first.drift_checked and not first.drifted  # seeding check
        second = det.observe(rng.normal(size=2))
        assert second.drift_checked and second.drifted  # factor 0: any shift
        stats = det.stats()
        assert stats["drift"]["checks"] == 2
        assert stats["drift"]["detected"] == 1
        assert stats["model"]["fingerprint"] == det.fingerprint
        assert stats["refits"] == 0  # cooldown blocked the trigger

    def test_background_refit_joins_and_swaps(self, tmp_path):
        rng = np.random.default_rng(4)
        det = StreamingDetector(3, 16, tmp_path, warmup=8, seed=0, background=True)
        for p in rng.normal(size=(8, 2)):
            det.observe(p)
        assert det.wait_refit(timeout=60.0)
        assert det.serving is not None
        assert det.stats()["refit_active"] is False
        assert det.model_path is not None and det.model_path.exists()

    def test_swap_callback_receives_each_loaded_scorer(self, tmp_path):
        rng = np.random.default_rng(5)
        swapped = []
        det = StreamingDetector(
            3, 16, tmp_path, warmup=8, seed=0, swap=swapped.append
        )
        for p in rng.normal(size=(10, 2)):
            det.observe(p)
        det.request_refit(reason="manual")
        # One scorer per refit, for that refit's store, and the last one
        # handed over is the detector's own serving model.
        assert [s.model.path for s in swapped] == [r.path for r in det.refits]
        assert swapped[-1] is det.serving

    def test_observe_many_parallels_scores(self, tmp_path):
        rng = np.random.default_rng(6)
        det = StreamingDetector(3, 16, tmp_path, warmup=8, check_every=1, seed=0)
        det.observe_many(rng.normal(size=(8, 2)))
        updates = det.observe_many(rng.normal(size=(3, 2)), scores=[1.0, 2.0, 3.0])
        assert [u.score for u in updates] == [1.0, 2.0, 3.0]


class TestObsCounters:
    def test_stream_counter_names_are_registered(self):
        # RL003: every stream.* counter the lifecycle emits must be in
        # the generated registry, or instrumented runs silently drop it.
        from repro.obs_registry import COUNTERS

        for name in (
            "stream.ingested",
            "stream.window.inserts",
            "stream.window.evictions",
            "stream.drift.checks",
            "stream.drift.detected",
            "stream.refits",
            "stream.swaps",
            "stream.ingest.errors",
        ):
            assert name in COUNTERS, name

    def test_counters_disabled_by_default(self, tmp_path):
        rng = np.random.default_rng(7)
        det = StreamingDetector(3, 16, tmp_path, warmup=8, seed=0)
        for p in rng.normal(size=(8, 2)):
            det.observe(p)
        assert obs.counter("stream.ingested") == 0  # obs off: no-op
