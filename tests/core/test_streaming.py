"""Sliding-window streaming LOF detection."""

import numpy as np
import pytest

from repro.core import MaterializationDB, SlidingWindowLOF, StreamingLOFDetector
from repro.exceptions import ValidationError


@pytest.fixture
def detector():
    return StreamingLOFDetector(min_pts=5, window=40, threshold=2.5)


class TestWarmup:
    def test_no_scores_during_warmup(self, detector):
        rng = np.random.default_rng(0)
        for i in range(5):
            event = detector.observe(rng.normal(size=2))
            assert event.score is None
            assert event.is_outlier is None
        assert not detector.warmed_up

    def test_scores_after_warmup(self, detector):
        rng = np.random.default_rng(0)
        events = detector.observe_many(rng.normal(size=(10, 2)))
        assert events[-1].score is not None
        assert detector.warmed_up


class TestDetection:
    def test_flags_blatant_anomaly(self, detector):
        rng = np.random.default_rng(1)
        detector.observe_many(rng.normal(size=(30, 2)))
        event = detector.observe([30.0, 30.0])
        assert event.is_outlier
        assert event.score > 5

    def test_ordinary_points_pass(self, detector):
        rng = np.random.default_rng(2)
        events = detector.observe_many(rng.normal(size=(60, 2)))
        flagged = [e for e in events if e.is_outlier]
        assert len(flagged) <= 3  # rare statistical flukes at most

    def test_flagged_events_accessor(self, detector):
        rng = np.random.default_rng(3)
        detector.observe_many(rng.normal(size=(30, 2)))
        detector.observe([40.0, -40.0])
        assert len(detector.flagged_events()) >= 1


class TestWindow:
    def test_window_bounds_memory(self):
        det = StreamingLOFDetector(min_pts=4, window=25, threshold=2.0)
        rng = np.random.default_rng(4)
        det.observe_many(rng.normal(size=(100, 2)))
        assert det.n_in_window == 25

    def test_concept_drift_ages_out(self):
        """After the regime shifts, the new regime becomes 'normal' once
        the window has turned over."""
        det = StreamingLOFDetector(min_pts=5, window=30, threshold=2.5)
        rng = np.random.default_rng(5)
        det.observe_many(rng.normal(size=(40, 2)))             # regime A
        shifted = rng.normal(loc=(50.0, 50.0), size=(40, 2))    # regime B
        events = det.observe_many(shifted)
        # The first few regime-B points are outliers; after the window
        # fills with regime B, they are ordinary.
        early = [e for e in events[:3] if e.is_outlier]
        late = [e for e in events[-5:] if e.is_outlier]
        assert len(early) >= 1
        assert len(late) == 0

    def test_current_scores_shape(self, detector):
        rng = np.random.default_rng(6)
        detector.observe_many(rng.normal(size=(20, 2)))
        assert detector.current_scores().shape == (20,)


class TestValidation:
    def test_window_must_exceed_min_pts(self):
        with pytest.raises(ValidationError):
            StreamingLOFDetector(min_pts=10, window=10)

    def test_threshold_positive(self):
        with pytest.raises(ValidationError):
            StreamingLOFDetector(min_pts=5, window=20, threshold=0.0)


class TestBoundedEngineState:
    @pytest.mark.parametrize("mode", ["inf", "distinct", "error"])
    def test_per_object_state_stays_within_capacity(self, mode):
        """Pushing N >> window points keeps every per-object structure of
        the engine bounded: evicted slots are reused and a coordinate
        group leaves with its last live holder. Grid points repeat, so
        groups gain and lose holders throughout."""
        window, n_pushes = 64, 1500
        win = SlidingWindowLOF(min_pts=4, window=window, duplicate_mode=mode)
        rng = np.random.default_rng(5)
        for p in rng.integers(-30, 31, size=(n_pushes, 2)).astype(np.float64):
            win.push(p)
        engine = win._engine
        # The slot array doubles from min_pts + 1 until window + 1 fit.
        bound = 2 * (window + 1)
        sizes = {
            "_key_by_coord": len(engine._key_by_coord),
            "_lrd": len(engine._lrd),
            "_lof": len(engine._lof),
            "_reverse": len(engine._reverse),
            "graph._kdist": len(engine._graph._kdist),
            "graph._ids": len(engine._graph._ids),
        }
        assert all(size <= bound for size in sizes.values()), sizes
        live = win.points() + 0.0
        assert len(engine._key_by_coord) == len(np.unique(live, axis=0))
        assert sum(g[1] for g in engine._key_by_coord.values()) == window
        np.testing.assert_array_equal(
            win.scores(),
            MaterializationDB.materialize(live, 4, duplicate_mode=mode).lof(4),
        )
