"""Step 2 over row prefixes: same bits as CSR neighborhoods, one graph.

``MaterializationDB.lrd`` / ``lof`` score every MinPts straight off the
padded graph: object i's Definition-4 neighborhood is a prefix of its
(distance, id)-sorted row. The property wall below holds that path byte
for byte (``tobytes()``) to the kernels run over CSR neighborhoods that
the test cuts from the padded arrays with the Definition-4 mask (LOF
one object at a time), and to the naive oracle of
:mod:`repro.core.reference`, on the inputs where the prefix rule could
slip: ties on a 1e-3 grid, blocks of at least MinPts duplicates
(``lrd = inf`` and the ``inf/inf := 1`` ratio), exact tie rings, tie
runs that reach the padded width, and the smallest legal datasets. The
``graph.builds`` and ``mscan.passes`` counters then pin that fitting,
sweeping and serving build one graph and scan it twice per MinPts.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import LocalOutlierFactor, obs
from repro.core import scoring
from repro.core.materialization import MaterializationDB
from repro.core.range_lof import score_range
from repro.core.reference import naive_lof, naive_lrd
from repro.exceptions import DuplicatePointsError
from repro.serve import OnlineScorer

MODES = ("inf", "distinct", "error")

#: The 12 integer points at distance exactly 5 from the origin.
RING = np.array(
    [(3, 4), (4, 3), (5, 0), (4, -3), (3, -4), (0, -5),
     (-3, -4), (-4, -3), (-5, 0), (-4, 3), (-3, 4), (0, 5)],
    dtype=np.float64,
)


def _outcome(fn):
    """Bytes of a score vector, or the duplicate error it raised."""
    try:
        return fn().tobytes()
    except DuplicatePointsError as exc:
        return ("DuplicatePointsError", str(exc))


def _csr(mat, k):
    """Every object's neighborhood at k in CSR form ``(ids, dists,
    offsets)``: the padded entries within its cutoff radius."""
    mask = mat.padded_dists <= mat.k_distances(k)[:, None]
    offsets = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    return mat.padded_ids[mask], mat.padded_dists[mask], offsets


def _csr_lrd(mat, k):
    ids, dists, offsets = _csr(mat, k)
    reach = scoring.reach_dist_values(dists, mat.k_distances(k)[ids])
    return scoring.lrd_values(
        reach, offsets[:-1], offsets[1:], duplicate_mode=mat.duplicate_mode
    )


def _csr_lof(mat, k):
    """LOF one object at a time: each call sees a single segment."""
    ids, _, offsets = _csr(mat, k)
    lrd = _csr_lrd(mat, k)
    return np.concatenate([
        scoring.lof_values(
            lrd[[i]], lrd[ids[a:b]][None, :], np.array([0]), np.array([b - a])
        )
        for i, (a, b) in enumerate(zip(offsets[:-1], offsets[1:]))
    ])


def _distinct_locations(X):
    return len(np.unique(X, axis=0))


def check_prefix_path(X, ub):
    """Every k in 1..ub, every mode: prefix == CSR bytes, and == oracle.

    The oracle is checked on integer coordinates only: on a 1e-3 grid
    two distance kernels may round an exact tie apart by an ulp, which
    moves a neighbor in or out of the Definition-4 set in one of them.
    """
    exact = np.array_equal(X, np.round(X))
    for mode in MODES:
        if mode == "distinct" and _distinct_locations(X) - 1 < ub:
            continue  # fewer than ub distinct locations: mode undefined
        # Three databases so each entry point starts cold: lrd alone,
        # lof alone (it runs scan 1 on the same block), and the CSR path.
        lrd_first = MaterializationDB.materialize(X, ub, duplicate_mode=mode)
        lof_first = MaterializationDB.materialize(X, ub, duplicate_mode=mode)
        csr = MaterializationDB.materialize(X, ub, duplicate_mode=mode)
        for k in range(1, ub + 1):
            want_lrd = _outcome(lambda: _csr_lrd(csr, k))
            want_lof = _outcome(lambda: _csr_lof(csr, k))
            assert _outcome(lambda: lrd_first.lrd(k)) == want_lrd, (mode, k)
            assert _outcome(lambda: lrd_first.lof(k)) == want_lof, (mode, k)
            assert _outcome(lambda: lof_first.lof(k)) == want_lof, (mode, k)
            assert _outcome(lambda: lof_first.lrd(k)) == want_lrd, (mode, k)
            csr_ids, csr_dists, offsets = _csr(csr, k)
            for i in range(csr.n_points):
                ids, dists = lof_first.neighborhood_of(i, k)
                a, b = offsets[i], offsets[i + 1]
                assert ids.tobytes() == csr_ids[a:b].tobytes()
                assert dists.tobytes() == csr_dists[a:b].tobytes()
            if mode == "inf" and exact:
                np.testing.assert_allclose(
                    lof_first.lrd(k), naive_lrd(X, k), rtol=1e-9
                )
                np.testing.assert_allclose(
                    lof_first.lof(k), naive_lof(X, k), rtol=1e-9
                )


@st.composite
def corpora(draw):
    """Integer coordinates and a MinPts bound; callers also scale by 1e-3."""
    kind = draw(st.sampled_from(["grid", "duplicate_block", "tie_ring", "tiny"]))
    if kind == "tiny":
        P = draw(arrays(np.int64, (3, 2), elements=st.integers(0, 3)))
        if _distinct_locations(P) == 1:
            P[0, 0] += 1
        return P, 2
    if kind == "grid":
        n = draw(st.integers(6, 22))
        side = draw(st.sampled_from([4, 12, 1000]))
        P = draw(arrays(np.int64, (n, 2), elements=st.integers(0, side)))
        if _distinct_locations(P) == 1:
            P[0, 0] += 1
    elif kind == "duplicate_block":
        size = draw(st.integers(2, 9))
        others = draw(
            arrays(np.int64, (draw(st.integers(3, 12)), 2),
                   elements=st.integers(-40, 40))
        )
        P = np.vstack([np.full((size, 2), 7), others])
    else:
        extra = draw(
            arrays(np.int64, (draw(st.integers(0, 6)), 2),
                   elements=st.integers(-9, 9))
        )
        P = np.vstack([np.zeros((1, 2), dtype=np.int64), RING.astype(np.int64), extra])
    ub = draw(st.integers(1, min(len(P) - 1, 10)))
    return P, ub


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(corpus=corpora())
def test_prefix_path_matches_csr_views_and_oracle(corpus):
    # "csr views": the CSR neighborhoods of _csr, cut inside this test.
    P, ub = corpus
    check_prefix_path(P * 1e-3, ub)  # the 1e-3 grid: ties rounded apart
    check_prefix_path(P.astype(np.float64), ub)  # exact ties, oracle too


class TestFixedCorpora:
    def test_smallest_dataset_full_range(self):
        check_prefix_path(np.array([[0.0, 0.0], [0.001, 0.0], [0.0, 0.003]]), 2)

    def test_duplicate_block_hits_both_inf_branches(self):
        X = np.vstack([np.zeros((6, 2)), RING])
        mat = MaterializationDB.materialize(X, 5)
        lrd = mat.lrd(5)
        assert np.isinf(lrd[:6]).all() and np.isfinite(lrd[6:]).all()
        np.testing.assert_array_equal(mat.lof(5)[:6], 1.0)  # inf/inf := 1
        check_prefix_path(X, 8)

    def test_error_mode_names_the_same_object(self):
        X = np.vstack([RING, np.full((4, 2), 9.0)])
        mat = MaterializationDB.materialize(X, 3, duplicate_mode="error")
        with pytest.raises(DuplicatePointsError, match="object 12 "):
            mat.lof(3)
        check_prefix_path(X, 5)

    def test_tie_run_reaching_the_padded_width(self):
        X = np.vstack([np.zeros((1, 2)), RING])
        mat = MaterializationDB.materialize(X, 3)
        width = mat.padded_ids.shape[1]
        rows = mat.graph.prefixes(1)
        assert rows.counts[0] == width == len(RING)
        assert rows.ids.shape == (len(X), width)
        check_prefix_path(X, 3)


class TestNoViews:
    """One graph per fit, store load or sweep, and two scans of it per
    MinPts: no per-MinPts copy of the neighborhoods."""

    @staticmethod
    def _count(snap, name):
        return snap["counters"].get(name, 0)

    @pytest.mark.parametrize("mode", MODES)
    def test_lof_fit_builds_no_views(self, mode):
        X = np.random.default_rng(0).normal(size=(120, 2))
        with obs.collect() as snap:
            LocalOutlierFactor(min_pts=(10, 60), duplicate_mode=mode).fit(X)
        assert self._count(snap, "graph.builds") == 1
        assert self._count(snap, "mscan.passes") == 2 * 51
        # Each step-2 entry point on its own, from cold caches.
        mat = MaterializationDB.materialize(X, 60, duplicate_mode=mode)
        with obs.collect() as snap:
            mat.lrd(10)
            mat.lof(10)
            mat.lof(60)
            mat.neighborhood_of(7, 30)
        assert self._count(snap, "graph.builds") == 0
        assert self._count(snap, "mscan.passes") == 4

    @pytest.mark.parametrize("mode", ["inf", "distinct"])
    def test_serving_builds_no_views(self, tmp_path, mode):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(size=(60, 2)), np.zeros((5, 2))])
        est = LocalOutlierFactor(min_pts=(3, 8), duplicate_mode=mode).fit(X)
        est.save(tmp_path / "m.rlof")
        with obs.collect() as snap:
            scorer = OnlineScorer.from_path(tmp_path / "m.rlof", cache_size=0)
            stored = scorer.score_new(X, exclude=np.arange(len(X)))
            scorer.score_new(rng.normal(size=(4, 2)))
        assert self._count(snap, "graph.builds") == 1  # the load
        assert self._count(snap, "mscan.passes") == 0  # seeded lrd caches
        assert stored.tobytes() == est.scores_.tobytes()

    @pytest.mark.parametrize("scorer", ["ldof", "loop"])
    def test_sweeps_of_other_scorers_build_one_graph(self, scorer):
        X = np.random.default_rng(2).normal(size=(80, 2))
        with obs.collect() as snap:
            score_range(X, min_pts_lb=4, min_pts_ub=9, scorer=scorer)
        assert self._count(snap, "graph.builds") == 1
        # One scan per MinPts of each tiled step: LDOF's score; LoOP's
        # pdist, PLOF and score (nPLOF reads the PLOF rows, not M).
        assert self._count(snap, "mscan.passes") == {"ldof": 6, "loop": 18}[scorer]
