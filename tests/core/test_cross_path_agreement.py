"""Cross-path agreement: every scoring surface, one answer.

The tentpole guarantee of the columnar refactor: because every surface
routes density and ratio arithmetic through the ONE kernel module
(:mod:`repro.core.scoring`) over the ONE neighborhood representation
(:mod:`repro.core.graph`), the per-object query loop, the batched front
door, the blocked fast path, top-n mining, an incremental insert replay
and a sliding streaming window must all report *bit-identical* LOF
values — including on tie-saturated, duplicate-heavy data under every
duplicate policy. The naive reference oracle (kept independent on
purpose) is compared with a tight tolerance instead, since its Python
summation order legitimately differs at the last ulp.

Datasets use integer coordinates so that the plain and the expanded-form
(BLAS) distance computations are exact and the bit-identity claim is
well-posed across backends. One test uses non-integer data on purpose:
there the two forms disagree in the last ulps, and the default fit must
use the per-row plain form that online scoring uses.
"""

import numpy as np
import pytest

from repro import LocalOutlierFactor
from repro.core import (
    IncrementalLOF,
    MaterializationDB,
    StreamingLOFDetector,
    fast_materialize,
    naive_lof,
    top_n_lof,
)
from repro.exceptions import DuplicatePointsError
from repro.index import get_metric, make_index
from repro.index.batch import apply_exclusions, pack_padded, select_tie_inclusive

from oracles import loop_k_distinct_radius


def duplicate_heavy():
    """5x4 integer grid + two 4-fold duplicated sites: ties everywhere,
    several objects with >= MinPts duplicates (lrd = inf in 'inf' mode)."""
    grid = np.array(
        [[x, y] for x in range(5) for y in range(4)], dtype=np.float64
    )
    dups = np.repeat([[1.0, 1.0], [3.0, 2.0]], 4, axis=0)
    return np.vstack([grid, dups])


def tied_only():
    """Integer grid: heavy distance ties, no exact duplicates."""
    return np.array(
        [[x, y] for x in range(6) for y in range(5)], dtype=np.float64
    )


MIN_PTS = 3


def batch_paths(X, duplicate_mode):
    """The four static builders, labelled.

    "blocked" is the historical whole-slab fast path (strategy="auto"
    resolves to whole tiles at this size); "chunked" forces the tiled
    merge with a 400-byte budget (y-tiles of 7 columns), so the
    Definition-4 candidate merge is inside the bit-identity matrix.
    """
    return {
        "loop": MaterializationDB.materialize(
            X, MIN_PTS, duplicate_mode=duplicate_mode
        ),
        "batched": MaterializationDB.materialize_batched(
            X, MIN_PTS, block_size=7, duplicate_mode=duplicate_mode
        ),
        "blocked": fast_materialize(
            X, MIN_PTS, block_size=7, duplicate_mode=duplicate_mode
        ),
        "chunked": fast_materialize(
            X,
            MIN_PTS,
            block_size=7,
            duplicate_mode=duplicate_mode,
            strategy="chunked",
            tile_bytes=400,
        ),
    }


class TestStaticPathsBitIdentical:
    @pytest.mark.parametrize("dataset", [duplicate_heavy, tied_only])
    @pytest.mark.parametrize("duplicate_mode", ["inf", "distinct"])
    def test_builders_agree_bitwise(self, dataset, duplicate_mode):
        X = dataset()
        mats = batch_paths(X, duplicate_mode)
        ref = mats["loop"].lof(MIN_PTS)
        for name, mat in mats.items():
            np.testing.assert_array_equal(
                mat.lof(MIN_PTS), ref, err_msg=f"path {name!r} diverged"
            )
            np.testing.assert_array_equal(
                mat.lrd(MIN_PTS), mats["loop"].lrd(MIN_PTS),
                err_msg=f"path {name!r} lrd diverged",
            )

    @pytest.mark.parametrize(
        "X",
        [
            duplicate_heavy(),
            duplicate_heavy() * 0.1,
            duplicate_heavy() * 0.37,
            tied_only(),
        ],
        ids=["duplicate_heavy", "x0.1", "x0.37", "tied_only"],
    )
    def test_distinct_build_equals_per_object_probe_loop(self, X):
        """The per-object 'distinct' loop, kept here as the reference:
        per object, doubling tie-inclusive probes until the row reaches
        k distinct locations, then the closed ball at that radius."""
        index = make_index("brute").fit(X)
        keys = np.unique(X, axis=0, return_inverse=True)[1].reshape(-1)
        rows = []
        for i in range(len(X)):
            probe = MIN_PTS
            while True:
                hood = index.query_with_ties(X[i], probe, exclude=i)
                radius = loop_k_distinct_radius(hood.ids, hood.distances, keys, MIN_PTS)
                if radius is not None:
                    break
                probe = min(2 * probe, len(X) - 1)
            rows.append(index.query_radius(X[i], radius, exclude=i))
        ids, dists = pack_padded(
            np.concatenate([r.ids for r in rows]),
            np.concatenate([r.distances for r in rows]),
            np.array([len(r) for r in rows]),
        )
        mat = MaterializationDB.materialize(X, MIN_PTS, duplicate_mode="distinct")
        assert mat.padded_ids.tobytes() == ids.astype(np.int64).tobytes()
        assert mat.padded_dists.tobytes() == dists.tobytes()

    @pytest.mark.parametrize("scale", [0.1, 0.37])
    def test_distinct_batched_equals_loop_on_float_data(self, scale):
        """duplicate_heavy scaled off the integers: distances are no
        longer exact, so only the row kernel gives the loop's bits. The
        batched build re-queries its short rows through the same index
        as the loop, so its padded graph, lrd and LOF match byte for
        byte. (The blocked and chunked builders use BLAS distances.)"""
        X = duplicate_heavy() * scale
        loop = MaterializationDB.materialize(X, MIN_PTS, duplicate_mode="distinct")
        batched = MaterializationDB.materialize_batched(
            X, MIN_PTS, block_size=7, duplicate_mode="distinct"
        )
        for attr in ("padded_ids", "padded_dists"):
            a, b = getattr(loop, attr), getattr(batched, attr)
            assert a.shape == b.shape, attr
            assert a.tobytes() == b.tobytes(), attr
        for k in range(1, MIN_PTS + 1):
            assert loop.lrd(k).tobytes() == batched.lrd(k).tobytes()
            assert loop.lof(k).tobytes() == batched.lof(k).tobytes()

    def test_against_naive_oracle(self):
        X = duplicate_heavy()
        expected = naive_lof(X, MIN_PTS)
        got = MaterializationDB.materialize(X, MIN_PTS).lof(MIN_PTS)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_error_mode_raises_on_every_builder(self):
        X = duplicate_heavy()
        for name, mat in batch_paths(X, "error").items():
            with pytest.raises(DuplicatePointsError):
                mat.lof(MIN_PTS)

    def test_error_mode_clean_data_matches_inf(self):
        X = tied_only()
        ref = MaterializationDB.materialize(X, MIN_PTS).lof(MIN_PTS)
        for name, mat in batch_paths(X, "error").items():
            np.testing.assert_array_equal(mat.lof(MIN_PTS), ref)


class TestTopN:
    @pytest.mark.parametrize("dataset", [duplicate_heavy, tied_only])
    def test_topn_scores_bit_identical_to_full_lof(self, dataset):
        X = dataset()
        full = MaterializationDB.materialize(X, MIN_PTS).lof(MIN_PTS)
        result = top_n_lof(X, n_outliers=5, min_pts=MIN_PTS)
        np.testing.assert_array_equal(result.scores, full[result.ids])
        # And the ranking is the true top-5 (ties broken by ascending id).
        order = np.lexsort((np.arange(len(full)), -full))[:5]
        np.testing.assert_array_equal(result.ids, order)


class TestServeAgainstChunkBuiltStore:
    @pytest.mark.parametrize("dataset", [duplicate_heavy, tied_only])
    def test_score_new_matches_loop_lof(self, dataset, tmp_path):
        """The online scorer over a store built by the chunked engine
        reproduces the loop-built fitted LOF bit-for-bit (score each
        stored row with itself excluded)."""
        from repro.serve import OnlineScorer

        X = dataset()
        chunked = fast_materialize(
            X, MIN_PTS, block_size=7, strategy="chunked", tile_bytes=400
        )
        path = tmp_path / "chunk_built.rlof"
        chunked.save(path, X=X)
        scorer = OnlineScorer.from_path(path)
        served = scorer.score_new(
            X, min_pts=MIN_PTS, exclude=np.arange(len(X))
        )
        loop = MaterializationDB.materialize(X, MIN_PTS).lof(MIN_PTS)
        np.testing.assert_array_equal(served, loop)


class TestFitUsesServeKernel:
    def test_fitted_rows_equal_novel_row_kernel_on_grid_data(self):
        """Gaussian data on a 1e-3 grid: the fitted graph's rows equal,
        bit for bit, serve's novel-row kernel — stacked
        ``pairwise_to_point`` rows, the diagonal excluded, then the
        tie-inclusive selection."""
        rng = np.random.default_rng(300)
        X = np.round(rng.normal(size=(400, 3)), 3)
        ub = 12
        graph = LocalOutlierFactor(min_pts=(5, ub)).fit(X).graph_

        metric = get_metric("euclidean")
        D = np.stack([metric.pairwise_to_point(X, X[i]) for i in range(len(X))])
        apply_exclusions(D, np.arange(len(X)))
        ids, dists = pack_padded(*select_tie_inclusive(D, ub))
        np.testing.assert_array_equal(graph.padded_ids, ids)
        np.testing.assert_array_equal(graph.padded_dists, dists)


class TestDynamicPathsBitIdentical:
    @pytest.mark.parametrize("dataset", [duplicate_heavy, tied_only])
    def test_incremental_replay_matches_batch(self, dataset):
        X = dataset()
        inc = IncrementalLOF(min_pts=MIN_PTS)
        for row in X:
            inc.insert(row)
        batch = MaterializationDB.materialize(X, MIN_PTS).lof(MIN_PTS)
        replay = np.array([inc.scores[h] for h in inc.handles])
        np.testing.assert_array_equal(replay, batch)

    def test_incremental_after_deletions_matches_batch(self):
        X = duplicate_heavy()
        inc = IncrementalLOF.from_dataset(X, MIN_PTS)
        for h in (2, 21, 25):  # one grid point, two duplicates
            inc.delete(h)
        keep = [h for h in range(len(X)) if h not in (2, 21, 25)]
        batch = MaterializationDB.materialize(X[keep], MIN_PTS).lof(MIN_PTS)
        replay = np.array([inc.scores[h] for h in inc.handles])
        np.testing.assert_array_equal(replay, batch)

    def test_streaming_window_matches_batch(self):
        X = np.vstack([tied_only(), duplicate_heavy()])
        window = 25
        det = StreamingLOFDetector(min_pts=MIN_PTS, window=window, threshold=2.0)
        det.observe_many(X)
        in_window = X[len(X) - window :]
        batch = MaterializationDB.materialize(in_window, MIN_PTS).lof(MIN_PTS)
        np.testing.assert_array_equal(det.current_scores(), batch)
