"""Unit tests for repro.core.graph — the shared columnar neighborhood core.

Every builder must produce the same graph, per-k row prefixes must cut
it consistently (tie semantics included), the dirty-subset protocol must
feed the scoring kernels with results bit-identical to the full pass,
and each static build must bump the ``graph.builds`` counter.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import scoring
from repro.core.graph import (
    DynamicNeighborhoodGraph,
    GridPrefixes,
    NeighborhoodGraph,
    RowPrefixes,
)
from repro.core.materialization import MaterializationDB
from repro.exceptions import ValidationError
from repro.index import make_index


def small_cloud(seed=0, n=30, d=2):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d))


def tied_grid():
    # Integer grid: masses of exact distance ties, exact float distances.
    return np.array(
        [[x, y] for x in range(5) for y in range(5)], dtype=np.float64
    )


class TestBuilders:
    def test_from_index_and_batched_agree(self):
        X = tied_grid()
        a = NeighborhoodGraph.from_index(X, 4)
        b = NeighborhoodGraph.from_index_batched(X, 4, block_size=7)
        np.testing.assert_array_equal(a.padded_ids, b.padded_ids)
        np.testing.assert_array_equal(a.padded_dists, b.padded_dists)

    def test_from_rows_roundtrip(self):
        X = small_cloud()
        g = NeighborhoodGraph.from_index(X, 5)
        rows_ids = [g.padded_ids[i, : g.row_lengths[i]] for i in range(g.n_points)]
        rows_dists = [g.padded_dists[i, : g.row_lengths[i]] for i in range(g.n_points)]
        h = NeighborhoodGraph.from_rows(rows_ids, rows_dists, k_max=5)
        np.testing.assert_array_equal(g.padded_ids, h.padded_ids)
        np.testing.assert_array_equal(g.padded_dists, h.padded_dists)

    def test_from_index_accepts_fitted_instance(self):
        X = small_cloud(3)
        idx = make_index("brute").fit(X)
        g = NeighborhoodGraph.from_index(X, 4, index=idx)
        assert g.n_points == len(X)

    def test_prefitted_index_wrong_size_rejected(self):
        X = small_cloud(1)
        idx = make_index("brute").fit(X[:-2])
        with pytest.raises(ValidationError):
            NeighborhoodGraph.from_index(X, 3, index=idx)

    def test_builds_counter(self):
        obs.enable()
        obs.reset()
        X = small_cloud(2, n=20)
        NeighborhoodGraph.from_index(X, 3)
        NeighborhoodGraph.from_index_batched(X, 3)
        assert obs.counter("graph.builds") == 2

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            NeighborhoodGraph(np.zeros((3, 2), dtype=np.int64), np.zeros((3, 3)), 2)
        with pytest.raises(ValidationError):
            NeighborhoodGraph(
                np.zeros((3, 2), dtype=np.int64), np.zeros((3, 2)), k_max=5
            )


def dynamic_copy(g, k):
    """A DynamicNeighborhoodGraph holding every row of ``g`` at ``k``."""
    dyn = DynamicNeighborhoodGraph(k)
    hoods = g.prefixes(k)
    for i in range(g.n_points):
        ids, dists = hoods.row(i)
        dyn.set_row(i, ids, dists, float(g.k_distances(k)[i]))
    return dyn


class TestViews:
    def test_view_rows_match_per_object_queries(self):
        X = tied_grid()
        g = NeighborhoodGraph.from_index(X, 4)
        idx = make_index("brute").fit(X)
        hoods = g.prefixes(3)
        assert isinstance(hoods, RowPrefixes)
        for i in range(len(X)):
            hood = idx.query_with_ties(X[i], 3, exclude=i)
            ids, dists = hoods.row(i)
            np.testing.assert_array_equal(ids, hood.ids)
            np.testing.assert_array_equal(dists, hood.distances)

    def test_counts_at_least_k_and_ties_included(self):
        g = NeighborhoodGraph.from_index(tied_grid(), 4)
        hoods = g.prefixes(4)
        assert np.all(hoods.counts >= 4)
        assert np.any(hoods.counts > 4)  # grid ties overflow k

    def test_prefixes_kdist_override(self):
        g = NeighborhoodGraph.from_index(small_cloud(5), 6)
        bigger = g.k_distances(6)
        override = g.prefixes(4, kdist=bigger)
        assert np.all(override.counts >= g.prefixes(4).counts)
        np.testing.assert_array_equal(override.counts, g.prefixes(6).counts)

    def test_k_bounds_enforced(self):
        g = NeighborhoodGraph.from_index(small_cloud(6), 4)
        with pytest.raises(ValidationError):
            g.prefixes(5)
        with pytest.raises(ValidationError):
            g.k_distances(0)


class TestDirtySubset:
    def test_dynamic_subview_matches_graph_prefixes(self):
        g = NeighborhoodGraph.from_index(tied_grid(), 5)
        hoods = g.prefixes(5)
        rows = np.array([0, 7, 24, 3])
        sub = dynamic_copy(g, 5).subview(rows)
        np.testing.assert_array_equal(sub.counts, hoods.counts[rows])
        for pos, r in enumerate(rows):
            ids_full, dists_full = hoods.row(int(r))
            ids_sub, dists_sub = sub.row(pos)
            np.testing.assert_array_equal(ids_full, ids_sub)
            np.testing.assert_array_equal(dists_full, dists_sub)

    def test_lrd_of_bit_identical_to_full_kernel(self):
        g = NeighborhoodGraph.from_index(tied_grid(), 5)
        full_lrd = MaterializationDB.from_graph(g).lrd(5)
        dyn = dynamic_copy(g, 5)
        rows = np.arange(g.n_points)
        assert full_lrd.tobytes() == scoring.lrd_of(dyn, rows).tobytes()
        some = np.array([2, 11, 19])
        assert full_lrd[some].tobytes() == scoring.lrd_of(dyn, some).tobytes()

    def test_empty_subset(self):
        g = NeighborhoodGraph.from_index(small_cloud(7), 3)
        dyn = dynamic_copy(g, 3)
        assert scoring.lrd_of(dyn, np.array([], dtype=np.int64)).size == 0


class TestDynamicGraph:
    def test_set_drop_and_subview(self):
        dyn = DynamicNeighborhoodGraph(2)
        dyn.set_row(0, [1, 2], [1.0, 2.0], 2.0)
        dyn.set_row(5, [0, 2, 9], [1.5, 2.5, 2.5], 2.5)
        dyn.set_row(2, [0, 5], [0.5, 1.0], 1.0)
        assert 5 in dyn and len(dyn) == 3
        assert dyn.rows() == [0, 2, 5]
        hoods = dyn.subview([0, 5])
        assert hoods.n_rows == 2
        np.testing.assert_array_equal(hoods.ids, [[1, 2, -1], [0, 2, 9]])
        np.testing.assert_array_equal(hoods.counts, [2, 3])
        np.testing.assert_array_equal(dyn.kdist_values(np.array([0, 5])), [2.0, 2.5])
        dyn.drop_row(5)
        assert 5 not in dyn
        assert np.isnan(dyn.kdist_values(np.array([5]))[0])

    def test_dynamic_matches_static_kernels(self):
        g = NeighborhoodGraph.from_index(tied_grid(), 4)
        mat = MaterializationDB.from_graph(g)
        dyn = dynamic_copy(g, 4)
        rows = np.arange(g.n_points)
        lrd = scoring.lrd_of(dyn, rows)
        assert lrd.tobytes() == mat.lrd(4).tobytes()
        assert scoring.lof_of(dyn, rows, lrd).tobytes() == mat.lof(4).tobytes()


class TestGridPrefixes:
    def test_counts_are_counted_on_first_read(self):
        g = NeighborhoodGraph.from_index(tied_grid(), 6)
        radii = np.stack([g.k_distances(k) for k in (2, 4, 6)])
        grid = GridPrefixes(g.padded_ids, g.padded_dists, radii)
        assert "counts" not in vars(grid)
        want = np.stack([g.prefixes(k).counts for k in (2, 4, 6)])
        assert grid.counts.tobytes() == want.tobytes()
        assert "counts" in vars(grid)

    def test_tiles_are_views_cut_at_the_block_width(self):
        g = NeighborhoodGraph.from_index(tied_grid(), 6)
        ks = np.array([3, 4, 5])
        radii = np.stack([g.k_distances(k) for k in ks])
        counts = g.prefix_counts(ks, radii)
        seen = np.zeros(g.n_points, dtype=int)
        for rows, tile in g.tiles(radii, counts):
            seen[rows] += 1
            assert np.shares_memory(tile.ids, g.padded_ids)
            assert tile.ids.shape[1] == counts[:, rows].max()
            assert tile.counts.tobytes() == counts[:, rows].tobytes()
        assert (seen == 1).all()
