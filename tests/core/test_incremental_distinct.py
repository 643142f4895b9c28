"""Edge cases of incremental maintenance under the paper's duplicate
remark (after Definition 6): 'distinct' neighborhoods, duplicate
pile-ups, and exact k-tie boundaries across inserts and deletions.

Every claim is differential: after each mutation the engine's maintained
state is compared bit-for-bit against ``MaterializationDB`` built from
scratch on the live points — including the *failure* behavior (the
engine must reject exactly the states the batch referee rejects).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IncrementalLOF, MaterializationDB
from repro.exceptions import DuplicatePointsError, ValidationError

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def batch_lof(X, k, mode):
    X = np.asarray(X, dtype=np.float64)
    return MaterializationDB.materialize(X, k, duplicate_mode=mode).lof(k)


def engine_scores(inc, live):
    """Maintained scores in sorted-handle order (= batch row order)."""
    return np.array([inc.scores[h] for h in sorted(live)])


def live_matrix(live):
    return np.vstack([live[h] for h in sorted(live)])


def live_matrix_of(live, handles):
    return np.vstack([live[h] for h in handles])


class TestKTieBoundary:
    def test_insert_exactly_on_kdist_radius_joins_tie_inclusively(self):
        # Center (0,0) with k=2 neighbors at distance exactly 1; the new
        # point lands exactly on that radius. Definition 4 is a closed
        # ball: membership must grow, the k-distance must not.
        X0 = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
        inc = IncrementalLOF.from_dataset(X0, min_pts=2)
        center = 0
        ids_before, _ = inc._graph.row(center)
        assert inc._graph.kdist_of(center) == 1.0
        assert len(ids_before) == 2
        h = inc.insert([0.0, 1.0])  # distance to center: exactly 1.0
        ids_after, dists_after = inc._graph.row(center)
        assert inc._graph.kdist_of(center) == 1.0
        assert h in set(int(i) for i in ids_after)
        assert len(ids_after) == 3
        assert np.all(dists_after <= 1.0)
        live = {i: X0[i] for i in range(4)}
        live[h] = np.array([0.0, 1.0])
        np.testing.assert_array_equal(
            engine_scores(inc, live), batch_lof(live_matrix(live), 2, "inf")
        )

    def test_delete_tie_member_shrinks_neighborhood_to_batch(self):
        # Deleting one member of a saturated tie ring must leave every
        # survivor's neighborhood equal to a from-scratch build.
        X0 = np.array(
            [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        )
        inc = IncrementalLOF.from_dataset(X0, min_pts=2)
        inc.delete(3)
        live = {i: X0[i] for i in (0, 1, 2, 4)}
        np.testing.assert_array_equal(
            engine_scores(inc, live), batch_lof(live_matrix(live), 2, "inf")
        )


class TestDistinctMode:
    def test_duplicate_pileup_insert_then_delete_matches_batch(self):
        # Three distinct locations, duplicates piled on one of them: the
        # k-distinct-distance radius must keep covering k distinct
        # locations through inserts AND through deletions of copies.
        k = 2
        inc = IncrementalLOF(min_pts=k, duplicate_mode="distinct")
        live = {}
        for row in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]):
            live[inc.insert(row)] = np.asarray(row)
        dup_handles = []
        for _ in range(3):  # pile duplicates on the origin
            h = inc.insert([0.0, 0.0])
            live[h] = np.array([0.0, 0.0])
            dup_handles.append(h)
            np.testing.assert_array_equal(
                engine_scores(inc, live),
                batch_lof(live_matrix(live), k, "distinct"),
            )
        for h in dup_handles:  # and peel them back off
            inc.delete(h)
            live.pop(h)
            np.testing.assert_array_equal(
                engine_scores(inc, live),
                batch_lof(live_matrix(live), k, "distinct"),
            )

    def test_delete_last_copy_of_a_location_raises_like_batch(self):
        # Exactly k+1 distinct locations; removing the only copy of one
        # drops coverage below k for every row — the engine must reject
        # the update exactly as the batch referee rejects the state.
        k = 2
        X0 = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        inc = IncrementalLOF.from_dataset(X0, min_pts=k, duplicate_mode="distinct")
        with pytest.raises(ValidationError):
            inc.delete(2)  # the only copy of (3, 0)
        with pytest.raises(ValidationError):
            batch_lof(np.delete(X0, 2, axis=0), k, "distinct")

    def test_signed_zero_coordinates_share_a_distinct_group(self):
        # numpy's unique-row grouping treats -0.0 == +0.0; the engine's
        # byte-keyed groups must agree or radii diverge from batch.
        k = 1
        # Insert order keeps every intermediate state >= 2 distinct
        # locations; the -0.0 twin of the existing 0.0 row comes last.
        rows = [[0.0], [2.0], [3.0], [-0.0]]
        inc = IncrementalLOF(min_pts=k, duplicate_mode="distinct")
        live = {}
        for row in rows:
            live[inc.insert(row)] = np.asarray(row, dtype=np.float64)
        np.testing.assert_array_equal(
            engine_scores(inc, live), batch_lof(live_matrix(live), k, "distinct")
        )
        # (0.0) and (-0.0) are one location: each needs a *different*
        # location inside its radius, so both radii reach (2.0).
        h0, h1 = sorted(live)[0], sorted(live)[3]
        assert inc._graph.kdist_of(h0) == 2.0
        assert inc._graph.kdist_of(h1) == 2.0

    @settings(**SETTINGS)
    @given(data=st.data())
    def test_random_mutation_differential(self, data):
        """Arbitrary insert/delete churn on a duplicate-heavy lattice:
        after every mutation the maintained scores equal a from-scratch
        batch build, and the engine raises exactly when batch raises."""
        k = data.draw(st.integers(1, 3), label="k")
        inc = IncrementalLOF(min_pts=k, duplicate_mode="distinct")
        live = {}
        n_ops = data.draw(st.integers(5, 18), label="n_ops")
        for _ in range(n_ops):
            deleting = len(live) > 0 and data.draw(st.booleans(), label="delete?")
            if deleting:
                h = data.draw(st.sampled_from(sorted(live)), label="handle")
                try:
                    inc.delete(h)
                except ValidationError:
                    remaining = {q: r for q, r in live.items() if q != h}
                    with pytest.raises(ValidationError):
                        batch_lof(live_matrix(remaining), k, "distinct")
                    return  # engine contract: stale after a failed update
                live.pop(h)
            else:
                row = np.asarray(
                    data.draw(
                        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                        label="point",
                    ),
                    dtype=np.float64,
                )
                try:
                    h = inc.insert(row)
                except ValidationError:
                    target = np.vstack([live_matrix(live), row[None, :]])
                    with pytest.raises(ValidationError):
                        batch_lof(target, k, "distinct")
                    return
                live[h] = row
            if len(live) > k:
                try:
                    want = batch_lof(live_matrix(live), k, "distinct")
                except ValidationError:
                    pytest.fail("engine accepted a state the batch referee rejects")
                np.testing.assert_array_equal(engine_scores(inc, live), want)


class TestErrorMode:
    def test_insert_raises_exactly_at_saturation(self):
        # k=2: the third copy of a location makes its k-distance zero.
        # The engine must raise on that exact insert — not before — and
        # batch must reject the same state.
        inc = IncrementalLOF(min_pts=2, duplicate_mode="error")
        live = {}
        for row in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]):
            live[inc.insert(row)] = np.asarray(row)
            if len(live) > 2:
                np.testing.assert_array_equal(
                    engine_scores(inc, live),
                    batch_lof(live_matrix(live), 2, "error"),
                )
        with pytest.raises(DuplicatePointsError):
            inc.insert([0.0, 0.0])
        with pytest.raises(DuplicatePointsError):
            batch_lof(
                np.vstack([live_matrix(live), [[0.0, 0.0]]]), 2, "error"
            )


class TestGraphIntegrityUnderChurn:
    def test_rows_reference_only_live_handles(self):
        """After heavy insert/delete churn the dynamic graph must hold
        exactly the live handles and reference no evicted point."""
        rng = np.random.default_rng(3)
        inc = IncrementalLOF(min_pts=3, duplicate_mode="inf")
        live = {}
        for t in range(40):
            row = rng.integers(-3, 4, size=2).astype(np.float64)
            live[inc.insert(row)] = row
            if t >= 10:  # FIFO-evict like the sliding window does
                oldest = min(live)
                inc.delete(oldest)
                live.pop(oldest)
        assert sorted(inc.handles) == sorted(live)
        # Graph rows are keyed by reusable window slots: one row per live
        # point, neighbor slots read back as handles through _handle.
        assert len(inc._graph) == inc.n_points
        for h in live:
            s = inc._slot[h]
            assert s in inc._graph
            ids, dists = inc._graph.row(s)
            neighbors = inc._handle[ids].tolist()
            members = set(neighbors)
            assert members <= set(live), "dangling neighbor reference"
            assert h not in members
            assert len(ids) == len(dists)
            assert np.all(dists <= inc._graph.kdist_of(s))
            # A row that kept an evicted point's slot would read back as
            # whichever live point took the slot over; each stored
            # distance must be the distance to the point now there.
            expected = inc.metric.pairwise_to_point(
                live_matrix_of(live, neighbors), live[h]
            )
            np.testing.assert_array_equal(dists, expected)
        np.testing.assert_array_equal(
            engine_scores(inc, live), batch_lof(live_matrix(live), 3, "inf")
        )
