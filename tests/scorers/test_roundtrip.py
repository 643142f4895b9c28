"""Store persistence of the scorer zoo: save → load → score bit-for-bit.

Acceptance criteria pinned here:

* every registered scorer's score table and aux tables round-trip
  through a version-4 store bit-identically, in both load modes, on a
  MinPts grid with a gap (5, 7, 8), so grids that are not a run read
  copied rows of the tables;
* online ``score_new`` on a loaded store reproduces every scorer's
  fitted scores bit-for-bit on the self path (serve-vs-batch identity);
* a MinPts the store lacks is computed after a memory-mapped load
  exactly as a fresh fit computes it, and the file is not written;
* a version-2 or version-3 store, and an unknown future version, are
  refused with a typed error (CLI exit 3).
"""

import json

import numpy as np
import pytest

from repro import LocalOutlierFactor, load_model, materialize, save_model
from repro.cli import main
from repro.exceptions import StoreVersionError
from repro.scorers import ScorerContext, get_scorer, list_scorers
from repro.serve import OnlineScorer
from repro.store import FORMAT_VERSION, read_header

ALL_SCORERS = ("knn_dist", "ldof", "lof", "loop")
#: The zoo store's MinPts grid (``zoo_store`` in conftest.py): 6 is a gap.
ZOO_GRID = (5, 7, 8)
MMAP = pytest.mark.parametrize("mmap", [False, True], ids=["inmem", "memmap"])


def test_every_registered_scorer_is_covered():
    assert tuple(list_scorers()) == ALL_SCORERS


def _fresh(X):
    """A new materialization of the zoo store's data, nothing computed."""
    return materialize(X, 10)


class TestScorerSections:
    def test_all_scorers_round_trip_bit_identically(self, zoo_store):
        path, X, fitted = zoo_store
        assert {k for _, k in fitted} == set(ZOO_GRID)
        for mmap in (False, True):
            model = load_model(path, mmap=mmap)
            for (name, k), want in fitted.items():
                got = model.mat.scores(k, scorer=name, X=X, metric="euclidean")
                assert np.array_equal(got, want), (name, k, mmap)

    @MMAP
    @pytest.mark.parametrize("name", ALL_SCORERS)
    def test_grid_with_a_gap_round_trips(self, zoo_store, name, mmap):
        # The (K, n) matrix of a grid that is not a run of MinPts (rows
        # copied out of the table), the serving tables over that grid,
        # and the scorer's aux rows: all the bits of a fresh fit.
        path, X, _ = zoo_store
        loaded = load_model(path, mmap=mmap).mat
        fresh = _fresh(X)
        scorer = get_scorer(name)
        want = scorer.fit_grid(fresh, ZOO_GRID, X=X, metric="euclidean")
        got = scorer.fit_grid(loaded, ZOO_GRID, X=X, metric="euclidean")
        assert got.shape == (len(ZOO_GRID), len(X))
        assert np.array_equal(got, want)

        def tables(mat):
            return scorer.tables(
                [ScorerContext(mat=mat, k=k, X=X, metric=None) for k in ZOO_GRID]
            )

        want_tables, got_tables = tables(fresh), tables(loaded)
        assert set(got_tables) == set(want_tables)
        for key, table in want_tables.items():
            assert np.array_equal(got_tables[key], table), key
        for k in ZOO_GRID:
            want_aux = fresh.scorer_aux(name, k, X=X, metric="euclidean")
            got_aux = loaded.scorer_aux(name, k)
            assert set(got_aux) == set(want_aux)
            for key, arr in want_aux.items():
                assert got_aux[key].shape == arr.shape
                assert np.array_equal(got_aux[key], arr), (key, k)

    @MMAP
    @pytest.mark.parametrize("name", ALL_SCORERS)
    def test_served_grid_with_a_gap(self, zoo_store, name, mmap):
        # One served pass over the whole gap grid, aggregated as the
        # store's default 'max', against the fitted rows.
        path, X, fitted = zoo_store
        sc = OnlineScorer.from_path(path, mmap=mmap, scorer=name)
        sc.min_pts_grid = ZOO_GRID
        got = sc.score_new(X, exclude=np.arange(len(X)))
        want = np.max([fitted[(name, k)] for k in ZOO_GRID], axis=0)
        assert np.array_equal(got, want)

    def test_loop_aux_round_trips_bit_identically(self, zoo_store):
        path, X, _ = zoo_store
        fresh = _fresh(X)
        for mmap in (False, True):
            mat = load_model(path, mmap=mmap).mat
            for k in ZOO_GRID:
                want = fresh.scorer_aux("loop", k)
                got = mat.scorer_aux("loop", k)
                assert set(got) == {"pdist", "nplof"}
                assert got["nplof"].shape == (1,)
                assert np.array_equal(got["pdist"], want["pdist"])
                assert np.array_equal(got["nplof"], want["nplof"])

    def test_section_names(self, zoo_store):
        path, X, _ = zoo_store
        header = read_header(path)
        shapes = {e["name"]: e["shape"] for e in header["sections"]}
        n = len(X)
        # One section per table, shaped like the table: LOF's score
        # table is the LOF table, and only LoOP has aux state.
        tables = {
            "aux@loop@nplof": [10, 1],
            "aux@loop@pdist": [10, n],
            "lof": [10, n],
            "lrd": [10, n],
            "score@knn_dist": [10, n],
            "score@ldof": [10, n],
            "score@loop": [10, n],
        }
        fixed = {"padded_ids", "padded_dists", "X", "filled"}
        assert set(shapes) == fixed | set(tables)
        for name, shape in tables.items():
            assert shapes[name] == shape, name
        # Row t of 'filled' marks the t-th table's MinPts, in name order.
        assert shapes["filled"] == [len(tables), 10]
        filled = load_model(path).mat.tables()
        assert list(filled) == sorted(tables)
        for name, (_, mask) in filled.items():
            assert (np.flatnonzero(mask) + 1).tolist() == list(ZOO_GRID), name

    def test_header_scorer_key(self, zoo_store):
        path, _, _ = zoo_store
        header = read_header(path)
        assert header["format_version"] == FORMAT_VERSION == 4
        assert header["scorer"] == "lof"
        assert load_model(path).scorer == "lof"

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("name", ALL_SCORERS)
    def test_self_path_bit_identical_per_scorer(self, zoo_store, name, mmap):
        # The serve-vs-batch invariant: scoring a stored object's own
        # neighborhood through the online path reproduces the fitted
        # value bit-for-bit, in-memory or memmap.
        path, X, fitted = zoo_store
        sc = OnlineScorer.from_path(path, mmap=mmap, scorer=name)
        for k in ZOO_GRID:
            got = sc.score_new(X, min_pts=k, exclude=np.arange(len(X)))
            assert np.array_equal(got, fitted[(name, k)]), (name, k)

    def test_absent_min_pts_after_mmap_load(self, zoo_store):
        # MinPts 6 is not in the store: computing it copies the mapped
        # tables it writes, gives a fresh fit's bits, and leaves the
        # file as it was.
        path, X, fitted = zoo_store
        before = path.read_bytes()
        mat = load_model(path, mmap=True).mat
        fresh = _fresh(X)
        assert not mat.lrd(5).flags.writeable and not mat.lof(5).flags.writeable
        for name in ALL_SCORERS:
            got = mat.scores(6, scorer=name, X=X, metric="euclidean")
            want = fresh.scores(6, scorer=name, X=X, metric="euclidean")
            assert np.array_equal(got, want), name
        assert np.array_equal(mat.lrd(6), fresh.lrd(6))
        want_aux = fresh.scorer_aux("loop", 6)
        assert np.array_equal(mat.scorer_aux("loop", 6)["pdist"], want_aux["pdist"])
        for (name, k), want in fitted.items():
            assert np.array_equal(mat.scores(k, scorer=name), want), (name, k)
        assert path.read_bytes() == before


class TestEstimatorScorer:
    @pytest.mark.parametrize("name", ("ldof", "loop"))
    def test_estimator_records_and_restores_its_scorer(
        self, tmp_path, two_density_clusters, name
    ):
        est = LocalOutlierFactor(min_pts=(4, 8), scorer=name).fit(
            two_density_clusters
        )
        path = tmp_path / "est.rlof"
        est.save(path)
        model = load_model(path)
        assert model.scorer == name
        assert model.estimator["scorer"] == name
        reloaded = LocalOutlierFactor.load(path)
        assert reloaded.scorer == name
        assert np.array_equal(reloaded.scores_, est.scores_)
        assert np.array_equal(reloaded.lof_matrix_, est.lof_matrix_)

    @MMAP
    @pytest.mark.parametrize("name", ALL_SCORERS)
    def test_lof_matrix_is_rebuilt_from_the_scorer_table(
        self, tmp_path, two_density_clusters, name, mmap
    ):
        # No 'lof_matrix' section: a load takes the rows of the fitted
        # scorer's table at the grid, read-only, with the fit's bits.
        est = LocalOutlierFactor(min_pts=(4, 8), scorer=name).fit(
            two_density_clusters
        )
        path = tmp_path / "est.rlof"
        est.save(path)
        assert "lof_matrix" not in {e["name"] for e in read_header(path)["sections"]}
        reloaded = LocalOutlierFactor.load(path, mmap=mmap)
        assert np.array_equal(reloaded.lof_matrix_, est.lof_matrix_)
        assert np.array_equal(reloaded.scores_, est.scores_)
        assert not reloaded.lof_matrix_.flags.writeable


def _patch_version(path, version):
    """Rewrite a store's version field, space-padding the JSON so every
    absolute section offset stays valid."""
    raw = bytearray(path.read_bytes())
    hlen = int.from_bytes(raw[16:24], "little")
    header = json.loads(raw[24 : 24 + hlen].decode("utf-8"))
    header["format_version"] = version
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    assert len(blob) <= hlen
    raw[8:12] = int(version).to_bytes(4, "little")
    raw[24 : 24 + hlen] = blob + b" " * (hlen - len(blob))
    path.write_bytes(bytes(raw))


class TestVersionCompat:
    @pytest.fixture(params=[2, 3])
    def old_store(self, request, tmp_path, cluster_and_outlier):
        # A store by the current writer, labelled as an older version:
        # the version field alone decides.
        X = cluster_and_outlier
        path = tmp_path / "old.rlof"
        LocalOutlierFactor(min_pts=(4, 8)).fit(X).save(path)
        _patch_version(path, request.param)
        return path, request.param

    @MMAP
    def test_old_version_refused(self, old_store, mmap):
        path, version = old_store
        with pytest.raises(StoreVersionError, match=f"version {version};.*re-fit"):
            load_model(path, mmap=mmap)
        with pytest.raises(StoreVersionError, match=f"version {version}"):
            read_header(path)

    @pytest.mark.parametrize(
        "argv", [["sweep", "--min-pts", "4", "8"], ["serve", "--port", "0"]],
        ids=["sweep", "serve"],
    )
    def test_old_version_exits_3(self, old_store, argv, capsys):
        path, version = old_store
        assert main([argv[0], str(path), *argv[1:]]) == 3
        assert f"version {version}" in capsys.readouterr().err

    def test_future_version_rejected(self, tmp_path, cluster_and_outlier):
        mat = materialize(cluster_and_outlier, 8)
        path = tmp_path / "future.rlof"
        save_model(path, mat)
        _patch_version(path, FORMAT_VERSION + 1)
        with pytest.raises(StoreVersionError, match=f"version {FORMAT_VERSION + 1}"):
            load_model(path)
