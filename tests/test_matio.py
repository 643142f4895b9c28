"""Persistence of a bare materialization database M in the model store.

``MaterializationDB.save`` writes M as a REPROLOF store and
``MaterializationDB.load`` reads it back (estimator stores load too).
"""

import numpy as np
import pytest

from repro import LocalOutlierFactor, MaterializationDB, materialize
from repro.exceptions import (
    StoreCorruptionError,
    StoreFormatError,
    StoreVersionError,
)


@pytest.fixture
def mat(random_points):
    return materialize(random_points, 10)


class TestRoundtrip:
    def test_lof_identical(self, tmp_path, mat):
        path = tmp_path / "m.rlof"
        mat.save(path)
        loaded = MaterializationDB.load(path)
        for k in (2, 5, 10):
            np.testing.assert_array_equal(loaded.lof(k), mat.lof(k))

    def test_metadata_preserved(self, tmp_path, mat):
        path = tmp_path / "m.rlof"
        mat.save(path)
        loaded = MaterializationDB.load(path)
        assert loaded.min_pts_ub == mat.min_pts_ub
        assert loaded.duplicate_mode == mat.duplicate_mode
        assert loaded.n_points == mat.n_points

    def test_distinct_mode_with_keys(self, tmp_path):
        X = np.vstack(
            [np.zeros((4, 2)), np.random.default_rng(0).normal(3, 1, (20, 2))]
        )
        mat = materialize(X, 5, duplicate_mode="distinct")
        path = tmp_path / "m.rlof"
        mat.save(path)
        loaded = MaterializationDB.load(path)
        assert loaded.duplicate_mode == "distinct"
        np.testing.assert_array_equal(loaded.coord_keys, mat.coord_keys)
        np.testing.assert_array_equal(loaded.lof(5), mat.lof(5))

    def test_two_step_across_processes_pattern(self, tmp_path, random_points):
        """The paper's step separation: step 1 writes M; step 2 runs
        elsewhere with only the file."""
        from repro import lof_scores

        direct = lof_scores(random_points, 7)
        path = tmp_path / "m.rlof"
        materialize(random_points, 10).save(path)
        # 'Another process': only the file remains.
        loaded = MaterializationDB.load(path)
        np.testing.assert_allclose(loaded.lof(7), direct, rtol=1e-12)

    def test_estimator_store_loads_as_materialization(self, tmp_path, random_points):
        est = LocalOutlierFactor(min_pts=(4, 8)).fit(random_points)
        path = tmp_path / "est.rlof"
        est.save(path)
        loaded = MaterializationDB.load(path)
        np.testing.assert_array_equal(loaded.padded_ids, est.graph_.padded_ids)
        np.testing.assert_array_equal(loaded.lof(6), est.materialization_.lof(6))


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rlof"
        path.write_bytes(b"NOTAMATR" + b"\x00" * 64)
        with pytest.raises(StoreFormatError):
            MaterializationDB.load(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.rlof"
        path.write_bytes(b"REP")
        with pytest.raises(StoreFormatError):
            MaterializationDB.load(path)

    def test_truncated_body(self, tmp_path, mat):
        path = tmp_path / "m.rlof"
        mat.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StoreCorruptionError):
            MaterializationDB.load(path)

    def test_bad_version(self, tmp_path, mat):
        path = tmp_path / "m.rlof"
        mat.save(path)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version byte
        path.write_bytes(bytes(data))
        with pytest.raises(StoreVersionError):
            MaterializationDB.load(path)
