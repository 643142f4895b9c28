"""The persistent model store: round-trips, memmap loads, corruption.

The contract under test is exact: a save/load cycle — in-memory or
memory-mapped — must reproduce every persisted quantity bit-for-bit,
and any damaged file must raise a *typed* store error instead of ever
producing scores.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import copy_store_bytes

from repro import LocalOutlierFactor, MaterializationDB, load_model, save_model
from repro.exceptions import (
    NotFittedError,
    StoreCorruptionError,
    StoreFormatError,
    StoreMismatchError,
    StoreVersionError,
    ValidationError,
)
from repro.scorers import Scorer
from repro.store import FORMAT_VERSION, MAGIC, read_header


@pytest.fixture
def mixed_density(two_density_clusters):
    return two_density_clusters


@pytest.fixture
def tied_integer_data():
    """Integer-valued coordinates with heavy distance ties — the worst
    case for neighborhood determinism, and exactly reproducible across
    distance-kernel implementations."""
    rng = np.random.default_rng(11)
    return rng.integers(0, 6, size=(48, 2)).astype(np.float64)


def _store_roundtrip(tmp_path, X, duplicate_mode, mmap):
    mat = MaterializationDB.materialize(X, 10, duplicate_mode=duplicate_mode)
    fitted = {k: (mat.lrd(k), mat.lof(k)) for k in (4, 7, 10)}
    kdist = mat.k_distances(10)
    path = tmp_path / "m.rlof"
    mat.save(path, X=X)
    loaded = MaterializationDB.load(path, mmap=mmap)
    return mat, fitted, kdist, loaded


class TestMaterializationRoundTrip:
    @pytest.mark.parametrize("mmap", [False, True], ids=["inmem", "memmap"])
    @pytest.mark.parametrize("mode", ["inf", "distinct", "error"])
    def test_bit_identical_vectors(self, tmp_path, tied_integer_data, mode, mmap):
        X = tied_integer_data + np.linspace(0, 0.5, len(tied_integer_data))[:, None] * (
            0.0 if mode != "error" else 1e-3
        )
        # 'error' mode cannot materialize MinPts-fold duplicates; jitter
        # the integers apart for it, keep the exact ties for the others.
        mat, fitted, kdist, loaded = _store_roundtrip(tmp_path, X, mode, mmap)
        assert loaded.duplicate_mode == mode
        assert np.array_equal(loaded.padded_ids, mat.padded_ids)
        assert np.array_equal(loaded.padded_dists, mat.padded_dists)
        assert np.array_equal(loaded.k_distances(10), kdist)
        for k, (lrd, lof) in fitted.items():
            assert np.array_equal(loaded.lrd(k), lrd)
            assert np.array_equal(loaded.lof(k), lof)

    @pytest.mark.parametrize("mmap", [False, True], ids=["inmem", "memmap"])
    def test_ranking_preserved(self, tmp_path, mixed_density, mmap):
        mat = MaterializationDB.materialize(mixed_density, 12)
        path = tmp_path / "m.rlof"
        mat.save(path)
        loaded = MaterializationDB.load(path, mmap=mmap)
        assert np.array_equal(
            np.argsort(-loaded.lof(12), kind="stable"),
            np.argsort(-mat.lof(12), kind="stable"),
        )

    def test_uncached_values_recomputable_after_load(self, tmp_path, mixed_density):
        mat = MaterializationDB.materialize(mixed_density, 12)
        want = mat.lof(5)
        path = tmp_path / "m.rlof"
        # Save WITHOUT having computed k=5: the loaded M recomputes it
        # from the persisted graph, identically.
        fresh = MaterializationDB.materialize(mixed_density, 12)
        fresh.save(path)
        assert np.array_equal(MaterializationDB.load(path).lof(5), want)

    def test_snapshotless_store_has_no_X(self, tmp_path, mixed_density):
        mat = MaterializationDB.materialize(mixed_density, 6)
        path = tmp_path / "m.rlof"
        mat.save(path)
        model = load_model(path)
        assert model.X is None
        with pytest.raises(StoreMismatchError):
            model.require_snapshot()

    def test_snapshot_row_count_checked(self, tmp_path, mixed_density):
        mat = MaterializationDB.materialize(mixed_density, 6)
        with pytest.raises(ValidationError):
            mat.save(tmp_path / "m.rlof", X=mixed_density[:-1])


class TestEstimatorRoundTrip:
    @pytest.mark.parametrize("mmap", [False, True], ids=["inmem", "memmap"])
    def test_full_reload(self, tmp_path, mixed_density, mmap):
        est = LocalOutlierFactor(min_pts=(4, 9), aggregate="mean").fit(mixed_density)
        path = tmp_path / "est.rlof"
        est.save(path)
        back = LocalOutlierFactor.load(path, mmap=mmap)
        assert np.array_equal(back.scores_, est.scores_)
        assert np.array_equal(back.lof_matrix_, est.lof_matrix_)
        assert np.array_equal(back.min_pts_values_, est.min_pts_values_)
        assert np.array_equal(back.predict(), est.predict())
        assert np.array_equal(back.X_, est.X_)
        assert back.aggregate == "mean"
        assert back.threshold == est.threshold
        assert [e.index for e in back.rank(top_n=5)] == [
            e.index for e in est.rank(top_n=5)
        ]

    def test_unfitted_estimator_refuses_to_save(self, tmp_path):
        with pytest.raises(NotFittedError):
            LocalOutlierFactor().save(tmp_path / "x.rlof")

    def test_estimator_load_rejects_bare_materialization(
        self, tmp_path, mixed_density
    ):
        MaterializationDB.materialize(mixed_density, 6).save(tmp_path / "m.rlof")
        with pytest.raises(StoreMismatchError):
            LocalOutlierFactor.load(tmp_path / "m.rlof")

    def test_materialization_load_accepts_estimator_store(
        self, tmp_path, mixed_density
    ):
        est = LocalOutlierFactor(min_pts=(4, 8)).fit(mixed_density)
        est.save(tmp_path / "est.rlof")
        mat = MaterializationDB.load(tmp_path / "est.rlof")
        assert np.array_equal(mat.lof(8), est.materialization_.lof(8))


class TestCorruption:
    @pytest.fixture
    def store_bytes(self, tmp_path, mixed_density):
        path = tmp_path / "est.rlof"
        LocalOutlierFactor(min_pts=(4, 6)).fit(mixed_density).save(path)
        return path, bytearray(path.read_bytes())

    def test_payload_bitflip(self, tmp_path, store_bytes):
        _, blob = store_bytes
        blob[-3] ^= 0x01
        bad = tmp_path / "bad.rlof"
        bad.write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptionError, match="checksum"):
            load_model(bad)

    def test_truncated_file(self, tmp_path, store_bytes):
        _, blob = store_bytes
        bad = tmp_path / "trunc.rlof"
        bad.write_bytes(bytes(blob[: len(blob) // 2]))
        with pytest.raises(StoreCorruptionError, match="truncated"):
            load_model(bad)

    def test_truncated_header(self, tmp_path, store_bytes):
        _, blob = store_bytes
        bad = tmp_path / "header.rlof"
        bad.write_bytes(bytes(blob[:30]))
        with pytest.raises(StoreCorruptionError):
            load_model(bad)

    def test_bad_magic(self, tmp_path, store_bytes):
        _, blob = store_bytes
        bad = tmp_path / "magic.rlof"
        bad.write_bytes(b"NOTASTOR" + bytes(blob[8:]))
        with pytest.raises(StoreFormatError):
            load_model(bad)

    def test_not_even_a_header(self, tmp_path):
        bad = tmp_path / "tiny.rlof"
        bad.write_bytes(b"xy")
        with pytest.raises(StoreFormatError):
            load_model(bad)

    def test_unknown_version(self, tmp_path, store_bytes):
        _, blob = store_bytes
        bad = tmp_path / "ver.rlof"
        bad.write_bytes(
            bytes(blob[:8]) + (FORMAT_VERSION + 1).to_bytes(4, "little")
            + bytes(blob[12:])
        )
        with pytest.raises(StoreVersionError):
            load_model(bad)

    def test_header_bitflip(self, tmp_path, store_bytes):
        _, blob = store_bytes
        # Corrupt inside the JSON header region (byte 40 is well within
        # it for any real store).
        blob[40] = 0x00
        bad = tmp_path / "json.rlof"
        bad.write_bytes(bytes(blob))
        with pytest.raises((StoreCorruptionError, StoreFormatError)):
            load_model(bad)

    @pytest.mark.parametrize("hlen", [2**33, 2**40, 2**62, "size+1"])
    @pytest.mark.parametrize("mmap", [False, True], ids=["inmem", "memmap"])
    def test_header_length_past_the_file(self, tmp_path, store_bytes, hlen, mmap):
        # A damaged length field is a typed store error, never a huge
        # allocation (MemoryError) or a short read parsed as JSON.
        _, blob = store_bytes
        if hlen == "size+1":
            hlen = len(blob) + 1
        blob[16:24] = hlen.to_bytes(8, "little")
        bad = tmp_path / "hlen.rlof"
        bad.write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptionError, match="header"):
            read_header(bad)
        with pytest.raises(StoreCorruptionError, match="header"):
            load_model(bad, mmap=mmap)

    def test_read_header_is_cheap_and_typed(self, store_bytes):
        path, _ = store_bytes
        header = read_header(path)
        assert header["kind"] == "estimator"
        assert header["format_version"] == FORMAT_VERSION
        names = {s["name"] for s in header["sections"]}
        assert {"padded_ids", "padded_dists", "X", "scores"} <= names

    def test_magic_constant_shape(self):
        assert MAGIC == b"REPROLOF" and len(MAGIC) == 8


class TestAtomicWrites:
    """Saves go to a temp file that is renamed over the target path."""

    def test_memmapped_model_survives_overwrite(self, tmp_path, mixed_density):
        path = tmp_path / "m.rlof"
        old = MaterializationDB.materialize(mixed_density, 6)
        old.save(path, X=mixed_density)
        mapped = load_model(path, mmap=True)
        before = np.array(mapped.mat.padded_dists)
        # Refit to the same path while the first model is still mapped.
        shifted = mixed_density * 3.0 + 1.0
        MaterializationDB.materialize(shifted, 8).save(path, X=shifted)
        assert np.array_equal(np.asarray(mapped.mat.padded_dists), before)
        assert np.array_equal(np.asarray(mapped.X), mixed_density)
        assert load_model(path).mat.min_pts_ub == 8

    def test_failed_write_keeps_previous_store(self, tmp_path, mixed_density, monkeypatch):
        import repro.store as store

        path = tmp_path / "m.rlof"
        MaterializationDB.materialize(mixed_density, 6).save(path, X=mixed_density)
        original = path.read_bytes()

        def torn(fh, blob, table, payloads):
            fh.write(MAGIC)
            raise OSError("disk full")

        monkeypatch.setattr(store, "_write_body", torn)
        with pytest.raises(OSError, match="disk full"):
            MaterializationDB.materialize(mixed_density, 8).save(path, X=mixed_density)
        assert path.read_bytes() == original
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.rlof"]
        assert load_model(path).mat.min_pts_ub == 6

    def test_sync_order_file_replace_directory(self, tmp_path, mixed_density, monkeypatch):
        """The temp file is synced before the rename, the directory after."""
        import os as os_module
        import stat

        import repro.store as store

        path = tmp_path / "m.rlof"
        calls = []
        real_fsync, real_replace = os_module.fsync, os_module.replace

        def fsync(fd):
            is_dir = stat.S_ISDIR(os_module.fstat(fd).st_mode)
            calls.append("fsync-dir" if is_dir else "fsync-file")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(store.os, "fsync", fsync)
        monkeypatch.setattr(store.os, "replace", replace)
        MaterializationDB.materialize(mixed_density, 6).save(path, X=mixed_density)
        assert calls == ["fsync-file", "replace", "fsync-dir"]
        assert load_model(path).mat.min_pts_ub == 6


class TestCrashInjection:
    """Torn stores never load, and a save that dies midway leaves the
    previous store at the path intact."""

    @pytest.fixture
    def saved(self, tmp_path, mixed_density):
        path = tmp_path / "est.rlof"
        LocalOutlierFactor(min_pts=(4, 6)).fit(mixed_density).save(path)
        return path

    def test_truncation_at_every_section_boundary(self, tmp_path, saved):
        blob = saved.read_bytes()
        cuts = set()
        for entry in read_header(saved)["sections"]:
            for edge in (entry["offset"], entry["offset"] + entry["nbytes"]):
                cuts.update((edge - 1, edge, edge + 1))
        cuts = sorted(c for c in cuts if 0 <= c < len(blob))
        assert len(cuts) > 30
        bad = tmp_path / "torn.rlof"
        for cut in cuts:
            bad.write_bytes(blob[:cut])
            for mmap in (False, True):
                with pytest.raises((StoreCorruptionError, StoreFormatError)):
                    load_model(bad, mmap=mmap)

    def test_save_dying_after_any_section_keeps_previous_store(
        self, tmp_path, mixed_density, monkeypatch
    ):
        import repro.store as store

        path = tmp_path / "m.rlof"
        MaterializationDB.materialize(mixed_density, 6).save(path, X=mixed_density)
        before = load_model(path)
        want = {
            "ids": before.mat.padded_ids.tobytes(),
            "dists": before.mat.padded_dists.tobytes(),
            "X": before.X.tobytes(),
        }
        real_write_body = store._write_body
        newer = MaterializationDB.materialize(mixed_density, 8)
        n_sections = len(read_header(path)["sections"])
        for dying_after in range(n_sections):

            def torn(fh, blob, table, payloads, dying_after=dying_after):
                real_write_body(
                    fh, blob, table[: dying_after + 1], payloads[: dying_after + 1]
                )
                raise OSError(f"crash after section {dying_after}")

            monkeypatch.setattr(store, "_write_body", torn)
            with pytest.raises(OSError, match="crash after section"):
                newer.save(path, X=mixed_density)
            after = load_model(path)
            assert after.mat.min_pts_ub == 6
            assert after.mat.padded_ids.tobytes() == want["ids"]
            assert after.mat.padded_dists.tobytes() == want["dists"]
            assert after.X.tobytes() == want["X"]
            assert sorted(p.name for p in tmp_path.iterdir()) == ["m.rlof"]


class TestByteIdentity:
    """The zero-copy writer lays down exactly the bytes of the
    copy-based reference writer in ``tests/oracles.py``, for the same
    header and sections."""

    @pytest.fixture
    def handed_to_writer(self, monkeypatch):
        """Every (header, sections) pair the save path hands the writer,
        keyed by target path."""
        import repro.store as store

        calls = {}
        real_write = store._write

        def spy(path, header, sections):
            calls[path] = (header, dict(sections))
            return real_write(path, header, sections)

        monkeypatch.setattr(store, "_write", spy)
        return calls

    def _assert_reference_bytes(self, path, handed_to_writer):
        assert path.read_bytes() == copy_store_bytes(*handed_to_writer[path])

    def test_estimator_store(self, tmp_path, mixed_density, handed_to_writer):
        path = tmp_path / "est.rlof"
        LocalOutlierFactor(min_pts=(4, 9)).fit(mixed_density).save(path)
        self._assert_reference_bytes(path, handed_to_writer)

    def test_loop_aux_and_scalar_sections(
        self, tmp_path, mixed_density, handed_to_writer
    ):
        mat = MaterializationDB.materialize(mixed_density, 8)
        mat.scores(5, scorer="loop", X=mixed_density, metric="euclidean")
        # A 0-d aux array: its table is (MinPtsUB,), and a row comes back
        # with the array's own shape ().
        stub = _AuxStub({"scalar": np.array(0.25)})
        mat.scores(7, scorer=stub)
        path = tmp_path / "loop.rlof"
        save_model(path, mat, X=mixed_density)
        self._assert_reference_bytes(path, handed_to_writer)
        shapes = {e["name"]: e["shape"] for e in read_header(path)["sections"]}
        assert shapes["aux@aux_stub@scalar"] == [8]
        assert shapes["aux@loop@nplof"] == [8, 1]
        for mmap in (False, True):
            mat = load_model(path, mmap=mmap).mat
            scalar = mat.scorer_aux(stub, 7)["scalar"]
            assert scalar.shape == ()
            assert scalar.tolist() == 0.25
            assert mat.scorer_aux("loop", 5)["nplof"].shape == (1,)

    def test_distinct_store(self, tmp_path, tied_integer_data, handed_to_writer):
        mat = MaterializationDB.materialize(
            tied_integer_data, 6, duplicate_mode="distinct"
        )
        mat.lof(6)
        path = tmp_path / "distinct.rlof"
        save_model(path, mat, X=tied_integer_data)
        assert "coord_keys" in {e["name"] for e in read_header(path)["sections"]}
        self._assert_reference_bytes(path, handed_to_writer)

    def test_zero_length_sections(self, tmp_path, mixed_density, handed_to_writer):
        mat = MaterializationDB.materialize(mixed_density, 6)
        # Zero-length aux arrays, and a zero-length score vector so the
        # last table in name order is empty too.
        stub = _AuxStub(
            {"flat": np.empty(0), "wide": np.empty((0, 3))}, scores=np.empty(0)
        )
        mat.scores(6, scorer=stub)
        path = tmp_path / "empty.rlof"
        save_model(path, mat)
        self._assert_reference_bytes(path, handed_to_writer)
        shapes = {e["name"]: e["shape"] for e in read_header(path)["sections"]}
        assert shapes["aux@aux_stub@flat"] == [6, 0]
        assert shapes["aux@aux_stub@wide"] == [6, 0, 3]
        # The last section is empty and ends exactly at the end of file.
        last = read_header(path)["sections"][-1]
        assert last["nbytes"] == 0 and last["offset"] == path.stat().st_size
        for mmap in (False, True):
            aux = load_model(path, mmap=mmap).mat.scorer_aux(stub, 6)
            assert aux["flat"].shape == (0,) and aux["wide"].shape == (0, 3)


class _AuxStub(Scorer):
    """An unregistered scorer that returns the aux arrays it was built
    with, and zero scores (or the ``scores`` it was given)."""

    name = "aux_stub"

    def __init__(self, aux, scores=None):
        self.aux = aux
        self.scores = scores

    def fit(self, ctx):
        scores = np.zeros(ctx.mat.n_points) if self.scores is None else self.scores
        return scores, self.aux


class _CountingFile:
    """A file object that logs the ``(position, length)`` of every read."""

    def __init__(self, fh, log):
        self._fh = fh
        self._log = log

    def read(self, size=-1):
        pos = self._fh.tell()
        data = self._fh.read(size)
        self._log.append((pos, len(data)))
        return data

    def readinto(self, buf):
        pos = self._fh.tell()
        n = self._fh.readinto(buf)
        self._log.append((pos, n))
        return n

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class TestIOCost:
    """Counts, not timings: what one save or load allocates, opens,
    reads and maps."""

    @pytest.fixture
    def counted_io(self, monkeypatch):
        """Patch the store's ``open`` and ``mmap.mmap``; returns the
        lists of opened paths, ``(position, length)`` reads and maps."""
        import builtins
        import mmap as mmap_module

        import repro.store as store

        log = {"opens": [], "reads": [], "maps": []}

        def counting_open(file, *args, **kwargs):
            log["opens"].append(file)
            return _CountingFile(builtins.open(file, *args, **kwargs), log["reads"])

        class CountingMap(mmap_module.mmap):
            def __new__(cls, *args, **kwargs):
                log["maps"].append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(store, "open", counting_open, raising=False)
        monkeypatch.setattr(mmap_module, "mmap", CountingMap)
        return log

    @pytest.fixture
    def many_sections(self, tmp_path, mixed_density):
        path = tmp_path / "est.rlof"
        LocalOutlierFactor(min_pts=(4, 12)).fit(mixed_density).save(path)
        return path

    @staticmethod
    def _assert_each_section_read_once(path, header, reads):
        hits = np.zeros(path.stat().st_size, dtype=np.int64)
        for pos, n in reads:
            hits[pos : pos + n] += 1
        assert hits.max() == 1
        for entry in header["sections"]:
            start = entry["offset"]
            assert (hits[start : start + entry["nbytes"]] == 1).all(), entry["name"]

    @pytest.fixture(scope="class")
    def wide_fit(self):
        # fit_wide's shape: n=2000, d=16, MinPts 10..200.
        X = np.random.default_rng(5).normal(size=(2000, 16))
        return LocalOutlierFactor(min_pts=(10, 200)).fit(X)

    def test_save_does_not_copy_the_model(self, tmp_path, wide_fit):
        import tracemalloc

        path = tmp_path / "wide.rlof"
        tracemalloc.start()
        try:
            save_model(path, wide_fit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        section_bytes = sum(e["nbytes"] for e in read_header(path)["sections"])
        assert section_bytes > 10_000_000
        assert peak < section_bytes // 4

    def test_mmap_load_does_not_copy_the_tables(self, tmp_path, wide_fit):
        import tracemalloc

        path = tmp_path / "wide.rlof"
        save_model(path, wide_fit)
        # Every lrd and LOF byte of the store, whatever its sections.
        table_bytes = sum(
            e["nbytes"]
            for e in read_header(path)["sections"]
            if e["name"].startswith(("lrd", "lof"))
        )
        assert table_bytes > 6_000_000
        tracemalloc.start()
        try:
            model = load_model(path, mmap=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table_bytes // 4
        # A stored MinPts is a row of the map itself.
        for k in (10, 200):
            assert not model.mat.lrd(k).flags.writeable
            assert not model.mat.lof(k).flags.writeable
        assert np.array_equal(model.mat.lof(200), wide_fit.lof_matrix_[-1])

    def test_copy_load_opens_once_and_reads_each_byte_once(
        self, many_sections, counted_io
    ):
        header = read_header(many_sections)
        counted_io["opens"].clear()
        counted_io["reads"].clear()
        model = load_model(many_sections)
        assert len(counted_io["opens"]) == 1
        assert counted_io["maps"] == []
        self._assert_each_section_read_once(many_sections, header, counted_io["reads"])
        assert model.mat.padded_dists.flags.writeable and model.X.flags.writeable

    def test_mmap_load_maps_once(self, many_sections, counted_io):
        header = read_header(many_sections)
        counted_io["opens"].clear()
        counted_io["reads"].clear()
        model = load_model(many_sections, mmap=True)
        assert len(counted_io["opens"]) == 1
        assert len(counted_io["maps"]) == 1
        # The checksum pass streams each section once beside the map.
        self._assert_each_section_read_once(many_sections, header, counted_io["reads"])
        assert not model.mat.padded_dists.flags.writeable
        assert not model.X.flags.writeable


class TestMetadata:
    def test_stored_model_properties(self, tmp_path, mixed_density):
        mat = MaterializationDB.materialize(mixed_density, 6)
        mat.save(tmp_path / "m.rlof", X=mixed_density)
        model = load_model(tmp_path / "m.rlof")
        assert model.n_points == len(mixed_density)
        assert model.min_pts_ub == 6
        assert model.kind == "materialization"

    def test_minkowski_metric_round_trip(self, tmp_path, mixed_density):
        from repro.index.metrics import MinkowskiMetric

        metric = MinkowskiMetric(p=3.0)
        mat = MaterializationDB.materialize(mixed_density, 5, metric=metric)
        want = mat.lof(5)
        mat.save(tmp_path / "m.rlof", X=mixed_density, metric=metric)
        model = load_model(tmp_path / "m.rlof")
        back = model.metric_object()
        assert back.name == "minkowski" and back.p == 3.0
        assert np.array_equal(model.mat.lof(5), want)

    def test_named_metric_round_trip(self, tmp_path, mixed_density):
        est = LocalOutlierFactor(min_pts=(4, 6), metric="manhattan").fit(
            mixed_density
        )
        est.save(tmp_path / "m.rlof")
        back = LocalOutlierFactor.load(tmp_path / "m.rlof")
        assert back.metric.name == "manhattan"
        assert np.array_equal(back.scores_, est.scores_)

    def test_verify_false_skips_checksums(self, tmp_path, mixed_density):
        mat = MaterializationDB.materialize(mixed_density, 6)
        want = mat.lof(6)
        mat.save(tmp_path / "m.rlof")
        assert np.array_equal(
            load_model(tmp_path / "m.rlof", verify=False).mat.lof(6), want
        )

    def test_save_model_rejects_estimator_plus_X(self, tmp_path, mixed_density):
        est = LocalOutlierFactor(min_pts=(4, 6)).fit(mixed_density)
        with pytest.raises(ValidationError, match="do not pass"):
            save_model(tmp_path / "x.rlof", est, X=mixed_density)

    def test_save_model_rejects_unknown_types(self, tmp_path):
        with pytest.raises(ValidationError, match="accepts"):
            save_model(tmp_path / "x.rlof", object())

    def test_save_without_snapshot_attribute_rejected(self, tmp_path, mixed_density):
        est = LocalOutlierFactor(min_pts=(4, 6)).fit(mixed_density)
        est.X_ = None
        with pytest.raises(ValidationError, match="snapshot"):
            est.save(tmp_path / "x.rlof")


class TestFingerprint:
    """``store_fingerprint`` is the model's content identity: stable
    across re-reads of one file, different across different contents —
    what ``/model`` and ``/admin/reload`` report to operators."""

    def test_stable_across_reads(self, tmp_path, mixed_density):
        from repro.store import store_fingerprint

        mat = MaterializationDB.materialize(mixed_density, 6)
        mat.save(tmp_path / "m.rlof", X=mixed_density)
        first = store_fingerprint(read_header(tmp_path / "m.rlof"))
        second = store_fingerprint(read_header(tmp_path / "m.rlof"))
        assert first == second
        assert isinstance(first, str) and len(first) == 64

    def test_differs_for_different_contents(self, tmp_path, mixed_density):
        from repro.store import store_fingerprint

        mat = MaterializationDB.materialize(mixed_density, 6)
        mat.save(tmp_path / "a.rlof", X=mixed_density)
        other = MaterializationDB.materialize(mixed_density * 2.0, 6)
        other.save(tmp_path / "b.rlof", X=mixed_density * 2.0)
        assert store_fingerprint(
            read_header(tmp_path / "a.rlof")
        ) != store_fingerprint(read_header(tmp_path / "b.rlof"))

    def test_section_order_does_not_matter(self, tmp_path, mixed_density):
        from repro.store import store_fingerprint

        mat = MaterializationDB.materialize(mixed_density, 6)
        mat.save(tmp_path / "m.rlof", X=mixed_density)
        header = read_header(tmp_path / "m.rlof")
        shuffled = dict(header)
        shuffled["sections"] = list(reversed(header["sections"]))
        assert store_fingerprint(header) == store_fingerprint(shuffled)


def _rewrite_header(path, out, mutate):
    """Re-encode a store's JSON header after applying ``mutate`` to it
    (sections become unreadable, but header validation fires first)."""
    import json as _json

    blob = path.read_bytes()
    hlen = int.from_bytes(blob[16:24], "little")
    header = _json.loads(blob[24 : 24 + hlen].decode())
    mutate(header)
    new = _json.dumps(header).encode()
    out.write_bytes(
        blob[:16] + len(new).to_bytes(8, "little") + new + blob[24 + hlen :]
    )
    return out


class TestHeaderValidation:
    @pytest.fixture
    def store_path(self, tmp_path, mixed_density):
        path = tmp_path / "m.rlof"
        MaterializationDB.materialize(mixed_density, 5).save(path)
        return path

    def test_unknown_kind_rejected(self, tmp_path, store_path):
        bad = _rewrite_header(
            store_path, tmp_path / "kind.rlof",
            lambda h: h.update(kind="sandwich"),
        )
        with pytest.raises(StoreFormatError, match="kind"):
            read_header(bad)

    def test_missing_section_table_rejected(self, tmp_path, store_path):
        bad = _rewrite_header(
            store_path, tmp_path / "tbl.rlof", lambda h: h.pop("sections")
        )
        with pytest.raises(StoreCorruptionError, match="section table"):
            read_header(bad)

    def test_shape_nbytes_mismatch_rejected(self, tmp_path, store_path):
        def mutate(header):
            header["sections"][0]["shape"][0] += 1

        bad = _rewrite_header(store_path, tmp_path / "shape.rlof", mutate)
        with pytest.raises(StoreCorruptionError, match="declares shape"):
            load_model(bad, verify=False)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("dtype", "|O", "declares dtype"),
            ("dtype", "not-a-dtype", "malformed section table entry"),
            ("shape", None, "malformed section table entry"),
            ("offset", -64, "truncated"),
            ("sha256", "missing", "malformed section table entry"),
        ],
    )
    @pytest.mark.parametrize("mmap", [False, True], ids=["inmem", "memmap"])
    def test_bad_section_entry_rejected(
        self, tmp_path, store_path, field, value, match, mmap
    ):
        # Checked before any section byte is read: an object dtype never
        # reaches a raw read, a bad offset never reaches a seek.
        def mutate(header):
            entry = header["sections"][0]
            if value == "missing":
                del entry[field]
            else:
                entry[field] = value

        bad = _rewrite_header(store_path, tmp_path / "entry.rlof", mutate)
        with pytest.raises(StoreCorruptionError, match=match):
            load_model(bad, mmap=mmap, verify=False)

    def test_missing_required_section_rejected(self, tmp_path, store_path):
        def mutate(header):
            header["sections"] = [
                s for s in header["sections"] if s["name"] != "padded_ids"
            ]

        bad = _rewrite_header(store_path, tmp_path / "req.rlof", mutate)
        with pytest.raises(StoreCorruptionError, match="padded_ids"):
            load_model(bad, verify=False)


@settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    X=st.integers(min_value=10, max_value=24).flatmap(
        lambda n: arrays(
            dtype=np.float64,
            shape=(n, 2),
            elements=st.integers(min_value=0, max_value=7).map(float),
        )
    ),
    k=st.integers(2, 5),
    mmap=st.booleans(),
)
def test_roundtrip_property(tmp_path_factory, X, k, mmap):
    """Property: for arbitrary tie-heavy integer corpora, save → load
    reproduces lrd/LOF/k-distance bit-for-bit in both load modes."""
    if len(np.unique(X, axis=0)) <= k:
        X = X + np.arange(len(X), dtype=np.float64)[:, None] * 0.125
    mat = MaterializationDB.materialize(X, k, duplicate_mode="inf")
    lof = mat.lof(k)
    lrd = mat.lrd(k)
    path = tmp_path_factory.mktemp("prop") / "m.rlof"
    save_model(path, mat, X=X)
    loaded = load_model(path, mmap=mmap).mat
    assert np.array_equal(loaded.lof(k), lof)
    assert np.array_equal(loaded.lrd(k), lrd)
    assert np.array_equal(loaded.k_distances(k), mat.k_distances(k))
