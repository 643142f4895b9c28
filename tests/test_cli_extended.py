"""The materialize/sweep/topn/fit/serve CLI subcommands and exit codes."""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.cli import EXIT_STORE_ERROR, EXIT_USER_ERROR, main
from repro.io import load_scores, save_dataset


@pytest.fixture
def dataset_csv(tmp_path, cluster_and_outlier):
    path = tmp_path / "data.csv"
    save_dataset(path, cluster_and_outlier)
    return path


class TestTopN:
    def test_prints_ranking_and_pruning(self, dataset_csv, capsys):
        code = main(["topn", str(dataset_csv), "--n", "3", "--min-pts", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "object 30" in out
        assert "pruned by Theorem-1 bounds" in out

    def test_matches_rank_command(self, dataset_csv, capsys):
        main(["topn", str(dataset_csv), "--n", "1", "--min-pts", "5"])
        topn_out = capsys.readouterr().out
        main(["rank", str(dataset_csv), "--min-pts", "5", "--top", "1"])
        rank_out = capsys.readouterr().out
        # Both name object 30 with the same score.
        assert "object 30" in topn_out and "object 30" in rank_out

    def test_rejects_aggregate_it_would_ignore(self, dataset_csv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["topn", str(dataset_csv), "--min-pts", "5", "--aggregate", "mean"])
        assert exit_info.value.code == EXIT_USER_ERROR


class TestMaterializeSweep:
    def test_two_step_pipeline(self, dataset_csv, tmp_path, capsys):
        mat_path = tmp_path / "m.rlof"
        code = main(
            ["materialize", str(dataset_csv), "--min-pts-ub", "10",
             "--out", str(mat_path)]
        )
        assert code == 0
        assert mat_path.exists()
        assert "31 objects" in capsys.readouterr().out

        code = main(["sweep", str(mat_path), "--min-pts", "3", "10"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip() and not l.startswith("MinPts")]
        assert len(lines) == 8  # MinPts 3..10

    def test_sweep_respects_ub(self, dataset_csv, tmp_path, capsys):
        mat_path = tmp_path / "m.rlof"
        main(["materialize", str(dataset_csv), "--min-pts-ub", "5",
              "--out", str(mat_path)])
        capsys.readouterr()
        code = main(["sweep", str(mat_path), "--min-pts", "3", "10"])
        assert code == 2  # exceeds the materialized bound: clean error

    def test_materialize_distinct_mode(self, tmp_path, capsys):
        X = np.vstack(
            [np.zeros((4, 2)), np.random.default_rng(0).normal(3, 1, (20, 2))]
        )
        data = tmp_path / "dup.csv"
        save_dataset(data, X)
        mat_path = tmp_path / "m.rlof"
        code = main(
            ["materialize", str(data), "--min-pts-ub", "5",
             "--out", str(mat_path), "--duplicate-mode", "distinct"]
        )
        assert code == 0

    def test_materialize_writes_a_store_matching_fit(
        self, dataset_csv, tmp_path, capsys
    ):
        from repro import LocalOutlierFactor, MaterializationDB

        mat_path = tmp_path / "m.rlof"
        fit_path = tmp_path / "fit.rlof"
        main(["materialize", str(dataset_csv), "--min-pts-ub", "8",
              "--out", str(mat_path)])
        main(["fit", str(dataset_csv), "--min-pts", "4", "8",
              "--out", str(fit_path)])
        mat = MaterializationDB.load(mat_path)
        est = LocalOutlierFactor.load(fit_path)
        np.testing.assert_array_equal(mat.padded_ids, est.graph_.padded_ids)
        np.testing.assert_array_equal(mat.padded_dists, est.graph_.padded_dists)

    def test_sweep_reads_a_fit_store(self, dataset_csv, tmp_path, capsys):
        store = tmp_path / "fit.rlof"
        main(["fit", str(dataset_csv), "--min-pts", "4", "8", "--out", str(store)])
        capsys.readouterr()
        code = main(["sweep", str(store), "--min-pts", "4", "8"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 5  # MinPts 4..8

    def test_sweep_corrupt_store_is_3(self, dataset_csv, tmp_path, capsys):
        mat_path = tmp_path / "m.rlof"
        main(["materialize", str(dataset_csv), "--min-pts-ub", "5",
              "--out", str(mat_path)])
        blob = bytearray(mat_path.read_bytes())
        blob[-2] ^= 0xFF
        mat_path.write_bytes(bytes(blob))
        code = main(["sweep", str(mat_path), "--min-pts", "3", "5"])
        assert code == EXIT_STORE_ERROR


class TestRemovedFlags:
    """One way to build M: the builder and fan-out switches are gone."""

    @pytest.mark.parametrize(
        "flags",
        [["--engine", "chunked"], ["--n-jobs", "2"]],
        ids=["engine", "n-jobs"],
    )
    @pytest.mark.parametrize("command", ["score", "fit", "rank"])
    def test_fit_commands_reject(self, dataset_csv, tmp_path, command, flags):
        argv = [command, str(dataset_csv), "--min-pts", "5", *flags]
        if command != "rank":
            argv += ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_USER_ERROR

    @pytest.mark.parametrize(
        "flags",
        [["--batched"], ["--chunked"], ["--block-size", "64"],
         ["--tile-bytes", "65536"], ["--n-jobs", "2"], ["--engine", "loop"]],
        ids=["batched", "chunked", "block-size", "tile-bytes", "n-jobs", "engine"],
    )
    def test_materialize_rejects(self, dataset_csv, tmp_path, flags):
        argv = ["materialize", str(dataset_csv), "--min-pts-ub", "5",
                "--out", str(tmp_path / "m.rlof"), *flags]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_USER_ERROR


@pytest.fixture
def model_store(dataset_csv, tmp_path, capsys):
    store = tmp_path / "model.rlof"
    code = main(
        ["fit", str(dataset_csv), "--min-pts", "4", "8", "--out", str(store)]
    )
    capsys.readouterr()
    assert code == 0
    return store


class TestFitAndOnlineScore:
    def test_fit_writes_store(self, model_store, dataset_csv, capsys):
        assert model_store.exists()
        from repro import LocalOutlierFactor

        back = LocalOutlierFactor.load(model_store)
        assert list(back.min_pts_values_) == [4, 5, 6, 7, 8]

    def test_score_store_matches_fit_scores(
        self, model_store, dataset_csv, tmp_path, capsys
    ):
        out = tmp_path / "scores.csv"
        code = main(
            ["score", str(dataset_csv), "--store", str(model_store),
             "--out", str(out)]
        )
        assert code == 0 and "online" in capsys.readouterr().out
        from repro import LocalOutlierFactor

        est = LocalOutlierFactor.load(model_store)
        # Online scoring re-derives neighborhoods from raw vectors (no
        # exclusion: the training point itself is its own neighbor), so
        # scores differ from the fitted ones by construction — but the
        # far outlier must still dominate.
        scores, _ = load_scores(out)
        assert int(np.argmax(scores)) == int(np.argmax(est.scores_)) == 30

    def test_score_store_single_min_pts(self, model_store, dataset_csv, tmp_path):
        out = tmp_path / "s5.csv"
        code = main(
            ["score", str(dataset_csv), "--store", str(model_store),
             "--out", str(out), "--min-pts", "5"]
        )
        assert code == 0
        scores, _ = load_scores(out)
        assert len(scores) == 31


class TestServeCommand:
    def test_serve_scores_over_http(self, model_store, capsys):
        result = {}

        def run():
            result["code"] = main(
                ["serve", str(model_store), "--port", "0", "--max-requests", "1"]
            )

        thread = threading.Thread(target=run)
        thread.start()
        # The CLI prints the bound ephemeral port; poll for it.
        port = None
        for _ in range(100):
            out = capsys.readouterr().out
            if "http://" in out:
                port = int(out.split("http://127.0.0.1:")[1].split()[0])
                break
            thread.join(timeout=0.05)
        assert port is not None
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/score",
            data=json.dumps({"points": [[8.0, 8.0]]}).encode(),
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            body = json.loads(resp.read())
        thread.join(timeout=10)
        assert not thread.is_alive() and result["code"] == 0
        assert body["scores"][0] > 1.5  # (8, 8) is the planted outlier


class TestExitCodes:
    def test_user_error_is_2(self, dataset_csv, tmp_path):
        code = main(
            ["score", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_USER_ERROR == 2

    def test_validation_error_is_2(self, dataset_csv, tmp_path):
        code = main(
            ["score", str(dataset_csv), "--out", str(tmp_path / "o.csv"),
             "--min-pts", "500"]
        )
        assert code == EXIT_USER_ERROR

    def test_corrupt_store_is_3(self, model_store, dataset_csv, tmp_path):
        blob = bytearray(model_store.read_bytes())
        blob[-2] ^= 0xFF
        bad = tmp_path / "bad.rlof"
        bad.write_bytes(bytes(blob))
        code = main(
            ["score", str(dataset_csv), "--store", str(bad),
             "--out", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_STORE_ERROR == 3

    def test_not_a_store_is_3(self, model_store, dataset_csv, tmp_path):
        code = main(
            ["score", str(dataset_csv), "--store", str(dataset_csv),
             "--out", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_STORE_ERROR

    def test_serve_corrupt_store_is_3(self, model_store, tmp_path):
        blob = bytearray(model_store.read_bytes())
        blob[-2] ^= 0xFF
        bad = tmp_path / "bad.rlof"
        bad.write_bytes(bytes(blob))
        code = main(["serve", str(bad), "--port", "0"])
        assert code == EXIT_STORE_ERROR
