"""Cross-subsystem integration flows.

Each test strings several subsystems together the way a downstream user
would — dataset generation, scaling, indexing, materialization,
persistence, scoring, ranking, explanation, evaluation — and checks the
end-to-end result rather than any single unit.
"""

import numpy as np
import pytest

from repro import (
    LocalOutlierFactor,
    MaterializationDB,
    lof_range,
    lof_scores,
    rank_outliers,
)
from repro.analysis import (
    dimension_contributions,
    precision_at_n,
    roc_auc,
    sweep_min_pts,
    validate_theorem1,
)
from repro.baselines import db_outliers, dbscan, knn_distance_scores
from repro.core import top_n_lof
from repro.datasets import (
    load_bundesliga,
    load_nhl96,
    make_fig9_dataset,
    standardize,
)
from repro.io import load_dataset, save_dataset, save_scores


class TestFullPipelineOnDisk:
    def test_generate_persist_score_rank(self, tmp_path):
        """Dataset -> CSV -> materialize -> store -> LOF range -> score
        CSV -> ranking: every hop through the filesystem."""
        ds = make_fig9_dataset(seed=0)
        names = [ds.label_names[label] for label in ds.labels]
        data_path = tmp_path / "fig9.csv"
        save_dataset(data_path, ds.X, labels=names)

        X, labels = load_dataset(data_path)
        mat_path = tmp_path / "fig9.rlof"
        MaterializationDB.materialize(X, 45).save(mat_path)

        mat2 = MaterializationDB.load(mat_path)
        res = lof_range(min_pts_lb=40, min_pts_ub=45, materialization=mat2)
        scores_path = tmp_path / "scores.csv"
        save_scores(scores_path, res.scores, labels=labels)

        from repro.io import load_scores

        scores, labels2 = load_scores(scores_path)
        ranking = rank_outliers(scores, top_n=7, labels=labels2)
        assert all(e.label == "outlier" for e in ranking)


class TestEstimatorIndexMaterializationAgreement:
    @pytest.mark.parametrize("index_name", ["kdtree", "xtree", "balltree"])
    def test_three_paths_one_answer(self, index_name):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(size=(150, 3)), [[7.0, 7.0, 7.0]]])
        functional = lof_scores(X, 12, index=index_name)
        estimator = LocalOutlierFactor(min_pts=12, index=index_name).fit(X).scores_
        via_mat = MaterializationDB.materialize(X, 12, index=index_name).lof(12)
        np.testing.assert_allclose(functional, estimator, rtol=1e-12)
        np.testing.assert_allclose(functional, via_mat, rtol=1e-12)


class TestRealWorldStandins:
    def test_hockey_end_to_end_with_evaluation(self):
        """LOF on the NHL stand-in, scored against planted ground truth."""
        league = load_nhl96()
        labels = np.zeros(league.n, dtype=bool)
        for name in ("Chris Osgood", "Steve Poapst"):
            labels[league.index_of(name)] = True
        res = lof_range(league.test2_matrix(), 30, 50)
        assert roc_auc(res.scores, labels) > 0.95

    def test_soccer_with_explanations(self):
        league = load_bundesliga()
        X = league.feature_matrix()
        res = lof_range(X, 30, 50)
        top = rank_outliers(res.scores, top_n=1, labels=league.names)[0]
        assert top.label == "Michael Preetz"
        exp = dimension_contributions(X, top.index, min_pts=40)
        # Preetz's outlierness lives in scoring average, not games.
        assert exp.order[0] == 1


class TestMethodShootoutIntegration:
    def test_local_outlier_only_found_by_lof(self, two_density_clusters):
        X = two_density_clusters
        o2 = len(X) - 1
        labels = np.zeros(len(X), dtype=bool)
        labels[o2] = True
        lof = lof_scores(X, 10)
        knn = knn_distance_scores(X, 10)
        assert precision_at_n(lof, labels, 1) == 1.0
        assert precision_at_n(knn, labels, 1) == 0.0
        # Binary baselines agree with the paper's framing.
        db = db_outliers(X, pct=97.0, dmin=2.5)
        assert not db[o2] or db[:60].sum() > 0
        noise = dbscan(X, eps=2.0, min_pts=5) == -1
        assert not noise[o2] or noise[:60].sum() > 0


class TestTheoryPipelineIntegration:
    def test_sweep_bounds_topn_consistency(self):
        """The sweep, the bounds and the top-n miner must tell one story
        on the same materialization."""
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(size=(200, 2)), [[9.0, 9.0], [-7.0, 8.0]]])
        mat = MaterializationDB.materialize(X, 20)
        sweep = sweep_min_pts(materialization=mat, min_pts_lb=10, min_pts_ub=20)
        report = validate_theorem1(X, 15, object_ids=[200, 201])
        topn = top_n_lof(materialization=mat, n_outliers=2, min_pts=15)
        assert report.all_hold
        assert set(topn.ids) == {200, 201}
        row = np.flatnonzero(sweep.min_pts_values == 15)[0]
        np.testing.assert_allclose(
            np.sort(sweep.lof_matrix[row][[200, 201]])[::-1],
            topn.scores,
            rtol=1e-12,
        )
