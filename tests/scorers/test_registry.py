"""The registry contract: resolution, rejection, and the public surface."""

from pathlib import Path

import pytest

import repro
from repro.exceptions import ValidationError
from repro.scorers import Scorer, get_scorer, list_scorers, register


class TestRegistry:
    def test_all_four_scorers_registered(self):
        assert list_scorers() == ["knn_dist", "ldof", "lof", "loop"]

    def test_get_scorer_resolves_names(self):
        for name in list_scorers():
            assert get_scorer(name).name == name

    def test_get_scorer_passes_instances_through(self):
        lof = get_scorer("lof")
        assert get_scorer(lof) is lof

    def test_unknown_scorer_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="unknown scorer"):
            get_scorer("nope")

    def test_unknown_scorer_error_lists_the_registry(self):
        with pytest.raises(ValidationError, match="knn_dist, ldof, lof, loop"):
            get_scorer("nope")

    def test_register_rejects_duplicate_name(self):
        class Clash(Scorer):
            name = "lof"

        with pytest.raises(ValidationError, match="already registered"):
            register(Clash())

    def test_register_rejects_empty_name(self):
        with pytest.raises(ValidationError, match="non-empty name"):
            register(Scorer())

    def test_capability_flags(self):
        # LDOF is the only scorer that reads the raw dataset; LOF is the
        # only one the Theorem-1 reach-dist bracket applies to.
        assert [s for s in list_scorers() if get_scorer(s).requires_data] == ["ldof"]
        assert [s for s in list_scorers() if get_scorer(s).supports_bounds] == ["lof"]

    def test_every_scorer_has_a_description(self):
        for name in list_scorers():
            assert get_scorer(name).description


class TestPackageSurface:
    def test_top_level_exports(self):
        assert repro.get_scorer is get_scorer
        assert repro.list_scorers is list_scorers
        assert repro.register_scorer is register
        assert repro.Scorer is Scorer
        assert repro.ScorerContext is not None


class TestProtocolExample:
    def test_the_documented_example_fits_and_serves_bit_for_bit(
        self, tmp_path, monkeypatch, two_density_clusters
    ):
        # Run the fenced block of docs/scorers.md's protocol section as
        # written, with registration a no-op, then fit the example as an
        # unregistered instance and serve each stored row back.
        import numpy as np

        from repro import materialize, save_model
        from repro.serve import OnlineScorer

        doc = (Path(__file__).parents[2] / "docs" / "scorers.md").read_text()
        section = doc.split("## The Scorer protocol", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.setattr(repro, "register_scorer", lambda scorer: scorer)
        namespace = {}
        exec(compile(block, "docs/scorers.md", "exec"), namespace)
        example = namespace["MeanReach"]()
        assert example.name not in list_scorers()

        X = two_density_clusters
        mat = materialize(X, 10)
        grid = (5, 7, 8)
        fitted = mat.fit(example, grid).tables["score"]
        assert fitted.shape == (3, len(X)) and np.isfinite(fitted).all()
        path = tmp_path / "example.rlof"
        save_model(path, mat, X=X)
        served = OnlineScorer.from_path(path, cache_size=0)
        for j, k in enumerate(grid):
            got = served.score_new(X, min_pts=k, exclude=np.arange(len(X)), scorer=example)
            assert got.tobytes() == fitted[j].tobytes(), k
