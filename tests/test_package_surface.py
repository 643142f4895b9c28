"""The public package surface: exports, __all__ hygiene, version."""

import importlib

import pytest

import repro


SUBPACKAGES = [
    "repro.core",
    "repro.index",
    "repro.baselines",
    "repro.datasets",
    "repro.analysis",
    "repro.io",
]


class TestTopLevel:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_api_present(self):
        for name in (
            "lof_scores",
            "LocalOutlierFactor",
            "MaterializationDB",
            "lof_range",
            "rank_outliers",
            "k_distance",
            "reach_dist",
        ):
            assert name in repro.__all__


@pytest.mark.parametrize("module_name", SUBPACKAGES)
class TestSubpackages:
    def test_all_entries_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_docstring_present(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 40


class TestPublicCallablesDocumented:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_every_export_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        missing = []
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj) and not (obj.__doc__ and obj.__doc__.strip()):
                missing.append(name)
        assert not missing, f"undocumented exports in {module_name}: {missing}"


class TestIndexRegistryConsistency:
    def test_registry_matches_exports(self):
        from repro.index import available_indexes, make_index

        for name in available_indexes():
            idx = make_index(name)
            assert idx.name == name

    def test_all_indexes_have_distinct_names(self):
        from repro.index import available_indexes

        names = available_indexes()
        assert len(names) == len(set(names))
        assert set(names) == {
            "brute", "grid", "kdtree", "balltree", "rstar", "xtree", "vafile"
        }
