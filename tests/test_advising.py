"""Tests for prerequisite-graph analytics (repro.domains.courses.advising)."""

import pytest

from repro.core.catalog import Catalog
from repro.core.exceptions import DataModelError
from repro.core.items import Prerequisites
from repro.domains.courses import (
    analyze_prerequisites,
    chain_depth,
    entry_courses,
    max_chain_depth,
    topological_layers,
    unlocked_by,
)

from conftest import make_item


@pytest.fixture
def chain_catalog():
    """a -> b -> c chain plus an OR shortcut and a free course."""
    return Catalog(
        [
            make_item("a", topics={"t1"}),
            make_item(
                "b", topics={"t2"},
                prereqs=Prerequisites.all_of(["a"]),
            ),
            make_item(
                "c", topics={"t3"},
                prereqs=Prerequisites.all_of(["b"]),
            ),
            make_item(
                "d", topics={"t4"},
                prereqs=Prerequisites.any_of(["a", "c"]),
            ),
            make_item("free", topics={"t5"}),
        ]
    )


class TestChainDepth:
    def test_entry_course_depth_zero(self, chain_catalog):
        assert chain_depth(chain_catalog, "a") == 0
        assert chain_depth(chain_catalog, "free") == 0

    def test_and_chain_depth(self, chain_catalog):
        assert chain_depth(chain_catalog, "b") == 1
        assert chain_depth(chain_catalog, "c") == 2

    def test_or_group_takes_shallowest(self, chain_catalog):
        # d needs a (depth 0) OR c (depth 2): the shortcut wins.
        assert chain_depth(chain_catalog, "d") == 1

    def test_max_depth(self, chain_catalog):
        assert max_chain_depth(chain_catalog) == 2

    def test_cycle_detected(self):
        catalog = Catalog(
            [
                make_item("x", prereqs=Prerequisites.all_of(["y"])),
                make_item("y", prereqs=Prerequisites.all_of(["x"])),
            ],
            validate_prerequisites=False,
        )
        with pytest.raises(DataModelError):
            chain_depth(catalog, "x")


class TestUnlocking:
    def test_transitive_unlocks(self, chain_catalog):
        assert unlocked_by(chain_catalog, "a") == ("b", "c", "d")
        assert unlocked_by(chain_catalog, "b") == ("c", "d")
        assert unlocked_by(chain_catalog, "free") == ()

    def test_entry_courses(self, chain_catalog):
        assert {i.item_id for i in entry_courses(chain_catalog)} == {
            "a", "free",
        }


class TestLayers:
    def test_layering_matches_depths(self, chain_catalog):
        layers = topological_layers(chain_catalog)
        assert layers[0] == ("a", "free")
        assert layers[1] == ("b", "d")
        assert layers[2] == ("c",)


class TestReport:
    def test_report_fields(self, chain_catalog):
        report = analyze_prerequisites(chain_catalog)
        assert report.max_chain_depth == 2
        assert report.num_with_prerequisites == 3
        assert report.num_unlockers == 3  # a, b, c all unlock something
        assert set(report.entry_course_ids) == {"a", "free"}
        assert report.critical_course_ids[0] == "a"

    def test_generated_catalogs_stay_shallow(self):
        """Generated programs keep chains <= 2 deep (plan feasibility)."""
        from repro.datasets import load

        for key in ("njit_dsct", "njit_cs", "univ2_ds"):
            dataset = load(key, seed=0, with_gold=False)
            assert max_chain_depth(dataset.catalog) <= 2
