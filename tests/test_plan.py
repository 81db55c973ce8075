"""Unit tests for plans and the incremental builder (repro.core.plan)."""

import pytest

from repro.core.catalog import Catalog
from repro.core.exceptions import PlanningError
from repro.core.items import ItemType
from repro.core.plan import PlanBuilder, plan_from_ids

from conftest import make_item


@pytest.fixture
def catalog():
    return Catalog(
        [
            make_item("a", ItemType.PRIMARY, topics={"t1", "t2"}),
            make_item("b", ItemType.SECONDARY, topics={"t2", "t3"}),
            make_item("c", ItemType.SECONDARY, topics={"t4"}),
        ]
    )


class TestPlanBuilder:
    def test_incremental_state(self, catalog):
        builder = PlanBuilder(catalog)
        assert len(builder) == 0 and builder.last_item is None
        builder.add_by_id("a")
        assert builder.total_credits == 3.0
        assert builder.covered_topics == frozenset({"t1", "t2"})
        builder.add_by_id("b")
        assert builder.covered_topics == frozenset({"t1", "t2", "t3"})
        assert builder.positions == {"a": 0, "b": 1}
        assert builder.last_item.item_id == "b"

    def test_duplicate_add_rejected(self, catalog):
        builder = PlanBuilder(catalog)
        builder.add_by_id("a")
        with pytest.raises(PlanningError):
            builder.add_by_id("a")

    def test_new_topics_is_set_difference(self, catalog):
        builder = PlanBuilder(catalog)
        builder.add_by_id("a")
        assert builder.new_topics(catalog["b"]) == frozenset({"t3"})
        assert builder.new_topics(catalog["c"]) == frozenset({"t4"})

    def test_remaining_items_shrink(self, catalog):
        builder = PlanBuilder(catalog)
        builder.add_by_id("b")
        remaining = {i.item_id for i in builder.remaining_items()}
        assert remaining == {"a", "c"}

    def test_reset_clears_everything(self, catalog):
        builder = PlanBuilder(catalog)
        builder.add_by_id("a")
        builder.reset()
        assert len(builder) == 0
        assert builder.total_credits == 0.0
        assert builder.covered_topics == frozenset()

    def test_build_freezes_snapshot(self, catalog):
        builder = PlanBuilder(catalog)
        builder.add_by_id("a")
        plan = builder.build()
        builder.add_by_id("b")
        assert len(plan) == 1  # the snapshot did not grow


class TestPlan:
    def test_metrics(self, catalog):
        plan = plan_from_ids(catalog, ["a", "b", "c"])
        assert plan.total_credits == 9.0
        assert plan.num_primary == 1 and plan.num_secondary == 2
        assert plan.type_sequence() == (
            ItemType.PRIMARY, ItemType.SECONDARY, ItemType.SECONDARY,
        )
        assert plan.item_ids == ("a", "b", "c")

    def test_topic_coverage(self, catalog):
        plan = plan_from_ids(catalog, ["a", "c"])
        # covers t1, t2, t4 out of ideal {t1, t3}.
        assert plan.topic_coverage_of(frozenset({"t1", "t3"})) == 0.5
        assert plan.topic_coverage_of(frozenset()) == 1.0

    def test_positions(self, catalog):
        plan = plan_from_ids(catalog, ["b", "a"])
        assert plan.positions() == {"b": 0, "a": 1}

    def test_describe_arrow_format(self, catalog):
        plan = plan_from_ids(catalog, ["a", "b"])
        assert plan.describe() == "a:primary -> b:secondary"

    def test_indexing_and_iteration(self, catalog):
        plan = plan_from_ids(catalog, ["a", "b"])
        assert plan[0].item_id == "a"
        assert [i.item_id for i in plan] == ["a", "b"]

    def test_credits_by_category(self):
        catalog = Catalog(
            [
                make_item("a", category="x"),
                make_item("b", category="x"),
                make_item("c", category="y"),
                make_item("d"),
            ]
        )
        plan = plan_from_ids(catalog, ["a", "b", "c", "d"])
        assert plan.credits_by_category() == {"x": 6.0, "y": 3.0}
