"""Failure-injection tests: adversarial instances must degrade, not crash.

The planner's contract under hostile inputs: always return a plan (the
masking tiers fall back rather than deadlock), let the validator/scorer
report the damage, and never raise from ordinary planning calls.
"""

import numpy as np

from repro import RLPlanner
from repro.core.catalog import Catalog
from repro.core.config import PlannerConfig
from repro.core.items import ItemType, Prerequisites
from repro.core.plan import PlanBuilder

from conftest import make_item, make_task


class TestDegenerateTopics:
    def test_all_items_share_one_topic(self):
        """Coverage gate fails everywhere after step 1: the planner
        must still emit a full-length plan (fallback tiers)."""
        catalog = Catalog(
            [
                make_item(
                    f"x{i}",
                    ItemType.PRIMARY if i < 2 else ItemType.SECONDARY,
                    topics={"only"},
                )
                for i in range(6)
            ]
        )
        task = make_task(ideal_topics=("only",))
        planner = RLPlanner(
            catalog, task,
            PlannerConfig(episodes=30, coverage_threshold=1.0, seed=0),
        )
        planner.fit(start_item_ids=["x0"])
        plan, score = planner.recommend_scored("x0")
        assert len(plan) == 4
        # The only ideal topic is covered; plan length/split decide
        # validity, not coverage.
        assert score.topic_coverage == 1.0

    def test_ideal_topics_absent_from_catalog(self):
        """The user wants topics nobody teaches: r1 never fires, plans
        still materialize, coverage reads 0."""
        catalog = Catalog(
            [
                make_item(
                    f"x{i}",
                    ItemType.PRIMARY if i < 2 else ItemType.SECONDARY,
                    topics={f"t{i}"},
                )
                for i in range(6)
            ]
        )
        task = make_task(ideal_topics=("missing1", "missing2"))
        planner = RLPlanner(
            catalog, task,
            PlannerConfig(episodes=30, coverage_threshold=1.0, seed=0),
        )
        planner.fit(start_item_ids=["x0"])
        plan, score = planner.recommend_scored("x0")
        assert len(plan) == 4
        assert score.topic_coverage == 0.0


class TestHostilePrerequisites:
    def test_everything_requires_one_item(self):
        """A single gatekeeper course: plans starting elsewhere must
        still complete."""
        gate = make_item("gate", ItemType.PRIMARY, topics={"g"})
        others = [
            make_item(
                f"x{i}",
                ItemType.PRIMARY if i == 0 else ItemType.SECONDARY,
                topics={f"t{i}"},
                prereqs=Prerequisites.all_of(["gate"]),
            )
            for i in range(5)
        ]
        catalog = Catalog([gate] + others)
        task = make_task(ideal_topics=("g",) + tuple(
            f"t{i}" for i in range(5)
        ))
        planner = RLPlanner(
            catalog, task,
            PlannerConfig(episodes=40, coverage_threshold=1.0, seed=0),
        )
        planner.fit(start_item_ids=["gate"])
        plan, score = planner.recommend_scored("gate")
        assert plan.item_ids[0] == "gate"
        assert score.is_valid

    def test_unsatisfiable_prerequisites_never_deadlock(self):
        """Mutually-gated items (cycle, unvalidated) can never both be
        placed legally; the fallback still yields a full plan with the
        violation reported."""
        catalog = Catalog(
            [
                make_item("a", ItemType.PRIMARY, topics={"t1"}),
                make_item("b", ItemType.PRIMARY, topics={"t2"}),
                make_item(
                    "c", ItemType.SECONDARY, topics={"t3"},
                    prereqs=Prerequisites.all_of(["d"]),
                ),
                make_item(
                    "d", ItemType.SECONDARY, topics={"t4"},
                    prereqs=Prerequisites.all_of(["c"]),
                ),
            ],
            validate_prerequisites=False,
        )
        task = make_task()
        planner = RLPlanner(
            catalog, task,
            PlannerConfig(episodes=30, coverage_threshold=1.0, seed=0),
        )
        planner.fit(start_item_ids=["a"])
        plan, score = planner.recommend_scored("a")
        assert len(plan) == 4  # forced to use c and d anyway
        assert not score.is_valid
        assert "prerequisite_gap" in score.report.codes()


class TestTinyCatalogs:
    def test_single_item_catalog(self):
        catalog = Catalog([make_item("solo", ItemType.PRIMARY,
                                     topics={"t"})])
        task = make_task(num_primary=1, num_secondary=0,
                         min_credits=3.0,
                         ideal_topics=("t",),
                         template_labels=[["P"]])
        planner = RLPlanner(
            catalog, task,
            PlannerConfig(episodes=5, coverage_threshold=1.0, seed=0),
        )
        planner.fit(start_item_ids=["solo"])
        plan, score = planner.recommend_scored("solo")
        assert plan.item_ids == ("solo",)
        assert score.is_valid
        assert score.value == 1.0

    def test_catalog_smaller_than_plan(self):
        """Plan length exceeds the catalog: episodes stop early and the
        short plan is reported invalid, not raised."""
        catalog = Catalog(
            [
                make_item("a", ItemType.PRIMARY, topics={"t1"}),
                make_item("b", ItemType.SECONDARY, topics={"t2"}),
            ]
        )
        task = make_task()  # wants 4 items
        planner = RLPlanner(
            catalog, task,
            PlannerConfig(episodes=10, coverage_threshold=1.0, seed=0),
        )
        planner.fit(start_item_ids=["a"])
        plan, score = planner.recommend_scored("a")
        assert len(plan) == 2
        assert not score.is_valid
        assert "length" in score.report.codes()


class TestRewardEdgeCases:
    def test_mask_with_no_candidates(self):
        catalog = Catalog([make_item("only", topics={"t"})])
        from repro.core.reward import RewardFunction

        task = make_task(num_primary=1, num_secondary=0,
                         min_credits=3.0, ideal_topics=("t",),
                         template_labels=[["P"]])
        reward = RewardFunction(task, PlannerConfig())
        builder = PlanBuilder(catalog)
        builder.add_by_id("only")
        none = np.zeros(0, dtype=np.int64)
        assert reward.mask_actions(builder, none).size == 0
