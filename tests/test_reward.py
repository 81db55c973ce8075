"""Unit tests for the Equation-2 reward function (repro.core.reward)."""

import numpy as np
import pytest

from repro.core.catalog import Catalog
from repro.core.config import PlannerConfig, RewardWeights
from repro.core.constraints import (
    HardConstraints,
    InterleavingTemplate,
    SoftConstraints,
    TaskSpec,
)
from repro.core.items import ItemType, Prerequisites
from repro.core.plan import PlanBuilder
from repro.core.reward import RewardFunction

from conftest import make_item, make_task


@pytest.fixture
def catalog():
    return Catalog(
        [
            make_item("p1", ItemType.PRIMARY, topics={"t1"}),
            make_item("p2", ItemType.PRIMARY, topics={"t2"}),
            make_item("s1", ItemType.SECONDARY, topics={"t3"}),
            make_item(
                "s2",
                ItemType.SECONDARY,
                topics={"t4"},
                prereqs=Prerequisites.all_of(["p1"]),
            ),
            make_item("dead", ItemType.SECONDARY, topics={"zzz"}),
        ]
    )


@pytest.fixture
def task():
    return make_task(gap=1)


@pytest.fixture
def config():
    return PlannerConfig(coverage_threshold=1.0, exploration=0.0)


@pytest.fixture
def reward(task, config):
    return RewardFunction(task, config)


def builder_with(catalog, *ids):
    builder = PlanBuilder(catalog)
    for item_id in ids:
        builder.add_by_id(item_id)
    return builder


class TestCoverageGate:
    def test_new_ideal_topic_passes(self, catalog, reward):
        builder = builder_with(catalog, "p1")
        assert reward.coverage_gate(builder, catalog["s1"]) == 1

    def test_no_new_ideal_topic_fails(self, catalog, reward):
        builder = builder_with(catalog, "p1")
        assert reward.coverage_gate(builder, catalog["dead"]) == 0

    def test_duplicate_topic_fails(self, catalog, task, config):
        # p1 covers t1; a second t1-only item adds nothing.
        catalog2 = Catalog(
            [
                make_item("p1", ItemType.PRIMARY, topics={"t1"}),
                make_item("x", ItemType.SECONDARY, topics={"t1"}),
            ]
        )
        reward = RewardFunction(task, config)
        builder = builder_with(catalog2, "p1")
        assert reward.coverage_gate(builder, catalog2["x"]) == 0

    def test_threshold_of_two_topics(self, catalog, task):
        config = PlannerConfig(coverage_threshold=2.0)
        reward = RewardFunction(task, config)
        builder = builder_with(catalog, "p1")
        # s1 adds only one ideal topic (t3) -> fails the epsilon=2 gate.
        assert reward.coverage_gate(builder, catalog["s1"]) == 0


class TestGapGate:
    def test_no_prereq_passes(self, catalog, reward):
        builder = builder_with(catalog, "p1")
        assert reward.gap_gate(builder, catalog["s1"]) == 1

    def test_prereq_satisfied(self, catalog, reward):
        builder = builder_with(catalog, "p1")
        assert reward.gap_gate(builder, catalog["s2"]) == 1

    def test_prereq_missing_fails(self, catalog, reward):
        builder = builder_with(catalog, "p2")
        assert reward.gap_gate(builder, catalog["s2"]) == 0

    def test_gap_distance_enforced(self, catalog, config):
        task = make_task(gap=3)
        reward = RewardFunction(task, config)
        builder = builder_with(catalog, "p1", "p2")
        # s2 would land at position 2; p1 at 0 -> distance 2 < gap 3.
        assert reward.gap_gate(builder, catalog["s2"]) == 0

    def test_theme_adjacency_mode(self, config):
        catalog = Catalog(
            [
                make_item("a", ItemType.PRIMARY, topics={"museum"}),
                make_item("b", ItemType.SECONDARY,
                          topics={"museum", "park"}),
                make_item("c", ItemType.SECONDARY, topics={"park"}),
            ]
        )
        task = TaskSpec(
            hard=HardConstraints.for_trips(
                10, 1, 2, theme_adjacency_gap=True
            ),
            soft=SoftConstraints(
                ideal_topics=frozenset({"museum", "park"}),
                template=InterleavingTemplate.from_labels(
                    [["P", "S", "S"]]
                ),
            ),
        )
        reward = RewardFunction(task, config)
        builder = builder_with(catalog, "a")
        assert reward.gap_gate(builder, catalog["b"]) == 0  # shares museum
        assert reward.gap_gate(builder, catalog["c"]) == 1


class TestEquation2:
    def test_theta_zero_kills_reward(self, catalog, reward):
        builder = builder_with(catalog, "p2")
        breakdown = reward.breakdown(builder, catalog["s2"])
        assert breakdown.r2_gap == 0
        assert breakdown.theta == 0
        assert breakdown.total == 0.0

    def test_gated_reward_mixes_terms(self, catalog, task, config):
        reward = RewardFunction(task, config)
        builder = builder_with(catalog, "p1")
        breakdown = reward.breakdown(builder, catalog["s1"])
        assert breakdown.theta == 1
        expected = (
            config.weights.delta * breakdown.similarity
            + config.weights.beta * breakdown.type_weight
        )
        assert breakdown.total == pytest.approx(expected)

    def test_primary_weighted_above_secondary(self, catalog, reward):
        assert reward.type_weight(catalog["p1"]) > reward.type_weight(
            catalog["s1"]
        )

    def test_category_weights_override_type(self, task):
        config = PlannerConfig(
            weights=RewardWeights.with_categories({"x": 0.9, "y": 0.1})
        )
        reward = RewardFunction(task, config)
        item_x = make_item("cx", ItemType.SECONDARY, category="x")
        item_y = make_item("cy", ItemType.PRIMARY, category="y")
        assert reward.type_weight(item_x) == 0.9
        assert reward.type_weight(item_y) == 0.1

    def test_best_possible_bounds_single_step(self, catalog, task, config):
        reward = RewardFunction(task, config)
        bound = reward.best_possible()
        builder = builder_with(catalog, "p1")
        for item_id in ("p2", "s1", "s2"):
            assert reward(builder, catalog[item_id]) <= bound


class TestFeasibilityGate:
    def test_blocks_primary_starvation(self, config):
        # 2 primaries required, 4 slots; picking secondaries in the
        # first three slots leaves only one slot for two primaries.
        catalog = Catalog(
            [
                make_item("p1", ItemType.PRIMARY, topics={"t1"}),
                make_item("p2", ItemType.PRIMARY, topics={"t2"}),
                make_item("s1", ItemType.SECONDARY, topics={"t3"}),
                make_item("s2", ItemType.SECONDARY, topics={"t4"}),
                make_item("s3", ItemType.SECONDARY, topics={"t5"}),
            ]
        )
        task = make_task(ideal_topics=("t1", "t2", "t3", "t4", "t5"))
        reward = RewardFunction(task, config)
        builder = builder_with(catalog, "s1", "s2")
        # Slot 2 of 4: a third secondary leaves 1 slot for 2 primaries.
        assert not reward.feasibility_gate(builder, catalog["s3"])
        assert reward.feasibility_gate(builder, catalog["p1"])

    def test_blocks_category_starvation(self, config):
        catalog = Catalog(
            [
                make_item("p1", ItemType.PRIMARY, topics={"t1"},
                          category="x"),
                make_item("p2", ItemType.PRIMARY, topics={"t2"},
                          category="x"),
                make_item("s1", ItemType.SECONDARY, topics={"t3"},
                          category="y"),
                make_item("s2", ItemType.SECONDARY, topics={"t4"},
                          category="z"),
                make_item("s3", ItemType.SECONDARY, topics={"t5"},
                          category="z"),
            ]
        )
        hard = HardConstraints.for_courses(
            12, 2, 2, 1, category_credits={"y": 3}
        )
        task = TaskSpec(
            hard=hard,
            soft=SoftConstraints(
                ideal_topics=frozenset({"t1", "t2", "t3", "t4", "t5"}),
                template=InterleavingTemplate.from_labels(
                    [["P", "S", "P", "S"]]
                ),
            ),
        )
        reward = RewardFunction(task, config)
        builder = builder_with(catalog, "p1", "s2")
        # Two slots left, need p2 (primary quota) and s1 (category y):
        # another z-category secondary starves category y or the quota.
        assert not reward.feasibility_gate(builder, catalog["s3"])
        assert reward.feasibility_gate(builder, catalog["s1"])

    def test_unreachable_prerequisite_pool_detected(self, config):
        # The only remaining primary requires an item that never entered
        # the plan, so it can no longer be scheduled.
        catalog = Catalog(
            [
                make_item("p1", ItemType.PRIMARY, topics={"t1"}),
                make_item(
                    "p2",
                    ItemType.PRIMARY,
                    topics={"t2"},
                    prereqs=Prerequisites.all_of(["s3"]),
                ),
                make_item("s1", ItemType.SECONDARY, topics={"t3"}),
                make_item("s2", ItemType.SECONDARY, topics={"t4"}),
                make_item("s3", ItemType.SECONDARY, topics={"t5"}),
            ]
        )
        task = make_task(ideal_topics=("t1", "t2", "t3", "t4", "t5"))
        reward = RewardFunction(task, config)
        builder = builder_with(catalog, "p1", "s1")
        # Choosing s2 now means slots 3 must provide the second primary,
        # but p2's prerequisite s3 is not in the plan -> unreachable.
        assert not reward.feasibility_gate(builder, catalog["s2"])

    def test_mask_tiers_prefer_fully_valid(self, catalog, task, config):
        reward = RewardFunction(task, config)
        builder = builder_with(catalog, "p1")
        masked = reward.mask_actions(builder, builder.remaining_indices())
        ids = {catalog.item_at(i).item_id for i in masked.tolist()}
        assert "dead" not in ids  # fails the coverage gate

    def test_mask_never_empty(self, catalog, task, config):
        reward = RewardFunction(task, config)
        builder = builder_with(catalog, "p1")
        # Restrict candidates to a single gate-failing item: the mask
        # must fall back rather than deadlock.
        dead = np.array([catalog.index_of("dead")])
        assert reward.mask_actions(builder, dead).tolist() == dead.tolist()
