"""Unit tests for plan recommendation (repro.core.policy)."""

import pytest

from repro.core.catalog import Catalog
from repro.core.config import PlannerConfig, RecommendationMode
from repro.core.env import TPPEnvironment
from repro.core.exceptions import PlanningError, UntrainedPolicyError
from repro.core.items import ItemType
from repro.core.plan import PlanBuilder
from repro.core.planner import RLPlanner
from repro.core.policy import GreedyPolicy
from repro.core.qtable import QTable
from repro.core.reward import RewardFunction
from repro.core.sarsa import SarsaLearner

from conftest import make_item, make_task


@pytest.fixture
def catalog():
    return Catalog(
        [
            make_item("p1", ItemType.PRIMARY, topics={"t1"}),
            make_item("p2", ItemType.PRIMARY, topics={"t2"}),
            make_item("s1", ItemType.SECONDARY, topics={"t3"}),
            make_item("s2", ItemType.SECONDARY, topics={"t4"}),
        ]
    )


@pytest.fixture
def task():
    return make_task()


@pytest.fixture
def trained(catalog, task):
    config = PlannerConfig(
        episodes=40, coverage_threshold=1.0, exploration=0.1, seed=0
    )
    env = TPPEnvironment(catalog, task, config)
    result = SarsaLearner(env, config).learn()
    return result.qtable, RewardFunction(task, config)


class TestQOnlyTraversal:
    def test_manual_qtable_is_followed(self, catalog, task):
        table = QTable(catalog)
        # Force the path p1 -> s1 -> p2 -> s2.
        table.set("p1", "s1", 5.0)
        table.set("s1", "p2", 5.0)
        table.set("p2", "s2", 5.0)
        table.update_count = 3
        policy = GreedyPolicy(
            table, task, recommendation=RecommendationMode.Q_ONLY
        )
        plan = policy.recommend("p1")
        assert plan.item_ids == ("p1", "s1", "p2", "s2")

    def test_untrained_table_refused(self, catalog, task):
        policy = GreedyPolicy(
            QTable(catalog), task,
            recommendation=RecommendationMode.Q_ONLY,
        )
        with pytest.raises(UntrainedPolicyError):
            policy.recommend("p1")

    def test_untrained_override(self, catalog, task):
        policy = GreedyPolicy(
            QTable(catalog), task,
            recommendation=RecommendationMode.Q_ONLY,
        )
        plan = policy.recommend("p1", require_trained=False)
        assert len(plan) == 4

    def test_unknown_start_rejected(self, catalog, task):
        policy = GreedyPolicy(
            QTable(catalog), task,
            recommendation=RecommendationMode.Q_ONLY,
        )
        with pytest.raises(PlanningError):
            policy.recommend("ghost")


class TestQOnlyForeignPrefix:
    """A foreign last prefix item has no Q row: it reads as a
    never-visited state, so every masked candidate ties."""

    def test_complete_from_foreign_item(self, cs_dataset):
        catalog, task = cs_dataset.catalog, cs_dataset.task
        config = cs_dataset.default_config.replace(
            episodes=50, recommendation=RecommendationMode.Q_ONLY
        )
        planner = RLPlanner(catalog, task, config, mode=cs_dataset.mode)
        planner.fit()
        reward = planner.reward_function()
        foreign = make_item("foreign", ItemType.PRIMARY, topics={"zzz"})
        policy = GreedyPolicy(
            planner.qtable, task, mode=cs_dataset.mode, rng_seed=None,
            reward=reward, recommendation=RecommendationMode.Q_ONLY,
        )
        plan = policy.complete([foreign])
        assert plan.items[0] is foreign
        assert len(plan) == task.hard.plan_length
        builder = PlanBuilder(catalog)
        builder.add(foreign)
        first = reward.mask_actions(builder, builder.remaining_indices())[0]
        assert plan.items[1] is catalog.item_at(int(first))

        completed, _score, _ = planner.complete_plan([foreign])
        assert completed.items[0] is foreign
        assert len(completed) == task.hard.plan_length


class TestLookaheadTraversal:
    def test_requires_reward_function(self, catalog, task):
        with pytest.raises(PlanningError):
            GreedyPolicy(
                QTable(catalog), task,
                recommendation=RecommendationMode.LOOKAHEAD,
            )

    def test_produces_full_length_plan(self, catalog, task, trained):
        table, reward = trained
        policy = GreedyPolicy(table, task, reward=reward)
        plan = policy.recommend("p1")
        assert len(plan) == task.hard.plan_length
        assert plan.item_ids[0] == "p1"
        assert len(set(plan.item_ids)) == len(plan)

    def test_horizon_override(self, catalog, task, trained):
        table, reward = trained
        policy = GreedyPolicy(table, task, reward=reward)
        assert len(policy.recommend("p1", horizon=2)) == 2

    def test_recommend_many(self, catalog, task, trained):
        table, reward = trained
        policy = GreedyPolicy(table, task, reward=reward)
        plans = policy.recommend_many(["p1", "p2"])
        assert [p.item_ids[0] for p in plans] == ["p1", "p2"]

    def test_deterministic_without_rng(self, catalog, task, trained):
        table, reward = trained
        a = GreedyPolicy(table, task, reward=reward).recommend("p1")
        b = GreedyPolicy(table, task, reward=reward).recommend("p1")
        assert a.item_ids == b.item_ids

    def test_mask_disabled_allows_gate_failures(self, catalog, task,
                                                trained):
        table, reward = trained
        masked = GreedyPolicy(table, task, reward=reward, mask=True)
        unmasked = GreedyPolicy(table, task, reward=reward, mask=False)
        # Both produce plans; masking can only change (improve) choices.
        assert len(masked.recommend("p1")) == 4
        assert len(unmasked.recommend("p1")) == 4
