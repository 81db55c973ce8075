"""Unit tests for the CMDP environment (repro.core.env)."""

import pytest

from repro.core.catalog import Catalog
from repro.core.config import PlannerConfig
from repro.core.constraints import (
    HardConstraints,
    InterleavingTemplate,
    SoftConstraints,
    TaskSpec,
)
from repro.core.env import DomainMode, TPPEnvironment
from repro.core.exceptions import PlanningError
from repro.core.items import ItemType
from repro.core.plan import PlanBuilder
from repro.core.reward import RewardFunction

from conftest import make_item, make_task


def _action_ids(env):
    item_at = env.catalog.item_at
    return [item_at(i).item_id for i in env.action_indices().tolist()]


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
def env(catalog):
    return TPPEnvironment(
        catalog,
        make_task(),
        PlannerConfig(coverage_threshold=1.0, exploration=0.0),
    )


class TestEpisodeLifecycle:
    def test_reset_starts_episode(self, env):
        item = env.reset("p1")
        assert item.item_id == "p1"
        assert len(env.builder) == 1

    def test_builder_before_reset_raises(self, catalog):
        env = TPPEnvironment(catalog, make_task(), PlannerConfig())
        with pytest.raises(PlanningError):
            env.builder

    def test_step_returns_reward_and_done(self, env):
        env.reset("p1")
        prefix = PlanBuilder(env.catalog)
        prefix.add(env.catalog["p1"])
        oracle = RewardFunction(env.task, env.config)(
            prefix, env.catalog["s1"]
        )
        reward, done = env.step(env.catalog.index_of("s1"))
        assert reward > 0
        assert reward == oracle
        assert not done

    def test_episode_ends_at_horizon(self, env):
        env.reset("p1")
        env.step(env.catalog.index_of("s1"))
        env.step(env.catalog.index_of("p2"))
        _, done = env.step(env.catalog.index_of("s2"))
        assert done
        assert len(env.current_plan()) == env.horizon == 4

    def test_repeat_item_rejected(self, env):
        env.reset("p1")
        with pytest.raises(PlanningError):
            env.step(env.catalog.index_of("p1"))

    def test_action_indices_exclude_visited(self, env):
        env.reset("p1")
        assert "p1" not in _action_ids(env)


class TestTripBudget:
    def _trip_env(self, budget):
        catalog = Catalog(
            [
                make_item("a", ItemType.PRIMARY, credits=2.0,
                          topics={"t1"}),
                make_item("b", ItemType.SECONDARY, credits=2.0,
                          topics={"t2"}),
                make_item("c", ItemType.SECONDARY, credits=3.0,
                          topics={"t3"}),
            ]
        )
        task = TaskSpec(
            hard=HardConstraints.for_trips(
                budget, 1, 2, theme_adjacency_gap=False
            ),
            soft=SoftConstraints(
                ideal_topics=frozenset({"t1", "t2", "t3"}),
                template=InterleavingTemplate.from_labels(
                    [["P", "S", "S"]]
                ),
            ),
        )
        return TPPEnvironment(
            catalog,
            task,
            PlannerConfig(coverage_threshold=1.0),
            mode=DomainMode.TRIP,
        )

    def test_actions_respect_remaining_budget(self):
        env = self._trip_env(budget=4.5)
        env.reset("a")  # 2.0 used, 2.5 left
        assert _action_ids(env) == ["b"]  # c (3.0) no longer fits

    def test_episode_ends_when_budget_exhausted(self):
        env = self._trip_env(budget=4.5)
        env.reset("a")
        _, done = env.step(env.catalog.index_of("b"))  # 4.0 used, nothing fits
        assert done

    def test_larger_budget_allows_full_template(self):
        env = self._trip_env(budget=10.0)
        env.reset("a")
        _, done = env.step(env.catalog.index_of("b"))
        assert not done
        _, done = env.step(env.catalog.index_of("c"))
        assert done


class TestMasking:
    def test_masking_hides_gate_failures(self, catalog):
        # An item covering no new ideal topic is masked when others pass.
        catalog2 = Catalog(
            list(catalog.items) + [
                make_item("dead", ItemType.SECONDARY, topics={"zzz"})
            ]
        )
        env = TPPEnvironment(
            catalog2,
            make_task(),
            PlannerConfig(coverage_threshold=1.0, exploration=0.0),
        )
        env.reset("p1")
        assert "dead" not in _action_ids(env)

    def test_masking_can_be_disabled(self, catalog):
        catalog2 = Catalog(
            list(catalog.items) + [
                make_item("dead", ItemType.SECONDARY, topics={"zzz"})
            ]
        )
        env = TPPEnvironment(
            catalog2,
            make_task(),
            PlannerConfig(
                coverage_threshold=1.0, mask_invalid_actions=False
            ),
        )
        env.reset("p1")
        assert "dead" in _action_ids(env)


class TestRewardInjection:
    def test_custom_reward_is_used(self, catalog):
        """TPPEnvironment accepts an injected reward object (the hook
        the feedback adapter uses) and scores its steps through the
        reward's ``reward_batch``."""
        config = PlannerConfig(coverage_threshold=1.0)
        task = make_task()

        class DoubleReward(RewardFunction):
            def reward_batch(self, builder, cand_idx):
                return 2.0 * super().reward_batch(builder, cand_idx)

        custom = DoubleReward(task, config)
        env = TPPEnvironment(catalog, task, config, reward=custom)
        base_env = TPPEnvironment(catalog, task, config)
        env.reset("p1")
        base_env.reset("p1")
        action = catalog.index_of("s1")
        custom_r, _ = env.step(action)
        base_r, _ = base_env.step(action)
        assert custom_r == pytest.approx(2.0 * base_r)


class TestTripBudgetTolerance:
    """action_indices and is_done share one affordability rule."""

    def _trip_env(self, extra_cost):
        catalog = Catalog(
            [
                make_item("p1", ItemType.PRIMARY, credits=3.0,
                          topics={"t1"}),
                make_item("s1", ItemType.SECONDARY,
                          credits=3.0 + extra_cost, topics={"t2"}),
            ]
        )
        task = make_task(
            num_primary=1, num_secondary=1, min_credits=6.0,
            template_labels=[["P", "S"]],
        )
        env = TPPEnvironment(
            catalog,
            task,
            PlannerConfig(
                coverage_threshold=1.0, exploration=0.0,
                mask_invalid_actions=False,
            ),
            mode=DomainMode.TRIP,
        )
        env.reset("p1")
        return env

    def test_float_noise_within_tolerance_is_affordable(self):
        env = self._trip_env(extra_cost=5e-10)
        assert _action_ids(env) == ["s1"]
        assert not env.is_done()

    def test_over_tolerance_is_unaffordable_and_done(self):
        env = self._trip_env(extra_cost=1e-6)
        assert _action_ids(env) == []
        assert env.is_done()

    def test_exact_budget_fit_is_affordable(self):
        env = self._trip_env(extra_cost=0.0)
        assert _action_ids(env) == ["s1"]

    def test_the_two_checks_never_disagree(self):
        # is_done must be True exactly when no affordable item remains
        # (before the horizon is reached).
        for extra in (0.0, 5e-10, 1e-9, 2e-9, 1e-6, 1.0):
            env = self._trip_env(extra)
            assert (env.action_indices().size == 0) == env.is_done(), extra
