"""Unit tests for the SARSA learner (repro.core.sarsa)."""

import numpy as np
import pytest

from repro.core.catalog import Catalog
from repro.core.config import PlannerConfig
from repro.core.env import TPPEnvironment
from repro.core.exceptions import PlanningError
from repro.core.items import ItemType
from repro.core.sarsa import ActionSelection, SarsaLearner

from conftest import make_item, make_task


@pytest.fixture
def catalog():
    return Catalog(
        [
            make_item("p1", ItemType.PRIMARY, topics={"t1"}),
            make_item("p2", ItemType.PRIMARY, topics={"t2"}),
            make_item("s1", ItemType.SECONDARY, topics={"t3"}),
            make_item("s2", ItemType.SECONDARY, topics={"t4"}),
            make_item("s3", ItemType.SECONDARY, topics={"t1", "t3"}),
        ]
    )


def build_learner(catalog, **config_kwargs):
    defaults = dict(
        episodes=30, coverage_threshold=1.0, exploration=0.1, seed=0
    )
    defaults.update(config_kwargs)
    config = PlannerConfig(**defaults)
    env = TPPEnvironment(catalog, make_task(), config)
    return SarsaLearner(env, config)


class TestLearning:
    def test_learn_runs_requested_episodes(self, catalog):
        result = build_learner(catalog).learn()
        assert result.episodes == 30
        assert len(result.stats) == 30

    def test_qtable_receives_updates(self, catalog):
        result = build_learner(catalog).learn()
        assert result.qtable.update_count > 0
        assert (result.qtable.values != 0).any()

    def test_episode_override(self, catalog):
        result = build_learner(catalog).learn(episodes=5)
        assert result.episodes == 5

    def test_start_pool_restriction(self, catalog):
        result = build_learner(catalog).learn(start_item_ids=["p1"])
        assert {s.start_item_id for s in result.stats} == {"p1"}

    def test_unknown_start_rejected(self, catalog):
        with pytest.raises(PlanningError):
            build_learner(catalog).learn(start_item_ids=["ghost"])

    def test_empty_start_pool_rejected(self, catalog):
        with pytest.raises(PlanningError):
            build_learner(catalog).learn(start_item_ids=[])

    def test_warm_start_continues_table(self, catalog):
        learner = build_learner(catalog)
        first = learner.learn(episodes=5)
        updates = first.qtable.update_count
        second = build_learner(catalog).learn(
            episodes=5, qtable=first.qtable
        )
        assert second.qtable is first.qtable
        assert second.qtable.update_count > updates

    def test_on_episode_callback(self, catalog):
        seen = []
        build_learner(catalog).learn(
            episodes=3, on_episode=seen.append
        )
        assert [s.episode for s in seen] == [0, 1, 2]


class TestDeterminismAndStats:
    def test_same_seed_same_qtable(self, catalog):
        r1 = build_learner(catalog, seed=7).learn()
        r2 = build_learner(catalog, seed=7).learn()
        assert (r1.qtable.values == r2.qtable.values).all()

    def test_different_seed_differs(self, catalog):
        r1 = build_learner(catalog, seed=1).learn()
        r2 = build_learner(catalog, seed=2).learn()
        assert (r1.qtable.values != r2.qtable.values).any()

    def test_mean_episode_reward_positive(self, catalog):
        result = build_learner(catalog).learn()
        assert result.mean_episode_reward > 0

    def test_reward_trace_length(self, catalog):
        result = build_learner(catalog).learn(episodes=7)
        assert len(result.reward_trace()) == 7

    def test_episode_length_bounded_by_horizon(self, catalog):
        result = build_learner(catalog).learn()
        assert all(s.length <= 4 for s in result.stats)


class _TwoSeedDeadEnv(TPPEnvironment):
    """reset() seeds two items and no action is ever available.

    Models the dead-start corner: an environment may legitimately seed
    more than the start item before the first step (e.g. mandated
    items), and the episode can still offer no legal action.
    """

    def reset(self, start_item_id):
        item = super().reset(start_item_id)
        self.builder.add(self.catalog["p2"])
        return item

    def action_indices(self):
        return np.empty(0, dtype=np.int64)


class TestDeadStartEpisodes:
    def test_length_counts_everything_reset_seeded(self, catalog):
        # Regression: the dead-start branch used to hardcode length=1,
        # disagreeing with len(env.builder) whenever reset() seeded
        # more than the start item.
        config = PlannerConfig(
            episodes=3, coverage_threshold=1.0, exploration=0.1, seed=0
        )
        env = _TwoSeedDeadEnv(catalog, make_task(), config)
        learner = SarsaLearner(env, config)
        result = learner.learn(start_item_ids=["p1"])
        assert len(result.stats) == 3
        for stats in result.stats:
            assert stats.length == 2
            # Zero steps taken => zero zero-reward steps, exactly as
            # the stepping path would count them.
            assert stats.zero_reward_steps == 0
            assert stats.total_reward == 0.0


class TestSelectionModes:
    def test_q_greedy_mode_learns(self, catalog):
        config = PlannerConfig(
            episodes=20, coverage_threshold=1.0, exploration=0.2, seed=0
        )
        env = TPPEnvironment(catalog, make_task(), config)
        learner = SarsaLearner(
            env, config, selection=ActionSelection.Q_GREEDY
        )
        result = learner.learn()
        assert result.qtable.update_count > 0

    def test_zero_exploration_is_paper_algorithm(self, catalog):
        # exploration=0 -> pure reward-greedy rollouts; still learns.
        result = build_learner(catalog, exploration=0.0).learn()
        assert result.mean_episode_reward > 0
