"""The batched reward engine must equal the scalar Eq. 2 path exactly.

``RewardFunction.reward_batch`` is a pure performance rewrite: for any
partial plan and candidate index set it must produce, to the last bit,
the same numbers as calling the scalar ``__call__`` per item, and the
batched ``mask_actions`` must keep the same candidates as the scalar
tiering.  These tests sweep randomized synthetic instances (all three
similarity modes), the trip datasets (haversine distance budgets) and
Univ-2 (per-category credit minima), plus the feedback-adjusted
wrapper.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PlannerConfig, SimilarityMode
from repro.core.plan import PlanBuilder
from repro.core.reward import RewardFunction, batch_rewards
from repro.datasets import load
from repro.datasets.synthetic import generate_instance
from repro.feedback.adapter import FeedbackAdjustedReward
from repro.feedback.models import Feedback
from repro.feedback.store import FeedbackStore


def _assert_step_equality(reward, builder, cand_idx) -> None:
    """Batch == scalar for rewards, gates and the masked action set."""
    item_at = builder.catalog.item_at
    items = tuple(item_at(i) for i in cand_idx.tolist())
    batch = batch_rewards(reward, builder, cand_idx)
    scalar = np.array([reward(builder, item) for item in items])
    np.testing.assert_array_equal(batch, scalar)
    if isinstance(reward, RewardFunction):
        masked = reward.mask_actions(builder, cand_idx)
        scalar_masked = reward._mask_actions_scalar(builder, items)
        assert tuple(item_at(i) for i in masked.tolist()) == scalar_masked


def _greedy_sweep(catalog, task, reward, steps: int = 6) -> None:
    """Walk a greedy episode, checking equality at every step."""
    builder = PlanBuilder(catalog)
    builder.add(catalog.item_at(0))
    for _ in range(steps):
        cand_idx = builder.remaining_indices()
        if not cand_idx.size:
            break
        _assert_step_equality(reward, builder, cand_idx)
        scores = batch_rewards(reward, builder, cand_idx)
        builder.add(catalog.item_at(int(cand_idx[int(np.argmax(scores))])))


class TestSyntheticInstances:
    @pytest.mark.parametrize(
        "mode",
        [SimilarityMode.AVERAGE, SimilarityMode.MINIMUM,
         SimilarityMode.MAXIMUM],
        ids=lambda m: m.value,
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_equals_scalar(self, mode, seed):
        catalog, task = generate_instance(num_items=40, seed=seed)
        config = PlannerConfig(similarity=mode)
        reward = RewardFunction(task, config)
        _greedy_sweep(catalog, task, reward)


class TestPaperDatasets:
    @pytest.mark.parametrize("name", ["nyc", "paris"])
    def test_trip_datasets(self, name):
        """Trips: haversine travel budget + POI categories."""
        dataset = load(name, seed=0, with_gold=False)
        reward = RewardFunction(dataset.task, dataset.default_config)
        _greedy_sweep(dataset.catalog, dataset.task, reward)

    def test_univ2_category_minima(self):
        """Univ-2: six per-category credit minima in the lookahead."""
        dataset = load("univ2_ds", seed=0, with_gold=False)
        reward = RewardFunction(dataset.task, dataset.default_config)
        _greedy_sweep(dataset.catalog, dataset.task, reward)


class TestFeedbackWrapper:
    def test_adjusted_batch_equals_adjusted_scalar(self):
        catalog, task = generate_instance(num_items=30, seed=7)
        store = FeedbackStore()
        for index, item_id in enumerate(catalog.item_ids[:10]):
            store.add(Feedback(item_id, utility=((-1) ** index) * 0.8))
        reward = FeedbackAdjustedReward(
            RewardFunction(task, PlannerConfig()), store
        )
        _greedy_sweep(catalog, task, reward)


class TestFallbacks:
    def test_empty_candidate_set(self):
        catalog, task = generate_instance(num_items=20, seed=3)
        reward = RewardFunction(task, PlannerConfig())
        builder = PlanBuilder(catalog)
        builder.add(catalog.item_at(0))
        none = np.zeros(0, dtype=np.int64)
        assert batch_rewards(reward, builder, none).shape == (0,)
        assert reward.mask_actions(builder, none).size == 0
