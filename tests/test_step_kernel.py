"""The vectorized step kernel must equal the per-item reference.

At every step of a walk, over random universes, the kernel's masks and
rewards — ``mask_actions`` on catalog indices and on Items,
``feasible_mask`` on catalog indices, the Eq. 2 batch, the top-k pruned
tier, the feedback wrapper — must equal the scalar reference (``_mask_actions_scalar``,
``feasibility_gate``, ``__call__``) exactly.  The universes mix OR-group
prerequisites (some naming ids outside the catalog), category credit
minima, trip budgets with distance and theme adjacency, a foreign
prefix item and availability filters.

Also pinned here: the lookahead tie rule against its sequential
definition, and NaN handling shared by both Q-table backends.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catalog import Catalog
from repro.core.config import PlannerConfig, SimilarityMode
from repro.core.constraints import (
    HardConstraints,
    InterleavingTemplate,
    SoftConstraints,
    TaskSpec,
)
from repro.core.env import TPPEnvironment
from repro.core.items import Item, ItemType, Prerequisites, make_metadata
from repro.core.plan import PlanBuilder
from repro.core.policy import TIE_TOLERANCE, GreedyPolicy, _tied_best
from repro.core.qtable import QTable, SparseQTable
from repro.core.reward import RewardFunction, batch_rewards
from repro.core.sarsa import SarsaLearner
from repro.datasets.synthetic import generate_instance
from repro.feedback.adapter import FeedbackAdjustedReward
from repro.feedback.models import Feedback
from repro.feedback.store import FeedbackStore

from conftest import make_item

CATEGORIES = ("c0", "c1", "c2")
FOREIGN_IDS = ("x0", "x1")


def _item(draw, item_id, earlier, n_topics, geo_mode="some"):
    geo = geo_mode == "all" or (geo_mode == "some" and draw(st.booleans()))
    metadata = (
        make_metadata(
            lat=draw(st.floats(48.80, 48.90)),
            lon=draw(st.floats(2.25, 2.40)),
        )
        if geo
        else ()
    )
    groups = []
    pool = list(earlier) + list(FOREIGN_IDS)
    for _ in range(draw(st.integers(0, 2)) if earlier else 0):
        groups.append(
            draw(st.sets(st.sampled_from(pool), min_size=1, max_size=3))
        )
    return Item(
        item_id=item_id,
        name=item_id,
        item_type=draw(st.sampled_from(list(ItemType))),
        credits=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0])),
        prerequisites=Prerequisites.from_cnf(groups),
        topics=frozenset(
            f"t{k}"
            for k in draw(st.sets(st.integers(0, n_topics - 1), max_size=3))
        ),
        category=draw(st.sampled_from((None,) + CATEGORIES)),
        metadata=metadata,
    )


@st.composite
def universes(draw):
    """(catalog, task, config, foreign prefix item or None)."""
    n_topics = draw(st.integers(2, 8))
    # Every item located, or none, or some: the budget binds only on a
    # plan whose items all carry coordinates.
    geo_mode = draw(st.sampled_from(["all", "none", "some"]))
    ids = [f"i{k:02d}" for k in range(draw(st.integers(6, 22)))]
    items = [
        _item(draw, item_id, ids[:k], n_topics, geo_mode)
        for k, item_id in enumerate(ids)
    ]
    catalog = Catalog(items, validate_prerequisites=False)
    num_primary = draw(st.integers(0, 3))
    num_secondary = draw(st.integers(0 if num_primary else 1, 3))
    labels = ["P"] * num_primary + ["S"] * num_secondary
    template = [
        draw(st.permutations(labels)) for _ in range(draw(st.integers(1, 2)))
    ]
    minima = draw(
        st.dictionaries(
            st.sampled_from(CATEGORIES),
            st.sampled_from([1.0, 2.5, 4.0, 6.0]),
            max_size=2,
        )
    )
    hard = HardConstraints(
        min_credits=draw(st.sampled_from([6.0, 9.0, 12.0, 40.0])),
        num_primary=num_primary,
        num_secondary=num_secondary,
        gap=draw(st.integers(0, 2)),
        category_credits=tuple(sorted(minima.items())),
        max_distance=draw(st.one_of(st.none(), st.floats(0.5, 20.0))),
        theme_adjacency_gap=draw(st.booleans()),
    )
    soft = SoftConstraints(
        ideal_topics=frozenset(
            f"t{k}"
            for k in draw(
                st.sets(st.integers(0, n_topics - 1), min_size=1, max_size=4)
            )
        ),
        template=InterleavingTemplate.from_labels(template),
    )
    config = PlannerConfig(
        similarity=draw(st.sampled_from(list(SimilarityMode))),
        coverage_threshold=draw(st.sampled_from([0.0025, 0.5, 1.0, 2.0])),
    )
    foreign = None
    if draw(st.booleans()):
        foreign = _item(
            draw, draw(st.sampled_from(FOREIGN_IDS)), [], n_topics, geo_mode
        )
    return catalog, TaskSpec(hard=hard, soft=soft, name="kernel"), config, foreign


def _pruned_reference(reward, builder, items, top_k):
    """The lazy top-k scan, restated per item."""
    tier1 = [
        item
        for item in items
        if reward.gap_gate(builder, item)
        and reward.coverage_gate(builder, item)
        and reward.feasibility_gate(builder, item)
    ]
    if not tier1:
        return list(reward._mask_actions_scalar(builder, items))
    values = sorted((reward(builder, item) for item in tier1), reverse=True)
    floor = values[min(top_k, len(values)) - 1]
    return [item for item in tier1 if reward(builder, item) >= floor]


def _assert_step(reward, builder, cand_idx):
    catalog = builder.catalog
    items = tuple(catalog.item_at(i) for i in cand_idx.tolist())
    expected = reward._mask_actions_scalar(builder, items)
    assert reward.mask_actions(builder, items) == expected
    masked_idx = reward.mask_actions(builder, cand_idx)
    assert tuple(catalog.item_at(i) for i in masked_idx.tolist()) == expected
    feasible = [reward.feasibility_gate(builder, item) for item in items]
    assert reward.feasible_mask(builder, cand_idx).tolist() == feasible
    scalar = np.array([reward(builder, item) for item in items])
    np.testing.assert_array_equal(
        batch_rewards(reward, builder, cand_idx), scalar
    )
    np.testing.assert_array_equal(batch_rewards(reward, builder, items), scalar)
    for top_k in (1, 3):
        pruned = reward.mask_actions_pruned_idx(builder, cand_idx, top_k)
        assert [catalog.item_at(i) for i in pruned.tolist()] == (
            _pruned_reference(reward, builder, items, top_k)
        )
    return masked_idx


@settings(max_examples=120, deadline=None)
@given(universes(), st.data())
def test_kernel_equals_scalar_reference(universe, data):
    catalog, task, config, foreign = universe
    reward = RewardFunction(task, config)
    builder = PlanBuilder(catalog)
    if foreign is not None:
        builder.add(foreign)
    builder.add(catalog.item_at(data.draw(st.integers(0, len(catalog) - 1))))
    allowed = np.array(
        data.draw(st.lists(st.booleans(), min_size=len(catalog),
                           max_size=len(catalog)))
    )
    while len(builder) < task.hard.plan_length + 1:
        remaining = builder.remaining_indices()
        if remaining.size == 0:
            break
        masked = _assert_step(reward, builder, remaining)
        if (allowed[remaining]).any():
            _assert_step(reward, builder, remaining[allowed[remaining]])
        pick = data.draw(st.integers(0, masked.size - 1))
        builder.add(catalog.item_at(int(masked[pick])))


@settings(max_examples=60, deadline=None)
@given(universes(), st.data())
def test_feedback_wrapper_takes_the_index_form(universe, data):
    catalog, task, config, _foreign = universe
    store = FeedbackStore()
    for item_id in data.draw(
        st.lists(st.sampled_from(catalog.item_ids), max_size=6)
    ):
        store.add(Feedback(item_id, utility=data.draw(st.floats(-1.0, 1.0))))
    reward = FeedbackAdjustedReward(RewardFunction(task, config), store)
    builder = PlanBuilder(catalog)
    builder.add(catalog.item_at(0))
    while len(builder) < task.hard.plan_length:
        remaining = builder.remaining_indices()
        if remaining.size == 0:
            break
        items = builder.remaining_items()
        np.testing.assert_array_equal(
            reward.reward_batch(builder, remaining),
            np.array([reward(builder, item) for item in items]),
        )
        masked = reward.mask_actions(builder, remaining)
        assert tuple(catalog.item_at(i) for i in masked.tolist()) == (
            reward.mask_actions(builder, items)
        )
        builder.add(catalog.item_at(int(masked[0])))


def test_batched_training_scores_wrappers_on_indices():
    # An empty store leaves every reward unchanged, so episode-batched
    # training through the wrapper must train the base reward's table,
    # and every scoring call must receive catalog indices.
    catalog, task = generate_instance(num_items=30, seed=4)
    config = PlannerConfig(seed=21, exploration=0.3)
    seen = []

    class Recording(FeedbackAdjustedReward):
        def reward_batch(self, builder, candidates):
            seen.append(type(candidates))
            return super().reward_batch(builder, candidates)

    base = RewardFunction(task, config)
    tables = []
    for reward in (base, Recording(base, FeedbackStore(), reject_threshold=None)):
        env = TPPEnvironment(catalog, task, config, reward=reward)
        result = SarsaLearner(env, config).learn(episodes=8, episode_batch=4)
        tables.append(result.qtable.to_entries())
    assert tables[0] == tables[1]
    assert seen and set(seen) == {np.ndarray}


def _sequential_winners(totals):
    """The lookahead tie rule as first written: one pass, in order."""
    best = -math.inf
    winners = []
    for pos, total in enumerate(totals):
        if total > best + TIE_TOLERANCE:
            best = total
            winners = [pos]
        elif abs(total - best) <= TIE_TOLERANCE:
            winners.append(pos)
    return winners


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 6),
            st.sampled_from([0.0, 0.4e-12, 0.9e-12, 1e-12, 1.1e-12, 3e-12]),
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    ),
    st.sampled_from([0.0, 0.37, 1.0, 12.5, 9876.5]),
)
def test_tied_best_equals_sequential_rule(steps, base):
    totals = []
    for k, step, is_nan in steps:
        totals.append(math.nan if is_nan else base + k * step)
    winners = _tied_best(np.array(totals))
    reference = _sequential_winners(totals)
    assert winners.tolist() == (reference or list(range(len(totals))))


class TestNanNeverWins:
    def test_backends_agree_on_rows_holding_nan(self):
        catalog = Catalog([make_item(f"i{k:02d}") for k in range(40)])
        results = []
        for backend in (QTable, SparseQTable):
            table = backend(catalog)
            table.set("i00", "i01", math.nan)
            table.set("i00", "i02", 2.0)
            table.set("i01", "i03", math.nan)
            results.append(
                table.best_continuation(np.array([0, 1, 2]), np.arange(40))
            )
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], [2.0, 0.0, 0.0])

    def test_all_nan_totals_tie_over_every_candidate(self, toy_dataset):
        class NanReward(RewardFunction):
            def reward_batch(self, builder, candidates):
                return np.full(len(candidates), math.nan)

        catalog, task = toy_dataset.catalog, toy_dataset.task
        reward = NanReward(task, PlannerConfig())
        policy = GreedyPolicy(QTable(catalog), task, reward=reward)
        plan = policy.recommend(catalog.item_at(0).item_id,
                                require_trained=False)
        builder = PlanBuilder(catalog)
        builder.add(catalog.item_at(0))
        for item in plan.items[1:]:
            first = reward.mask_actions(builder, builder.remaining_indices())[0]
            assert item is catalog.item_at(int(first))
            builder.add(item)
        assert len(plan) == task.hard.plan_length
