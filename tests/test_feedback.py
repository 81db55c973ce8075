"""Tests for the adaptive feedback loop (repro.feedback)."""

import pytest

from repro.core.catalog import Catalog
from repro.core.config import PlannerConfig
from repro.core.items import ItemType
from repro.core.plan import PlanBuilder
from repro.core.reward import RewardFunction
from repro.datasets import load_toy
from repro.feedback import (
    Feedback,
    FeedbackAdjustedReward,
    FeedbackError,
    FeedbackStore,
    InteractiveSession,
    feedback_batch,
)

from conftest import make_item, make_task


class TestFeedbackModels:
    def test_binary(self):
        assert Feedback.binary("x", True).utility == 1.0
        assert Feedback.binary("x", False).utility == -1.0

    def test_rating_scale(self):
        assert Feedback.rating("x", 5).utility == 1.0
        assert Feedback.rating("x", 3).utility == 0.0
        assert Feedback.rating("x", 1).utility == -1.0

    def test_rating_off_scale_rejected(self):
        with pytest.raises(FeedbackError):
            Feedback.rating("x", 0)
        with pytest.raises(FeedbackError):
            Feedback.rating("x", 6)

    def test_distribution_expectation(self):
        fb = Feedback.distribution(
            "x", {-1.0: 0.2, 0.0: 0.3, 1.0: 0.5}
        )
        assert fb.utility == pytest.approx(0.3)

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(FeedbackError):
            Feedback.distribution("x", {1.0: 0.5})

    def test_distribution_levels_bounded(self):
        with pytest.raises(FeedbackError):
            Feedback.distribution("x", {2.0: 1.0})

    def test_empty_item_id_rejected(self):
        with pytest.raises(FeedbackError):
            Feedback.binary("", True)

    def test_feedback_batch(self):
        batch = feedback_batch({"a": 5, "b": 1})
        assert [f.item_id for f in batch] == ["a", "b"]
        assert [f.utility for f in batch] == [1.0, -1.0]


class TestFeedbackStore:
    def test_first_signal_sets_preference(self):
        store = FeedbackStore()
        store.add(Feedback.binary("x", True))
        assert store.preference("x") == 1.0
        assert store.count("x") == 1

    def test_exponential_smoothing(self):
        store = FeedbackStore(smoothing=0.5)
        store.add(Feedback.binary("x", True))    # 1.0
        store.add(Feedback.binary("x", False))   # 0.5*-1 + 0.5*1 = 0
        assert store.preference("x") == pytest.approx(0.0)

    def test_unrated_items_are_neutral(self):
        assert FeedbackStore().preference("never") == 0.0

    def test_rejected_and_endorsed(self):
        store = FeedbackStore()
        store.add_all(
            [Feedback.binary("bad", False), Feedback.binary("good", True)]
        )
        assert store.rejected_items() == ("bad",)
        assert store.endorsed_items() == ("good",)

    def test_reset(self):
        store = FeedbackStore()
        store.add(Feedback.binary("x", True))
        store.reset()
        assert len(store) == 0
        assert store.history() == ()

    def test_invalid_smoothing_rejected(self):
        with pytest.raises(FeedbackError):
            FeedbackStore(smoothing=0.0)


class TestAdjustedReward:
    @pytest.fixture
    def setup(self):
        catalog = Catalog(
            [
                make_item("p1", ItemType.PRIMARY, topics={"t1"}),
                make_item("s1", ItemType.SECONDARY, topics={"t2"}),
                make_item("s2", ItemType.SECONDARY, topics={"t3"}),
                make_item("p2", ItemType.PRIMARY, topics={"t4"}),
            ]
        )
        task = make_task()
        config = PlannerConfig(coverage_threshold=1.0)
        base = RewardFunction(task, config)
        store = FeedbackStore()
        adjusted = FeedbackAdjustedReward(base, store,
                                          feedback_weight=0.5)
        builder = PlanBuilder(catalog)
        builder.add_by_id("p1")
        return catalog, base, store, adjusted, builder

    def test_neutral_items_unchanged(self, setup):
        catalog, base, _, adjusted, builder = setup
        item = catalog["s1"]
        assert adjusted(builder, item) == base(builder, item)

    def test_endorsement_raises_reward(self, setup):
        catalog, base, store, adjusted, builder = setup
        store.add(Feedback.binary("s1", True))
        item = catalog["s1"]
        assert adjusted(builder, item) == pytest.approx(
            base(builder, item) + 0.5
        )

    def test_rejection_lowers_but_never_negative(self, setup):
        catalog, base, store, adjusted, builder = setup
        store.add(Feedback.binary("s1", False))
        item = catalog["s1"]
        assert 0.0 <= adjusted(builder, item) < base(builder, item)

    def test_theta_gate_not_laundered(self, setup):
        catalog, base, store, adjusted, builder = setup
        # s_dup adds no new ideal topic -> theta = 0 for both rewards,
        # regardless of glowing feedback.
        dup = make_item("dup", ItemType.SECONDARY, topics={"t1"})
        store.add(Feedback.binary("dup", True))
        assert base.coverage_gate(builder, dup) == 0
        assert adjusted(builder, dup) == 0.0

    def test_rejected_items_masked(self, setup):
        catalog, base, store, adjusted, builder = setup
        store.add(Feedback.binary("s1", False))
        masked = adjusted.mask_actions(builder, builder.remaining_indices())
        assert catalog.index_of("s1") not in masked.tolist()

    def test_mask_falls_back_when_everything_rejected(self, setup):
        catalog, base, store, adjusted, builder = setup
        for item_id in ("s1", "s2", "p2"):
            store.add(Feedback.binary(item_id, False))
        masked = adjusted.mask_actions(builder, builder.remaining_indices())
        assert masked.size  # never empty


class TestInteractiveSession:
    def test_loop_adapts_to_feedback(self):
        dataset = load_toy(seed=0)
        session = InteractiveSession(
            dataset.catalog,
            dataset.task,
            dataset.default_config.replace(episodes=150),
            mode=dataset.mode,
        )
        first = session.propose("m1")
        assert first.round_index == 0
        assert len(first.plan) == 6

        session.give_feedback([Feedback.rating("m2", 5)])
        second = session.propose("m1")
        assert second.round_index == 1
        assert len(session.rounds) == 2
        # Feedback ids recorded on the round they followed.
        assert "m2" in session.rounds[0].feedback_items

    def test_preference_summary(self):
        dataset = load_toy(seed=0)
        session = InteractiveSession(
            dataset.catalog, dataset.task,
            dataset.default_config.replace(episodes=50),
        )
        assert "no feedback" in session.preference_summary()
        session.give_feedback([Feedback.binary("m5", False)])
        assert "m5:-1.00" in session.preference_summary()

    def test_last_plan(self):
        dataset = load_toy(seed=0)
        session = InteractiveSession(
            dataset.catalog, dataset.task,
            dataset.default_config.replace(episodes=50),
        )
        assert session.last_plan() is None
        session.propose("m1")
        assert session.last_plan() is not None
