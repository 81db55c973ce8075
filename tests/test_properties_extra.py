"""Additional property-based tests across subsystems.

* Q-table serialization round-trips arbitrary sparse entries.
* Feedback-store smoothing keeps preferences in [-1, 1] under any
  signal sequence, and the sign of a long unanimous streak wins.
* Scoring: a plan's gated value is 0 or its raw value, never anything
  else; the gold reference bounds every template score.
* Schedule folding preserves item order and multiplicity.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catalog import Catalog
from repro.core.items import ItemType
from repro.core.plan import plan_from_ids
from repro.core.qtable import QTable
from repro.core.schedule import fold_plan
from repro.core.scoring import PlanScorer
from repro.core.serialization import policy_from_dict, policy_to_dict
from repro.feedback import Feedback, FeedbackStore

from conftest import make_item, make_task

ITEM_IDS = tuple(f"i{k}" for k in range(6))


def _catalog():
    return Catalog(
        [
            make_item(
                item_id,
                ItemType.PRIMARY if k < 3 else ItemType.SECONDARY,
                topics={f"t{k}"},
            )
            for k, item_id in enumerate(ITEM_IDS)
        ]
    )


class TestSerializationProperties:
    @given(
        st.dictionaries(
            st.tuples(
                st.sampled_from(ITEM_IDS), st.sampled_from(ITEM_IDS)
            ),
            st.floats(
                min_value=-100, max_value=100,
                allow_nan=False, allow_infinity=False,
            ),
            max_size=15,
        )
    )
    @settings(max_examples=40)
    def test_round_trip_preserves_entries(self, entries):
        catalog = _catalog()
        table = QTable(catalog)
        for (state, action), value in entries.items():
            table.set(state, action, value)
        rebuilt = policy_from_dict(policy_to_dict(table), catalog)
        assert rebuilt.to_entries() == table.to_entries()


class TestFeedbackProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(ITEM_IDS),
                st.floats(
                    min_value=-1, max_value=1,
                    allow_nan=False,
                ),
            ),
            max_size=30,
        ),
        st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=40)
    def test_preferences_stay_bounded(self, signals, smoothing):
        store = FeedbackStore(smoothing=smoothing)
        for item_id, utility in signals:
            store.add(Feedback(item_id=item_id, utility=utility))
        for item_id in ITEM_IDS:
            assert -1.0 <= store.preference(item_id) <= 1.0

    @given(st.integers(min_value=5, max_value=30))
    @settings(max_examples=20)
    def test_unanimous_streak_dominates(self, n):
        store = FeedbackStore(smoothing=0.5)
        store.add(Feedback.binary("x", False))
        for _ in range(n):
            store.add(Feedback.binary("x", True))
        assert store.preference("x") > 0.9


class TestScoringProperties:
    @given(st.permutations(list(ITEM_IDS)), st.integers(1, 6))
    @settings(max_examples=50)
    def test_gated_value_is_zero_or_raw(self, order, take):
        catalog = _catalog()
        task = make_task(
            num_primary=2,
            num_secondary=2,
            min_credits=12.0,
            ideal_topics=tuple(f"t{k}" for k in range(6)),
        )
        scorer = PlanScorer(task)
        plan = plan_from_ids(catalog, order[:take])
        score = scorer.score(plan)
        assert score.value in (0.0, score.raw_value)
        assert 0.0 <= score.raw_value <= scorer.gold_reference_score()


class TestScheduleProperties:
    @given(
        st.permutations(list(ITEM_IDS)),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40)
    def test_fold_preserves_order(self, order, period_size):
        catalog = _catalog()
        plan = plan_from_ids(catalog, order)
        schedule = fold_plan(plan, items_per_period=period_size)
        flattened = [
            item.item_id
            for period in schedule.periods
            for item in period.items
        ]
        assert flattened == list(order)
        sizes = [len(p.items) for p in schedule.periods]
        assert all(s == period_size for s in sizes[:-1])
        assert 1 <= sizes[-1] <= period_size
