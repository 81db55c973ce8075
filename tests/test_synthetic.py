"""Tests for the parametric synthetic instance generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import DatasetError
from repro.datasets import generate_instance


class TestGeneration:
    def test_default_instance(self):
        catalog, task = generate_instance()
        assert len(catalog) == 40
        assert catalog.num_topics == 30
        assert task.hard.plan_length == 9

    def test_overrides(self):
        catalog, task = generate_instance(num_items=20, num_topics=10,
                                          plan_primary=3,
                                          plan_secondary=3,
                                          num_primary_items=8)
        assert len(catalog) == 20
        assert catalog.num_topics == 10
        assert task.hard.num_primary == 3

    def test_vocabulary_fully_used(self):
        catalog, _ = generate_instance(seed=5)
        used = set()
        for item in catalog:
            used |= item.topics
        assert used == set(catalog.topic_vocabulary)

    def test_primary_count(self):
        catalog, _ = generate_instance(num_primary_items=10)
        assert len(catalog.primaries()) == 10

    def test_prerequisites_resolvable_and_shallow(self):
        catalog, _ = generate_instance(seed=2,
                                       prerequisite_fraction=0.5)
        for item in catalog:
            for ref in item.prerequisites.referenced_ids():
                assert ref in catalog
                # Depth <= 2: antecedents have no antecedents.
                assert catalog[ref].prerequisites.is_empty

    def test_determinism(self):
        a, _ = generate_instance(seed=9)
        b, _ = generate_instance(seed=9)
        assert a.item_ids == b.item_ids
        assert all(a[i].topics == b[i].topics for i in a.item_ids)


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(num_items=5, plan_primary=4, plan_secondary=4),
            dict(num_primary_items=2, plan_primary=4),
            dict(num_primary_items=40, num_items=40),
            dict(topics_per_item=(5, 2)),
            dict(prerequisite_fraction=1.5),
        ],
    )
    def test_inconsistent_specs_rejected(self, overrides):
        with pytest.raises(DatasetError):
            generate_instance(**overrides)


@pytest.mark.slow
class TestPlannability:
    @given(st.integers(min_value=0, max_value=5))
    @settings(max_examples=5, deadline=None)
    def test_every_seed_yields_valid_plan(self, seed):
        """Property: generated instances are always solvable by the
        planner end-to-end."""
        from repro import PlannerConfig, RLPlanner

        catalog, task = generate_instance(
            num_items=30, num_topics=20, num_primary_items=10,
            plan_primary=3, plan_secondary=4, seed=seed,
        )
        config = PlannerConfig(
            episodes=120, coverage_threshold=1.0, seed=seed
        )
        planner = RLPlanner(catalog, task, config)
        start = catalog.primaries()[0].item_id
        planner.fit(start_item_ids=[start])
        _, score = planner.recommend_scored(start)
        assert score.is_valid, score.report.describe()
