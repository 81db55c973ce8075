"""Tests for the trip domain: generators, themes, gold itinerary oracle."""

import pytest

from repro.core.env import DomainMode
from repro.core.scoring import PlanScorer, mean_popularity
from repro.core.validation import PlanValidator, plan_travel_distance_km
from repro.domains.trips import (
    NYC,
    NYC_THEMES,
    PARIS_THEMES,
    build_trip_task,
    gold_trip_plan,
    load_city,
    theme_bank,
)


@pytest.fixture(scope="module")
def nyc():
    return load_city("nyc", seed=0)


@pytest.fixture(scope="module")
def paris():
    return load_city("paris", seed=0)


class TestPaperStatistics:
    def test_poi_counts(self, nyc, paris):
        assert len(nyc.catalog) == 90
        assert len(paris.catalog) == 114

    def test_theme_counts(self, nyc, paris):
        assert nyc.catalog.num_topics == 21
        assert paris.catalog.num_topics == 16
        assert len(NYC_THEMES) == 21
        assert len(PARIS_THEMES) == 16

    def test_itinerary_counts(self, nyc, paris):
        assert len(nyc.itineraries) == 2908
        assert len(paris.itineraries) == 5494

    def test_trip_hard_constraints(self, nyc):
        hard = nyc.task.hard
        assert hard.min_credits == 6.0  # the 6-hour budget
        assert hard.num_primary == 2 and hard.num_secondary == 3
        assert hard.theme_adjacency_gap
        assert hard.max_distance == 5.0


class TestPOIs:
    def test_metadata_complete(self, nyc):
        for poi in nyc.catalog:
            assert poi.meta("lat") is not None
            assert poi.meta("lon") is not None
            assert 1.0 <= float(poi.meta("popularity")) <= 5.0
            assert poi.credits > 0

    def test_primaries_are_most_popular(self, nyc):
        primaries = nyc.catalog.primaries()
        assert len(primaries) == NYC.num_primary_pois
        for poi in primaries:
            assert float(poi.meta("popularity")) >= 4.5

    def test_every_theme_appears(self, nyc):
        used = set()
        for poi in nyc.catalog:
            used |= poi.topics
        assert used == set(NYC_THEMES)

    def test_restaurant_antecedents_are_culture_pois(self, paris):
        found = 0
        for poi in paris.catalog:
            if poi.prerequisites.is_empty:
                continue
            found += 1
            for ref in poi.prerequisites.referenced_ids():
                culture = paris.catalog[ref]
                assert culture.topics & {"museum", "gallery"}
        assert found > 0


class TestItineraries:
    def test_itineraries_reference_catalog_pois(self, nyc):
        for itinerary in nyc.itineraries[:200]:
            for poi_id in itinerary:
                assert poi_id in nyc.catalog

    def test_itinerary_lengths_in_range(self, nyc):
        for itinerary in nyc.itineraries[:500]:
            assert 1 <= len(itinerary) <= 6

    def test_no_repeats_within_itinerary(self, nyc):
        for itinerary in nyc.itineraries[:500]:
            assert len(set(itinerary)) == len(itinerary)


class TestTaskBuilder:
    def test_overrides(self, nyc):
        task = build_trip_task(
            NYC, nyc.catalog, time_budget=8.0, distance_threshold=4.0
        )
        assert task.hard.min_credits == 8.0
        assert task.hard.max_distance == 4.0

    def test_unknown_city_rejected(self):
        from repro.core.exceptions import DatasetError

        with pytest.raises(DatasetError):
            load_city("atlantis")

    def test_theme_bank_lookup(self):
        assert theme_bank("NYC") == NYC_THEMES
        with pytest.raises(KeyError):
            theme_bank("atlantis")


class TestGoldItinerary:
    @pytest.mark.parametrize("city", ["nyc", "paris"])
    def test_gold_is_template_perfect_and_valid(self, city):
        dataset = load_city(city, seed=0)
        plan = gold_trip_plan(
            dataset.catalog, dataset.task,
            start_item_id=dataset.default_start,
        )
        scorer = PlanScorer(dataset.task, mode=DomainMode.TRIP)
        score = scorer.score(plan)
        assert score.value == 5.0  # template length = the gold score
        assert score.is_valid

    def test_gold_respects_time_and_distance(self, nyc):
        plan = gold_trip_plan(nyc.catalog, nyc.task)
        assert plan.total_credits <= nyc.task.hard.min_credits
        distance = plan_travel_distance_km(plan)
        assert distance is not None
        assert distance <= nyc.task.hard.max_distance

    def test_gold_prefers_popular_pois(self, nyc):
        plan = gold_trip_plan(nyc.catalog, nyc.task)
        assert mean_popularity(plan) >= 3.5

    def test_validator_agrees(self, paris):
        plan = gold_trip_plan(paris.catalog, paris.task)
        validator = PlanValidator(paris.task.hard, credits_are_budget=True)
        assert validator.is_valid(plan)
