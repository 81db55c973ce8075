"""Tests for the course domain: generators, programs, gold oracle."""

import pytest

from repro.core.items import ItemType
from repro.core.scoring import PlanScorer
from repro.core.validation import PlanValidator
from repro.domains.courses import (
    TABLE_VI_COURSES,
    default_template_labels,
    generate_njit_university,
    generate_univ2_program,
    gold_course_plan,
)


@pytest.fixture(scope="module")
def njit():
    return generate_njit_university(seed=0)


@pytest.fixture(scope="module")
def univ2():
    return generate_univ2_program(seed=0)


class TestPaperStatistics:
    """Section IV-A-1's dataset statistics must be reproduced exactly."""

    def test_program_course_counts(self, njit, univ2):
        assert len(njit["njit_dsct"].catalog) == 31
        assert len(njit["njit_cyber"].catalog) == 30
        assert len(njit["njit_cs"].catalog) == 32
        assert len(univ2.catalog) == 36

    def test_program_topic_counts(self, njit, univ2):
        assert njit["njit_dsct"].catalog.num_topics == 60
        assert njit["njit_cyber"].catalog.num_topics == 61
        assert njit["njit_cs"].catalog.num_topics == 100
        assert univ2.catalog.num_topics == 73

    def test_theorem1_core_minority(self, njit, univ2):
        # Theorem 1 assumes #core < #elective in every catalog.
        for program in list(njit.values()) + [univ2]:
            catalog = program.catalog
            assert len(catalog.primaries()) < len(catalog.secondaries())

    def test_every_topic_is_used(self, njit):
        for program in njit.values():
            catalog = program.catalog
            used = set()
            for item in catalog:
                used |= item.topics
            assert used == set(catalog.topic_vocabulary)

    def test_prerequisites_present_and_resolvable(self, njit):
        for program in njit.values():
            catalog = program.catalog
            with_prereqs = [
                i for i in catalog if not i.prerequisites.is_empty
            ]
            assert with_prereqs  # the datasets do have antecedents
            for item in with_prereqs:
                for ref in item.prerequisites.referenced_ids():
                    assert ref in catalog


class TestSharedPool:
    def test_table_vi_courses_shared_between_dsct_and_cs(self, njit):
        dsct = njit["njit_dsct"].catalog
        cs = njit["njit_cs"].catalog
        shared = set(dsct.shared_item_ids(cs))
        table_vi_ids = {cid for cid, _ in TABLE_VI_COURSES}
        assert table_vi_ids <= shared

    def test_roles_may_differ_across_programs(self, njit):
        # CS 675 is core in DS-CT; the CS program may type it either way
        # but the item identity (name/topics) is shared.
        dsct = njit["njit_dsct"].catalog["CS 675"]
        cs = njit["njit_cs"].catalog["CS 675"]
        assert dsct.name == cs.name
        assert dsct.topics == cs.topics
        assert dsct.item_type is ItemType.PRIMARY

    def test_default_starts_are_core_without_prereqs(self, njit):
        for program in njit.values():
            start = program.catalog[program.default_start]
            assert start.is_primary
            assert start.prerequisites.is_empty


class TestUniv2Categories:
    def test_six_buckets_evenly_filled(self, univ2):
        catalog = univ2.catalog
        assert len(catalog.categories()) == 6
        for category in catalog.categories():
            assert len(catalog.in_category(category)) == 6

    def test_cores_spread_across_buckets(self, univ2):
        catalog = univ2.catalog
        for category in catalog.categories():
            cores = [
                i for i in catalog.in_category(category) if i.is_primary
            ]
            assert len(cores) >= 2

    def test_task_carries_category_minima(self, univ2):
        task = univ2.spec.task(univ2.catalog.topic_vocabulary)
        assert task.hard.category_credit_map["applied_ml_ds"] == 9.0


class TestDeterminism:
    def test_same_seed_reproduces_catalog(self):
        a = generate_njit_university(seed=3)["njit_dsct"].catalog
        b = generate_njit_university(seed=3)["njit_dsct"].catalog
        assert a.item_ids == b.item_ids
        assert all(
            a[i].topics == b[i].topics for i in a.item_ids
        )

    def test_different_seed_differs(self):
        a = generate_njit_university(seed=3)["njit_dsct"].catalog
        b = generate_njit_university(seed=4)["njit_dsct"].catalog
        assert a.item_ids != b.item_ids


class TestDefaultTemplates:
    def test_counts_match_split(self):
        for labels in default_template_labels(5, 5):
            assert labels.count("P") == 5
            assert labels.count("S") == 5

    def test_all_permutations_distinct(self):
        labels = default_template_labels(7, 8)
        assert len(set(labels)) == len(labels)


class TestGoldOracle:
    @pytest.mark.parametrize("key", ["njit_dsct", "njit_cyber", "njit_cs"])
    def test_gold_scores_ten_on_univ1(self, njit, key):
        program = njit[key]
        task = program.spec.task(program.catalog.topic_vocabulary)
        plan = gold_course_plan(
            program.catalog, task, start_item_id=program.default_start
        )
        score = PlanScorer(task).score(plan)
        assert score.value == 10.0  # the paper's Univ-1 gold score
        assert score.is_valid

    def test_gold_scores_fifteen_on_univ2(self, univ2):
        task = univ2.spec.task(univ2.catalog.topic_vocabulary)
        plan = gold_course_plan(
            univ2.catalog, task, start_item_id=univ2.default_start
        )
        score = PlanScorer(task).score(plan)
        assert score.value == 15.0  # the paper's Univ-2 gold score
        assert score.is_valid

    def test_gold_satisfies_validator_independently(self, njit):
        program = njit["njit_dsct"]
        task = program.spec.task(program.catalog.topic_vocabulary)
        plan = gold_course_plan(program.catalog, task)
        assert PlanValidator(task.hard).is_valid(plan)
