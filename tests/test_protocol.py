"""Tests for the paired study protocol (repro.userstudy.protocol)."""

import numpy as np
import pytest

from repro.core.plan import plan_from_ids
from repro.datasets import load_toy
from repro.userstudy import Question, StudyProtocol
from repro.userstudy.protocol import _bootstrap_ci, _sign_test_p


@pytest.fixture(scope="module")
def toy():
    return load_toy(seed=0, with_gold=True)


@pytest.fixture(scope="module")
def weak_plan(toy):
    # Prerequisite-violating order: m6 before its antecedents.
    return plan_from_ids(
        toy.catalog, ["m1", "m6", "m3", "m2", "m4", "m5"]
    )


class TestProtocol:
    def test_identical_plans_are_comparable(self, toy):
        protocol = StudyProtocol(toy.task, num_raters=30, seed=0)
        results = protocol.run([(toy.gold_plan, toy.gold_plan)])
        for comparison in results.values():
            assert abs(comparison.mean_gap) < 0.3
            assert comparison.comparable
            # No systematic direction -> sign test not significant.
            assert comparison.sign_test_p > 0.01

    def test_weak_plan_shows_significant_gap(self, toy, weak_plan):
        protocol = StudyProtocol(toy.task, num_raters=30, seed=0)
        results = protocol.run([(weak_plan, toy.gold_plan)])
        ordering = results[Question.ORDERING]
        assert ordering.mean_gap > 0.5
        assert ordering.sign_test_p < 0.01
        assert ordering.gap_ci_low > 0

    def test_multiple_pairs_pool_raters(self, toy, weak_plan):
        protocol = StudyProtocol(toy.task, num_raters=10, seed=0)
        results = protocol.run(
            [(weak_plan, toy.gold_plan)] * 3
        )
        assert set(results) == set(Question)

    def test_empty_pairs_rejected(self, toy):
        protocol = StudyProtocol(toy.task, num_raters=5, seed=0)
        with pytest.raises(ValueError):
            protocol.run([])

    def test_seed_determinism(self, toy, weak_plan):
        def run():
            protocol = StudyProtocol(toy.task, num_raters=10, seed=4)
            return protocol.run([(weak_plan, toy.gold_plan)])

        a, b = run(), run()
        for question in Question:
            assert a[question].mean_gap == b[question].mean_gap


class TestStatistics:
    def test_bootstrap_ci_contains_true_mean(self):
        rng = np.random.default_rng(0)
        values = rng.normal(2.0, 1.0, size=400)
        low, high = _bootstrap_ci(values, rng, samples=500)
        assert low < 2.0 < high
        assert high - low < 0.5

    def test_sign_test_balanced_is_insignificant(self):
        gaps = np.array([1.0, -1.0] * 20)
        assert _sign_test_p(gaps) > 0.5

    def test_sign_test_one_sided_is_significant(self):
        gaps = np.ones(30)
        assert _sign_test_p(gaps) < 1e-6

    def test_sign_test_all_zero(self):
        assert _sign_test_p(np.zeros(10)) == 1.0

    def test_sign_test_large_sample_normal_branch(self):
        rng = np.random.default_rng(1)
        gaps = rng.normal(0.5, 1.0, size=200)
        p = _sign_test_p(gaps)
        assert 0.0 <= p <= 1.0
        assert p < 0.05  # clear positive shift
