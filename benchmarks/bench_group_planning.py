"""Group-planning bench (extension; related-work direction of Section V).

Three members with partially overlapping interests share one DS-CT
course plan.  Measured per aggregation strategy: plan validity, group
score, and the satisfaction profile — checking the structural
trade-off the group literature predicts: UNION maximizes mean
satisfaction, INTERSECTION/MAJORITY trade coverage breadth for
focus on common interests.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table
from repro.core.env import DomainMode
from repro.datasets import load
from repro.group import GroupMember, GroupPlanner

EPISODES = 200


def _run():
    dataset = load("njit_dsct", seed=0, with_gold=False)
    vocabulary = list(dataset.catalog.topic_vocabulary)
    third = len(vocabulary) // 3
    members = [
        GroupMember("ml_person", frozenset(vocabulary[: 2 * third])),
        GroupMember("systems_person", frozenset(vocabulary[third:])),
        GroupMember(
            "generalist",
            frozenset(vocabulary[::2]),
            weight=2.0,
        ),
    ]
    planner = GroupPlanner(
        dataset.catalog,
        dataset.task,
        members,
        config=dataset.default_config,
        mode=DomainMode.COURSE,
    )
    outcomes = planner.compare_strategies(
        dataset.default_start, episodes=EPISODES
    )
    return planner, outcomes


@pytest.mark.benchmark(group="group")
def test_group_planning_strategies(benchmark, record_table):
    planner, outcomes = benchmark.pedantic(_run, rounds=1, iterations=1)

    rows = []
    for strategy, outcome in outcomes.items():
        sat = outcome.satisfaction
        rows.append(
            [
                strategy.value,
                outcome.score.value,
                "valid" if outcome.score.is_valid else "invalid",
                sat.mean,
                sat.minimum,
                sat.disagreement,
            ]
        )
    record_table(
        render_table(
            ["strategy", "score", "constraints", "mean sat",
             "min sat", "disagreement"],
            rows,
            title="Group planning on Univ-1 DS-CT (3 members)",
        )
    )

    for outcome in outcomes.values():
        assert outcome.score.is_valid
        assert outcome.score.value > 0
        assert 0.0 <= outcome.satisfaction.mean <= 1.0

    fair = planner.best_for_fairness(outcomes)
    assert fair.satisfaction.minimum == max(
        o.satisfaction.minimum for o in outcomes.values()
    )
