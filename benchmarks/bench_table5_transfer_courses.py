"""Tables V & VI: transfer learning between M.S. CS and M.S. DS-CT.

A policy learned on one degree program is applied — without retraining —
to the other.  The programs share the Table VI course pool, so the
Q-table re-keys by course id.  The paper reports "good" transferred
sequences (all hard constraints met) alongside occasional "less
effective" ones; the shape under test is that transfer produces a
full-length, mostly-valid plan with substantial Q-mass carried over,
and that it clearly beats an untrained policy.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table, run_transfer
from repro.baselines import RandomPlanner
from repro.core.scoring import PlanScorer
from repro.datasets import load


def _both_directions():
    dsct = load("njit_dsct", seed=0, with_gold=False)
    cs = load("njit_cs", seed=0, with_gold=False)
    return (
        run_transfer(cs, dsct, strategy="id", seed=0),
        run_transfer(dsct, cs, strategy="id", seed=0),
        dsct,
        cs,
    )


@pytest.mark.benchmark(group="table5")
def test_table5_course_transfer(benchmark, record_table):
    to_dsct, to_cs, dsct, cs = benchmark.pedantic(
        _both_directions, rounds=1, iterations=1
    )

    rows = []
    lines = []
    for outcome, target in ((to_dsct, dsct), (to_cs, cs)):
        quality = "Good" if outcome.is_good else "Bad"
        rows.append(
            [
                outcome.source,
                outcome.target,
                quality,
                outcome.score.value,
                f"{outcome.entry_coverage:.0%}",
            ]
        )
        lines.append(
            f"{outcome.source} -> {outcome.target} ({quality}): "
            f"{outcome.plan.describe()}"
        )
    table = render_table(
        ["learnt policy", "applied policy", "outcome", "score",
         "Q coverage"],
        rows,
        title="Table V — course-planning transfer learning",
    )
    record_table(table + "\n\nSequences:\n" + "\n".join(lines))

    for outcome, target in ((to_dsct, dsct), (to_cs, cs)):
        # Full-length sequences with real Q-mass carried over.
        assert len(outcome.plan) == target.task.hard.plan_length
        assert outcome.entry_coverage > 0.1
        # Transfer beats a random policy on the same task.
        scorer = PlanScorer(target.task)
        random_plan = RandomPlanner(
            target.catalog, target.task, seed=0
        ).recommend(target.default_start)
        assert outcome.score.value >= scorer.score(random_plan).value

    # At least one direction yields a fully valid ("good") sequence.
    assert to_dsct.is_good or to_cs.is_good
