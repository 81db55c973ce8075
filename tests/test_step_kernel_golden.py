"""Golden digests of training and serving on lifebench's three inputs.

The step kernel (masking, Eq. 2 batch, greedy traversal) is a pure
performance rewrite: for fixed seeds the trained Q-table, the served
plans, their scores and the suffix replans must stay bit-identical.
Each digest below was computed before the kernel was vectorized; a
change to any chosen item, any score bit, any RNG tie-break draw or any
learned Q entry changes it.

Inputs mirror ``lifebench/workloads.py``: NJIT CS and Paris with their
default configs, and the 5,000-item synthetic catalog at seed 1 on the
sparse table with ``candidate_top_k=32`` and 6 episodes.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import PlannerConfig
from repro.core.env import DomainMode
from repro.core.planner import RLPlanner
from repro.datasets import SyntheticSpec, generate_instance, load

pytestmark = pytest.mark.slow


def _inputs(name):
    if name == "synthetic_5000":
        catalog, task = generate_instance(
            SyntheticSpec(num_items=5000, seed=1)
        )
        config = PlannerConfig(
            qtable_backend="auto", candidate_top_k=32, episodes=6, seed=0
        )
        return catalog, task, DomainMode.COURSE, config
    dataset = load(name, seed=0, with_gold=False)
    return (
        dataset.catalog, dataset.task, dataset.mode, dataset.default_config
    )


def _score_text(score) -> str:
    if score is None:
        return "none"
    return f"{score.is_valid}:{score.value!r}:{score.raw_value!r}"


def _plan_text(plan, score) -> str:
    ids = "-" if plan is None else ",".join(plan.item_ids)
    return f"{ids}|{_score_text(score)}"


def _digests(name):
    """(table digest, serving digest) for one input."""
    catalog, task, mode, config = _inputs(name)
    planner = RLPlanner(catalog, task, config=config, mode=mode)
    planner.fit()
    table = hashlib.sha256()
    for (state, action), value in sorted(planner.qtable.to_entries().items()):
        table.update(f"{state}>{action}={value!r};".encode())

    lines = []
    openers = [
        item.item_id
        for item in catalog.primaries()
        if item.prerequisites.is_empty
    ]
    starts = openers[:3]
    for start in starts:
        lines.append(_plan_text(*planner.recommend_scored(start)))
    plan, score, _ = planner.recommend_anytime(stop_when_valid=True)
    lines.append(_plan_text(plan, score))
    # A live universe with a few items closed: every fifth item of the
    # first plan (never its start) plus the last catalog item.
    first = planner.recommend(starts[0])
    closed = set(first.item_ids[2::5]) | {catalog.item_at(len(catalog) - 1).item_id}
    closed.discard(starts[0])
    allowed = frozenset(i for i in catalog.item_ids if i not in closed)
    for start in starts:
        plan, score, _ = planner.recommend_anytime(
            start_item_ids=[start], stop_when_valid=True,
            allowed_item_ids=allowed,
        )
        lines.append(_plan_text(plan, score))
    # Suffix replans from a committed two-item prefix, with and without
    # the availability filter.
    for start in starts:
        prefix = planner.recommend(start).items[:2]
        for filt in (None, allowed):
            plan, score, _ = planner.complete_plan(
                prefix, allowed_item_ids=filt
            )
            lines.append(_plan_text(plan, score))
    serving = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return table.hexdigest(), serving


GOLDEN = {
    "njit_cs": (
        "b4f5ed142309ff532185d7db6427b4911c6b6909c2d6cdd1d14be8499cd75376",
        "6558f144394e28b1ab0f17ad9b39d026575a12be8a6917795e0c6bdfcaeaea7c",
    ),
    "paris": (
        "2522beb1cfb39bc47786007983b1f3cdcaa7dfe20ba7069e98c8e7fb3111bacf",
        "4ba8b419aa712c7efa75fa1c2b13ca34cfcd35c429298d6dcd72276a5b1190ee",
    ),
    "synthetic_5000": (
        "d3f768eeff25e7b002e390fa6c239fa7cacf2dd6248769ef056ae4c0f2cd14b1",
        "8eef42ca6c7a45a276937599b1583ea4035c0c2902716ef533dd143c0fe0cc9e",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_training_and_serving_match_golden(name):
    table, serving = _digests(name)
    assert (table, serving) == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - regenerates the literals
    for key in ("njit_cs", "paris", "synthetic_5000"):
        print(f'    "{key}": {_digests(key)!r},')
