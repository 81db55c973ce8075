"""The three traffic shapes, and the seeded inputs each one generates.

A workload fixes the catalog, the planner config, the request mix, the
shape of a delta burst and the journal's ``compact_every``.  Everything
random is drawn from the workload seed: the synthetic catalog, the order
and popularity of plan requests, which plans open replan sessions, and
which items a burst closes.  The program receives only these inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from checks import ItemRecord, TaskRecord


@dataclass
class Inputs:
    """What one run feeds the program, plus plain records for the checks."""

    name: str
    items: tuple            # the program's Item objects, base catalog order
    vocabulary: tuple
    catalog_name: str
    task: object            # the program's TaskSpec
    mode: object            # the program's DomainMode
    config: object          # the program's PlannerConfig
    records: List[ItemRecord]
    task_record: TaskRecord
    openers: Tuple[str, ...]

    def fresh_catalog(self):
        """A new catalog object over the same items.

        The program caches derived columns per catalog object, so every
        boot and restart gets its own, as a new process would.
        """
        from repro.core.catalog import Catalog

        return Catalog(self.items, name=self.catalog_name,
                       topic_vocabulary=self.vocabulary)


@dataclass(frozen=True)
class Workload:
    """One traffic shape."""

    name: str
    #: Percentile reported as ``serve_tail_ms``; see the README.
    tail_pct: float
    #: Times a burst flaps its first item closed and open (see :func:`plan_burst`).
    flaps: int
    #: Warm restarts per cycle; each is timed.
    restarts: int
    #: Replan sessions opened per cycle (over plans drawn from the first
    #: batch's replies, so popular plans are held by more sessions), and
    #: the slots each has executed.
    sessions: int
    executed: int
    compact_every: int
    make_inputs: Callable[[int], Inputs]
    #: (rng, inputs, open ids, batch index) -> start ids of one plan batch.
    batch: Callable[[random.Random, Inputs, Sequence[str], int], List[Optional[str]]]


def _records(catalog, task, mode) -> Tuple[List[ItemRecord], TaskRecord]:
    from repro.core.env import DomainMode

    records = []
    for item in catalog.items:
        lat, lon = item.meta("lat"), item.meta("lon")
        records.append(ItemRecord(
            item_id=item.item_id,
            primary=item.is_primary,
            credits=float(item.credits),
            groups=tuple(frozenset(g) for g in item.prerequisites.groups),
            topics=frozenset(item.topics),
            category=item.category,
            lat=None if lat is None else float(lat),
            lon=None if lon is None else float(lon),
        ))
    hard = task.hard
    task_record = TaskRecord(
        num_primary=hard.num_primary,
        num_secondary=hard.num_secondary,
        credits=float(hard.min_credits),
        gap=hard.gap,
        trip=mode is DomainMode.TRIP,
        category_credits=tuple(hard.category_credits),
        max_distance=hard.max_distance,
        theme_adjacency=hard.theme_adjacency_gap,
    )
    return records, task_record


def _inputs(name, catalog, task, mode, config) -> Inputs:
    records, task_record = _records(catalog, task, mode)
    openers = tuple(
        r.item_id for r in records if r.primary and not r.groups
    )
    return Inputs(
        name=name, items=tuple(catalog.items),
        vocabulary=tuple(catalog.topic_vocabulary),
        catalog_name=catalog.name, task=task, mode=mode, config=config,
        records=records, task_record=task_record, openers=openers,
    )


def _paper_dataset(key: str, name: str) -> Callable[[int], Inputs]:
    def make(seed: int) -> Inputs:
        # The paper's datasets are fixed; the workload seed only drives
        # the traffic drawn over them.
        from repro.datasets import load

        dataset = load(key, seed=0, with_gold=False)
        return _inputs(name, dataset.catalog, dataset.task, dataset.mode,
                       dataset.default_config)
    return make


#: Size and training budget of the synthetic large catalog.
CHURN_ITEMS = 5000
CHURN_EPISODES = 6


def _synthetic_catalog(seed: int) -> Inputs:
    from repro.core.config import PlannerConfig
    from repro.core.env import DomainMode
    from repro.datasets import SyntheticSpec, generate_instance

    catalog, task = generate_instance(SyntheticSpec(num_items=CHURN_ITEMS, seed=seed))
    # EXPERIMENTS.md's large-catalog recipe (sparse table above 2,048
    # items, two-stage pruned masking), with a short episode budget.
    config = PlannerConfig(
        qtable_backend="auto", candidate_top_k=32,
        episodes=CHURN_EPISODES, seed=0,
    )
    return _inputs("catalog_churn", catalog, task, DomainMode.COURSE, config)


#: courses_repeat: plan requests per batch, and the Zipf exponent of the
#: popularity over the 11 request keys (10 openers + start-less).
REPEAT_BATCH = 1500
REPEAT_ZIPF = 1.1


def _repeat_batch(rng: random.Random, inputs: Inputs, live: Sequence[str],
                  index: int) -> List[Optional[str]]:
    keys: List[Optional[str]] = [None, *inputs.openers]
    rng.shuffle(keys)
    weights = [1.0 / (rank + 1) ** REPEAT_ZIPF for rank in range(len(keys))]
    # Every key once, so each policy misses its memo the same number of
    # times in every batch; the rest follows the skewed popularity.
    head = list(keys)
    rng.shuffle(head)
    return head + rng.choices(keys, weights=weights, k=REPEAT_BATCH - len(keys))


def _sweep_batch(rng: random.Random, inputs: Inputs, live: Sequence[str],
                 index: int) -> List[Optional[str]]:
    order = list(live)
    rng.shuffle(order)
    return order


#: catalog_churn: plan requests before and after the burst.  The
#: post-burst batch is the larger one so that the median and the tail
#: percentile both sit in the post-burst policy's mode.
CHURN_BATCHES = (2, 8)


def _churn_batch(rng: random.Random, inputs: Inputs, live: Sequence[str],
                 index: int) -> List[Optional[str]]:
    return rng.sample(list(inputs.openers), CHURN_BATCHES[index])


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="courses_repeat",
            tail_pct=99.65, flaps=50, restarts=8,
            sessions=12, executed=3, compact_every=512,
            make_inputs=_paper_dataset("njit_cs", "courses_repeat"),
            batch=_repeat_batch,
        ),
        Workload(
            name="trips_sweep",
            tail_pct=95.0, flaps=25, restarts=8,
            sessions=12, executed=2, compact_every=512,
            make_inputs=_paper_dataset("paris", "trips_sweep"),
            batch=_sweep_batch,
        ),
        Workload(
            name="catalog_churn",
            tail_pct=75.0, flaps=2, restarts=3,
            sessions=3, executed=3, compact_every=2,
            make_inputs=_synthetic_catalog,
            batch=_churn_batch,
        ),
    )
}


#: Seeded draws allowed when looking for a burst's two items.
BURST_DRAWS = 1000


def plan_burst(rng: random.Random, inputs: Inputs, workload: Workload,
               plans: Sequence[Tuple[str, ...]]):
    """Session plans and one delta burst: A flaps, then B closes.

    A and B sit in the unexecuted suffixes of the first two sessions'
    plans, in no session's executed prefix, and are not natural openers
    (the request mix pins openers).  Every burst therefore disrupts at
    least two sessions and leaves the world changed: B stays closed.

    The first close of A starts a refit; every reopen returns the world
    to the adopted policy's, and every later close of A finds that refit
    still in flight, so the burst starts exactly two refits and one of
    them is obsolete.  Nothing cancels it, so it competes with the refit
    for the final world, and every ack after the first waits behind it.

    Returns ``(session plans, deltas)``.
    """
    executed = workload.executed
    openers = set(inputs.openers)
    for _ in range(BURST_DRAWS):
        first, second = rng.choice(plans), rng.choice(plans)
        a_items = [i for i in first[executed:] if i not in openers]
        b_items = [i for i in second[executed:] if i not in openers]
        if not a_items or not b_items:
            continue
        a, b = rng.choice(a_items), rng.choice(b_items)
        if a != b and a not in second[:executed] and b not in first[:executed]:
            break
    else:
        raise RuntimeError("no two closable suffix items among the served plans")
    others = [p for p in plans if a not in p[:executed] and b not in p[:executed]]
    sessions = [first, second] + [
        rng.choice(others) for _ in range(workload.sessions - 2)]
    flapping = [{"kind": kind, "item": a}
                for _ in range(workload.flaps) for kind in ("close", "reopen")]
    return sessions, flapping + [{"kind": "close", "item": b}]
