"""Output checks written apart from the planner.

Nothing here imports the program.  The checks work on plain records of
the inputs the benchmark generated (item ids, types, credits,
prerequisite groups, topics, categories, coordinates) and on what the
client saw on the wire, and they restate the task definitions from the
paper directly:

* a plan has exactly ``#primary + #secondary`` distinct items, at least
  ``#primary`` of them primary (surplus primaries may stand in for
  secondaries);
* courses reach the credit floor; trips stay within the time budget;
* every prerequisite group (AND over OR-groups) has a member placed at
  least ``gap`` slots earlier;
* per-category credit minima hold;
* trips stay under the travel-distance threshold and never put two
  POIs that share a theme next to each other.

The live world after churn follows the task definition of a closure:
a closed item cannot be placed, a prerequisite alternative that names an
unavailable item is struck, and an item that loses every alternative of
a group becomes unavailable too, until nothing changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Float slack for credit, budget and distance comparisons.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class ItemRecord:
    """One catalog item as plain data."""

    item_id: str
    primary: bool
    credits: float
    groups: Tuple[FrozenSet[str], ...] = ()
    topics: FrozenSet[str] = frozenset()
    category: Optional[str] = None
    lat: Optional[float] = None
    lon: Optional[float] = None


@dataclass(frozen=True)
class TaskRecord:
    """The hard constraints of one task as plain data."""

    num_primary: int
    num_secondary: int
    credits: float
    gap: int
    trip: bool = False
    category_credits: Tuple[Tuple[str, float], ...] = ()
    max_distance: Optional[float] = None
    theme_adjacency: bool = False

    @property
    def plan_length(self) -> int:
        return self.num_primary + self.num_secondary


class World:
    """The catalog the client believes is live, from its own delta record."""

    def __init__(self, items: Sequence[ItemRecord]) -> None:
        self.base: Dict[str, ItemRecord] = {item.item_id: item for item in items}
        self._live_cache: Dict[FrozenSet[str], Dict[str, ItemRecord]] = {}

    def live(self, closed: Iterable[str]) -> Dict[str, ItemRecord]:
        """Items still placeable after ``closed``, with struck alternatives."""
        key = frozenset(closed)
        cached = self._live_cache.get(key)
        if cached is not None:
            return cached
        pool = {i: rec for i, rec in self.base.items() if i not in key}
        changed = True
        while changed:
            changed = False
            for item_id, rec in list(pool.items()):
                kept_groups = []
                dead = False
                for group in rec.groups:
                    kept = frozenset(
                        ref for ref in group if ref in pool or ref not in self.base
                    )
                    if not kept:
                        dead = True
                        break
                    kept_groups.append(kept)
                if dead:
                    del pool[item_id]
                    changed = True
                elif tuple(kept_groups) != rec.groups:
                    pool[item_id] = ItemRecord(
                        rec.item_id, rec.primary, rec.credits, tuple(kept_groups),
                        rec.topics, rec.category, rec.lat, rec.lon,
                    )
        self._live_cache[key] = pool
        return pool


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two WGS84 points, in kilometres."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp, dl = math.radians(lat2 - lat1), math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2.0 * 6371.0088 * math.asin(min(1.0, math.sqrt(a)))


def hard_violations(
    plan: Sequence[str], task: TaskRecord, live: Mapping[str, ItemRecord],
    base: Mapping[str, ItemRecord],
) -> List[str]:
    """Every hard constraint ``plan`` breaks, judged in the world ``live``.

    An item that is not live is judged with its base definition; that it
    was placed at all is reported by :func:`availability_violations`.
    """
    items = [live.get(i) or base[i] for i in plan]
    out: List[str] = []
    if len(plan) != task.plan_length:
        out.append(f"length {len(plan)} != {task.plan_length}")
    primaries = sum(1 for item in items if item.primary)
    if primaries < task.num_primary:
        out.append(f"{primaries} primaries < {task.num_primary}")
    total = sum(item.credits for item in items)
    if task.trip and total > task.credits + TOLERANCE:
        out.append(f"visit time {total:g} over budget {task.credits:g}")
    if not task.trip and total < task.credits - TOLERANCE:
        out.append(f"credits {total:g} under {task.credits:g}")
    position = {item_id: p for p, item_id in enumerate(plan)}
    for p, item in enumerate(items):
        for group in item.groups:
            if not any(
                ref in position and p - position[ref] >= task.gap for ref in group
            ):
                out.append(
                    f"{item.item_id} at slot {p} lacks one of {sorted(group)} "
                    f"{task.gap} slots earlier"
                )
    if task.category_credits:
        earned: Dict[str, float] = {}
        for item in items:
            if item.category is not None:
                earned[item.category] = earned.get(item.category, 0.0) + item.credits
        for category, minimum in task.category_credits:
            if earned.get(category, 0.0) < minimum - TOLERANCE:
                out.append(f"category {category} under {minimum:g} credits")
    if task.max_distance is not None:
        if any(item.lat is None or item.lon is None for item in items):
            out.append("distance threshold set but coordinates missing")
        else:
            travel = sum(
                haversine_km(a.lat, a.lon, b.lat, b.lon)
                for a, b in zip(items, items[1:])
            )
            if travel > task.max_distance + TOLERANCE:
                out.append(f"travel {travel:.3f} km over {task.max_distance:g} km")
    if task.theme_adjacency:
        for a, b in zip(items, items[1:]):
            if a.topics & b.topics:
                out.append(f"{a.item_id} and {b.item_id} share a theme")
                break
    return out


def availability_violations(
    plan: Sequence[str], live: Mapping[str, ItemRecord],
    base: Mapping[str, ItemRecord], closed: FrozenSet[str],
    history: Sequence[str] = (),
) -> List[str]:
    """Unknown, repeated, closed or unavailable items in ``plan``.

    ``history`` names already-executed slots, which keep their items
    whatever the world did to them since.
    """
    out: List[str] = []
    if len(set(plan)) != len(plan):
        out.append("plan repeats an item")
    pinned = set(history)
    for item_id in plan:
        if item_id not in base:
            out.append(f"{item_id} is not in the catalog")
        elif item_id in pinned:
            continue
        elif item_id in closed:
            out.append(f"{item_id} was closed by an acked delta")
        elif item_id not in live:
            out.append(f"{item_id} is unavailable after churn")
    return out


def check_plan_reply(
    reply: Mapping[str, object], task: TaskRecord, world: World,
    closed: FrozenSet[str], version: int,
) -> List[str]:
    """Problems with one plan reply; empty when it is right.

    The reply's ``valid`` flag must equal the checker's own verdict, its
    score must lie in ``[0, plan length]`` and be 0 when invalid, and it
    must be stamped with the catalog version the client counted.
    """
    plan = reply.get("plan")
    if not isinstance(plan, list):
        return [f"no plan in reply (outcome {reply.get('outcome')!r})"]
    live = world.live(closed)
    problems = availability_violations(plan, live, world.base, closed)
    if any("not in the catalog" in p for p in problems):
        return problems
    verdict = not hard_violations(plan, task, live, world.base)
    if bool(reply.get("valid")) != verdict:
        problems.append(
            f"valid flag {reply.get('valid')!r} but the checker says {verdict}: "
            + "; ".join(hard_violations(plan, task, live, world.base))
        )
    problems.extend(score_violations(reply.get("score"), verdict, task))
    if reply.get("catalog_version") != version:
        problems.append(
            f"catalog_version {reply.get('catalog_version')!r} != {version} acked"
        )
    return problems


def score_violations(score: object, valid: bool, task: TaskRecord) -> List[str]:
    """A score must lie in ``[0, plan length]``, and be 0 for an invalid plan."""
    if not isinstance(score, (int, float)) or isinstance(score, bool):
        return [f"score {score!r} is not a number"]
    out = []
    if not 0.0 <= score <= task.plan_length + TOLERANCE:
        out.append(f"score {score} outside [0, {task.plan_length}]")
    if not valid and score != 0:
        out.append(f"invalid plan scored {score}")
    return out


def check_replan(
    before: Sequence[str], executed: int, after: Optional[Sequence[str]],
    reported_valid: bool, score: object, task: TaskRecord, world: World,
    closed: FrozenSet[str],
) -> List[str]:
    """Problems with one replan; empty when it is right.

    The executed prefix must come back verbatim, the new suffix may hold
    no closed or unavailable item, and the reported validity must equal
    the checker's verdict.
    """
    if after is None:
        return ["replan returned no plan"]
    problems = []
    if list(after[:executed]) != list(before[:executed]):
        problems.append(
            f"executed prefix changed: {list(before[:executed])} -> "
            f"{list(after[:executed])}"
        )
    live = world.live(closed)
    problems.extend(
        availability_violations(after, live, world.base, closed, before[:executed])
    )
    if any("not in the catalog" in p for p in problems):
        return problems
    verdict = not hard_violations(after, task, live, world.base)
    if reported_valid != verdict:
        problems.append(
            f"replan reported valid={reported_valid} but the checker says {verdict}"
        )
    problems.extend(score_violations(score, verdict, task))
    return problems


def check_recovery(health: Mapping[str, object], acked: int) -> List[str]:
    """After a restart the probe must report exactly the acked deltas."""
    problems = []
    for field in ("catalog_version", "journal_seq"):
        if health.get(field) != acked:
            problems.append(
                f"recovered {field} {health.get(field)!r} != {acked} acked deltas"
            )
    return problems
