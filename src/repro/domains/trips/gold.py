"""Gold-standard itinerary oracle.

The paper's trip gold standards are handcrafted by travel agents.  Like
the course oracle, we replace the expert with exhaustive search: a DFS
over the trip template's slots that honours the time budget, the total
travel-distance threshold, POI antecedents, and the no-consecutive-
same-theme rule, preferring popular POIs in each slot (which is exactly
what an agent's "must-see first" instinct produces).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ...core.catalog import Catalog
from ...core.constraints import (
    CREDIT_TOLERANCE,
    DISTANCE_TOLERANCE_KM,
    TaskSpec,
)
from ...core.exceptions import PlanningError
from ...core.items import Item, ItemType
from ...core.plan import Plan
from ...core.validation import PlanValidator, haversine_km


class GoldItineraryOracle:
    """Search for a template-perfect, constraint-satisfying itinerary."""

    def __init__(
        self, catalog: Catalog, task: TaskSpec, max_expansions: int = 300_000
    ) -> None:
        self.catalog = catalog
        self.task = task
        self.max_expansions = max_expansions
        self._validator = PlanValidator(task.hard, credits_are_budget=True)

    def find(self, start_item_id: Optional[str] = None) -> Plan:
        """Return a gold itinerary, optionally pinned to a start POI."""
        for permutation in self.task.soft.template:
            plan = self._search(permutation, start_item_id)
            if plan is not None:
                return plan
        raise PlanningError(
            f"no gold itinerary exists for {self.task.name!r}"
        )

    def _search(
        self,
        permutation: Sequence[ItemType],
        start_item_id: Optional[str],
    ) -> Optional[Plan]:
        self._expansions = 0
        chosen: List[Item] = []
        positions: Dict[str, int] = {}
        if self._dfs(permutation, 0, chosen, positions, 0.0, 0.0,
                     start_item_id):
            plan = Plan(items=tuple(chosen), catalog_name=self.catalog.name)
            if self._validator.is_valid(plan):
                return plan
        return None

    def _dfs(
        self,
        permutation: Sequence[ItemType],
        slot: int,
        chosen: List[Item],
        positions: Dict[str, int],
        time_used: float,
        distance_used: float,
        start_item_id: Optional[str],
    ) -> bool:
        if slot == len(permutation):
            return True
        if self._expansions >= self.max_expansions:
            return False
        for item, leg in self._candidates(
            permutation[slot], slot, chosen, positions, time_used,
            distance_used, start_item_id,
        ):
            self._expansions += 1
            chosen.append(item)
            positions[item.item_id] = slot
            if self._dfs(
                permutation,
                slot + 1,
                chosen,
                positions,
                time_used + item.credits,
                distance_used + leg,
                start_item_id,
            ):
                return True
            chosen.pop()
            del positions[item.item_id]
        return False

    def _candidates(
        self,
        required_type: ItemType,
        slot: int,
        chosen: List[Item],
        positions: Dict[str, int],
        time_used: float,
        distance_used: float,
        start_item_id: Optional[str],
    ) -> List[Tuple[Item, float]]:
        """Eligible POIs for a slot, most popular first."""
        hard = self.task.hard
        budget_left = hard.min_credits - time_used
        last = chosen[-1] if chosen else None
        pool: Sequence[Item]
        if slot == 0 and start_item_id is not None:
            pool = (self.catalog[start_item_id],)
        else:
            pool = self.catalog.items

        scored: List[Tuple[float, str, Item, float]] = []
        for item in pool:
            if item.item_id in positions:
                continue
            if item.item_type is not required_type:
                continue
            if item.credits > budget_left + CREDIT_TOLERANCE:
                continue
            if last is not None and (last.topics & item.topics):
                continue  # theme-adjacency gap
            if not item.prerequisites.satisfied_by(
                positions, slot, hard.gap
            ):
                continue
            leg = 0.0
            if last is not None:
                leg = haversine_km(
                    float(last.meta("lat")), float(last.meta("lon")),
                    float(item.meta("lat")), float(item.meta("lon")),
                )
                if (
                    hard.max_distance is not None
                    and distance_used + leg
                    > hard.max_distance + DISTANCE_TOLERANCE_KM
                ):
                    continue
            popularity = float(item.meta("popularity") or 0.0)
            scored.append((-popularity, item.item_id, item, leg))
        scored.sort()
        return [(item, leg) for _, _, item, leg in scored]


def gold_trip_plan(
    catalog: Catalog, task: TaskSpec, start_item_id: Optional[str] = None
) -> Plan:
    """Convenience wrapper around :class:`GoldItineraryOracle`."""
    return GoldItineraryOracle(catalog, task).find(start_item_id)
