"""Feasibility-only constructive repair: the ladder's bottom rung.

When the learned policy is unavailable (untrained, corrupt, tripped
breaker) and the greedy EDA fallback produced an invalid plan, the
service still owes the caller *something valid*.  This planner performs
a depth-first search over the template's slots that checks nothing but
the hard constraints — no reward, no topic preference, no popularity —
which makes it the cheapest search that is still complete:

* slot type comes from the template permutation (so the length and
  primary/secondary split hold by construction),
* prerequisite/gap satisfaction is checked at placement,
* course mode prunes branches that can no longer reach ``#cr`` or the
  per-category minima,
* trip mode prunes on the time budget, the travel-distance threshold,
  and the no-consecutive-shared-theme rule.

Candidates are ordered to fail fast: courses try high-credit items first
(reaching ``#cr`` as early as possible), trips try short visits first
(keeping the budget open).  The search is bounded by ``max_expansions``
and an optional ``should_stop`` callback; the facade calls the repair
rung *without* a deadline because returning nothing is strictly worse
than running a few milliseconds over.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..baselines.base import BaselinePlanner
from ..core.catalog import Catalog
from ..core.constraints import (
    CREDIT_TOLERANCE,
    DISTANCE_TOLERANCE_KM,
    TaskSpec,
)
from ..core.env import DomainMode
from ..core.exceptions import InfeasibleError, PlanningError
from ..core.items import Item, ItemType
from ..core.plan import Plan
from ..core.validation import PlanValidator, _item_distance_km


class RepairPlanner(BaselinePlanner):
    """Constructive hard-constraint-only planner (see module docstring).

    Parameters
    ----------
    max_expansions:
        DFS node budget per template permutation.
    """

    name = "repair"

    def __init__(
        self,
        catalog: Catalog,
        task: TaskSpec,
        mode: DomainMode = DomainMode.COURSE,
        max_expansions: int = 200_000,
    ) -> None:
        super().__init__(catalog, task, mode)
        self.max_expansions = max_expansions
        self._validator = PlanValidator(
            task.hard, credits_are_budget=(mode is DomainMode.TRIP)
        )

    def recommend(
        self,
        start_item_id: Optional[str] = None,
        horizon: Optional[int] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        pinned: Optional[Sequence[Item]] = None,
    ) -> Plan:
        """A hard-constraint-valid plan, preferring the pinned start.

        Tries every template permutation with the start pinned, then —
        unlike the gold oracles — retries unpinned, because a valid plan
        from a different opening item still beats no plan at all.

        ``pinned`` locks an already-executed plan prefix into slots
        ``0..len(pinned)-1`` verbatim: repair can never rewrite history.
        The prefix is given as :class:`Item` objects (not ids) because
        committed items may no longer exist in the live catalog after an
        availability delta.  Only permutations whose leading slot types
        match the prefix are searched, and the DFS fills suffix slots
        only.  ``pinned`` and ``start_item_id`` are mutually exclusive.

        Raises
        ------
        PlanningError
            When no permutation admits a valid completion within the
            expansion budget (or ``should_stop`` fired first).
        """
        if pinned:
            if start_item_id is not None:
                raise PlanningError(
                    "pinned prefix and start_item_id are mutually "
                    "exclusive; the prefix already fixes slot 0"
                )
            return self._recommend_pinned(tuple(pinned), should_stop)
        if start_item_id is not None and start_item_id not in self.catalog:
            raise InfeasibleError(
                f"start item {start_item_id!r} not in catalog "
                f"{self.catalog.name!r}"
            )
        for start in (start_item_id, None):
            for permutation in self.task.soft.template:
                plan = self._search(permutation, start, should_stop)
                if plan is not None:
                    return plan
            if start_item_id is None:
                break
        raise PlanningError(
            f"repair search found no valid plan for task "
            f"{self.task.name!r} in catalog {self.catalog.name!r}"
        )

    def _recommend_pinned(
        self,
        prefix: Tuple[Item, ...],
        should_stop: Optional[Callable[[], bool]],
    ) -> Plan:
        """Complete a committed prefix; the prefix slots are immutable."""
        ids = [item.item_id for item in prefix]
        if len(set(ids)) != len(ids):
            raise PlanningError(
                f"pinned prefix repeats item(s): {sorted(set(ids))}"
            )
        matched = False
        for permutation in self.task.soft.template:
            if len(prefix) > len(permutation):
                continue
            if any(
                permutation[i] is not prefix[i].item_type
                for i in range(len(prefix))
            ):
                continue
            matched = True
            plan = self._search(
                permutation, None, should_stop, prefix=prefix
            )
            if plan is not None:
                return plan
        if not matched:
            raise PlanningError(
                f"no template permutation of task {self.task.name!r} "
                f"matches the pinned prefix types"
            )
        raise PlanningError(
            f"repair search found no valid completion of the "
            f"{len(prefix)}-item pinned prefix for task "
            f"{self.task.name!r} in catalog {self.catalog.name!r}"
        )

    # ------------------------------------------------------------------
    # DFS over template slots
    # ------------------------------------------------------------------

    def _search(
        self,
        permutation: Sequence[ItemType],
        start_item_id: Optional[str],
        should_stop: Optional[Callable[[], bool]],
        prefix: Tuple[Item, ...] = (),
    ) -> Optional[Plan]:
        self._expansions = 0
        self._stop = should_stop
        chosen: List[Item] = list(prefix)
        positions: Dict[str, int] = {
            item.item_id: i for i, item in enumerate(prefix)
        }
        distance_used = 0.0
        if (
            self.mode is DomainMode.TRIP
            and self.task.hard.max_distance is not None
        ):
            for previous, item in zip(prefix, prefix[1:]):
                d = _item_distance_km(previous, item)
                distance_used += d if d is not None else 0.0
        if self._dfs(
            permutation, len(prefix), chosen, positions,
            distance_used, start_item_id,
        ):
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
        distance_used: float,
        start_item_id: Optional[str],
    ) -> bool:
        if slot == len(permutation):
            return self._totals_ok(chosen)
        if self._expansions >= self.max_expansions:
            return False
        if (
            self._stop is not None
            and self._expansions % 256 == 0
            and self._stop()
        ):
            return False
        for item, leg in self._candidates(
            permutation[slot], slot, chosen, positions, start_item_id
        ):
            self._expansions += 1
            chosen.append(item)
            positions[item.item_id] = slot
            slots_left = len(permutation) - slot - 1
            if self._feasible(chosen, slots_left, distance_used + leg) and (
                self._dfs(
                    permutation, slot + 1, chosen, positions,
                    distance_used + leg, start_item_id,
                )
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
        start_item_id: Optional[str],
    ) -> List[Tuple[Item, float]]:
        """Eligible items for a slot, with the new travel leg (trips)."""
        hard = self.task.hard
        trip = self.mode is DomainMode.TRIP
        budget_left = hard.min_credits - sum(i.credits for i in chosen)
        last = chosen[-1] if chosen else None
        if slot == 0 and start_item_id is not None:
            pool: Sequence[Item] = (self.catalog[start_item_id],)
        else:
            pool = self.catalog.items

        out: List[Tuple[float, str, Item, float]] = []
        for item in pool:
            if item.item_id in positions:
                continue
            if item.item_type is not required_type:
                continue
            if trip and item.credits > budget_left + CREDIT_TOLERANCE:
                continue
            if not item.prerequisites.satisfied_by(
                positions, slot, hard.gap
            ):
                continue
            if (
                trip
                and hard.theme_adjacency_gap
                and last is not None
                and (item.topics & last.topics)
            ):
                continue
            leg = 0.0
            if trip and hard.max_distance is not None and last is not None:
                d = _item_distance_km(last, item)
                leg = d if d is not None else 0.0
            # Courses reach #cr fastest with big items first; trips keep
            # the budget open with short visits first.
            rank = -item.credits if not trip else item.credits
            out.append((rank, item.item_id, item, leg))
        out.sort(key=lambda entry: (entry[0], entry[1]))
        return [(item, leg) for _, _, item, leg in out]

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------

    def _feasible(
        self, chosen: Sequence[Item], slots_left: int, distance_used: float
    ) -> bool:
        hard = self.task.hard
        if self.mode is DomainMode.TRIP:
            if (
                hard.max_distance is not None
                and distance_used > hard.max_distance + DISTANCE_TOLERANCE_KM
            ):
                return False
            return True
        # Courses: can the remaining slots still reach #cr?
        used_ids = {i.item_id for i in chosen}
        open_credits = sorted(
            (
                i.credits
                for i in self.catalog
                if i.item_id not in used_ids
            ),
            reverse=True,
        )
        attainable = (
            sum(i.credits for i in chosen) + sum(open_credits[:slots_left])
        )
        if attainable < hard.min_credits - CREDIT_TOLERANCE:
            return False
        return self._categories_feasible(chosen, slots_left, used_ids)

    def _categories_feasible(
        self, chosen: Sequence[Item], slots_left: int, used_ids: set
    ) -> bool:
        """Prune branches that can no longer meet the category minima."""
        minima = self.task.hard.category_credit_map
        if not minima:
            return True
        earned: Dict[str, float] = {}
        for item in chosen:
            if item.category is not None:
                earned[item.category] = (
                    earned.get(item.category, 0.0) + item.credits
                )
        deficit_slots = 0
        for category, need in sorted(minima.items()):
            shortfall = need - earned.get(category, 0.0)
            if shortfall <= CREDIT_TOLERANCE:
                continue
            available = [
                i
                for i in self.catalog.in_category(category)
                if i.item_id not in used_ids
            ]
            if not available:
                return False
            per_item = max(i.credits for i in available)
            needed = int(-(-shortfall // per_item))  # ceil
            if needed > len(available):
                return False
            deficit_slots += needed
        return deficit_slots <= slots_left

    def _totals_ok(self, chosen: Sequence[Item]) -> bool:
        """Leaf check: credit floor (courses) and category minima."""
        hard = self.task.hard
        if self.mode is DomainMode.TRIP:
            return True
        total = sum(i.credits for i in chosen)
        if total < hard.min_credits - CREDIT_TOLERANCE:
            return False
        minima = hard.category_credit_map
        if not minima:
            return True
        earned: Dict[str, float] = {}
        for item in chosen:
            if item.category is not None:
                earned[item.category] = (
                    earned.get(item.category, 0.0) + item.credits
                )
        return all(
            earned.get(cat, 0.0) >= need - CREDIT_TOLERANCE
            for cat, need in minima.items()
        )
