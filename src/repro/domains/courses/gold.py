"""Gold-standard course-plan oracle.

The paper's gold standards are handcrafted by academic advisors — by
construction they are plans that (a) satisfy every hard constraint,
(b) exactly follow one of the expert's template permutations (hence the
gold scores of 10 for Univ-1 and 15 for Univ-2 — Eq. 6 at a perfect
match of length H equals H), and (c) cover the student's ideal topics
well.  This oracle reproduces exactly that artifact with a depth-first
search over template slots: advisors get replaced by exhaustive search,
which only strengthens the baseline RL-Planner is compared against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...core.catalog import Catalog
from ...core.constraints import CREDIT_TOLERANCE, TaskSpec
from ...core.exceptions import PlanningError
from ...core.items import Item, ItemType
from ...core.plan import Plan
from ...core.validation import PlanValidator


class GoldPlanOracle:
    """Search for a template-perfect, constraint-satisfying plan.

    Parameters
    ----------
    catalog:
        The course catalog.
    task:
        Hard + soft constraints (the template drives the slot types).
    max_expansions:
        Safety cap on DFS node expansions.
    """

    def __init__(
        self, catalog: Catalog, task: TaskSpec, max_expansions: int = 200_000
    ) -> None:
        self.catalog = catalog
        self.task = task
        self.max_expansions = max_expansions
        self._validator = PlanValidator(task.hard)

    def find(self, start_item_id: Optional[str] = None) -> Plan:
        """Return a gold plan, optionally pinned to a starting item.

        Raises
        ------
        PlanningError
            When no template permutation admits a valid completion
            within the expansion budget.
        """
        for permutation in self.task.soft.template:
            plan = self._search_permutation(permutation, start_item_id)
            if plan is not None:
                return plan
        raise PlanningError(
            f"no gold plan exists for task {self.task.name!r} in catalog "
            f"{self.catalog.name!r}"
        )

    # ------------------------------------------------------------------
    # DFS over template slots
    # ------------------------------------------------------------------

    def _search_permutation(
        self,
        permutation: Sequence[ItemType],
        start_item_id: Optional[str],
    ) -> Optional[Plan]:
        self._expansions = 0
        chosen: List[Item] = []
        positions: Dict[str, int] = {}
        covered: Set[str] = set()
        if self._dfs(permutation, 0, chosen, positions, covered, start_item_id):
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
        covered: Set[str],
        start_item_id: Optional[str],
    ) -> bool:
        if slot == len(permutation):
            return self._category_minima_met(chosen)
        if self._expansions >= self.max_expansions:
            return False

        for item in self._candidates(
            permutation[slot], slot, positions, covered, start_item_id
        ):
            self._expansions += 1
            chosen.append(item)
            positions[item.item_id] = slot
            gained = item.topics - covered
            covered |= gained
            if self._category_feasible(
                chosen, len(permutation) - slot - 1
            ) and self._dfs(
                permutation, slot + 1, chosen, positions, covered,
                start_item_id,
            ):
                return True
            chosen.pop()
            del positions[item.item_id]
            covered -= gained
        return False

    def _candidates(
        self,
        required_type: ItemType,
        slot: int,
        positions: Dict[str, int],
        covered: Set[str],
        start_item_id: Optional[str],
    ) -> List[Item]:
        """Eligible items for a slot, best topic-coverage gain first.

        Gold plans are *template-perfect*: every slot is filled by an
        item of exactly the slot's type, which is what makes the gold
        score equal the plan length ``H`` under Eq. 6 (zeta = matches =
        k).
        """
        if slot == 0 and start_item_id is not None:
            start = self.catalog[start_item_id]
            if start.item_type is not required_type:
                return []
            return [start]

        ideal = self.task.soft.ideal_topics
        out: List[Tuple[int, str, Item]] = []
        for item in self.catalog:
            if item.item_id in positions:
                continue
            if item.item_type is not required_type:
                continue
            if not item.prerequisites.satisfied_by(
                positions, slot, self.task.hard.gap
            ):
                continue
            gain = len((item.topics - covered) & ideal)
            # Advisors prefer slots that add new ideal topics; zero-gain
            # items stay eligible (small catalogs need every course) but
            # sort last.
            out.append((-gain, item.item_id, item))
        out.sort()
        return [item for _, _, item in out]

    # ------------------------------------------------------------------
    # Category (Univ-2) feasibility pruning
    # ------------------------------------------------------------------

    def _category_minima_met(self, chosen: Sequence[Item]) -> bool:
        minima = self.task.hard.category_credit_map
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

    def _category_feasible(
        self, chosen: Sequence[Item], slots_left: int
    ) -> bool:
        """Prune branches that can no longer satisfy category minima."""
        minima = self.task.hard.category_credit_map
        if not minima:
            return True
        earned: Dict[str, float] = {}
        used = {item.item_id for item in chosen}
        for item in chosen:
            if item.category is not None:
                earned[item.category] = (
                    earned.get(item.category, 0.0) + item.credits
                )
        deficit_slots = 0
        for cat, need in minima.items():
            shortfall = need - earned.get(cat, 0.0)
            if shortfall <= CREDIT_TOLERANCE:
                continue
            available = [
                i for i in self.catalog.in_category(cat)
                if i.item_id not in used
            ]
            if not available:
                return False
            per_course = min(i.credits for i in available)
            courses_needed = int(-(-shortfall // per_course))  # ceil
            if courses_needed > len(available):
                return False
            deficit_slots += courses_needed
        return deficit_slots <= slots_left


def gold_course_plan(
    catalog: Catalog, task: TaskSpec, start_item_id: Optional[str] = None
) -> Plan:
    """Convenience wrapper around :class:`GoldPlanOracle`."""
    return GoldPlanOracle(catalog, task).find(start_item_id)
