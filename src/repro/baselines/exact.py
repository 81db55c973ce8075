"""Exact search baseline (branch-and-bound over template slots).

Related work ([1] Parameswaran et al.) solves constrained course
recommendation with integer linear programming and reports it "slow
when recommending courses" once AND/OR prerequisites enter.  This
baseline plays that role: an exhaustive, provably score-optimal planner
whose runtime grows combinatorially — the scalability contrast to
RL-Planner's constant-time recommendation.

The search enumerates template permutations and fills slots depth-first
(exact type match, gap-feasible, budget-feasible), maximizing ideal-
topic coverage; because the Eq. 7 template score of any exact-match
completion equals the plan length, coverage is the only tie-breaking
objective left.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.catalog import Catalog
from ..core.constraints import CREDIT_TOLERANCE, TaskSpec
from ..core.env import DomainMode
from ..core.exceptions import PlanningError
from ..core.items import Item, ItemType
from ..core.plan import Plan
from ..core.validation import PlanValidator
from .base import BaselinePlanner


class ExactPlanner(BaselinePlanner):
    """Branch-and-bound search for the best template-perfect plan.

    Parameters
    ----------
    max_expansions:
        Node budget; the search returns the best plan found within it
        (raises only when *nothing* feasible was found).
    """

    name = "Exact"

    def __init__(
        self,
        catalog: Catalog,
        task: TaskSpec,
        mode: DomainMode = DomainMode.COURSE,
        max_expansions: int = 100_000,
    ) -> None:
        super().__init__(catalog, task, mode)
        self.max_expansions = max_expansions
        self._validator = PlanValidator(
            task.hard, credits_are_budget=(mode is DomainMode.TRIP)
        )
        self.expansions = 0

    def recommend(
        self, start_item_id: str, horizon: Optional[int] = None
    ) -> Plan:
        """The best valid, template-perfect plan from the start item."""
        if start_item_id not in self.catalog:
            raise PlanningError(
                f"start item {start_item_id!r} not in catalog"
            )
        self.expansions = 0
        best: Optional[Tuple[int, Plan]] = None
        for permutation in self.task.soft.template:
            found = self._search(permutation, start_item_id)
            if found is not None and (best is None or found[0] > best[0]):
                best = found
        if best is None:
            raise PlanningError(
                f"no feasible template-perfect plan from "
                f"{start_item_id!r}"
            )
        return best[1]

    # ------------------------------------------------------------------
    # DFS with a coverage objective
    # ------------------------------------------------------------------

    def _search(
        self, permutation: Sequence[ItemType], start_item_id: str
    ) -> Optional[Tuple[int, Plan]]:
        chosen: List[Item] = []
        positions: Dict[str, int] = {}
        covered: Set[str] = set()
        best: List[Optional[Tuple[int, Plan]]] = [None]
        self._dfs(permutation, 0, chosen, positions, covered,
                  start_item_id, best)
        return best[0]

    def _dfs(
        self,
        permutation: Sequence[ItemType],
        slot: int,
        chosen: List[Item],
        positions: Dict[str, int],
        covered: Set[str],
        start_item_id: str,
        best: List[Optional[Tuple[int, Plan]]],
    ) -> None:
        if self.expansions >= self.max_expansions:
            return
        if slot == len(permutation):
            plan = Plan(items=tuple(chosen),
                        catalog_name=self.catalog.name)
            if not self._validator.is_valid(plan):
                return
            coverage = len(covered & self.task.soft.ideal_topics)
            if best[0] is None or coverage > best[0][0]:
                best[0] = (coverage, plan)
            return

        # Optimistic bound: even covering every remaining ideal topic
        # cannot beat the incumbent -> prune.
        if best[0] is not None:
            optimistic = len(self.task.soft.ideal_topics)
            if optimistic <= best[0][0]:
                return

        ideal = self.task.soft.ideal_topics
        required = permutation[slot]
        candidates: List[Tuple[int, str, Item]] = []
        for item in self.catalog:
            if item.item_id in positions:
                continue
            if item.item_type is not required:
                continue
            if slot == 0 and item.item_id != start_item_id:
                continue
            if not item.prerequisites.satisfied_by(
                positions, slot, self.task.hard.gap
            ):
                continue
            if self.mode is DomainMode.TRIP:
                used = sum(i.credits for i in chosen)
                budget = self.task.hard.min_credits
                if used + item.credits > budget + CREDIT_TOLERANCE:
                    continue
                if chosen and (chosen[-1].topics & item.topics):
                    continue
            gain = len((item.topics - covered) & ideal)
            candidates.append((-gain, item.item_id, item))
        candidates.sort()

        for _, _, item in candidates:
            self.expansions += 1
            chosen.append(item)
            positions[item.item_id] = slot
            gained = item.topics - covered
            covered |= gained
            self._dfs(permutation, slot + 1, chosen, positions, covered,
                      start_item_id, best)
            chosen.pop()
            del positions[item.item_id]
            covered -= gained
