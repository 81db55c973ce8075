"""Recommendation explanations.

An advisor doesn't just hand over a plan — they can say *why* each
course comes next.  :func:`explain_plan` replays a planner's
recommendation step by step and records, for every chosen item, the
Equation-2 breakdown (coverage gate, gap gate, similarity, type
weight), the newly covered ideal topics, and how many candidates
survived masking — the full story behind each decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.plan import Plan, PlanBuilder
from ..core.planner import RLPlanner
from ..core.reward import RewardBreakdown
from .tables import render_table


@dataclass(frozen=True)
class StepExplanation:
    """Why one item entered the plan at one step."""

    position: int
    item_id: str
    item_name: str
    item_type: str
    breakdown: Optional[RewardBreakdown]
    new_ideal_topics: Tuple[str, ...]
    candidates_considered: int


@dataclass(frozen=True)
class PlanExplanation:
    """A plan together with its per-step decision records."""

    plan: Plan
    steps: Tuple[StepExplanation, ...]

    def render(self) -> str:
        """Human-readable explanation table."""
        rows = []
        for step in self.steps:
            if step.breakdown is None:
                r1 = r2 = sim = weight = total = None
            else:
                r1 = step.breakdown.r1_coverage
                r2 = step.breakdown.r2_gap
                sim = step.breakdown.similarity
                weight = step.breakdown.type_weight
                total = step.breakdown.total
            rows.append(
                [
                    step.position + 1,
                    step.item_id,
                    step.item_type,
                    r1,
                    r2,
                    sim,
                    weight,
                    total,
                    step.candidates_considered,
                    ", ".join(step.new_ideal_topics[:4])
                    + ("…" if len(step.new_ideal_topics) > 4 else ""),
                ]
            )
        return render_table(
            ["#", "item", "type", "r1", "r2", "Sim", "w", "R",
             "cands", "new ideal topics"],
            rows,
            title="Plan explanation (Eq. 2 breakdown per step)",
        )


def explain_plan(
    planner: RLPlanner,
    start_item_id: str,
    plan: Optional[Plan] = None,
) -> PlanExplanation:
    """Replay a recommendation and record the decision evidence.

    When ``plan`` is omitted the planner recommends one first; passing a
    plan explains that exact sequence instead (useful for gold plans or
    baselines under RL-Planner's reward).
    """
    if plan is None:
        plan = planner.recommend(start_item_id)
    reward = planner.env.reward
    ideal = planner.task.soft.ideal_topics

    builder = PlanBuilder(planner.catalog)
    steps: List[StepExplanation] = []
    for position, item in enumerate(plan.items):
        if position == 0:
            breakdown = None
            candidates = 1
        else:
            candidates = len(
                reward.mask_actions(builder, builder.remaining_indices())
            )
            breakdown = reward.breakdown(builder, item)
        gained = tuple(sorted(builder.new_topics(item) & ideal))
        steps.append(
            StepExplanation(
                position=position,
                item_id=item.item_id,
                item_name=item.name,
                item_type=item.item_type.value,
                breakdown=breakdown,
                new_ideal_topics=gained,
                candidates_considered=candidates,
            )
        )
        builder.add(item)

    return PlanExplanation(plan=plan, steps=tuple(steps))
