"""Infeasibility diagnostics: which constraint should the user relax?

When a TPP instance is over-constrained (a 5-POI itinerary inside a
3-hour budget, a split larger than the catalog's primary pool), the
planner can only return invalid plans.  :func:`diagnose` explains *why*
and proposes the minimal relaxations that restore feasibility — the
conversational move a human advisor makes ("with only three hours we
must drop a must-see").

The check is structural (counting arguments over the catalog), so it is
instant and requires no training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.catalog import Catalog
from ..core.constraints import CREDIT_TOLERANCE, TaskSpec
from ..core.env import DomainMode


@dataclass(frozen=True)
class Finding:
    """One structural infeasibility with a proposed relaxation."""

    code: str
    message: str
    suggestion: str


@dataclass(frozen=True)
class Diagnosis:
    """Outcome of a feasibility diagnosis."""

    findings: Tuple[Finding, ...]

    @property
    def is_feasible(self) -> bool:
        """True when no structural blocker was found.

        Structural feasibility is necessary, not sufficient — a gap or
        distance interaction can still defeat individual plans — but
        every finding reported here is a certain blocker.
        """
        return not self.findings

    def codes(self) -> Tuple[str, ...]:
        """Finding codes, for assertions."""
        return tuple(f.code for f in self.findings)

    def describe(self) -> str:
        """Multi-line report with suggestions."""
        if self.is_feasible:
            return "no structural infeasibility found"
        lines = []
        for finding in self.findings:
            lines.append(f"[{finding.code}] {finding.message}")
            lines.append(f"    -> {finding.suggestion}")
        return "\n".join(lines)


def diagnose(
    catalog: Catalog,
    task: TaskSpec,
    mode: DomainMode = DomainMode.COURSE,
) -> Diagnosis:
    """Check a TPP instance for certain structural blockers."""
    findings: List[Finding] = []
    hard = task.hard
    plan_length = hard.plan_length

    # 1. Catalog size vs plan length.
    if len(catalog) < plan_length:
        findings.append(
            Finding(
                code="catalog_size",
                message=(
                    f"the plan needs {plan_length} items but the "
                    f"catalog holds only {len(catalog)}"
                ),
                suggestion=(
                    "reduce #primary/#secondary or enlarge the catalog"
                ),
            )
        )

    # 2. Primary pool vs primary quota.
    primaries = len(catalog.primaries())
    if primaries < hard.num_primary:
        findings.append(
            Finding(
                code="primary_pool",
                message=(
                    f"{hard.num_primary} primary items required but the "
                    f"catalog offers {primaries}"
                ),
                suggestion=(
                    f"lower num_primary to <= {primaries} or promote "
                    f"items to primary"
                ),
            )
        )

    # 3. Credit arithmetic (courses: minimum reachable in plan_length).
    if mode is DomainMode.COURSE:
        top_credits = sorted(
            (item.credits for item in catalog), reverse=True
        )[:plan_length]
        achievable = sum(top_credits)
        if achievable < hard.min_credits - CREDIT_TOLERANCE:
            findings.append(
                Finding(
                    code="credit_ceiling",
                    message=(
                        f"{hard.min_credits:g} credits required but the "
                        f"best {plan_length} items only total "
                        f"{achievable:g}"
                    ),
                    suggestion="lower min_credits or allow more items",
                )
            )
    else:
        # Trips: the *cheapest* feasible selection must fit the budget,
        # honouring the primary quota.
        primary_costs = sorted(
            item.credits for item in catalog.primaries()
        )[: hard.num_primary]
        n_secondary = plan_length - len(primary_costs)
        secondary_costs = sorted(
            item.credits for item in catalog.secondaries()
        )[:n_secondary]
        cheapest = sum(primary_costs) + sum(secondary_costs)
        if len(primary_costs) + len(secondary_costs) == plan_length and (
            cheapest > hard.min_credits + CREDIT_TOLERANCE
        ):
            findings.append(
                Finding(
                    code="time_budget",
                    message=(
                        f"even the quickest {plan_length}-POI itinerary "
                        f"needs {cheapest:.1f}h against a "
                        f"{hard.min_credits:g}h budget"
                    ),
                    suggestion=(
                        f"raise the time budget to >= {cheapest:.1f} "
                        f"or plan fewer POIs"
                    ),
                )
            )

    # 4. Category minima (Univ-2): per-bucket supply.
    for category, minimum in sorted(hard.category_credit_map.items()):
        pool = catalog.in_category(category)
        supply = sum(item.credits for item in pool)
        if supply < minimum - CREDIT_TOLERANCE:
            findings.append(
                Finding(
                    code="category_supply",
                    message=(
                        f"category {category!r} requires {minimum:g} "
                        f"credits but the catalog supplies {supply:g}"
                    ),
                    suggestion=(
                        f"lower the {category!r} requirement or add "
                        f"courses to it"
                    ),
                )
            )
    if hard.category_credit_map:
        slots_needed = 0
        for category, minimum in hard.category_credit_map.items():
            pool = catalog.in_category(category)
            if not pool:
                continue
            per_item = min(item.credits for item in pool)
            slots_needed += int(-(-minimum // per_item))
        if slots_needed > plan_length:
            findings.append(
                Finding(
                    code="category_slots",
                    message=(
                        f"the category minima pin {slots_needed} items "
                        f"but the plan has {plan_length} slots"
                    ),
                    suggestion="relax bucket minima or lengthen the plan",
                )
            )

    # 5. Gap arithmetic: a prerequisite chain deeper than the plan
    # allows can never be scheduled; flag items whose antecedents
    # cannot fit (gap >= plan length).
    if hard.gap >= plan_length:
        constrained = [
            item.item_id
            for item in catalog
            if not item.prerequisites.is_empty
        ]
        if constrained:
            findings.append(
                Finding(
                    code="gap_too_wide",
                    message=(
                        f"gap {hard.gap} >= plan length {plan_length}: "
                        f"items with antecedents "
                        f"({', '.join(constrained[:5])}...) can never "
                        f"be placed"
                    ),
                    suggestion="reduce gap or lengthen the plan",
                )
            )

    return Diagnosis(findings=tuple(findings))


def suggest_relaxations(
    catalog: Catalog,
    task: TaskSpec,
    mode: DomainMode = DomainMode.COURSE,
) -> Sequence[str]:
    """Just the human-readable suggestions (empty when feasible)."""
    return [f.suggestion for f in diagnose(catalog, task, mode).findings]
