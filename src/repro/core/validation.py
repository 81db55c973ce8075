"""Hard-constraint validation of finished plans.

Theorem 1 of the paper argues the reward design satisfies ``P_hard``; the
validator here is the independent referee used by the experiments to
decide whether a plan "counts" (invalid plans score 0 in Figures 1 and
Tables IX–XVI) and by the test suite to check the theorem empirically.

Checked constraints:

1. minimum total credits (courses) / time budget not exceeded (trips),
2. primary count — with the paper's Case-I relaxation: *surplus* primary
   items may stand in for secondary ones ("a core course could be
   construed as an elective"), so the real requirements are
   ``num_primary >= #primary`` and total length == plan length,
3. secondary count (via total length, per the same argument),
4. prerequisite gap for every item with antecedents (AND/OR aware),
5. optional per-category credit minima (Univ-2's six sub-disciplines),
6. optional trip extras: total travel distance threshold and the
   no-two-consecutive-POIs-of-the-same-theme rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .constraints import (
    CREDIT_TOLERANCE,
    DISTANCE_TOLERANCE_KM,
    HardConstraints,
)
from .items import Item
from .plan import Plan


@dataclass(frozen=True)
class Violation:
    """One failed hard constraint, with a human-readable explanation."""

    code: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.code}] {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a plan against hard constraints."""

    plan_length: int
    violations: Tuple[Violation, ...] = ()

    @property
    def is_valid(self) -> bool:
        """True when every hard constraint is satisfied."""
        return not self.violations

    def codes(self) -> Tuple[str, ...]:
        """Violation codes, for compact assertions in tests."""
        return tuple(v.code for v in self.violations)

    def describe(self) -> str:
        """Multi-line summary for logs."""
        if self.is_valid:
            return "valid"
        return "; ".join(str(v) for v in self.violations)


def _item_distance_km(a: Item, b: Item) -> Optional[float]:
    """Great-circle distance between two POIs, or None without geo data."""
    lat_a, lon_a = a.meta("lat"), a.meta("lon")
    lat_b, lon_b = b.meta("lat"), b.meta("lon")
    if None in (lat_a, lon_a, lat_b, lon_b):
        return None
    return haversine_km(float(lat_a), float(lon_a), float(lat_b), float(lon_b))


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in kilometres between two WGS84 points."""
    radius_km = 6371.0088
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    )
    return 2.0 * radius_km * math.asin(min(1.0, math.sqrt(a)))


def plan_travel_distance_km(plan: Plan) -> Optional[float]:
    """Total leg-by-leg travel distance of an itinerary.

    Returns None when any POI lacks coordinates (course plans).
    """
    if len(plan) < 2:
        return 0.0
    total = 0.0
    for a, b in zip(plan.items, plan.items[1:]):
        d = _item_distance_km(a, b)
        if d is None:
            return None
        total += d
    return total


class PlanValidator:
    """Validates plans against a :class:`HardConstraints` specification.

    Parameters
    ----------
    hard:
        The hard constraints to enforce.
    credits_are_budget:
        When True (trip domain), ``min_credits`` is interpreted as an
        *upper* bound on total visit time; when False (course domain) it
        is a lower bound on total credits.
    """

    def __init__(self, hard: HardConstraints, credits_are_budget: bool = False) -> None:
        self.hard = hard
        self.credits_are_budget = credits_are_budget

    def validate(self, plan: Plan) -> ValidationReport:
        """Run every hard-constraint check and collect violations."""
        violations: List[Violation] = []
        self._check_credits(plan, violations)
        self._check_split(plan, violations)
        self._check_gaps(plan, violations)
        self._check_categories(plan, violations)
        self._check_distance(plan, violations)
        self._check_theme_adjacency(plan, violations)
        return ValidationReport(
            plan_length=len(plan), violations=tuple(violations)
        )

    def is_valid(self, plan: Plan) -> bool:
        """Shorthand for ``validate(plan).is_valid``."""
        return self.validate(plan).is_valid

    # ------------------------------------------------------------------
    # Individual checks
    # ------------------------------------------------------------------

    def _check_credits(self, plan: Plan, out: List[Violation]) -> None:
        total = plan.total_credits
        if self.credits_are_budget:
            if total > self.hard.min_credits + CREDIT_TOLERANCE:
                out.append(
                    Violation(
                        "time_budget",
                        f"total visit time {total:g} exceeds the budget "
                        f"{self.hard.min_credits:g}",
                    )
                )
        elif total < self.hard.min_credits - CREDIT_TOLERANCE:
            out.append(
                Violation(
                    "credits",
                    f"total credits {total:g} below the required "
                    f"{self.hard.min_credits:g}",
                )
            )

    def _check_split(self, plan: Plan, out: List[Violation]) -> None:
        required_len = self.hard.plan_length
        if len(plan) != required_len:
            out.append(
                Violation(
                    "length",
                    f"plan has {len(plan)} items; the split requires "
                    f"{required_len}",
                )
            )
        # Case-I relaxation: extra primaries may serve as secondaries, so
        # only a primary *shortfall* is a violation.
        if plan.num_primary < self.hard.num_primary:
            out.append(
                Violation(
                    "primary_count",
                    f"plan has {plan.num_primary} primary items; "
                    f"{self.hard.num_primary} required",
                )
            )

    def _check_gaps(self, plan: Plan, out: List[Violation]) -> None:
        positions = plan.positions()
        for item in plan.items:
            if item.prerequisites.is_empty:
                continue
            pos = positions[item.item_id]
            if not item.prerequisites.satisfied_by(
                positions, pos, self.hard.gap
            ):
                out.append(
                    Violation(
                        "prerequisite_gap",
                        f"{item.item_id} requires "
                        f"{item.prerequisites.describe()} at least "
                        f"{self.hard.gap} positions earlier",
                    )
                )

    def _check_categories(self, plan: Plan, out: List[Violation]) -> None:
        requirements = self.hard.category_credit_map
        if not requirements:
            return
        earned = plan.credits_by_category()
        for category, minimum in sorted(requirements.items()):
            got = earned.get(category, 0.0)
            if got < minimum - CREDIT_TOLERANCE:
                out.append(
                    Violation(
                        "category_credits",
                        f"category {category!r}: {got:g} credits earned, "
                        f"{minimum:g} required",
                    )
                )

    def _check_distance(self, plan: Plan, out: List[Violation]) -> None:
        if self.hard.max_distance is None:
            return
        total = plan_travel_distance_km(plan)
        if total is None:
            out.append(
                Violation(
                    "distance_data",
                    "distance threshold set but items lack coordinates",
                )
            )
        elif total > self.hard.max_distance + DISTANCE_TOLERANCE_KM:
            out.append(
                Violation(
                    "distance",
                    f"total travel distance {total:.2f} km exceeds the "
                    f"threshold {self.hard.max_distance:g} km",
                )
            )

    def _check_theme_adjacency(self, plan: Plan, out: List[Violation]) -> None:
        if not self.hard.theme_adjacency_gap:
            return
        for a, b in zip(plan.items, plan.items[1:]):
            shared = a.topics & b.topics
            if shared:
                out.append(
                    Violation(
                        "theme_adjacency",
                        f"consecutive items {a.item_id} and {b.item_id} "
                        f"share theme(s) {sorted(shared)}",
                    )
                )
                return  # one violation is enough to fail the plan
