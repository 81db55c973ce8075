"""Hard and soft constraint specifications for TPP.

Section II-A of the paper defines

* hard constraints ``P_hard = <#cr, #primary, #secondary, gap>``, and
* soft constraints ``P_soft = <T_ideal, IT>``

where ``T_ideal`` is the user's desired topic/theme set and ``IT`` is the
*interleaving template*: a set of ideal permutations of primary/secondary
labels that the recommended sequence should resemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from .exceptions import ConstraintError
from .items import ItemType


# Type alias: a template permutation is a tuple of item types such as
# (PRIMARY, SECONDARY, SECONDARY, PRIMARY, ...).
TemplatePermutation = Tuple[ItemType, ...]


def _parse_label(label: object) -> ItemType:
    """Coerce a template entry (ItemType, 'primary'/'secondary', 'P'/'S')."""
    if isinstance(label, ItemType):
        return label
    if isinstance(label, str):
        text = label.strip().lower()
        if text in ("primary", "p", "core"):
            return ItemType.PRIMARY
        if text in ("secondary", "s", "elective"):
            return ItemType.SECONDARY
    raise ConstraintError(f"unrecognized template label: {label!r}")


@dataclass(frozen=True)
class InterleavingTemplate:
    """The soft-constraint template ``IT``: a set of ideal permutations.

    Every permutation must have the same length (``#primary + #secondary``
    in the paper); each position is an :class:`ItemType` label.
    """

    permutations: Tuple[TemplatePermutation, ...]

    def __post_init__(self) -> None:
        if not self.permutations:
            raise ConstraintError("template must contain >= 1 permutation")
        lengths = {len(p) for p in self.permutations}
        if len(lengths) != 1:
            raise ConstraintError(
                f"all template permutations must share one length, "
                f"got lengths {sorted(lengths)}"
            )

    @classmethod
    def from_labels(
        cls, permutations: Iterable[Iterable[object]]
    ) -> "InterleavingTemplate":
        """Build a template from e.g. ``[["P","S","P"], ["P","P","S"]]``."""
        parsed = tuple(
            tuple(_parse_label(label) for label in perm)
            for perm in permutations
        )
        return cls(parsed)

    @property
    def length(self) -> int:
        """Length of each permutation in the template."""
        return len(self.permutations[0])

    def __len__(self) -> int:
        return len(self.permutations)

    def __iter__(self):
        return iter(self.permutations)

    def count_of(self, item_type: ItemType) -> int:
        """Number of ``item_type`` slots in the first permutation.

        Well-formed templates agree across permutations; this is used for
        consistency checks against the hard-constraint split.
        """
        return sum(1 for label in self.permutations[0] if label is item_type)

    def describe(self) -> str:
        """Render like ``[P,P,S,...] | [P,S,S,...]`` for logs and tables."""
        def short(perm: TemplatePermutation) -> str:
            return "[" + ",".join(
                "P" if t is ItemType.PRIMARY else "S" for t in perm
            ) + "]"

        return " | ".join(short(p) for p in self.permutations)


#: Slack on every credit comparison against :class:`HardConstraints` —
#: the credit minimum or trip time budget, and the category minima.
#: Earned credits and visit times are float sums, so a total within this
#: band of the bound counts as meeting it.
CREDIT_TOLERANCE = 1e-9

#: Slack (km) on the trip distance budget: travelled distance is a float
#: sum of haversine legs.
DISTANCE_TOLERANCE_KM = 1e-9


@dataclass(frozen=True)
class HardConstraints:
    """``P_hard = <#cr, #primary, #secondary, gap>`` plus domain extras.

    Attributes
    ----------
    min_credits:
        ``#cr`` — minimum total credit hours (courses) or the total time
        budget in hours (trips; acts as an upper bound on cumulative visit
        time in the trip domain, see :mod:`repro.core.env`).
    num_primary / num_secondary:
        The required primary/secondary split.
    gap:
        Lower bound on the positional distance between an item and its
        antecedents (e.g. ``gap=3`` = "at least one semester earlier" when
        3 courses are taken per semester).
    category_credits:
        Optional per-category minimum credits (Univ-2's six sub-discipline
        requirement).  Keys are category names as on :attr:`Item.category`.
    max_distance:
        Trip-only: maximum total inter-POI travel distance (km); ``None``
        disables the check.
    theme_adjacency_gap:
        Trip-only: when True, two consecutive POIs may not share a theme
        (the paper instantiates the trip ``gap`` this way).
    """

    min_credits: float
    num_primary: int
    num_secondary: int
    gap: int
    category_credits: Tuple[Tuple[str, float], ...] = ()
    max_distance: Optional[float] = None
    theme_adjacency_gap: bool = False

    def __post_init__(self) -> None:
        if self.min_credits <= 0:
            raise ConstraintError("min_credits must be positive")
        if self.num_primary < 0 or self.num_secondary < 0:
            raise ConstraintError("primary/secondary counts must be >= 0")
        if self.num_primary + self.num_secondary == 0:
            raise ConstraintError("plan must contain at least one item")
        if self.gap < 0:
            raise ConstraintError("gap must be >= 0")
        if self.max_distance is not None and self.max_distance <= 0:
            raise ConstraintError("max_distance must be positive when set")

    @property
    def plan_length(self) -> int:
        """Total number of items, ``#primary + #secondary``."""
        return self.num_primary + self.num_secondary

    @property
    def category_credit_map(self) -> Dict[str, float]:
        """Per-category minimum credits as a dict (possibly empty)."""
        return dict(self.category_credits)

    @classmethod
    def for_courses(
        cls,
        min_credits: float,
        num_primary: int,
        num_secondary: int,
        gap: int,
        category_credits: Optional[Mapping[str, float]] = None,
    ) -> "HardConstraints":
        """Course-planning constructor (no geo/time extras)."""
        cat = tuple(sorted((category_credits or {}).items()))
        return cls(
            min_credits=min_credits,
            num_primary=num_primary,
            num_secondary=num_secondary,
            gap=gap,
            category_credits=cat,
        )

    @classmethod
    def for_trips(
        cls,
        time_budget: float,
        num_primary: int,
        num_secondary: int,
        gap: int = 1,
        max_distance: Optional[float] = None,
        theme_adjacency_gap: bool = True,
    ) -> "HardConstraints":
        """Trip-planning constructor.

        ``time_budget`` plays the role of ``#cr``; ``gap=1`` means
        antecedent POIs merely need to come earlier in the itinerary.
        """
        return cls(
            min_credits=time_budget,
            num_primary=num_primary,
            num_secondary=num_secondary,
            gap=gap,
            max_distance=max_distance,
            theme_adjacency_gap=theme_adjacency_gap,
        )


@dataclass(frozen=True)
class SoftConstraints:
    """``P_soft = <T_ideal, IT>``.

    Attributes
    ----------
    ideal_topics:
        The topics/themes the user wishes the plan to cover (``T_ideal``).
    template:
        The :class:`InterleavingTemplate` provided by the domain expert.
    """

    ideal_topics: FrozenSet[str]
    template: InterleavingTemplate

    def __post_init__(self) -> None:
        object.__setattr__(self, "ideal_topics", frozenset(self.ideal_topics))
        if not self.ideal_topics:
            raise ConstraintError("ideal_topics must be non-empty")

    def ideal_vector(self, vocabulary: Sequence[str]) -> Tuple[int, ...]:
        """Boolean ``T_ideal`` vector over a topic vocabulary."""
        return tuple(1 if t in self.ideal_topics else 0 for t in vocabulary)


@dataclass(frozen=True)
class TaskSpec:
    """A full TPP instance: hard + soft constraints bundled together.

    This is the single object end users hand to planners; planners never
    need the two halves separately.
    """

    hard: HardConstraints
    soft: SoftConstraints
    name: str = "task"

    def __post_init__(self) -> None:
        template = self.soft.template
        if template.length != self.hard.plan_length:
            raise ConstraintError(
                f"template length {template.length} != plan length "
                f"{self.hard.plan_length} implied by the primary/secondary "
                f"split"
            )
        for perm in template:
            n_primary = sum(1 for t in perm if t is ItemType.PRIMARY)
            if n_primary != self.hard.num_primary:
                raise ConstraintError(
                    f"template permutation {perm} has {n_primary} primary "
                    f"slots but the hard constraints require "
                    f"{self.hard.num_primary}"
                )
