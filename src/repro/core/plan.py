"""Plan (trajectory) representation.

A *plan* is an ordered sequence of items — the trajectory ``H`` of the
CMDP.  :class:`PlanBuilder` is the mutable, incremental form used while an
episode unfolds (it maintains the running topic-coverage vector
``T_current`` of Section III-B-1 and item positions for gap checks);
:class:`Plan` is the immutable result handed to validators, scorers, and
users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from .catalog import Catalog
from .constraints import InterleavingTemplate
from .exceptions import PlanningError
from .items import Item, ItemType
from .similarity import IncrementalSimilarity, SimilarityMode, type_sequence


@dataclass(frozen=True)
class Plan:
    """An immutable ordered sequence of items.

    Attributes
    ----------
    items:
        The recommended items, in order.
    catalog_name:
        Name of the catalog the plan was drawn from (for reports).
    """

    items: Tuple[Item, ...]
    catalog_name: str = ""

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __getitem__(self, index: int) -> Item:
        return self.items[index]

    @property
    def item_ids(self) -> Tuple[str, ...]:
        """Ids of the plan's items, in order."""
        return tuple(item.item_id for item in self.items)

    @property
    def total_credits(self) -> float:
        """Sum of ``cr_m`` over the plan (credits or visit hours)."""
        return sum(item.credits for item in self.items)

    @property
    def num_primary(self) -> int:
        """Number of primary items in the plan."""
        return sum(1 for item in self.items if item.is_primary)

    @property
    def num_secondary(self) -> int:
        """Number of secondary items in the plan."""
        return sum(1 for item in self.items if item.is_secondary)

    def type_sequence(self) -> Tuple[ItemType, ...]:
        """The primary/secondary label string of the plan."""
        return type_sequence(self.items)

    def covered_topics(self) -> FrozenSet[str]:
        """Union of topics covered by the plan's items (``T_current``)."""
        out: set = set()
        for item in self.items:
            out |= item.topics
        return frozenset(out)

    def topic_coverage_of(self, ideal_topics: FrozenSet[str]) -> float:
        """Fraction of ``T_ideal`` covered by the plan, in [0, 1]."""
        if not ideal_topics:
            return 1.0
        return len(self.covered_topics() & ideal_topics) / len(ideal_topics)

    def positions(self) -> Dict[str, int]:
        """Map item id -> 0-based position in the plan."""
        return {item.item_id: i for i, item in enumerate(self.items)}

    def credits_by_category(self) -> Dict[str, float]:
        """Total credits per :attr:`Item.category` (None bucket omitted)."""
        out: Dict[str, float] = {}
        for item in self.items:
            if item.category is not None:
                out[item.category] = out.get(item.category, 0.0) + item.credits
        return out

    def describe(self) -> str:
        """One-line arrow-joined rendering like the paper's Table V."""
        return " -> ".join(
            f"{item.item_id}:{item.item_type.value}" for item in self.items
        )

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.describe()


class PlanBuilder:
    """Mutable, incremental plan under construction.

    Tracks everything the reward function and environment need in O(1)
    per step: the visited set, running credits, the current topic set,
    and per-item positions.
    """

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog
        self._items: List[Item] = []
        self._positions: Dict[str, int] = {}
        self._topics: set = set()
        self._total_credits: float = 0.0
        self._num_primary: int = 0
        self._sim_states: Dict[Tuple[int, str], IncrementalSimilarity] = {}
        # State derived from the current plan, valid until it changes.
        self._remaining: Optional[np.ndarray] = None
        self._step_memo: Dict[object, object] = {}

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def catalog(self) -> Catalog:
        """The catalog items are drawn from."""
        return self._catalog

    @property
    def items(self) -> Tuple[Item, ...]:
        """Items added so far, in order."""
        return tuple(self._items)

    @property
    def last_item(self) -> Optional[Item]:
        """The most recently added item (None for an empty plan)."""
        return self._items[-1] if self._items else None

    @property
    def total_credits(self) -> float:
        """Running credit/visit-time total."""
        return self._total_credits

    @property
    def num_primary(self) -> int:
        """Number of primary items added so far (maintained in O(1))."""
        return self._num_primary

    @property
    def covered_topics(self) -> FrozenSet[str]:
        """The running ``T_current`` set."""
        return frozenset(self._topics)

    @property
    def positions(self) -> Dict[str, int]:
        """Map of item id -> position for items added so far."""
        return dict(self._positions)

    def contains(self, item_id: str) -> bool:
        """True if the item was already added (the visited set ``W``)."""
        return item_id in self._positions

    def type_sequence(self) -> Tuple[ItemType, ...]:
        """Primary/secondary label string of the partial plan."""
        return type_sequence(self._items)

    def new_topics(self, item: Item) -> FrozenSet[str]:
        """Topics ``item`` would add: ``T_{i+1}^current \\ T_i^current``."""
        return frozenset(item.topics - self._topics)

    def remaining_items(self) -> Tuple[Item, ...]:
        """Catalog items not yet in the plan (the action set at this state)."""
        return tuple(
            item
            for item in self._catalog
            if item.item_id not in self._positions
        )

    def remaining_indices(self) -> np.ndarray:
        """Catalog indices of the unvisited items, ascending (read-only).

        Ascending index order equals catalog order, so
        ``catalog.item_at`` over this array reproduces
        :meth:`remaining_items` exactly.  Computed once per plan state.
        """
        if self._remaining is None:
            index_map = self._catalog.index_map
            mask = np.ones(len(self._catalog), dtype=bool)
            for item_id in self._positions:
                idx = index_map.get(item_id)
                if idx is not None:
                    mask[idx] = False
            self._remaining = np.flatnonzero(mask)
            self._remaining.flags.writeable = False
        return self._remaining

    def step_memo(self, key: object, compute: Callable[[], object]) -> object:
        """``compute()``, memoized until the plan next changes.

        Lets the calls of one planning step share state derived from
        the current plan (the reward's per-step gate vectors) instead of
        recomputing it.
        """
        memo = self._step_memo
        value = memo.get(key)
        if value is None:
            value = memo[key] = compute()
        return value

    def similarity_state(
        self, template: InterleavingTemplate, mode: SimilarityMode
    ) -> IncrementalSimilarity:
        """The incremental Eq. 6/7 state for ``(template, mode)``.

        Created on first request (replaying the current prefix) and kept
        in sync by :meth:`add` / :meth:`reset` afterwards, so reward
        evaluations never rescan the prefix.
        """
        key = (id(template), mode.value)
        state = self._sim_states.get(key)
        if state is None:
            state = IncrementalSimilarity(template, mode)
            for item in self._items:
                state.append(item.item_type)
            self._sim_states[key] = state
        return state

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, item: Item) -> None:
        """Append ``item`` to the plan.

        Raises
        ------
        PlanningError
            If the item was already added (plans never repeat items —
            the agent "can go to any other items except the ones chosen
            already").
        """
        if item.item_id in self._positions:
            raise PlanningError(
                f"item {item.item_id!r} is already in the plan"
            )
        self._positions[item.item_id] = len(self._items)
        self._items.append(item)
        self._remaining = None
        self._step_memo.clear()
        self._topics |= item.topics
        self._total_credits += item.credits
        if item.is_primary:
            self._num_primary += 1
        for state in self._sim_states.values():
            state.append(item.item_type)

    def add_by_id(self, item_id: str) -> None:
        """Append the catalog item with the given id."""
        self.add(self._catalog[item_id])

    def build(self) -> Plan:
        """Freeze the current state into an immutable :class:`Plan`."""
        return Plan(items=tuple(self._items), catalog_name=self._catalog.name)

    def reset(self) -> None:
        """Clear all state for a fresh episode."""
        self._items.clear()
        self._positions.clear()
        self._topics.clear()
        self._total_credits = 0.0
        self._num_primary = 0
        self._sim_states.clear()
        self._remaining = None
        self._step_memo.clear()


def plan_from_ids(catalog: Catalog, item_ids: Sequence[str]) -> Plan:
    """Convenience: build a :class:`Plan` from a list of item ids."""
    builder = PlanBuilder(catalog)
    for item_id in item_ids:
        builder.add_by_id(item_id)
    return builder.build()
