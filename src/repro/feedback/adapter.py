"""Feedback-adjusted reward: folding preferences into Equation 2.

The adapter wraps a base :class:`~repro.core.reward.RewardFunction` and
adds a preference term to gated-in actions:

    R'(s, e, s') = theta * [ delta*Sim + beta*weight
                             + phi * preference(item) ]

where ``phi`` is the feedback weight and ``preference`` comes from the
:class:`~repro.feedback.store.FeedbackStore`.  The theta gate is
untouched — feedback can re-rank valid actions but never launder an
invalid one — and strongly rejected items are additionally masked out
of the action set, mirroring how an advisor simply stops suggesting a
course the student refused.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.items import Item
from ..core.plan import PlanBuilder
from ..core.reward import RewardBreakdown, RewardFunction
from .store import FeedbackStore


class FeedbackAdjustedReward:
    """RewardFunction-compatible wrapper adding a preference term.

    Parameters
    ----------
    base:
        The Equation-2 reward being wrapped.
    store:
        Live feedback store (shared with the session driving it).
    feedback_weight:
        ``phi`` — how strongly preference shifts the reward.
    reject_threshold:
        Items at/below this preference are masked from the action set
        entirely (None disables hard rejection).
    """

    def __init__(
        self,
        base: RewardFunction,
        store: FeedbackStore,
        feedback_weight: float = 0.3,
        reject_threshold: Optional[float] = -0.5,
    ) -> None:
        self.base = base
        self.store = store
        self.feedback_weight = feedback_weight
        self.reject_threshold = reject_threshold

    # ------------------------------------------------------------------
    # RewardFunction interface (delegated gates, adjusted total)
    # ------------------------------------------------------------------

    @property
    def task(self):
        """The wrapped task (RewardFunction interface)."""
        return self.base.task

    @property
    def config(self):
        """The wrapped config (RewardFunction interface)."""
        return self.base.config

    def coverage_gate(self, builder: PlanBuilder, item: Item) -> int:
        """Delegates r1 to the base reward."""
        return self.base.coverage_gate(builder, item)

    def gap_gate(self, builder: PlanBuilder, item: Item) -> int:
        """Delegates r2 to the base reward."""
        return self.base.gap_gate(builder, item)

    def feasibility_gate(self, builder: PlanBuilder, item: Item) -> bool:
        """Delegates the lookahead feasibility mask."""
        return self.base.feasibility_gate(builder, item)

    def type_weight(self, item: Item) -> float:
        """Delegates the type/category weight."""
        return self.base.type_weight(item)

    def best_possible(self) -> float:
        """Single-step bound including the maximal preference bonus."""
        return self.base.best_possible() + self.feedback_weight

    def breakdown(self, builder: PlanBuilder, item: Item) -> RewardBreakdown:
        """Base breakdown with the preference term folded into total."""
        base = self.base.breakdown(builder, item)
        if base.theta == 0:
            return base
        bonus = self.feedback_weight * self.store.preference(item.item_id)
        return RewardBreakdown(
            r1_coverage=base.r1_coverage,
            r2_gap=base.r2_gap,
            similarity=base.similarity,
            type_weight=base.type_weight,
            total=max(0.0, base.total + bonus),
        )

    def __call__(self, builder: PlanBuilder, item: Item) -> float:
        """Adjusted Equation-2 value."""
        return self.breakdown(builder, item).total

    def reward_batch(self, builder: PlanBuilder, candidates) -> np.ndarray:
        """Vectorized adjusted rewards (batched base + preference term).

        ``candidates`` are catalog indices or Items.  Matches the
        per-item :meth:`__call__` exactly: the preference bonus applies
        only to theta-gated-in actions and the adjusted total is clamped
        at zero.
        """
        if not isinstance(candidates, np.ndarray):
            candidates = tuple(candidates)
        theta, _sims, _weights, totals = self.base.batch_components(
            builder, candidates
        )
        if not len(candidates):
            return totals
        prefs = self._preferences(builder, candidates)
        adjusted = np.maximum(0.0, totals + self.feedback_weight * prefs)
        return np.where(theta, adjusted, totals)

    def mask_actions(self, builder: PlanBuilder, candidates):
        """Base tiered masking plus hard rejection of refused items.

        Takes catalog indices or Items and answers in the same form.
        """
        if not isinstance(candidates, np.ndarray):
            candidates = tuple(candidates)
        if self.reject_threshold is not None and len(candidates):
            keep = self._preferences(builder, candidates) > self.reject_threshold
            if keep.any():
                candidates = (
                    candidates[keep]
                    if isinstance(candidates, np.ndarray)
                    else tuple(
                        item for item, ok in zip(candidates, keep) if ok
                    )
                )
        return self.base.mask_actions(builder, candidates)

    def _preferences(self, builder: PlanBuilder, candidates) -> np.ndarray:
        """Stored preference of each candidate (indices or Items)."""
        if isinstance(candidates, np.ndarray):
            item_at = builder.catalog.item_at
            ids = [item_at(i).item_id for i in candidates.tolist()]
        else:
            ids = [item.item_id for item in candidates]
        preference = self.store.preference
        return np.fromiter(
            (preference(item_id) for item_id in ids),
            dtype=np.float64,
            count=len(ids),
        )
