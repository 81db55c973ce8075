"""Plan recommendation from a learned Q-table (Algorithm 1, lines 15-24).

Given a learned policy (Q-table) and a starting item, the recommender
greedily traverses the table: from the current item it picks the
unvisited item with the maximum Q-value, repeating until the sequence
holds ``H`` items (courses) or the time budget is exhausted (trips).

Two traversal strategies are provided:

* ``Q_ONLY`` — the literal Algorithm 1: argmax of the stored Q value.
* ``LOOKAHEAD`` (default) — argmax of ``R(s, a) + gamma * max_b Q(a, b)``:
  the same learned table supplies the long-horizon value, but the
  immediate term is recomputed in the *actual* plan context.  Because a
  state is only the last item, stored Q entries average over every
  prefix that ever reached that item; re-evaluating Eq. 2 against the
  true prefix removes that aliasing and recovers the paper's reported
  score levels (the ablation bench compares both).
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Tuple

import numpy as np

from .catalog import Catalog
from .constraints import TaskSpec
from .env import DomainMode, affordable_indices
from .exceptions import PlanningError, UntrainedPolicyError
from .items import Item
from .plan import Plan, PlanBuilder
from .qtable import QTableBase
from .config import RecommendationMode
from .reward import RewardFunction, batch_rewards

#: Two lookahead totals closer than this are tied: ``R + gamma * Q``
#: sums floats, so equal-valued actions can differ in the last bits.
TIE_TOLERANCE = 1e-12


class GreedyPolicy:
    """Greedy Q-table traversal producing a plan.

    Parameters
    ----------
    qtable:
        The learned action-value table.
    task:
        Hard/soft constraints (provides the horizon and the trip budget).
    mode:
        Course or trip semantics for episode termination.
    rng_seed:
        Seed for random tie-breaking among equal Q-values (None = catalog
        order, fully deterministic).
    reward:
        Optional :class:`RewardFunction`; when provided, actions failing
        its Eq. 3/4 gates are masked out at recommendation time (the
        "valid action" semantics of Section III-B-1), falling back to
        the unmasked set only when no gated action exists.
    """

    def __init__(
        self,
        qtable: QTableBase,
        task: TaskSpec,
        mode: DomainMode = DomainMode.COURSE,
        rng_seed: Optional[int] = None,
        reward: Optional[RewardFunction] = None,
        recommendation: RecommendationMode = RecommendationMode.LOOKAHEAD,
        discount: float = 0.95,
        mask: bool = True,
    ) -> None:
        self.qtable = qtable
        self.task = task
        self.mode = mode
        self.reward = reward
        self.recommendation = recommendation
        self.discount = discount
        self.mask = mask
        if recommendation is RecommendationMode.LOOKAHEAD and reward is None:
            raise PlanningError(
                "LOOKAHEAD recommendation needs a reward function"
            )
        self._rng = (
            np.random.default_rng(rng_seed) if rng_seed is not None else None
        )

    @property
    def catalog(self) -> Catalog:
        """The catalog the Q-table is defined over."""
        return self.qtable.catalog

    def recommend(
        self,
        start_item_id: str,
        horizon: Optional[int] = None,
        require_trained: bool = True,
        allowed_item_ids: Optional[FrozenSet[str]] = None,
    ) -> Plan:
        """Produce a plan of up to ``horizon`` items starting at the item.

        Parameters
        ----------
        start_item_id:
            The first item of the plan (``s_1`` of Table III).
        horizon:
            Override of the task's plan length (#primary + #secondary).
        require_trained:
            When True, refuse to recommend from a never-updated table
            (all-zero Q would otherwise yield an arbitrary plan).
        allowed_item_ids:
            Optional availability filter: only these ids may be chosen
            (and only they contribute continuation value).  Lets a
            policy trained on the full catalog serve a live universe
            where some items have closed, without retraining.
        """
        catalog = self.catalog
        if start_item_id not in catalog:
            raise PlanningError(
                f"start item {start_item_id!r} not in catalog "
                f"{catalog.name!r}"
            )
        if (
            allowed_item_ids is not None
            and start_item_id not in allowed_item_ids
        ):
            raise PlanningError(
                f"start item {start_item_id!r} is not in the allowed "
                f"(live) item set"
            )
        h = horizon if horizon is not None else self.task.hard.plan_length
        self._check_trained(require_trained, h)
        builder = PlanBuilder(catalog)
        builder.add(catalog[start_item_id])
        return self._extend(builder, start_item_id, h, allowed_item_ids)

    def complete(
        self,
        prefix_items: Sequence[Item],
        horizon: Optional[int] = None,
        require_trained: bool = True,
        allowed_item_ids: Optional[FrozenSet[str]] = None,
    ) -> Plan:
        """Extend a committed plan prefix to the horizon.

        The prefix items are placed verbatim (they may even be absent
        from the live universe — history is immutable); the traversal
        then continues from the last prefix item exactly as
        :meth:`recommend` would, optionally restricted to
        ``allowed_item_ids``.  Used by mid-plan replanning to redo only
        the suffix after an availability delta.
        """
        prefix = tuple(prefix_items)
        if not prefix:
            raise PlanningError("complete() requires a non-empty prefix")
        h = horizon if horizon is not None else self.task.hard.plan_length
        self._check_trained(require_trained, h)
        builder = PlanBuilder(self.catalog)
        for item in prefix:
            builder.add(item)
        return self._extend(builder, prefix[-1].item_id, h, allowed_item_ids)

    def _check_trained(self, require_trained: bool, horizon: int) -> None:
        if require_trained and self.qtable.update_count == 0 and horizon > 1:
            raise UntrainedPolicyError(
                "the Q-table has never been updated; train first or pass "
                "require_trained=False"
            )

    def _extend(
        self,
        builder: PlanBuilder,
        current: str,
        horizon: int,
        allowed_item_ids: Optional[FrozenSet[str]],
    ) -> Plan:
        catalog = self.catalog
        allowed = None
        if allowed_item_ids is not None:
            allowed = np.fromiter(
                (item.item_id in allowed_item_ids for item in catalog),
                dtype=bool,
                count=len(catalog),
            )
        while len(builder) < horizon:
            cand_idx = self._allowed_actions(builder, allowed)
            if cand_idx.size == 0:
                break
            if self.recommendation is RecommendationMode.LOOKAHEAD:
                chosen = self._lookahead_choice(builder, cand_idx, allowed)
            else:
                chosen = self._q_only_choice(current, cand_idx)
            item = catalog.item_at(chosen)
            builder.add(item)
            current = item.item_id

        return builder.build()

    def _q_only_choice(self, current: str, cand_idx: np.ndarray) -> int:
        """Literal Algorithm-1 argmax of the stored Q row.

        Runs on catalog indices (``best_action_idx``); the id-based
        ``best_action`` — same winner set, order, and tie-break draws —
        remains the path when ``current`` is a foreign prefix item
        outside the catalog index.
        """
        catalog = self.catalog
        state_idx = catalog.index_map.get(current)
        if state_idx is None:
            ids = [catalog.item_at(i).item_id for i in cand_idx.tolist()]
            chosen = self.qtable.best_action(current, ids, rng=self._rng)
            return catalog.index_of(chosen)
        return self.qtable.best_action_idx(state_idx, cand_idx, rng=self._rng)

    def _lookahead_choice(
        self,
        builder: PlanBuilder,
        cand_idx: np.ndarray,
        allowed: Optional[np.ndarray] = None,
    ) -> int:
        """argmax over a of ``R(s, a) + gamma * max_b Q(a, b)``.

        The immediate term comes from the batched reward engine and the
        continuation term from the backend's ``best_continuation``;
        ``allowed`` (a mask over the catalog) keeps closed items out of
        the continuation too.  Ties follow :func:`_tied_best`.
        """
        remaining_idx = builder.remaining_indices()
        if allowed is not None:
            remaining_idx = remaining_idx[allowed[remaining_idx]]
        future = self.qtable.best_continuation(cand_idx, remaining_idx)
        rewards = batch_rewards(self.reward, builder, cand_idx)
        winners = _tied_best(rewards + self.discount * future)
        if winners.size > 1 and self._rng is not None:
            return int(cand_idx[winners[int(self._rng.integers(winners.size))]])
        return int(cand_idx[winners[0]])

    def _allowed_actions(
        self, builder: PlanBuilder, allowed: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Unvisited catalog indices (only ``allowed`` ones; trip mode:
        within the time budget), gate-masked when a reward is attached."""
        cand_idx = builder.remaining_indices()
        if allowed is not None:
            cand_idx = cand_idx[allowed[cand_idx]]
        if self.mode is DomainMode.TRIP:
            cand_idx = affordable_indices(self.task, builder, cand_idx)
        if self.mask and self.reward is not None:
            return self.reward.mask_actions(builder, cand_idx)
        return cand_idx

    def recommend_many(
        self, start_item_ids: Sequence[str], horizon: Optional[int] = None
    ) -> Tuple[Plan, ...]:
        """Recommend one plan per starting item."""
        return tuple(
            self.recommend(start, horizon=horizon) for start in start_item_ids
        )


def _tied_best(totals: np.ndarray) -> np.ndarray:
    """Positions kept by the sequential tie rule over ``totals``.

    The rule walks the totals in order: one above the running best by
    more than :data:`TIE_TOLERANCE` restarts the winners, one within it
    joins them.  Only the top cluster — totals down to the first gap
    wider than the tolerance, as both float forms of the rule see it —
    can affect the outcome: the first of them to arrive restarts the
    winners over anything before it, and nothing below the gap can join
    or restart after it.  So the rule runs on that cluster alone.  NaN
    never wins; when every total is NaN, every position ties.
    """
    finite = ~np.isnan(totals)
    if not finite.any():
        return np.arange(totals.size)
    values = np.sort(totals[finite])[::-1]
    gaps = np.flatnonzero(
        (values[:-1] - values[1:] > TIE_TOLERANCE)
        & (values[:-1] > values[1:] + TIE_TOLERANCE)
    )
    floor = values[gaps[0]] if gaps.size else values[-1]
    top = np.flatnonzero(totals >= floor)
    if values[0] == floor and np.isfinite(floor):
        return top
    best = -np.inf
    winners: list = []
    for pos, total in zip(top.tolist(), totals[top].tolist()):
        if total > best + TIE_TOLERANCE:
            best = total
            winners = [pos]
        elif abs(total - best) <= TIE_TOLERANCE:
            winners.append(pos)
    return np.asarray(winners) if winners else np.arange(totals.size)
