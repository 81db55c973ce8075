"""The deterministic discrete CMDP environment of Section III-A.

States are items (nodes of the complete graph ``G``), actions add one
more item, transitions are deterministic, and episodes are bounded by
the trajectory size ``H``:

* **course mode** — ``H`` is derived from the credit requirement
  (e.g. 30 credits / 3 per course = 10 items); the episode ends after
  exactly ``H`` items,
* **trip mode** — the credit quantity is a *time budget*: the episode
  ends when the itinerary reaches the template length or when no
  remaining POI fits within the remaining visit time.

The environment never hides constraint information from the agent — all
constraint handling flows through the reward (Eq. 2), exactly as in the
paper.  The environment's only hard rules are "no repeated items" and the
episode bound.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

import numpy as np

from ..obs import get_registry
from .catalog import Catalog
from .config import PlannerConfig
from .constraints import CREDIT_TOLERANCE, TaskSpec
from .exceptions import PlanningError
from .items import Item
from .plan import Plan, PlanBuilder
from .reward import RewardFunction, batch_rewards


class DomainMode(enum.Enum):
    """Whether ``cr`` is a minimum (courses) or a budget (trips)."""

    COURSE = "course"
    TRIP = "trip"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def affordable_indices(
    task: TaskSpec, builder: PlanBuilder, candidates: np.ndarray
) -> np.ndarray:
    """The candidate catalog indices whose visit time fits the budget.

    The single trip-mode budget rule, shared by the environment and the
    greedy recommender: an item is affordable when its cost is within
    :data:`~repro.core.constraints.CREDIT_TOLERANCE` of what the plan
    has left.
    """
    budget_left = task.hard.min_credits - builder.total_credits
    credits = builder.catalog.columns.credits[candidates]
    return candidates[credits <= budget_left + CREDIT_TOLERANCE]


class TPPEnvironment:
    """Episodic environment for one (catalog, task) pair.

    Parameters
    ----------
    catalog:
        The item universe (nodes of ``G``).
    task:
        Hard + soft constraints.
    config:
        Planner configuration (the reward needs epsilon and the weights).
    mode:
        :class:`DomainMode.COURSE` or :class:`DomainMode.TRIP`.
    """

    def __init__(
        self,
        catalog: Catalog,
        task: TaskSpec,
        config: PlannerConfig,
        mode: DomainMode = DomainMode.COURSE,
        reward: Optional[RewardFunction] = None,
    ) -> None:
        self.catalog = catalog
        self.task = task
        self.config = config
        self.mode = mode
        # A custom reward (e.g. the feedback-adjusted wrapper) may be
        # injected; it must expose the step kernel's index entries,
        # ``mask_actions`` and ``reward_batch``.
        self.reward = reward if reward is not None else RewardFunction(
            task, config
        )
        self._builder: Optional[PlanBuilder] = None

    # ------------------------------------------------------------------
    # Episode lifecycle
    # ------------------------------------------------------------------

    @property
    def horizon(self) -> int:
        """The trajectory size ``H`` (template length = #primary+#secondary)."""
        return self.task.hard.plan_length

    def reset(self, start_item_id: str) -> Item:
        """Begin an episode at ``start_item_id`` and return that item."""
        item = self.catalog[start_item_id]
        self._builder = PlanBuilder(self.catalog)
        self._builder.add(item)
        get_registry().inc("env_episodes_total")
        return item

    @property
    def builder(self) -> PlanBuilder:
        """The live partial plan (raises before :meth:`reset`)."""
        if self._builder is None:
            raise PlanningError("environment not reset; call reset() first")
        return self._builder

    def action_indices(self) -> np.ndarray:
        """Catalog indices that may legally extend the current episode.

        Courses: any unvisited item.  Trips: any unvisited item whose
        visit time fits the remaining budget.  When
        ``config.mask_invalid_actions`` is on, the reward's tiered mask
        drops items failing the Eq. 3/4 gates (theta = 0) — unless that
        leaves nothing, so episodes never deadlock.  With
        ``config.candidate_top_k`` set (and a reward exposing the pruned
        path) the masked set is cut to the top-k candidates by reward,
        every boundary tie kept — the greedy argmax over the result is
        bit-identical to the unpruned path (see
        ``RewardFunction.mask_actions_pruned_idx``).
        """
        builder = self.builder
        idx = builder.remaining_indices()
        if self.mode is DomainMode.TRIP:
            idx = affordable_indices(self.task, builder, idx)
        if not self.config.mask_invalid_actions:
            return idx
        top_k = self.config.candidate_top_k
        pruner = getattr(self.reward, "mask_actions_pruned_idx", None)
        if top_k is not None and pruner is not None and idx.size > top_k:
            return pruner(builder, idx, top_k)
        return self.reward.mask_actions(builder, idx)

    def step(self, action: int) -> Tuple[float, bool]:
        """Append the item at catalog index ``action``; return
        (reward, done).

        The reward is the step kernel's Eq. 2 for that one index
        (:func:`~repro.core.reward.batch_rewards`) on the prefix before
        the item lands.  The kernel memoizes a state's r1/r2 vectors on
        the builder, so the mask that offered the action has already
        paid for them.
        """
        builder = self.builder
        item = self.catalog.item_at(action)
        if builder.contains(item.item_id):
            raise PlanningError(
                f"item {item.item_id!r} already visited this episode"
            )
        obs = get_registry()
        with obs.span("env.step"):
            reward = float(
                batch_rewards(
                    self.reward, builder, np.array([action], dtype=np.int64)
                )[0]
            )
            builder.add(item)
            done = self.is_done()
        obs.inc("env_steps_total")
        if reward == 0.0:
            obs.inc("env_zero_reward_steps_total")
        return reward, done

    def is_done(self) -> bool:
        """Episode termination check (length bound or exhausted budget)."""
        builder = self.builder
        if len(builder) >= self.horizon:
            return True
        if self.mode is DomainMode.TRIP:
            remaining = builder.remaining_indices()
            if affordable_indices(self.task, builder, remaining).size == 0:
                return True
        return len(builder) >= len(self.catalog)

    def current_plan(self) -> Plan:
        """Snapshot of the episode so far as an immutable plan."""
        return self.builder.build()
