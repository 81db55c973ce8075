"""The RL-Planner facade: the library's primary public entry point.

Typical use::

    from repro import RLPlanner, PlannerConfig
    from repro.datasets import load_univ1_dsct

    dataset = load_univ1_dsct(seed=7)
    planner = RLPlanner(dataset.catalog, dataset.task,
                        config=PlannerConfig.univ1_default())
    planner.fit()
    plan = planner.recommend(dataset.default_start)
    print(plan.describe(), planner.score(plan).value)

The facade wires the environment, SARSA learner, greedy recommender,
scorer, and transfer helpers behind a small API.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .catalog import Catalog
from .config import PlannerConfig, RecommendationMode
from .constraints import TaskSpec
from .env import DomainMode, TPPEnvironment
from .exceptions import UntrainedPolicyError
from .items import Item
from .plan import Plan
from .policy import GreedyPolicy
from .qtable import QTableBase
from .reward import RewardFunction
from .sarsa import ActionSelection, LearningResult
from .scoring import PlanScore, PlanScorer
from .transfer import TransferResult, transfer_policy


class RLPlanner:
    """End-to-end RL-Planner for one (catalog, task) pair.

    Parameters
    ----------
    catalog:
        The item universe.
    task:
        Hard + soft constraints.
    config:
        Hyper-parameters (defaults to :meth:`PlannerConfig.univ1_default`
        semantics via the plain :class:`PlannerConfig` constructor).
    mode:
        Course or trip episode semantics.
    selection:
        Learning behaviour policy (paper default: reward-greedy).
    """

    def __init__(
        self,
        catalog: Catalog,
        task: TaskSpec,
        config: Optional[PlannerConfig] = None,
        mode: DomainMode = DomainMode.COURSE,
        selection: ActionSelection = ActionSelection.REWARD_GREEDY,
        learner: str = "sarsa",
    ) -> None:
        self.catalog = catalog
        self.task = task
        self.config = config if config is not None else PlannerConfig()
        self.mode = mode
        self.selection = selection
        self.learner_name = learner
        self.env = TPPEnvironment(catalog, task, self.config, mode=mode)
        self.scorer = PlanScorer(task, mode=mode)
        self._qtable: Optional[QTableBase] = None
        self._last_result: Optional[LearningResult] = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(
        self,
        start_item_ids: Optional[Sequence[str]] = None,
        episodes: Optional[int] = None,
        warm_start: Optional[QTableBase] = None,
    ) -> LearningResult:
        """Learn a policy and keep the resulting Q-table.

        The learning algorithm is chosen by the constructor's
        ``learner`` name ("sarsa" — the paper's choice — or
        "q_learning" / "expected_sarsa" / "monte_carlo" for the
        solver-comparison bench).
        """
        from .learners import make_learner

        learner = make_learner(
            self.learner_name, self.env, self.config,
            selection=self.selection,
        )
        result = learner.learn(
            start_item_ids=start_item_ids,
            episodes=episodes,
            qtable=warm_start,
        )
        self._qtable = result.qtable
        self._last_result = result
        return result

    @property
    def is_fitted(self) -> bool:
        """True after :meth:`fit` (or after adopting a transferred table)."""
        return self._qtable is not None

    @property
    def qtable(self) -> QTableBase:
        """The learned Q-table (raises before training)."""
        if self._qtable is None:
            raise UntrainedPolicyError("call fit() before accessing qtable")
        return self._qtable

    @property
    def last_learning_result(self) -> Optional[LearningResult]:
        """Diagnostics of the most recent :meth:`fit` call."""
        return self._last_result

    def reward_function(self) -> RewardFunction:
        """The Equation-2 reward bound to this planner's task/config."""
        return self.env.reward

    # ------------------------------------------------------------------
    # Recommendation & scoring
    # ------------------------------------------------------------------

    def recommend(
        self, start_item_id: str, horizon: Optional[int] = None
    ) -> Plan:
        """Greedy Q-traversal plan from ``start_item_id`` (Algorithm 1).

        With ``config.portfolio`` (the default) two traversals are rolled
        out — the configured lookahead and the pure gated-greedy
        (lookahead weight 0) — and the plan scoring higher under the
        task's own scorer is returned.
        """
        return self.recommend_scored(start_item_id, horizon=horizon)[0]

    def _portfolio_weights(self) -> Sequence[float]:
        """Lookahead weights the recommendation portfolio rolls out."""
        weights = [self._effective_lookahead_weight()]
        if (
            self.config.portfolio
            and self.config.recommendation is RecommendationMode.LOOKAHEAD
            and weights[0] != 0.0
        ):
            weights.append(0.0)
        return weights

    def _effective_lookahead_weight(self) -> float:
        if self.config.lookahead_weight is not None:
            return self.config.lookahead_weight
        return self.config.discount

    def _build_policy(self, lookahead_weight: float) -> GreedyPolicy:
        needs_reward = (
            self.config.mask_invalid_actions
            or self.config.recommendation is RecommendationMode.LOOKAHEAD
        )
        return GreedyPolicy(
            self.qtable,
            self.task,
            mode=self.mode,
            rng_seed=self.config.seed,
            reward=self.env.reward if needs_reward else None,
            recommendation=self.config.recommendation,
            discount=lookahead_weight,
            mask=self.config.mask_invalid_actions,
        )

    def recommend_scored(
        self, start_item_id: str, horizon: Optional[int] = None
    ) -> Tuple[Plan, PlanScore]:
        """:meth:`recommend` plus the winning plan's score."""
        plan, score, _ = self.recommend_anytime([start_item_id], horizon)
        return plan, score

    def recommend_best(
        self,
        start_item_ids: Optional[Sequence[str]] = None,
        horizon: Optional[int] = None,
    ) -> Tuple[Plan, PlanScore]:
        """Best-scoring plan over several starting items.

        The paper traverses the Q-table "with different starting
        states"; this helper does exactly that and keeps the winner
        (valid beats invalid, then higher score).  ``start_item_ids``
        defaults to every primary item without prerequisites — the
        items a plan can realistically open with.
        """
        plan, score, _ = self.recommend_anytime(start_item_ids, horizon)
        return plan, score

    def recommend_anytime(
        self,
        start_item_ids: Optional[Sequence[str]] = None,
        horizon: Optional[int] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        stop_when_valid: bool = False,
        allowed_item_ids: Optional[FrozenSet[str]] = None,
    ) -> Tuple[Optional[Plan], Optional[PlanScore], bool]:
        """Best-so-far recommendation under a stop callback.

        Sweeps the same (start, lookahead-weight) rollouts as
        :meth:`recommend_best`, but checks ``should_stop`` before each
        rollout and returns the best snapshot found so far the moment it
        fires — the anytime contract the serving layer's deadline needs.
        A single rollout is never preempted mid-flight (they are
        milliseconds), so the callback granularity is one rollout.

        ``allowed_item_ids`` restricts every rollout to a live subset of
        the training catalog (availability churn serving a stale policy).

        Returns ``(plan, score, exhausted)``; ``plan`` is ``None`` when
        the callback fired before the first rollout completed, and
        ``exhausted`` is True when every rollout ran (i.e. the result
        matches :meth:`recommend_best`).  With ``stop_when_valid`` the
        sweep additionally short-circuits after the first start whose
        best rollout is hard-constraint valid.
        """
        if start_item_ids is None:
            start_item_ids = self._openers(allowed_item_ids)
        return self._sweep(
            start_item_ids,
            lambda policy, start: policy.recommend(
                start, horizon=horizon, allowed_item_ids=allowed_item_ids
            ),
            should_stop=should_stop,
            stop_when_valid=stop_when_valid,
        )

    def complete_plan(
        self,
        prefix_items: Sequence[Item],
        horizon: Optional[int] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        allowed_item_ids: Optional[FrozenSet[str]] = None,
        scorer: Optional[PlanScorer] = None,
    ) -> Tuple[Optional[Plan], Optional[PlanScore], bool]:
        """Anytime portfolio completion of a committed plan prefix.

        Rolls the lookahead-weight portfolio over
        :meth:`GreedyPolicy.complete` — the prefix stays verbatim, only
        the suffix varies — and keeps the best-scoring completion.  A
        caller-supplied ``scorer`` lets a replan session judge
        completions under *its* (possibly delta-updated) task rather
        than the planner's training task.  Same anytime contract and
        return shape as :meth:`recommend_anytime`.
        """
        return self._sweep(
            [prefix_items],
            lambda policy, prefix: policy.complete(
                prefix, horizon=horizon, allowed_item_ids=allowed_item_ids
            ),
            should_stop=should_stop,
            scorer=scorer,
        )

    def _openers(
        self, allowed_item_ids: Optional[FrozenSet[str]] = None
    ) -> List[str]:
        """Primary items without prerequisites, live ones only when
        ``allowed_item_ids`` is given; the first catalog item if none."""
        return [
            item.item_id
            for item in self.catalog.primaries()
            if item.prerequisites.is_empty
            and (allowed_item_ids is None or item.item_id in allowed_item_ids)
        ] or [self.catalog.items[0].item_id]

    def _sweep(
        self,
        starts: Sequence,
        rollout: Callable[[GreedyPolicy, object], Plan],
        should_stop: Optional[Callable[[], bool]] = None,
        stop_when_valid: bool = False,
        scorer: Optional[PlanScorer] = None,
    ) -> Tuple[Optional[Plan], Optional[PlanScore], bool]:
        """The portfolio loop: one rollout per (start, lookahead weight).

        Keeps the plan with the largest ``(is_valid, value, raw_value)``
        under ``scorer`` (default: the planner's own), the first of
        equals winning, under :meth:`recommend_anytime`'s anytime
        contract and return shape.
        """
        judge = scorer if scorer is not None else self.scorer
        weights = self._portfolio_weights()
        best: Tuple[Optional[Plan], Optional[PlanScore]] = (None, None)
        best_key = None
        for position, start in enumerate(starts):
            for weight in weights:
                if should_stop is not None and should_stop():
                    return best + (False,)
                plan = rollout(self._build_policy(weight), start)
                score = judge.score(plan)
                key = (score.is_valid, score.value, score.raw_value)
                if best_key is None or key > best_key:
                    best_key = key
                    best = (plan, score)
            if stop_when_valid and best[1] is not None and best[1].is_valid:
                return best + (position == len(starts) - 1,)
        return best + (True,)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save_policy(self, path) -> None:
        """Write the learned Q-table to a JSON file."""
        from .serialization import save_policy

        save_policy(self.qtable, path)

    def load_policy(self, path, strict: bool = False) -> None:
        """Load a previously saved Q-table for this catalog."""
        from .serialization import load_policy

        self._qtable = load_policy(path, self.catalog, strict=strict)

    def score(self, plan: Plan) -> PlanScore:
        """Score any plan under this planner's task (Section IV-A)."""
        return self.scorer.score(plan)

    # ------------------------------------------------------------------
    # Transfer learning
    # ------------------------------------------------------------------

    def transfer_to(
        self,
        target_catalog: Catalog,
        target_task: TaskSpec,
        strategy: str = "auto",
        config: Optional[PlannerConfig] = None,
    ) -> Tuple["RLPlanner", TransferResult]:
        """Build a planner for another task seeded with this policy.

        Returns the new planner (already fitted with the transferred
        table — no additional learning is run, matching Section IV-D) and
        the transfer diagnostics.
        """
        result = transfer_policy(self.qtable, target_catalog, strategy=strategy)
        target = RLPlanner(
            target_catalog,
            target_task,
            config=config if config is not None else self.config,
            mode=self.mode,
            selection=self.selection,
        )
        target._qtable = result.qtable
        return target, result

    def adopt_policy(self, qtable: QTableBase) -> None:
        """Install an externally produced Q-table (e.g. deserialized)."""
        if qtable.catalog is not self.catalog and set(
            qtable.catalog.item_ids
        ) != set(self.catalog.item_ids):
            raise UntrainedPolicyError(
                "adopted Q-table indexes a different catalog; use "
                "transfer_to() instead"
            )
        self._qtable = qtable

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def policy_entries(self) -> Dict[Tuple[str, str], float]:
        """Sparse (state_id, action_id) -> Q snapshot of the policy."""
        return self.qtable.to_entries()

    def __repr__(self) -> str:  # pragma: no cover - display helper
        fitted = "fitted" if self.is_fitted else "unfitted"
        return (
            f"RLPlanner(catalog={self.catalog.name!r}, task="
            f"{self.task.name!r}, mode={self.mode.value}, {fitted})"
        )
