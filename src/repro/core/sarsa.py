"""The SARSA learner of Algorithm 1 (learning phase).

The paper adapts on-policy SARSA: during an episode the behaviour policy
selects the next item by maximizing the *immediate Equation-2 reward*
(Algorithm 1 lines 4 and 9), while the Q-table is updated with the usual
on-policy temporal-difference rule (Eq. 9)

    Q(s, e) <- Q(s, e) + alpha * [ r + gamma * Q(s', e') - Q(s, e) ]

We additionally support epsilon-greedy exploration on top of the
reward-greedy choice (``PlannerConfig.exploration``), which breaks the
determinism of pure greedy rollouts and lets repeated episodes visit more
of the state space — with ``exploration=0`` the learner is exactly the
paper's algorithm.

The episode loop here is the only one: the alternative learners of
:mod:`repro.core.learners` reuse it and override just the update rule.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_registry
from .config import PlannerConfig
from .env import TPPEnvironment
from .exceptions import PlanningError
from .qtable import QTableBase, make_qtable
from .reward import batch_rewards

#: One recorded step ``(s, a, r, next candidates, next action)`` in
#: catalog indices.  The last two are None on the episode's final step
#: (done, or no legal action left).
Transition = Tuple[int, int, float, Optional[np.ndarray], Optional[int]]


class ActionSelection(enum.Enum):
    """Behaviour-policy flavour used while learning.

    REWARD_GREEDY is the paper's Algorithm 1 (argmax of immediate Eq. 2
    reward); Q_GREEDY is classic epsilon-greedy on the current Q-values
    (provided for the exploration ablation bench).
    """

    REWARD_GREEDY = "reward_greedy"
    Q_GREEDY = "q_greedy"


@dataclass
class EpisodeStats:
    """Per-episode learning diagnostics."""

    episode: int
    start_item_id: str
    length: int
    total_reward: float
    zero_reward_steps: int


@dataclass
class LearningResult:
    """Output of a learning run: the Q-table plus diagnostics."""

    qtable: QTableBase
    episodes: int
    elapsed_seconds: float
    stats: List[EpisodeStats] = field(default_factory=list)

    @property
    def mean_episode_reward(self) -> float:
        """Average cumulative reward per episode."""
        if not self.stats:
            return 0.0
        return sum(s.total_reward for s in self.stats) / len(self.stats)

    def reward_trace(self) -> List[float]:
        """Cumulative reward per episode in order (convergence plots)."""
        return [s.total_reward for s in self.stats]


class SarsaLearner:
    """On-policy SARSA over a :class:`TPPEnvironment`.

    Parameters
    ----------
    env:
        The episodic environment (catalog + task + reward).
    config:
        Hyper-parameters: episodes N, alpha, gamma, exploration epsilon,
        seed.
    selection:
        Behaviour-policy flavour; defaults to the paper's reward-greedy.
    registry:
        Explicit metrics sink; ``None`` resolves the process-active
        registry (:func:`repro.obs.get_registry`) at each :meth:`learn`
        call, so enabling observability after construction still takes
        effect.
    """

    def __init__(
        self,
        env: TPPEnvironment,
        config: PlannerConfig,
        selection: ActionSelection = ActionSelection.REWARD_GREEDY,
        registry=None,
    ) -> None:
        self.env = env
        self.config = config
        self.selection = selection
        self.registry = registry
        self._obs = registry if registry is not None else get_registry()
        self._rng = np.random.default_rng(config.seed)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    @property
    def rng_state(self) -> dict:
        """The behaviour-policy bit-generator state (JSON-serializable).

        Snapshotting this together with the Q-table and the episode
        counter is all a checkpoint needs: restoring it makes a resumed
        run draw the exact random sequence an uninterrupted run would.
        """
        return self._rng.bit_generator.state

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------

    def learn(
        self,
        start_item_ids: Optional[Sequence[str]] = None,
        episodes: Optional[int] = None,
        qtable: Optional[QTableBase] = None,
        on_episode: Optional[Callable[[EpisodeStats], None]] = None,
        start_episode: int = 0,
    ) -> LearningResult:
        """Run ``episodes`` learning episodes and return the Q-table.

        Parameters
        ----------
        start_item_ids:
            Pool of episode starting items; a start is drawn uniformly
            per episode.  Defaults to every item in the catalog, which
            matches "learns Q values ... with different starting states".
        episodes:
            Override of ``config.episodes``.
        qtable:
            Warm-start table (transfer learning / incremental training).
        on_episode:
            Optional callback receiving :class:`EpisodeStats`.
        start_episode:
            Offset applied to the episode numbers in the emitted stats
            (checkpointed training runs ``learn`` in chunks and keep a
            global episode counter across them).
        """
        catalog = self.env.catalog
        if start_item_ids is None:
            starts: Tuple[str, ...] = catalog.item_ids
        else:
            starts = tuple(start_item_ids)
            for item_id in starts:
                if item_id not in catalog:
                    raise PlanningError(
                        f"start item {item_id!r} not in catalog "
                        f"{catalog.name!r}"
                    )
        if not starts:
            raise PlanningError("empty start-item pool")

        n_episodes = episodes if episodes is not None else self.config.episodes
        table = (
            qtable
            if qtable is not None
            else make_qtable(catalog, backend=self.config.qtable_backend)
        )
        stats: List[EpisodeStats] = []
        obs = self._obs = (
            self.registry if self.registry is not None else get_registry()
        )
        t0 = time.perf_counter()
        with obs.span("sarsa.learn"):
            for episode in range(n_episodes):
                start_id = starts[int(self._rng.integers(len(starts)))]
                episode_stats = self._run_episode(
                    table, start_episode + episode, start_id
                )
                stats.append(episode_stats)
                obs.inc("sarsa_episodes_total")
                obs.set_gauge("sarsa_episode_reward", episode_stats.total_reward)
                obs.set_gauge("sarsa_episode_length", episode_stats.length)
                obs.set_gauge(
                    "sarsa_episode_zero_reward_steps",
                    episode_stats.zero_reward_steps,
                )
                if on_episode is not None:
                    on_episode(episode_stats)

        elapsed = time.perf_counter() - t0
        return LearningResult(
            qtable=table,
            episodes=n_episodes,
            elapsed_seconds=elapsed,
            stats=stats,
        )

    def _run_episode(
        self, table: QTableBase, episode: int, start_id: str
    ) -> EpisodeStats:
        """One episode: roll out the behaviour policy, then update.

        The rollout works on catalog indices end to end and records one
        :data:`Transition` per step; :meth:`_update` then applies the
        learner's rule over the trace.  Updating after the rollout is
        exact because an episode never revisits a state: the update of
        step ``(s, a)`` writes only row ``s``, which no later Q-greedy
        choice of the episode reads, and its bootstrap reads row ``a``,
        which only the next step's update writes.
        """
        env = self.env
        catalog = env.catalog
        s_idx = catalog.index_of(env.reset(start_id).item_id)
        candidates = env.action_indices()
        if candidates.size == 0:
            # Dead start: no step is ever taken.  The episode length is
            # whatever reset() seeded (an env may seed more than the
            # start item).
            self._obs.inc("sarsa_dead_start_episodes_total")
        a_idx = self._choose(table, s_idx, candidates) if candidates.size else None
        trace: List[Transition] = []
        total_reward = 0.0
        zero_steps = 0
        while a_idx is not None:
            reward, done = env.step(a_idx)
            self._obs.inc("sarsa_steps_total")
            total_reward += reward
            if reward == 0.0:
                zero_steps += 1
            candidates = None if done else env.action_indices()
            if candidates is None or candidates.size == 0:
                candidates = next_idx = None
            else:
                next_idx = self._choose(table, a_idx, candidates)
            trace.append((s_idx, a_idx, reward, candidates, next_idx))
            s_idx, a_idx = a_idx, next_idx
        self._update(table, trace)
        return EpisodeStats(
            episode=episode,
            start_item_id=start_id,
            length=len(env.builder),
            total_reward=total_reward,
            zero_reward_steps=zero_steps,
        )

    def _choose(
        self, table: QTableBase, s_idx: int, candidates: np.ndarray
    ) -> int:
        """The behaviour policy's next action among candidate indices.

        RNG order: the exploration coin (when epsilon > 0) and, if it
        fires, one uniform pick; otherwise the reward-greedy argmax of
        one ``batch_rewards`` call with a tie-break draw only when the
        maximum ties, or Q-greedy ``best_action_idx``, which draws its
        own tie-break.
        """
        rng = self._rng
        eps = self.config.exploration
        if eps > 0.0 and rng.random() < eps:
            return int(candidates[int(rng.integers(candidates.size))])
        if self.selection is ActionSelection.Q_GREEDY:
            return table.best_action_idx(s_idx, candidates, rng=rng)
        with self._obs.span("sarsa.batch_rewards"):
            rewards = batch_rewards(self.env.reward, self.env.builder, candidates)
        winners = np.flatnonzero(rewards == rewards.max())
        if winners.size == 1:
            return int(candidates[int(winners[0])])
        return int(candidates[int(winners[int(rng.integers(winners.size))])])

    # ------------------------------------------------------------------
    # Update rule (the one thing the alternative learners change)
    # ------------------------------------------------------------------

    def _update(self, table: QTableBase, trace: Sequence[Transition]) -> None:
        """TD updates in step order: target = r + gamma * bootstrap."""
        alpha = self.config.learning_rate
        gamma = self.config.discount
        for s_idx, a_idx, reward, candidates, next_idx in trace:
            target = reward
            if candidates is not None:
                target += gamma * self._bootstrap(
                    table, a_idx, candidates, next_idx
                )
            table.td_update(s_idx, a_idx, target, alpha)

    def _bootstrap(
        self,
        table: QTableBase,
        state: int,
        candidates: np.ndarray,
        action: int,
    ) -> float:
        """SARSA's on-policy bootstrap (Eq. 9): ``Q(s', a')``."""
        return table.q_value(state, action)
