"""Alternative model-free learners for the TPP CMDP.

Section III-C surveys the solution space — value/policy iteration,
Monte Carlo control, and temporal-difference methods — before settling
on SARSA.  This module implements the classic alternatives over the
same environment and Q-table so the choice can be measured instead of
asserted:

* :class:`QLearningLearner` — off-policy TD (the max-operator target),
* :class:`ExpectedSarsaLearner` — on-policy TD with the expectation
  target under the epsilon-greedy behaviour policy,
* :class:`MonteCarloLearner` — first-visit MC control with constant-
  alpha returns (no bootstrapping).

All three run :class:`SarsaLearner`'s one episode loop (behaviour
policy, start pools, diagnostics, the recorded transition trace) and
override only its update rule — a one-line bootstrap for the two TD
learners, the backward pass over returns for Monte Carlo — so the
comparison bench isolates exactly the paper's design decision.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from .config import PlannerConfig
from .env import TPPEnvironment
from .qtable import QTableBase
from .sarsa import ActionSelection, SarsaLearner, Transition


class QLearningLearner(SarsaLearner):
    """Off-policy Q-learning: target = r + gamma * max_a' Q(s', a').

    Identical rollouts to SARSA; only the bootstrap target changes, so
    any performance difference is attributable to on- vs off-policy
    bootstrapping.
    """

    def _bootstrap(
        self,
        table: QTableBase,
        state: int,
        candidates: np.ndarray,
        action: int,
    ) -> float:
        return float(table.row_values(state, candidates).max())


class ExpectedSarsaLearner(SarsaLearner):
    """Expected SARSA: target = r + gamma * E_pi[Q(s', .)].

    The expectation is taken under the epsilon-greedy distribution the
    behaviour policy actually follows (uniform epsilon mass plus the
    greedy remainder), removing SARSA's sampling variance in the target.
    """

    def _bootstrap(
        self,
        table: QTableBase,
        state: int,
        candidates: np.ndarray,
        action: int,
    ) -> float:
        values = table.row_values(state, candidates)
        if len(values) == 1:
            return float(values[0])
        eps = self.config.exploration
        return eps * float(values.mean()) + (1.0 - eps) * float(values.max())


class MonteCarloLearner(SarsaLearner):
    """First-visit constant-alpha Monte Carlo control.

    Each visited (state, action) pair is updated toward its observed
    discounted return, computed backward over the recorded episode.  No
    bootstrapping — the textbook contrast to the TD learners above.  An
    episode never revisits a state, so every visit is a first visit.
    """

    def _update(self, table: QTableBase, trace: Sequence[Transition]) -> None:
        g = 0.0
        for s_idx, a_idx, reward, _candidates, _next_idx in reversed(trace):
            g = reward + self.config.discount * g
            table.td_update(s_idx, a_idx, g, self.config.learning_rate)


LEARNERS: Dict[str, type] = {
    "sarsa": SarsaLearner,
    "q_learning": QLearningLearner,
    "expected_sarsa": ExpectedSarsaLearner,
    "monte_carlo": MonteCarloLearner,
}


def make_learner(
    name: str,
    env: TPPEnvironment,
    config: PlannerConfig,
    selection: ActionSelection = ActionSelection.REWARD_GREEDY,
) -> SarsaLearner:
    """Instantiate a learner by registry name (see :data:`LEARNERS`)."""
    try:
        cls = LEARNERS[name]
    except KeyError:
        raise ValueError(
            f"unknown learner {name!r}; available: {sorted(LEARNERS)}"
        ) from None
    return cls(env, config, selection=selection)
