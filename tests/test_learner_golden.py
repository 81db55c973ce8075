"""Golden digests of every learner's training on NJIT CS and Paris.

Q-learning, expected SARSA and Monte Carlo differ from SARSA only in
their update rule, and the behaviour policy (exploration coin, uniform
pick, reward-greedy or Q-greedy choice with its tie-break draw) is
shared by all of them.  For fixed seeds the trained Q-table and the
per-episode statistics must stay bit-identical; a change to any chosen
item, any RNG draw or any learned Q entry changes a digest.

Cases: all four learners under both behaviour policies (the paper's
reward-greedy selection and Q-greedy selection), plus SARSA trained
through a :class:`FeedbackAdjustedReward` whose store endorses,
dislikes and rejects a few items.  Each runs on the dataset's default
config (500 episodes, exploration 0.1).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.env import TPPEnvironment
from repro.core.learners import LEARNERS, make_learner
from repro.core.reward import RewardFunction
from repro.core.sarsa import ActionSelection
from repro.datasets import load
from repro.feedback.adapter import FeedbackAdjustedReward
from repro.feedback.models import Feedback
from repro.feedback.store import FeedbackStore

pytestmark = pytest.mark.slow

#: case -> (learner name, behaviour policy, train through feedback)
CASES = {
    f"{name}/{selection.value}": (name, selection, False)
    for name in LEARNERS
    for selection in ActionSelection
}
CASES["sarsa/feedback"] = ("sarsa", ActionSelection.REWARD_GREEDY, True)


def _feedback_reward(catalog, task, config):
    """The base reward wrapped over a store with mixed, rejecting feedback."""
    store = FeedbackStore()
    ids = catalog.item_ids
    for position, utility in ((1, 1.0), (3, -1.0), (5, 0.6), (8, -0.4)):
        store.add(Feedback(ids[position % len(ids)], utility=utility))
    return FeedbackAdjustedReward(RewardFunction(task, config), store)


def _digests(dataset_name, case):
    """(table digest, episode-stats digest) for one training run."""
    learner_name, selection, feedback = CASES[case]
    dataset = load(dataset_name, seed=0, with_gold=False)
    catalog, task, config = (
        dataset.catalog, dataset.task, dataset.default_config
    )
    reward = _feedback_reward(catalog, task, config) if feedback else None
    env = TPPEnvironment(catalog, task, config, dataset.mode, reward=reward)
    result = make_learner(
        learner_name, env, config, selection=selection
    ).learn()
    table = hashlib.sha256()
    for (state, action), value in sorted(result.qtable.to_entries().items()):
        table.update(f"{state}>{action}={value!r};".encode())
    stats = hashlib.sha256()
    for s in result.stats:
        stats.update(
            f"{s.episode}:{s.start_item_id}:{s.length}:"
            f"{s.total_reward!r}:{s.zero_reward_steps};".encode()
        )
    return table.hexdigest(), stats.hexdigest()


GOLDEN = {
    ("njit_cs", "expected_sarsa/q_greedy"): (
        "9788de7aee11031094ce5f037af6e04e4b225b760065d4d13148f474f784bcfc",
        "e251324a31a1afa77c7f82362e8b48a275d8474fb4d08d8e7a3e379d4a65bae5",
    ),
    ("njit_cs", "expected_sarsa/reward_greedy"): (
        "24f3145f8468526431f07f2617c31d044a2892bf9e4bd7fe528ae119552313da",
        "bc56e500df940297cc8025ee8e54f34d1fd729cfbb52f1cdb740c4b0209069b1",
    ),
    ("njit_cs", "monte_carlo/q_greedy"): (
        "b5f979f44c92e77ef2bfe75bf1ac17a585269ecac5145541bd4920a540ccb3a5",
        "21ea7b04704e1ae8ebc0f76c151b0a3ba23e778fa8b94d8e0ab6215cb0b18de1",
    ),
    ("njit_cs", "monte_carlo/reward_greedy"): (
        "b49abc97403407a1ce9977f2fbb988d24a40b493c5aa77b339eff6f8cdb169f2",
        "bc56e500df940297cc8025ee8e54f34d1fd729cfbb52f1cdb740c4b0209069b1",
    ),
    ("njit_cs", "q_learning/q_greedy"): (
        "52733a16b7270118ac6297f83fe2443926bd3727d6afce84a9991848df8dac9b",
        "81ac06d54f86de005d4dc2a8c79687c348aee0788efd78b7631da04ab0e29c9f",
    ),
    ("njit_cs", "q_learning/reward_greedy"): (
        "20780da5c26b7fb36d5818e17e11733b28f406a789c4a1aed3b2736a91e538e5",
        "bc56e500df940297cc8025ee8e54f34d1fd729cfbb52f1cdb740c4b0209069b1",
    ),
    ("njit_cs", "sarsa/feedback"): (
        "207fa07fa3d16483fc2c3eb6732eb0d3365f83d801415e722b89ea7f339cebb6",
        "73aeaf7b6a7dd9d916c1ed1330f5b7733af26629ee8e5b212aa5848ba80473d9",
    ),
    ("njit_cs", "sarsa/q_greedy"): (
        "abbc54ea8182729c4c215c9386810d7f910958251c51a1fe974168b15a28629a",
        "25e41b1f379e81cdf2e69e2cfffbb77381ae4b6f2abf6fa14cb97fe2c0791639",
    ),
    ("njit_cs", "sarsa/reward_greedy"): (
        "b4f5ed142309ff532185d7db6427b4911c6b6909c2d6cdd1d14be8499cd75376",
        "bc56e500df940297cc8025ee8e54f34d1fd729cfbb52f1cdb740c4b0209069b1",
    ),
    ("paris", "expected_sarsa/q_greedy"): (
        "a26913f1e67bad6511ce40c2a40116d3f9e85038b89dad5f87cd10edd4f8faa0",
        "db9d19749c4d878258095cae377039c1dfd7a24b71e7790e7930df24a8fe1f2a",
    ),
    ("paris", "expected_sarsa/reward_greedy"): (
        "f2e487bd5eb324edc55898bb12748de43a94b92a1383cdf1fa682db962f21448",
        "488f7b42b8a9c90d2b5a0549ba102058d32b5973cd4dc19ba217d5cfb1f391c8",
    ),
    ("paris", "monte_carlo/q_greedy"): (
        "4a015f0c8fa5e3729aa55b251908a3a7c07c199b0884d35eb21e00299cd1c002",
        "d0f60307982d93a09842fef5ba1f228ed615fb4ea9377d328b596d54bf5d2f0f",
    ),
    ("paris", "monte_carlo/reward_greedy"): (
        "160c74e6bff11db2196e4222d9267f27335d31106a6567a6b99f87e7da858601",
        "488f7b42b8a9c90d2b5a0549ba102058d32b5973cd4dc19ba217d5cfb1f391c8",
    ),
    ("paris", "q_learning/q_greedy"): (
        "56ab93dbb75d0e768a73ccb8526c4de14751e857bbb3db962f757934aedd810d",
        "1af0486e122028c7fab448ca3736ae354f52a8023ba0cd8005e53e2703ca4745",
    ),
    ("paris", "q_learning/reward_greedy"): (
        "a0f614b9a81969968a444cda3f4ad8c8c159b34f25bac94abd684b46164afcab",
        "488f7b42b8a9c90d2b5a0549ba102058d32b5973cd4dc19ba217d5cfb1f391c8",
    ),
    ("paris", "sarsa/feedback"): (
        "45a3f6917147e0fed15c46d7fd94de95758fec4126b68e84e75df987d0926f56",
        "efd5af5ee4cd55d61be4e0d1294558a53bce523ea063035f34fcaeb1b1a7121c",
    ),
    ("paris", "sarsa/q_greedy"): (
        "243286075b91b3a6a7dd3c40e1ac5a097caa4dfd73508a0bfad8f432cb0fc3a4",
        "7606729586fb20bbf3276013419c3ccad2f5619d966d67ab9d37e157a678a185",
    ),
    ("paris", "sarsa/reward_greedy"): (
        "2522beb1cfb39bc47786007983b1f3cdcaa7dfe20ba7069e98c8e7fb3111bacf",
        "488f7b42b8a9c90d2b5a0549ba102058d32b5973cd4dc19ba217d5cfb1f391c8",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("dataset_name", ("njit_cs", "paris"))
def test_learner_training_matches_golden(dataset_name, case):
    assert _digests(dataset_name, case) == GOLDEN[(dataset_name, case)]


if __name__ == "__main__":  # pragma: no cover - regenerates the literals
    for dataset_name in ("njit_cs", "paris"):
        for case in sorted(CASES):
            print(
                f"    ({dataset_name!r}, {case!r}): "
                f"{_digests(dataset_name, case)!r},"
            )
