"""Scaled-learning-core regression suite (sparse backend, pruning,
episode batching) plus the Q-table/catalog bugfix sweep.

Covers:

* backend selection (``auto`` / explicit / threshold) and config knobs,
* ``copy()`` carrying ``skipped_on_load`` (regression),
* dense ``to_entries`` correctness incl. touched-zero and raw-array
  writes (regression for the dense-temporaries rewrite),
* ``Catalog.subset`` / ``subset_with_findings`` base-catalog item order
  (regression for the docstring/contract fix),
* ``best_action_idx`` equivalence with ``best_action`` (winner set,
  NaN handling, tie-break rng draws),
* candidate-action pruning bit-identity with the unpruned argmax,
* episode-batched training determinism and the batch=1 byte-identity,
* a hypothesis property test pinning dense and sparse backends to
  bit-identical Q-values, payloads, and plans — including save → load
  → serve round trips through the policy registry.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_item
from repro.core.catalog import Catalog
from repro.core.config import PlannerConfig
from repro.core.env import DomainMode, TPPEnvironment
from repro.core.exceptions import ConstraintError, PlanningError
from repro.core.policy import GreedyPolicy
from repro.core.qtable import (
    QTable,
    SPARSE_BACKEND_THRESHOLD,
    SparseQTable,
    make_qtable,
    resolve_backend,
)
from repro.core.reward import RewardFunction, batch_rewards
from repro.core.sarsa import ActionSelection, SarsaLearner
from repro.core.serialization import (
    load_policy,
    policy_from_dict,
    policy_to_dict,
    save_policy,
)
from repro.datasets.synthetic import generate_instance
from repro.serving.registry import PolicyRegistry, SOURCE_DISK

BACKENDS = (QTable, SparseQTable)


@pytest.fixture()
def catalog() -> Catalog:
    return Catalog([make_item(i) for i in ("a", "b", "c", "d")])


def _train(catalog, task, config, episodes=6,
           selection=ActionSelection.REWARD_GREEDY):
    env = TPPEnvironment(catalog, task, config)
    learner = SarsaLearner(env, config, selection=selection)
    return learner.learn(episodes=episodes)


class TestBackendSelection:
    def test_auto_picks_dense_below_threshold(self, catalog):
        assert resolve_backend(catalog, "auto") is QTable
        assert isinstance(make_qtable(catalog), QTable)

    def test_auto_threshold_is_catalog_size(self, catalog):
        # The cutover is on |I|; a tiny catalog forced sparse still works.
        assert SPARSE_BACKEND_THRESHOLD > len(catalog)
        assert resolve_backend(catalog, "sparse") is SparseQTable
        assert resolve_backend(catalog, "dense") is QTable

    def test_unknown_backend_rejected(self, catalog):
        with pytest.raises(PlanningError):
            resolve_backend(catalog, "bogus")

    def test_sparse_rejects_nonzero_initial_value(self, catalog):
        with pytest.raises(PlanningError):
            SparseQTable(catalog, initial_value=0.5)

    def test_sparse_has_no_dense_values(self, catalog):
        with pytest.raises(PlanningError):
            SparseQTable(catalog).values

    def test_config_validates_backend(self):
        with pytest.raises(ConstraintError):
            PlannerConfig(qtable_backend="compressed")
        for ok in ("auto", "dense", "sparse"):
            assert PlannerConfig(qtable_backend=ok).qtable_backend == ok

    def test_config_validates_top_k(self):
        with pytest.raises(ConstraintError):
            PlannerConfig(candidate_top_k=0)
        assert PlannerConfig(candidate_top_k=5).candidate_top_k == 5
        assert PlannerConfig().candidate_top_k is None


class TestCopyCarriesLoadProvenance:
    """Regression: ``copy()`` used to silently drop ``skipped_on_load``."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_copy_keeps_skipped_on_load(self, catalog, backend):
        entries = {("a", "b"): 0.5, ("a", "ghost"): 1.0, ("x", "y"): 2.0}
        table = backend.from_entries(catalog, entries, update_count=7)
        assert table.skipped_on_load == 2
        clone = table.copy()
        assert type(clone) is backend
        assert clone.skipped_on_load == 2
        assert clone.update_count == 7
        assert clone.to_entries() == table.to_entries()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_copy_is_deep(self, catalog, backend):
        table = backend(catalog)
        table.set("a", "b", 0.5)
        clone = table.copy()
        clone.set("a", "b", 9.0)
        assert table.get("a", "b") == 0.5


class TestDenseToEntries:
    """Regression: the flatnonzero rewrite must keep the old contract."""

    def test_touched_zero_entry_survives(self, catalog):
        table = QTable(catalog)
        table.set("a", "b", 0.5)
        table.set("a", "b", 0.0)
        assert table.to_entries() == {("a", "b"): 0.0}

    def test_raw_array_write_is_exported(self, catalog):
        # Safety net: tables built by direct array manipulation (no
        # touched bit) still export their non-zero cells.
        table = QTable(catalog)
        table.values[2, 0] = 0.25
        assert table.to_entries() == {("c", "a"): 0.25}

    def test_matches_sparse_on_same_writes(self, catalog):
        dense, sparse = QTable(catalog), SparseQTable(catalog)
        for s, a, v in (("a", "b", 0.3), ("b", "c", -1.5), ("c", "a", 0.0)):
            dense.set(s, a, v)
            sparse.set(s, a, v)
            dense.td_update(
                catalog.index_of(s), catalog.index_of(a), 1.0, 0.5
            )
            sparse.td_update(
                catalog.index_of(s), catalog.index_of(a), 1.0, 0.5
            )
        assert dense.to_entries() == sparse.to_entries()


class TestSubsetOrderContract:
    """Regression: subsets keep *base-catalog* order, not input order."""

    def test_subset_ignores_input_order(self, catalog):
        sub = catalog.subset(["d", "b"])
        assert sub.item_ids == ("b", "d")
        # Same id set, any order -> same catalog indexing.
        again = catalog.subset(["b", "d"])
        assert again.item_ids == sub.item_ids

    def test_subset_with_findings_same_order(self, catalog):
        sub, findings = catalog.subset_with_findings(["c", "a", "d"])
        assert sub.item_ids == ("a", "c", "d")
        assert findings == ()


class TestBestActionIdxEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_best_action_under_ties(self, catalog, backend):
        rng = np.random.default_rng(3)
        table = backend(catalog)
        ids = catalog.item_ids
        for _ in range(40):
            s = ids[int(rng.integers(len(ids)))]
            a = ids[int(rng.integers(len(ids)))]
            table.set(s, a, float(rng.integers(0, 3)) / 2.0)
        index_map = {i: catalog.index_of(i) for i in ids}
        for state in ids:
            allowed = [i for i in ids if i != state]
            allowed_idx = np.array([index_map[i] for i in allowed])
            # Deterministic (no rng): first winner in allowed order.
            assert (
                catalog.item_at(
                    table.best_action_idx(index_map[state], allowed_idx)
                ).item_id
                == table.best_action(state, allowed)
            )
            # Tied argmax: identical rng streams draw identical winners.
            r1, r2 = (np.random.default_rng(11) for _ in range(2))
            assert (
                catalog.item_at(
                    table.best_action_idx(
                        index_map[state], allowed_idx, rng=r1
                    )
                ).item_id
                == table.best_action(state, allowed, rng=r2)
            )
            assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nan_rows(self, catalog, backend):
        table = backend(catalog)
        table.set("a", "b", float("nan"))
        table.set("a", "c", float("nan"))
        table.set("a", "d", float("nan"))
        allowed = ["b", "c", "d"]
        allowed_idx = np.array([catalog.index_of(i) for i in allowed])
        # All-NaN row: tie over the whole allowed set, never a NaN win.
        assert table.best_action("a", allowed) == "b"
        assert (
            table.best_action_idx(catalog.index_of("a"), allowed_idx)
            == catalog.index_of("b")
        )
        table.set("a", "c", -2.0)
        # A finite value beats NaN even when negative.
        assert table.best_action("a", allowed) == "c"
        assert (
            table.best_action_idx(catalog.index_of("a"), allowed_idx)
            == catalog.index_of("c")
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_allowed_raises(self, catalog, backend):
        table = backend(catalog)
        with pytest.raises(PlanningError):
            table.best_action_idx(0, np.array([], dtype=np.int64))


class TestPruningBitIdentity:
    """Two-stage candidate pruning must not change the greedy argmax."""

    @pytest.mark.parametrize("top_k", (1, 4, 16))
    def test_pruned_argmax_matches_full(self, top_k):
        catalog, task = generate_instance(num_items=48, seed=5)
        full_cfg = PlannerConfig()
        pruned_cfg = PlannerConfig(candidate_top_k=top_k)
        env_full = TPPEnvironment(catalog, task, full_cfg)
        env_pruned = TPPEnvironment(catalog, task, pruned_cfg)
        for start in ("item000", "item003"):
            env_full.reset(start)
            env_pruned.reset(start)
            while not env_full.is_done():
                full = env_full.valid_actions()
                pruned = env_pruned.valid_actions()
                if not full:
                    assert not pruned
                    break
                assert set(i.item_id for i in pruned) <= set(
                    i.item_id for i in full
                )
                r_full = batch_rewards(
                    env_full.reward, env_full.builder, full
                )
                r_pruned = batch_rewards(
                    env_pruned.reward, env_pruned.builder, pruned
                )
                # The winner *sets* agree exactly, in catalog order —
                # same argmax, same tie-break draw distribution.
                winners_full = [
                    full[i].item_id
                    for i in np.flatnonzero(r_full == r_full.max())
                ]
                winners_pruned = [
                    pruned[i].item_id
                    for i in np.flatnonzero(r_pruned == r_pruned.max())
                ]
                assert winners_pruned == winners_full
                chosen = catalog[winners_full[0]]
                env_full.step(chosen)
                env_pruned.step(chosen)

    def test_pruned_training_equals_full_when_greedy(self):
        # With exploration off, every selection is the argmax — so a
        # pruned run must learn the byte-identical table.
        catalog, task = generate_instance(num_items=40, seed=2)
        base = dict(exploration=0.0, episodes=4, seed=9)
        full = _train(catalog, task, PlannerConfig(**base), episodes=4)
        pruned = _train(
            catalog, task,
            PlannerConfig(candidate_top_k=6, **base), episodes=4,
        )
        assert full.qtable.to_entries() == pruned.qtable.to_entries()


class TestSparseTrainingUsesConfigBackend:
    def test_learner_honours_backend_knob(self):
        catalog, task = generate_instance(num_items=24, seed=1)
        cfg = PlannerConfig(seed=3, qtable_backend="sparse")
        result = _train(catalog, task, cfg, episodes=3)
        assert isinstance(result.qtable, SparseQTable)
        dense = _train(
            catalog, task,
            PlannerConfig(seed=3, qtable_backend="dense"), episodes=3,
        )
        assert isinstance(dense.qtable, QTable)
        assert dense.qtable.to_entries() == result.qtable.to_entries()


@st.composite
def _universes(draw):
    num_items = draw(st.integers(min_value=14, max_value=34))
    seed = draw(st.integers(min_value=0, max_value=50))
    train_seed = draw(st.integers(min_value=0, max_value=50))
    exploration = draw(st.sampled_from((0.0, 0.2, 0.5)))
    episodes = draw(st.integers(min_value=2, max_value=5))
    return num_items, seed, train_seed, exploration, episodes


class TestDenseSparseEquivalenceProperty:
    @settings(max_examples=12, deadline=None)
    @given(_universes())
    def test_backends_bit_identical(self, universe):
        num_items, seed, train_seed, exploration, episodes = universe
        catalog, task = generate_instance(num_items=num_items, seed=seed)
        tables = {}
        for backend in ("dense", "sparse"):
            cfg = PlannerConfig(
                seed=train_seed,
                exploration=exploration,
                qtable_backend=backend,
            )
            tables[backend] = _train(
                catalog, task, cfg, episodes=episodes
            ).qtable
        dense, sparse = tables["dense"], tables["sparse"]
        # Bit-identical learned values and payloads.
        entries = dense.to_entries()
        assert entries == sparse.to_entries()
        assert policy_to_dict(dense)["entries"] == (
            policy_to_dict(sparse)["entries"]
        )
        assert dense.update_count == sparse.update_count
        # Identical recommended plans from both backends.
        cfg = PlannerConfig(seed=train_seed, exploration=exploration)
        reward = RewardFunction(task, cfg)
        plans = [
            GreedyPolicy(
                table, task, reward=reward, rng_seed=7
            ).recommend("item000", require_trained=False).item_ids
            for table in (dense, sparse)
        ]
        assert plans[0] == plans[1]
        # Cross-backend save -> load round trips.
        reloaded_sparse = policy_from_dict(
            policy_to_dict(dense), catalog, backend="sparse"
        )
        reloaded_dense = policy_from_dict(
            policy_to_dict(sparse), catalog, backend="dense"
        )
        assert isinstance(reloaded_sparse, SparseQTable)
        assert isinstance(reloaded_dense, QTable)
        assert reloaded_sparse.to_entries() == entries
        assert reloaded_dense.to_entries() == entries
        assert reloaded_sparse.update_count == dense.update_count


class TestRegistryRoundTrip:
    def test_sparse_artifact_serves_after_disk_reload(self, tmp_path):
        catalog, task = generate_instance(num_items=20, seed=8)
        cfg = PlannerConfig(seed=2, qtable_backend="sparse")
        result = _train(catalog, task, cfg, episodes=4)
        table = result.qtable
        assert isinstance(table, SparseQTable)

        writer = PolicyRegistry(tmp_path / "reg")
        writer.publish(
            catalog, task, cfg, DomainMode.COURSE, table,
            episodes=4, label="sparse-train",
        )

        # A fresh registry instance must satisfy the lookup from disk —
        # never retraining — and serve the identical policy.
        reader = PolicyRegistry(tmp_path / "reg")
        def _no_train():
            raise AssertionError("round trip must not retrain")
        entry, source = reader.acquire(
            catalog, task, cfg, trainer=_no_train
        )
        assert source == SOURCE_DISK
        assert entry.qtable.to_entries() == table.to_entries()
        assert entry.qtable.update_count == table.update_count
        assert entry.meta.label == "sparse-train"

        reward = RewardFunction(task, cfg)
        served = GreedyPolicy(
            entry.qtable, task, reward=reward, rng_seed=0
        ).recommend("item000", require_trained=False)
        direct = GreedyPolicy(
            table, task, reward=reward, rng_seed=0
        ).recommend("item000", require_trained=False)
        assert served.item_ids == direct.item_ids

    def test_save_load_file_round_trip(self, tmp_path):
        catalog, task = generate_instance(num_items=16, seed=3)
        cfg = PlannerConfig(seed=1)
        table = _train(catalog, task, cfg, episodes=3).qtable
        path = tmp_path / "policy.json"
        save_policy(table, path)
        for backend, cls in (("dense", QTable), ("sparse", SparseQTable)):
            loaded = load_policy(path, catalog, backend=backend)
            assert type(loaded) is cls
            assert loaded.to_entries() == table.to_entries()
            assert loaded.update_count == table.update_count
