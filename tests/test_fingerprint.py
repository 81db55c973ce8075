"""Stability contract of the policy-registry fingerprints.

The registry is only as safe as its keys: identical planning universes
must collide (train once, serve everywhere) and any behaviour-changing
difference must separate (never serve a policy trained under other
constraints).  These tests pin both directions.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.catalog import Catalog
from repro.core.config import PlannerConfig
from repro.core.env import DomainMode
from repro.core.items import Item, ItemType, Prerequisites, make_metadata
from repro.serving.fingerprint import (
    canonical_value,
    catalog_fingerprint,
    config_fingerprint,
    constraint_fingerprint,
    policy_key,
    short_key,
)

from conftest import make_item, make_task

pytestmark = pytest.mark.registry


def _catalog(order=("a", "b", "c"), name="cat", credits=3.0):
    items = {
        "a": Item(
            item_id="a",
            name="Alpha",
            item_type=ItemType.PRIMARY,
            credits=credits,
            topics=frozenset({"t1", "t2"}),
            metadata=make_metadata(lat=1.5, lon=2.5, popularity=7),
        ),
        "b": make_item("b", ItemType.SECONDARY, topics=("t2", "t3")),
        "c": make_item(
            "c",
            ItemType.PRIMARY,
            topics=("t3",),
            prereqs=Prerequisites.from_cnf([{"a"}, {"b", "a"}]),
        ),
    }
    return Catalog([items[k] for k in order], name=name)


class TestCatalogFingerprint:
    def test_item_order_does_not_matter(self):
        assert catalog_fingerprint(_catalog(("a", "b", "c"))) == (
            catalog_fingerprint(_catalog(("c", "a", "b")))
        )

    def test_display_names_do_not_matter(self):
        assert catalog_fingerprint(_catalog(name="x")) == (
            catalog_fingerprint(_catalog(name="y"))
        )

    def test_numpy_dtypes_do_not_matter(self):
        plain = _catalog(credits=3.0)
        f64 = _catalog(credits=np.float64(3.0))
        i64 = _catalog(credits=np.int64(3))
        assert catalog_fingerprint(plain) == catalog_fingerprint(f64)
        assert catalog_fingerprint(plain) == catalog_fingerprint(i64)

    def test_content_change_separates(self):
        assert catalog_fingerprint(_catalog(credits=3.0)) != (
            catalog_fingerprint(_catalog(credits=4.0))
        )

    def test_prerequisite_group_order_does_not_matter(self):
        base = make_item("z", prereqs=Prerequisites.from_cnf([{"a"}, {"b"}]))
        flipped = make_item(
            "z", prereqs=Prerequisites.from_cnf([{"b"}, {"a"}])
        )
        deps = [make_item("a"), make_item("b")]
        assert catalog_fingerprint(Catalog(deps + [base])) == (
            catalog_fingerprint(Catalog(deps + [flipped]))
        )

    def test_metadata_key_order_does_not_matter(self):
        first = make_item("a")
        meta_ab = Item(
            "m", "m", ItemType.PRIMARY, 3.0,
            metadata=(("lat", 1.0), ("lon", 2.0)),
        )
        meta_ba = Item(
            "m", "m", ItemType.PRIMARY, 3.0,
            metadata=(("lon", 2.0), ("lat", 1.0)),
        )
        assert catalog_fingerprint(Catalog([first, meta_ab])) == (
            catalog_fingerprint(Catalog([first, meta_ba]))
        )

    def test_timing_like_metadata_keys_participate(self):
        # The manifest hasher strips "seconds"/"created_at"-style *dict*
        # keys; item metadata rides as pair-lists precisely so that a
        # user key spelled the same way still lands in the fingerprint.
        first = make_item("a")
        with_meta = Item(
            "m", "m", ItemType.PRIMARY, 3.0,
            metadata=(("created_at", 123),),
        )
        without = Item("m", "m", ItemType.PRIMARY, 3.0)
        assert catalog_fingerprint(Catalog([first, with_meta])) != (
            catalog_fingerprint(Catalog([first, without]))
        )


class TestConstraintFingerprint:
    def test_same_task_same_hash(self):
        assert constraint_fingerprint(make_task()) == (
            constraint_fingerprint(make_task())
        )

    def test_gap_separates(self):
        assert constraint_fingerprint(make_task(gap=1)) != (
            constraint_fingerprint(make_task(gap=2))
        )

    def test_credit_budget_separates(self):
        assert constraint_fingerprint(make_task(min_credits=12.0)) != (
            constraint_fingerprint(make_task(min_credits=15.0))
        )

    def test_topic_order_does_not_matter(self):
        assert constraint_fingerprint(
            make_task(ideal_topics=("t1", "t2", "t3"))
        ) == constraint_fingerprint(make_task(ideal_topics=("t3", "t1", "t2")))

    def test_template_permutation_order_does_not_matter(self):
        forward = make_task(
            template_labels=[["P", "S", "P", "S"], ["P", "P", "S", "S"]]
        )
        backward = make_task(
            template_labels=[["P", "P", "S", "S"], ["P", "S", "P", "S"]]
        )
        assert constraint_fingerprint(forward) == (
            constraint_fingerprint(backward)
        )


class TestConfigFingerprint:
    def test_same_config_same_hash(self):
        assert config_fingerprint(PlannerConfig(seed=3)) == (
            config_fingerprint(PlannerConfig(seed=3))
        )

    def test_every_knob_separates(self):
        base = PlannerConfig(seed=3)
        for change in (
            {"episodes": base.episodes + 1},
            {"learning_rate": 0.33},
            {"discount": 0.5},
            {"coverage_threshold": 0.123},
            {"exploration": 0.42},
            {"seed": 4},
        ):
            assert config_fingerprint(base) != config_fingerprint(
                base.replace(**change)
            ), change


class TestPolicyKey:
    def test_mode_participates(self, toy_dataset):
        course = policy_key(
            toy_dataset.catalog, toy_dataset.task,
            toy_dataset.default_config, DomainMode.COURSE,
        )
        trip = policy_key(
            toy_dataset.catalog, toy_dataset.task,
            toy_dataset.default_config, DomainMode.TRIP,
        )
        assert course != trip

    def test_dataset_surface_matches_direct_derivation(self, toy_dataset):
        assert toy_dataset.policy_key() == policy_key(
            toy_dataset.catalog, toy_dataset.task,
            toy_dataset.default_config, toy_dataset.mode,
        )

    def test_short_key_is_prefix(self, toy_dataset):
        key = toy_dataset.policy_key()
        assert key.startswith(short_key(key))
        assert len(short_key(key)) == 12

    def test_survives_process_restart(self, toy_dataset):
        """The key from a fresh interpreter equals the in-process key
        (no ``hash()`` randomization, no id()/repr leakage)."""
        script = (
            "from repro.datasets import load_toy;"
            "print(load_toy(seed=0, with_gold=True).policy_key())"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"  # force a different hash seed
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == toy_dataset.policy_key()


class TestGoldenKeys:
    """Keys minted before catalog hashing was memoized and moved off the
    manifest's strip walk: artifacts already on disk are addressed by
    these bytes, so they must not move."""

    def test_catalog_fingerprint_literal(self):
        assert catalog_fingerprint(_catalog()) == (
            "60e117d5663fc449073dfde5847856852104be9180cb8aea790ce5471e737808"
        )

    def test_policy_key_literals(self):
        from repro.datasets import load

        dataset = load("toy", seed=0, with_gold=False)
        catalog, task = dataset.catalog, dataset.task
        assert policy_key(catalog, task, PlannerConfig(), DomainMode.COURSE) == (
            "4115ffa5bcbeb346b0b53b3d7149415a6972065919f6702fdbff33804c166fc1"
        )
        tuned = PlannerConfig(candidate_top_k=4, seed=3)
        assert policy_key(catalog, task, tuned, DomainMode.TRIP) == (
            "9fb06497fe7e0e002efcb6df07376f6e0ba74d7e0286aebd3e52d6da81735c10"
        )

    def test_catalog_hashed_once_per_object(self, monkeypatch):
        import repro.serving.fingerprint as fingerprint

        hashed = []
        payload = fingerprint.catalog_payload
        monkeypatch.setattr(
            fingerprint,
            "catalog_payload",
            lambda catalog: hashed.append(catalog) or payload(catalog),
        )
        catalog = _catalog()
        first = catalog_fingerprint(catalog)
        policy_key(catalog, make_task(), PlannerConfig())
        assert catalog_fingerprint(catalog) == first
        assert hashed == [catalog]
        # An equal catalog is a different object: hashed anew, same key.
        assert catalog_fingerprint(_catalog()) == first
        assert len(hashed) == 2


class TestCanonicalValue:
    def test_numpy_scalars_collapse(self):
        assert canonical_value(np.float64(1.5)) == 1.5
        assert canonical_value(np.int32(7)) == 7
        assert canonical_value(np.bool_(True)) is True

    def test_mappings_become_sorted_pairs(self):
        assert canonical_value({"b": 1, "a": 2}) == [["a", 2], ["b", 1]]

    def test_sets_sort(self):
        assert canonical_value({3, 1, 2}) == [1, 2, 3]

    def test_unrepresentable_raises(self):
        with pytest.raises(TypeError):
            canonical_value(object())
