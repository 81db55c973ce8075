"""Content fingerprints for the policy registry's artifact keys.

A trained policy is reusable exactly when three inputs match: the
catalog the Q-table indexes, the task's constraint specification, and
the planner configuration that trained it.  This module derives a
stable identity for each — and a combined :func:`policy_key` — so the
registry can answer "do I already have this policy?" with a string
comparison, the same trick the run manifest plays with
:func:`repro.runner.manifest.fingerprint_payload`.

Stability contract (tested in ``tests/test_fingerprint.py``):

* **Content, not labels.**  Display names (catalog name, task name,
  item names) are excluded — two catalogs with identical items but
  different labels train identical policies and share one artifact.
* **Order-independent.**  Item order, topic-set iteration order,
  category-credit dict insertion order, template-permutation order, and
  metadata key order are all canonicalized (sorted) before hashing.
* **Dtype-independent.**  NumPy scalars are converted to their Python
  equivalents, so ``np.float64(3.0)`` and ``3.0`` credits hash alike.
* **Process-independent.**  The hash is SHA-256 over canonical JSON —
  no ``repr``, no ``hash()`` randomization — so keys survive restarts
  and cross machines.
* **Hashed once.**  Catalogs are immutable, so a catalog object's
  fingerprint is computed on first use and memoized: the publish path,
  ``key_for`` and the delta path all ask about the same live catalog.

Anything that changes planning behaviour *must* land in the key: a
different ``gap``, budget, coverage threshold, or reward weight yields
a different fingerprint, which is what keeps a registry from serving a
policy trained under different constraints.
"""

from __future__ import annotations

import numbers
import weakref
from typing import Any, Dict, Mapping

import numpy as np

from ..core.catalog import Catalog
from ..core.config import PlannerConfig
from ..core.constraints import TaskSpec
from ..core.env import DomainMode
from ..core.items import Item, ItemType
from ..runner.manifest import canonical_sha256

#: Bump when a payload's shape changes incompatibly — old artifacts
#: then simply miss (and retrain) instead of loading wrongly.
#: v2: config payload gained ``candidate_top_k``.
FINGERPRINT_SCHEMA = 2


def canonical_value(value: Any) -> Any:
    """JSON-safe, order- and dtype-normalized form of ``value``.

    Used for free-form surfaces (item metadata) where the repo does not
    control the types.  Mappings and sets are sorted; NumPy scalars
    collapse to Python scalars; tuples become lists.  Unrepresentable
    objects raise ``TypeError`` — better to refuse a key than to mint
    an unstable one from ``repr``.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, Mapping):
        return [
            [str(k), canonical_value(v)]
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        ]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical_value(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for fingerprinting"
    )


def _item_payload(item: Item) -> Dict[str, Any]:
    # Metadata rides as [key, value] pairs, not a dict: the manifest
    # hasher strips a fixed set of timing-ish *dict* keys, and a user
    # metadata key must never collide with that list.
    return {
        "id": item.item_id,
        "type": item.item_type.value,
        "credits": float(item.credits),
        "prereqs": sorted(
            sorted(group) for group in item.prerequisites.groups
        ),
        "topics": sorted(item.topics),
        "category": item.category,
        "metadata": [
            [str(k), canonical_value(v)]
            for k, v in sorted(item.metadata, key=lambda kv: str(kv[0]))
        ],
    }


def catalog_payload(catalog: Catalog) -> Dict[str, Any]:
    """Canonical content of a catalog (names excluded, items sorted)."""
    return {
        "schema": FINGERPRINT_SCHEMA,
        "items": [
            _item_payload(item)
            for item in sorted(catalog.items, key=lambda i: i.item_id)
        ],
    }


def constraint_payload(task: TaskSpec) -> Dict[str, Any]:
    """Canonical content of a task's hard + soft constraints."""
    hard, soft = task.hard, task.soft
    return {
        "schema": FINGERPRINT_SCHEMA,
        "hard": {
            "min_credits": float(hard.min_credits),
            "num_primary": int(hard.num_primary),
            "num_secondary": int(hard.num_secondary),
            "gap": int(hard.gap),
            "category_credits": [
                [name, float(minimum)]
                for name, minimum in sorted(hard.category_credits)
            ],
            "max_distance": (
                None
                if hard.max_distance is None
                else float(hard.max_distance)
            ),
            "theme_adjacency_gap": bool(hard.theme_adjacency_gap),
        },
        "soft": {
            "ideal_topics": sorted(soft.ideal_topics),
            "template": sorted(
                "".join(
                    "P" if t is ItemType.PRIMARY else "S" for t in perm
                )
                for perm in soft.template.permutations
            ),
        },
    }


def config_payload(config: PlannerConfig) -> Dict[str, Any]:
    """Canonical content of a planner configuration.

    Every *behaviour-affecting* field lands in the payload: any
    hyper-parameter change — even the seed, which steers tie-breaking
    and hence the learned table — must produce a distinct policy key.
    ``candidate_top_k`` is included because epsilon-greedy exploration
    samples its random actions from the pruned candidate set, so the
    knob changes learning trajectories.  ``qtable_backend`` is
    deliberately *excluded*: it is a pure storage-representation choice
    (dense and sparse tables are bit-identical), so a policy trained
    under either backend may serve requests keyed under the other.
    """
    weights = config.weights
    return {
        "schema": FINGERPRINT_SCHEMA,
        "episodes": int(config.episodes),
        "learning_rate": float(config.learning_rate),
        "discount": float(config.discount),
        "coverage_threshold": float(config.coverage_threshold),
        "weights": {
            "delta": float(weights.delta),
            "beta": float(weights.beta),
            "w_primary": float(weights.w_primary),
            "w_secondary": float(weights.w_secondary),
            "category_weights": [
                [name, float(weight)]
                for name, weight in sorted(weights.category_weights)
            ],
        },
        "similarity": config.similarity.value,
        "exploration": float(config.exploration),
        "mask_invalid_actions": bool(config.mask_invalid_actions),
        "recommendation": config.recommendation.value,
        "lookahead_weight": (
            None
            if config.lookahead_weight is None
            else float(config.lookahead_weight)
        ),
        "portfolio": bool(config.portfolio),
        "seed": None if config.seed is None else int(config.seed),
        "candidate_top_k": (
            None
            if config.candidate_top_k is None
            else int(config.candidate_top_k)
        ),
    }


#: Memoized catalog fingerprints (weak keys: a replaced live catalog
#: takes its entry with it).
_CATALOG_FINGERPRINTS: "weakref.WeakKeyDictionary[Catalog, str]" = (
    weakref.WeakKeyDictionary()
)


def catalog_fingerprint(catalog: Catalog) -> str:
    """SHA-256 identity of a catalog's plannable content (memoized).

    The payloads of this module hold no timing keys, so they are hashed
    directly — the same bytes the manifest hasher would produce,
    without its strip walk.
    """
    fingerprint = _CATALOG_FINGERPRINTS.get(catalog)
    if fingerprint is None:
        fingerprint = canonical_sha256(catalog_payload(catalog))
        _CATALOG_FINGERPRINTS[catalog] = fingerprint
    return fingerprint


def constraint_fingerprint(task: TaskSpec) -> str:
    """SHA-256 identity of a task's constraint signature."""
    return canonical_sha256(constraint_payload(task))


def config_fingerprint(config: PlannerConfig) -> str:
    """SHA-256 identity of a planner configuration."""
    return canonical_sha256(config_payload(config))


def policy_key(
    catalog: Catalog,
    task: TaskSpec,
    config: PlannerConfig,
    mode: DomainMode = DomainMode.COURSE,
) -> str:
    """The registry key: one hash over the three component fingerprints.

    ``mode`` participates because course and trip episode semantics
    train different tables over identical-looking inputs.
    """
    return canonical_sha256(
        {
            "schema": FINGERPRINT_SCHEMA,
            "catalog": catalog_fingerprint(catalog),
            "constraints": constraint_fingerprint(task),
            "config": config_fingerprint(config),
            "mode": mode.value,
        }
    )


def short_key(key: str, length: int = 12) -> str:
    """Display prefix of a policy key (CLI tables, log lines)."""
    return key[:length]
