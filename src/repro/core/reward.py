"""The weighted reward function of Equation 2.

    R(s_i, e_i, s_{i+1}) = theta * [ delta * Sim(s_{i+1}, IT_{i+1})
                                     + beta * weight_{type_m} ]
    theta = r1 * r2                                             (Eq. 5)

where

* ``r1`` (Eq. 3) gates on *topic coverage*: the action must add at least
  ``epsilon`` new topics from ``T_ideal`` to the running coverage set,
* ``r2`` (Eq. 4) gates on the *antecedent gap*: every (AND) / any (OR)
  prerequisite of the added item must already be in the plan at least
  ``gap`` positions earlier — in the trip domain the gap is instantiated
  as "no two consecutive POIs of the same theme",
* ``Sim`` is the interleaving similarity of the plan prefix *after* the
  action against the template ``IT`` (Eq. 6/7, average or minimum
  aggregation),
* ``weight_{type_m}`` is ``w1`` for primary and ``w2`` for secondary
  items (``w1 > w2``), generalized to per-category weights w1..w6 for the
  Univ-2 six-sub-discipline requirement.

A :class:`RewardFunction` binds a task + config.  Its step kernel
(:meth:`~RewardFunction.mask_actions`,
:meth:`~RewardFunction.batch_components`) takes catalog index arrays and
is the one Eq. 2 the program runs; the per-item components
(:meth:`~RewardFunction.breakdown` and the gates) are the reference the
tests hold the kernel to, and the per-step table of
:mod:`repro.analysis.explain`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .catalog import Catalog
from .config import PlannerConfig
from .constraints import CREDIT_TOLERANCE, DISTANCE_TOLERANCE_KM, TaskSpec
from .items import Item
from .plan import PlanBuilder
from .similarity import aggregate_similarity
from .validation import haversine_km


@dataclass(frozen=True)
class RewardBreakdown:
    """The components of one reward evaluation, for diagnostics.

    ``total`` is the Equation-2 value; the other fields expose the gates
    and terms so experiments can report *why* an action scored zero.
    """

    r1_coverage: int
    r2_gap: int
    similarity: float
    type_weight: float
    total: float

    @property
    def theta(self) -> int:
        """The multiplicative gate ``theta = r1 * r2`` (Eq. 5)."""
        return self.r1_coverage * self.r2_gap


class _PrereqIndex:
    """Every item's prerequisite CNF, flattened for one-pass evaluation.

    Members are tokenized rather than index-mapped because prerequisite
    edges may reference ids outside the catalog (out-of-program
    antecedents) and plan positions may contain foreign prefix items —
    both participate in gap checks by id, not by catalog index.  Every
    array is O(total prerequisite members) integers.
    """

    def __init__(self, catalog: Catalog) -> None:
        carriers: List[int] = []
        group_counts: List[int] = []
        group_sizes: List[int] = []
        member_tokens: List[int] = []
        token_index: Dict[str, int] = {}
        for idx, item in enumerate(catalog):
            groups = item.prerequisites.groups
            if not groups:
                continue
            carriers.append(idx)
            group_counts.append(len(groups))
            for group in groups:
                group_sizes.append(len(group))
                for member in sorted(group):
                    member_tokens.append(
                        token_index.setdefault(member, len(token_index))
                    )
        counts = np.asarray(group_counts, dtype=np.int64)
        sizes = np.asarray(group_sizes, dtype=np.int64)
        #: Catalog index of each item carrying prerequisites.
        self.carriers = np.asarray(carriers, dtype=np.int64)
        #: Offsets of each carrier's first group and each group's first
        #: member.
        self.carrier_starts = np.cumsum(counts) - counts
        self.group_starts = np.cumsum(sizes) - sizes
        self.member_tokens = np.asarray(member_tokens, dtype=np.int64)
        #: Group and carrier position owning each member.
        self.member_group = np.repeat(np.arange(sizes.size), sizes)
        self.member_carrier = np.repeat(np.arange(counts.size), counts)[
            self.member_group
        ]
        self.token_index = token_index
        #: Catalog index of each token (-1 for ids outside the catalog).
        index_map = catalog.index_map
        self.token_catalog = np.fromiter(
            (index_map.get(member, -1) for member in token_index),
            dtype=np.int64,
            count=len(token_index),
        )

    def unsatisfied(
        self, positions: Dict[str, int], at_position: int, gap: int
    ) -> np.ndarray:
        """Per group: True when no member is placed early enough.

        The scalar ``Prerequisites.satisfied_by`` test per group: a
        member counts iff it is in ``positions`` (foreign prefix items
        included) with ``at_position - position >= gap``.
        """
        token_pos = np.full(len(self.token_index), -1, dtype=np.int64)
        for item_id, position in positions.items():
            token = self.token_index.get(item_id)
            if token is not None:
                token_pos[token] = position
        member_pos = token_pos[self.member_tokens]
        member_ok = (member_pos >= 0) & (at_position - member_pos >= gap)
        return ~np.logical_or.reduceat(member_ok, self.group_starts)

    def unsatisfied_counts(self, unsatisfied: np.ndarray) -> np.ndarray:
        """Number of unsatisfied groups per carrier."""
        return np.add.reduceat(
            unsatisfied.astype(np.int64), self.carrier_starts
        )

    def fixer_pairs(
        self,
        unsatisfied: np.ndarray,
        counts: np.ndarray,
        open_carriers: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(fixer, fixed)`` catalog indices of the unlockable items.

        Placing ``fixer`` now satisfies every unsatisfied group of the
        open carrier ``fixed``: it is a member of each of them.  Members
        are unique within a group, so that is a (carrier, member) pair
        hit once per unsatisfied group of the carrier.
        """
        sel = unsatisfied[self.member_group] & open_carriers[
            self.member_carrier
        ]
        carrier = self.member_carrier[sel]
        token = self.member_tokens[sel]
        # With one unmet group per carrier every selected member is a
        # fixer; otherwise keep the members hit by all of its groups.
        if (counts[carrier] > 1).any():
            n_tokens = len(self.token_index)
            keys, hits = np.unique(
                carrier * n_tokens + token, return_counts=True
            )
            carrier, token = np.divmod(keys, n_tokens)
            common = hits == counts[carrier]
            carrier, token = carrier[common], token[common]
        fixer = self.token_catalog[token]
        known = fixer >= 0
        return fixer[known], self.carriers[carrier[known]]


class _CatalogView:
    """Task-specific vectorized columns over one catalog.

    Combines the catalog's generic :class:`~repro.core.catalog.CatalogColumns`
    with everything the batch reward derives from the *task/config* pair:
    the ideal-topic incidence submatrix, the per-item type/category
    weight vector, and the flattened prerequisite CNF.  Built once per
    (reward, catalog) pair and cached.
    """

    def __init__(
        self,
        catalog: Catalog,
        task: TaskSpec,
        config: PlannerConfig,
        category_weights: Dict[str, float],
    ) -> None:
        cols = catalog.columns
        self.cols = cols

        ideal = task.soft.ideal_topics
        ideal_cols = sorted(
            cols.topic_index[t] for t in ideal if t in cols.topic_index
        )
        self.ideal_matrix = cols.topic_matrix[:, ideal_cols]
        # topic -> position inside the ideal submatrix, for the running
        # covered-ideal vector.
        vocabulary_positions = {
            col: pos for pos, col in enumerate(ideal_cols)
        }
        self.ideal_positions: Dict[str, int] = {
            topic: vocabulary_positions[col]
            for topic, col in cols.topic_index.items()
            if col in vocabulary_positions
        }

        weights = np.where(
            cols.primary_mask,
            config.weights.w_primary,
            config.weights.w_secondary,
        )
        if category_weights:
            for code, category in enumerate(cols.categories):
                weight = category_weights.get(category)
                if weight is not None:
                    weights[cols.category_codes == code] = weight
        self.item_weights = weights
        self._prereqs: Optional[_PrereqIndex] = None
        self._catalog_ref = weakref.ref(catalog)

    @property
    def prereqs(self) -> _PrereqIndex:
        """The flattened prerequisite CNF (built on first use)."""
        if self._prereqs is None:
            self._prereqs = _PrereqIndex(self._catalog_ref())
        return self._prereqs

    def prereq_satisfied(
        self, positions: Dict[str, int], at_position: int, gap: int
    ) -> np.ndarray:
        """Vectorized ``Prerequisites.satisfied_by`` over the whole catalog.

        Returns a boolean vector per catalog index: True where the item
        has no antecedents or every CNF group holds a member placed at
        least ``gap`` positions before ``at_position``.
        """
        out = np.ones(len(self.cols.primary_mask), dtype=bool)
        prereqs = self.prereqs
        if prereqs.carriers.size:
            unsatisfied = prereqs.unsatisfied(positions, at_position, gap)
            out[prereqs.carriers] = (
                prereqs.unsatisfied_counts(unsatisfied) == 0
            )
        return out

    def covered_ideal(self, topics) -> np.ndarray:
        """Boolean vector over the ideal columns covered by ``topics``."""
        covered = np.zeros(self.ideal_matrix.shape[1], dtype=bool)
        positions = self.ideal_positions
        for topic in topics:
            pos = positions.get(topic)
            if pos is not None:
                covered[pos] = True
        return covered


class _FeasibilityContext:
    """One step's feasibility pool, deciding every candidate in one pass.

    Built once per step by :meth:`RewardFunction.feasible_mask` from
    what :meth:`RewardFunction.feasibility_gate` recomputes per
    candidate: the reachable remaining pool (one CNF pass), its primary
    count and per-category credit aggregates, the ``(fixer, fixed)``
    pairs of unreachable items a candidate would unlock, and the
    travelled distance.  :meth:`decide` applies the gate's checks —
    primary split, joint category minima, distance budget — to a whole
    candidate index array with the same float operations in the same
    order, so every verdict equals the scalar gate's.
    """

    def __init__(
        self, reward: "RewardFunction", builder: PlanBuilder, slots_after: int
    ) -> None:
        hard = reward.task.hard
        catalog = builder.catalog
        view = reward._view(catalog)
        cols = view.cols
        n = len(catalog)
        self.hard = hard
        self.cols = cols
        self.slots_after = slots_after
        self.base_primaries = builder.num_primary

        # Reachable: remaining items whose every prerequisite group is
        # already met for the final slot.  An open (unmet) item becomes
        # reachable only through a candidate in each of its unmet
        # groups, and only when the candidate's own slot is early enough.
        last_slot = hard.plan_length - 1
        reachable = np.zeros(n, dtype=bool)
        reachable[builder.remaining_indices()] = True
        fixer = fixed = np.zeros(0, dtype=np.int64)
        prereqs = view.prereqs
        if prereqs.carriers.size:
            unsatisfied = prereqs.unsatisfied(
                builder.positions, last_slot, hard.gap
            )
            counts = prereqs.unsatisfied_counts(unsatisfied)
            open_carriers = (counts > 0) & reachable[prereqs.carriers]
            reachable[prereqs.carriers[open_carriers]] = False
            if last_slot - len(builder) >= hard.gap:
                fixer, fixed = prereqs.fixer_pairs(
                    unsatisfied, counts, open_carriers
                )
        self.reachable = reachable
        self.reachable_primaries = int(
            np.count_nonzero(cols.primary_mask & reachable)
        )
        self.fixed_primaries = np.bincount(
            fixer[cols.primary_mask[fixed]], minlength=n
        )
        self.categories = (
            self._category_pools(builder, fixer, fixed)
            if hard.category_credit_map
            else []
        )
        self.last_coords, self.base_distance = self._travelled(builder)

    def _category_pools(
        self, builder: PlanBuilder, fixer: np.ndarray, fixed: np.ndarray
    ) -> list:
        """Per minimum-credit category: the credits earned so far, the
        reachable pool's count, primaries and two smallest distinct
        credit values (with the smallest's multiplicity, so one item's
        exclusion is O(1)), and per catalog index the count, primaries
        and minimum credits of the pool members it would unlock."""
        cols = self.cols
        n = cols.credits.size
        earned: Dict[str, float] = {}
        for chosen in builder.items:
            if chosen.category is not None:
                earned[chosen.category] = (
                    earned.get(chosen.category, 0.0) + chosen.credits
                )
        code_of = {c: i for i, c in enumerate(cols.categories)}
        pool_idx = np.flatnonzero(self.reachable)
        pool_codes = cols.category_codes[pool_idx]
        fixed_codes = cols.category_codes[fixed]
        pools = []
        for category, minimum in self.hard.category_credit_map.items():
            code = code_of.get(category, -2)  # -2 matches no item
            members = pool_idx[pool_codes == code]
            credits = cols.credits[members]
            low = float(credits.min()) if credits.size else float("inf")
            above = credits[credits > low]
            unlock = None
            sel = fixed_codes == code
            if sel.any():
                by, items = fixer[sel], fixed[sel]
                unlock_min = np.full(n, np.inf)
                np.minimum.at(unlock_min, by, cols.credits[items])
                unlock = (
                    np.bincount(by, minlength=n),
                    np.bincount(by[cols.primary_mask[items]], minlength=n),
                    unlock_min,
                )
            pools.append((
                code,
                minimum,
                earned.get(category, 0.0),
                members.size,
                int(np.count_nonzero(cols.primary_mask[members])),
                low,
                int(np.count_nonzero(credits == low)),
                float(above.min()) if above.size else float("inf"),
                unlock,
            ))
        return pools

    def _travelled(
        self, builder: PlanBuilder
    ) -> Tuple[Optional[Tuple[float, float]], float]:
        """(last coordinates, distance so far), or ``(None, 0.0)`` when
        the budget does not apply: no budget, an empty plan, or a plan
        item without geo data."""
        if self.hard.max_distance is None or not len(builder):
            return None, 0.0
        coords = []
        for chosen in builder.items:
            lat, lon = chosen.meta("lat"), chosen.meta("lon")
            if lat is None or lon is None:
                return None, 0.0
            coords.append((float(lat), float(lon)))  # type: ignore[arg-type]
        distance = 0.0
        for a, b in zip(coords, coords[1:]):
            distance += haversine_km(a[0], a[1], b[0], b[1])
        return coords[-1], distance

    def decide(self, cand_idx: np.ndarray) -> np.ndarray:
        """Would the plan stay completable after each candidate?"""
        primary = self.cols.primary_mask[cand_idx]
        short = np.maximum(
            0, self.hard.num_primary - (self.base_primaries + primary)
        )
        reachable = self.reachable[cand_idx]
        unused = (
            self.reachable_primaries
            - (primary & reachable)
            + self.fixed_primaries[cand_idx]
        )
        ok = (short <= self.slots_after) & (short <= unused)
        if self.categories:
            ok &= self._category_minima(
                cand_idx, primary, reachable, short, unused
            )
        if self.last_coords is not None:
            ok &= self._within_distance(cand_idx)
        return ok

    def _category_minima(
        self,
        cand_idx: np.ndarray,
        primary: np.ndarray,
        reachable: np.ndarray,
        short: np.ndarray,
        unused: np.ndarray,
    ) -> np.ndarray:
        """:meth:`RewardFunction._joint_feasible` for every candidate."""
        credits = self.cols.credits[cand_idx]
        codes = self.cols.category_codes[cand_idx]
        ok = np.ones(cand_idx.size, dtype=bool)
        slots_used = np.zeros(cand_idx.size, dtype=np.int64)
        covered = np.zeros(cand_idx.size, dtype=np.int64)
        for (
            code, minimum, earned, count, primaries, low, low_count,
            second, unlock,
        ) in self.categories:
            own = codes == code
            shortfall = minimum - np.where(own, earned + credits, earned)
            open_ = ~(shortfall <= CREDIT_TOLERANCE)
            if not open_.any():
                continue
            # A reachable candidate leaves its own category's pool.
            leaves = own & reachable
            pool_count = count - leaves
            pool_min = np.where(
                leaves & (credits == low) & (low_count == 1), second, low
            )
            pool_primaries = primaries - (leaves & primary)
            if unlock is not None:
                pool_count = pool_count + unlock[0][cand_idx]
                pool_primaries = pool_primaries + unlock[1][cand_idx]
                pool_min = np.minimum(pool_min, unlock[2][cand_idx])
            stocked = pool_count > 0
            needed = np.where(
                open_ & stocked,
                -np.floor_divide(
                    -shortfall, np.where(stocked, pool_min, 1.0)
                ),
                0.0,
            ).astype(np.int64)
            ok &= ~open_ | (stocked & (needed <= pool_count))
            slots_used += needed
            # Primaries inside a category's demand double-count toward
            # the primary quota.
            covered += np.minimum(needed, pool_primaries)
        left = np.maximum(0, short - covered)
        return (
            ok
            & (slots_used <= self.slots_after)
            & (left <= self.slots_after - slots_used)
            & (left <= unused)
        )

    def _within_distance(self, cand_idx: np.ndarray) -> np.ndarray:
        """Distance budget after the leg to each candidate.

        Legs come from :func:`haversine_km` itself (NumPy's
        transcendental kernels may differ from ``math`` in the last
        bit), so every total equals the scalar gate's.
        """
        cols = self.cols
        ok = np.ones(cand_idx.size, dtype=bool)
        geo = np.flatnonzero(cols.has_coords[cand_idx])
        if geo.size:
            lat0, lon0 = self.last_coords  # type: ignore[misc]
            targets = cand_idx[geo]
            legs = np.fromiter(
                (
                    haversine_km(lat0, lon0, lat, lon)
                    for lat, lon in zip(
                        cols.lat[targets].tolist(), cols.lon[targets].tolist()
                    )
                ),
                dtype=np.float64,
                count=geo.size,
            )
            limit = self.hard.max_distance + DISTANCE_TOLERANCE_KM
            ok[geo] = ~(self.base_distance + legs > limit)
        return ok


class RewardFunction:
    """Equation 2 bound to a task specification and planner config.

    Parameters
    ----------
    task:
        The :class:`TaskSpec` with hard and soft constraints.
    config:
        The :class:`PlannerConfig` carrying epsilon, delta/beta, type
        weights, and the similarity aggregation mode.
    """

    def __init__(self, task: TaskSpec, config: PlannerConfig) -> None:
        self.task = task
        self.config = config
        self._coverage_needed = config.coverage_count_threshold(
            len(task.soft.ideal_topics)
        )
        self._category_weights = config.weights.category_weight_map
        # Per-catalog vectorized columns; weak keys so subset/transfer
        # catalogs do not pile up for the lifetime of the reward.
        self._views: "weakref.WeakKeyDictionary[Catalog, _CatalogView]" = (
            weakref.WeakKeyDictionary()
        )

    def _view(self, catalog: Catalog) -> _CatalogView:
        view = self._views.get(catalog)
        if view is None:
            view = _CatalogView(
                catalog, self.task, self.config, self._category_weights
            )
            self._views[catalog] = view
        return view

    # ------------------------------------------------------------------
    # Components (per item; the reference the step kernel must equal)
    # ------------------------------------------------------------------

    def coverage_gate(self, builder: PlanBuilder, item: Item) -> int:
        """``r1`` (Eq. 3): does the action add enough new ideal topics?"""
        gained = builder.new_topics(item) & self.task.soft.ideal_topics
        return 1 if len(gained) >= self._coverage_needed else 0

    def gap_gate(self, builder: PlanBuilder, item: Item) -> int:
        """``r2`` (Eq. 4): antecedent/prerequisite gap satisfaction.

        Items without antecedents trivially pass.  In trip mode
        (``theme_adjacency_gap``) the gate additionally rejects an item
        sharing a theme with the immediately preceding POI, which is how
        the paper instantiates the trip-domain ``gap``.
        """
        if self.task.hard.theme_adjacency_gap:
            last = builder.last_item
            if last is not None and last.topics & item.topics:
                return 0
        if item.prerequisites.is_empty:
            return 1
        position = len(builder)  # the item lands at this 0-based position
        satisfied = item.prerequisites.satisfied_by(
            builder.positions, position, self.task.hard.gap
        )
        return 1 if satisfied else 0

    def interleaving_similarity(
        self, builder: PlanBuilder, item: Item
    ) -> float:
        """Aggregated Eq. 6/7 similarity of the prefix including ``item``."""
        prefix = builder.type_sequence() + (item.item_type,)
        if len(prefix) > self.task.soft.template.length:
            # Beyond the template horizon (possible in trip mode before
            # the time budget bites) template adherence is moot.
            return 0.0
        return aggregate_similarity(
            prefix, self.task.soft.template, self.config.similarity
        )

    def type_weight(self, item: Item) -> float:
        """``weight_{type_m}``: category weight when configured, else w1/w2."""
        if self._category_weights and item.category is not None:
            weight = self._category_weights.get(item.category)
            if weight is not None:
                return weight
        if item.is_primary:
            return self.config.weights.w_primary
        return self.config.weights.w_secondary

    def feasibility_gate(self, builder: PlanBuilder, item: Item) -> bool:
        """Lookahead mask: can the plan still satisfy P_hard after ``item``?

        Not part of the Eq. 2 value — the paper handles these constraints
        through the weighted reward and Theorem 1's argument — but used
        as an *action mask* alongside r1/r2 so the greedy traversal never
        paints itself into a corner on the primary split, the Univ-2
        per-category credit minima, or the trip distance threshold.
        """
        hard = self.task.hard
        slots_after = hard.plan_length - (len(builder) + 1)
        if slots_after < 0:
            return False

        # Primary split: enough primary slots and unused primaries left.
        primaries_have = sum(
            1 for chosen in builder.items if chosen.is_primary
        ) + (1 if item.is_primary else 0)
        primaries_short = max(0, hard.num_primary - primaries_have)
        if primaries_short > slots_after:
            return False
        # Future positions that matter for reachability: a pooled item
        # can still enter the plan only if each of its prerequisite
        # groups has a member already placed (counting the candidate)
        # early enough to satisfy the gap by the final slot.
        future_positions = dict(builder.positions)
        future_positions[item.item_id] = len(builder)
        last_slot = hard.plan_length - 1
        unused = [
            other
            for other in builder.remaining_items()
            if other.item_id != item.item_id
            and self._reachable(other, future_positions, last_slot)
        ]
        unused_primaries = sum(1 for other in unused if other.is_primary)
        if primaries_short > unused_primaries:
            return False

        if not self._joint_feasible(
            builder, item, unused, slots_after, primaries_short
        ):
            return False
        return self._distance_feasible(builder, item)

    def _reachable(self, item: Item, positions, last_slot: int) -> bool:
        """Could ``item`` still legally enter the plan by the final slot?

        Conservative filter for feasibility pools: an item with an
        unsatisfied prerequisite group whose members are all absent from
        the (projected) plan cannot be scheduled any more.  Items whose
        prerequisites might *themselves* still be added later are
        counted as unreachable — a stricter gate only makes validity
        more robust.
        """
        if item.prerequisites.is_empty:
            return True
        return item.prerequisites.satisfied_by(
            positions, last_slot, self.task.hard.gap
        )

    def _joint_feasible(
        self,
        builder: PlanBuilder,
        item: Item,
        unused,
        slots_after: int,
        primaries_short: int,
    ) -> bool:
        """Category minima and the primary quota, checked *jointly*.

        The two constraints interact: when the remaining slots are all
        forced to be primary, a category whose unused pool is all
        secondary can no longer be filled.  Categories partition items,
        so a greedy assignment that prefers primaries inside each
        category's demand is exact.
        """
        minima = self.task.hard.category_credit_map
        if not minima:
            return True
        earned: Dict[str, float] = {}
        for chosen in builder.items:
            if chosen.category is not None:
                earned[chosen.category] = (
                    earned.get(chosen.category, 0.0) + chosen.credits
                )
        if item.category is not None:
            earned[item.category] = (
                earned.get(item.category, 0.0) + item.credits
            )

        slots_used = 0
        primaries_covered = 0
        for category, minimum in minima.items():
            shortfall = minimum - earned.get(category, 0.0)
            if shortfall <= CREDIT_TOLERANCE:
                continue
            pool = [o for o in unused if o.category == category]
            if not pool:
                return False
            per_item = min(o.credits for o in pool)
            needed = int(-(-shortfall // per_item))  # ceil division
            if needed > len(pool):
                return False
            slots_used += needed
            # Prefer primaries inside the demand: they double-count
            # toward the primary quota.
            pool_primaries = sum(1 for o in pool if o.is_primary)
            primaries_covered += min(needed, pool_primaries)

        if slots_used > slots_after:
            return False
        primaries_left = max(0, primaries_short - primaries_covered)
        free_slots = slots_after - slots_used
        if primaries_left > free_slots:
            return False
        unused_primaries = sum(1 for o in unused if o.is_primary)
        return primaries_left <= unused_primaries

    def _distance_feasible(self, builder: PlanBuilder, item: Item) -> bool:
        """Trip distance budget not blown by the leg to ``item``."""
        max_distance = self.task.hard.max_distance
        if max_distance is None or not builder.items:
            return True
        coords = []
        for chosen in list(builder.items) + [item]:
            lat, lon = chosen.meta("lat"), chosen.meta("lon")
            if lat is None or lon is None:
                return True  # no geo data: nothing to enforce
            coords.append((float(lat), float(lon)))
        total = sum(
            haversine_km(a[0], a[1], b[0], b[1])
            for a, b in zip(coords, coords[1:])
        )
        return total <= max_distance + DISTANCE_TOLERANCE_KM

    def _mask_actions_scalar(self, builder: PlanBuilder, candidates) -> tuple:
        """Per-item tier cascade over Items: the reference
        :meth:`mask_actions` must equal."""
        gap_ok = tuple(
            item for item in candidates if self.gap_gate(builder, item)
        )
        feasible = tuple(
            item for item in gap_ok if self.feasibility_gate(builder, item)
        )
        for tier in (feasible, gap_ok):
            covered = tuple(
                item for item in tier if self.coverage_gate(builder, item)
            )
            if covered:
                return covered
            if tier:
                return tier
        return candidates

    # ------------------------------------------------------------------
    # The step kernel: one step, every candidate, over catalog indices
    # ------------------------------------------------------------------

    def mask_actions(
        self, builder: PlanBuilder, candidates: np.ndarray
    ) -> np.ndarray:
        """Tiered action masking used by the environment and recommender.

        Hard-constraint feasibility dominates the (soft) topic-coverage
        gate: the tiers are, in preference order,

        1. r1 AND r2 AND feasible,
        2. r2 AND feasible          (sacrifice coverage, keep P_hard),
        3. r1 AND r2,
        4. r2,
        5. everything               (episodes never deadlock).

        ``candidates`` is a catalog index array; the kept indices come
        back in input order, decided in one vectorized pass
        (:meth:`_tier_mask`).
        """
        return candidates[self._tier_mask(builder, candidates)]

    def _tier_mask(
        self, builder: PlanBuilder, cand_idx: np.ndarray
    ) -> np.ndarray:
        """The tier cascade as one selection mask over candidate indices."""
        covered, gap_ok = self._gates(builder, cand_idx)
        feasible = np.zeros(cand_idx.size, dtype=bool)
        if gap_ok.any():
            feasible[gap_ok] = self.feasible_mask(builder, cand_idx[gap_ok])
        for tier in (feasible, gap_ok):
            kept = tier & covered
            if kept.any():
                return kept
            if tier.any():
                return tier
        return np.ones(cand_idx.size, dtype=bool)

    def _gates(
        self, builder: PlanBuilder, cand_idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(r1, r2)`` (Eq. 3, Eq. 4) of the candidate indices."""
        view = self._view(builder.catalog)
        return (
            self._coverage_all(builder, view)[cand_idx],
            self._gap_all(builder, view)[cand_idx],
        )

    def _coverage_all(
        self, builder: PlanBuilder, view: _CatalogView
    ) -> np.ndarray:
        """Vectorized ``r1`` (Eq. 3) for every catalog item, once a step."""

        def compute() -> np.ndarray:
            uncovered = ~view.covered_ideal(builder.covered_topics)
            gained = np.count_nonzero(view.ideal_matrix[:, uncovered], axis=1)
            return gained >= self._coverage_needed

        return builder.step_memo((view, "r1"), compute)

    def _gap_all(self, builder: PlanBuilder, view: _CatalogView) -> np.ndarray:
        """Vectorized ``r2`` (Eq. 4) for every catalog item, once a step.

        The prerequisite CNF is one :meth:`_CatalogView.prereq_satisfied`
        pass; theme adjacency is one topic-matrix column test against the
        last plan item (a foreign last item is projected onto the
        catalog's topic columns: a topic outside the vocabulary overlaps
        no catalog item).
        """

        def compute() -> np.ndarray:
            cols = view.cols
            ok = view.prereq_satisfied(
                builder.positions, len(builder), self.task.hard.gap
            )
            last = builder.last_item
            if self.task.hard.theme_adjacency_gap and last is not None:
                last_idx = builder.catalog.index_map.get(last.item_id)
                if last_idx is not None:
                    last_cols = cols.topic_matrix[last_idx]
                else:
                    last_cols = [
                        cols.topic_index[t]
                        for t in last.topics
                        if t in cols.topic_index
                    ]
                ok &= ~cols.topic_matrix[:, last_cols].any(axis=1)
            return ok

        return builder.step_memo((view, "r2"), compute)

    def _similarities(
        self, builder: PlanBuilder, view: _CatalogView, cand_idx: np.ndarray
    ) -> np.ndarray:
        """Eq. 6/7 similarity of the prefix plus each candidate.

        Every candidate extends the same prefix at the same position, so
        only two values exist — one per item type — each O(|IT|) through
        the builder's incremental state and memoized for the step (the
        behaviour policy's batch and the env's one-index step score the
        same state); 0 beyond the template horizon.
        """
        template = self.task.soft.template
        if len(builder) + 1 > template.length:
            return np.zeros(cand_idx.size, dtype=np.float64)
        state = builder.similarity_state(template, self.config.similarity)
        sim_primary, sim_secondary = builder.step_memo(
            (state, "peek"), state.peek_types
        )
        return np.where(
            view.cols.primary_mask[cand_idx], sim_primary, sim_secondary
        )

    def mask_actions_pruned_idx(
        self, builder: PlanBuilder, cand_idx: np.ndarray, top_k: int
    ) -> np.ndarray:
        """Tier-1 masking over catalog indices, cut to the top-k rewards.

        Keeps the covered, gap-ok, feasible candidates (tier 1 of
        :meth:`mask_actions`) whose reward reaches the ``top_k``-th
        largest among them, every tie at that value included.  Inside
        tier 1 ``theta == 1``, so ``delta*sim + beta*weight`` is the
        exact Eq. 2 value and the argmax winner set — the feasible
        candidates attaining the maximal reward — always survives.
        Returned in ascending catalog order, so the downstream argmax,
        including the tie-break RNG draw, is bit-identical to the
        unpruned path.  When tier 1 is empty the full tier cascade runs.
        """
        covered, gap_ok = self._gates(builder, cand_idx)
        pool = cand_idx[covered & gap_ok]
        if pool.size:
            pool = pool[self.feasible_mask(builder, pool)]
            if pool.size > top_k:
                view = self._view(builder.catalog)
                rewards = (
                    self.config.weights.delta
                    * self._similarities(builder, view, pool)
                    + self.config.weights.beta * view.item_weights[pool]
                )
                cut = pool.size - top_k
                pool = pool[rewards >= np.partition(rewards, cut)[cut]]
            if pool.size:
                return np.sort(pool)
        return self.mask_actions(builder, cand_idx)

    def feasible_mask(
        self, builder: PlanBuilder, cand_idx: np.ndarray
    ) -> np.ndarray:
        """:meth:`feasibility_gate` of every candidate index, in one pass.

        All False when no slot remains after this step.
        """
        slots_after = self.task.hard.plan_length - (len(builder) + 1)
        if slots_after < 0:
            return np.zeros(cand_idx.size, dtype=bool)
        return _FeasibilityContext(self, builder, slots_after).decide(cand_idx)

    def batch_components(
        self, builder: PlanBuilder, cand_idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized Eq. 2 components for every candidate index.

        Returns ``(theta, similarity, type_weight, total)`` arrays
        aligned with ``cand_idx``; values equal the per-item
        :meth:`breakdown` fields exactly (the equality is pinned by
        tests).
        """
        view = self._view(builder.catalog)
        covered, gap_ok = self._gates(builder, cand_idx)
        theta = covered & gap_ok
        if theta.any():
            sims = np.where(
                theta, self._similarities(builder, view, cand_idx), 0.0
            )
        else:
            sims = np.zeros(cand_idx.size, dtype=np.float64)
        weights = view.item_weights[cand_idx]
        totals = np.where(
            theta,
            self.config.weights.delta * sims
            + self.config.weights.beta * weights,
            0.0,
        )
        return theta, sims, weights, totals

    def reward_batch(
        self, builder: PlanBuilder, cand_idx: np.ndarray
    ) -> np.ndarray:
        """Equation-2 rewards for all candidate indices as one float64
        vector.

        Equal to ``[self(builder, catalog.item_at(i)) for i in
        cand_idx]`` but O(|I|) per step instead of
        O(|I| * (|I| + k*|IT|)).
        """
        return self.batch_components(builder, cand_idx)[3]

    # ------------------------------------------------------------------
    # Equation 2
    # ------------------------------------------------------------------

    def breakdown(self, builder: PlanBuilder, item: Item) -> RewardBreakdown:
        """Full component breakdown for adding ``item`` to ``builder``."""
        r1 = self.coverage_gate(builder, item)
        r2 = self.gap_gate(builder, item)
        theta = r1 * r2
        if theta == 0:
            # Short-circuit: the gated total is zero regardless of the
            # soft terms; still compute them lazily only when gated in.
            return RewardBreakdown(
                r1_coverage=r1,
                r2_gap=r2,
                similarity=0.0,
                type_weight=self.type_weight(item),
                total=0.0,
            )
        sim = self.interleaving_similarity(builder, item)
        weight = self.type_weight(item)
        total = theta * (
            self.config.weights.delta * sim
            + self.config.weights.beta * weight
        )
        return RewardBreakdown(
            r1_coverage=r1,
            r2_gap=r2,
            similarity=sim,
            type_weight=weight,
            total=total,
        )

    def __call__(self, builder: PlanBuilder, item: Item) -> float:
        """Equation-2 reward for taking the action that adds ``item``."""
        return self.breakdown(builder, item).total

    def best_possible(self) -> float:
        """Upper bound of a single-step reward (for normalization).

        With theta = 1, similarity <= template length (zeta and the match
        count are each at most k, so Eq. 6 is bounded by k), and weight
        <= max type/category weight.
        """
        weights = [self.config.weights.w_primary, self.config.weights.w_secondary]
        weights.extend(self._category_weights.values())
        return (
            self.config.weights.delta * self.task.soft.template.length
            + self.config.weights.beta * max(weights)
        )


def batch_rewards(
    reward, builder: PlanBuilder, cand_idx: np.ndarray
) -> np.ndarray:
    """Eq. 2 of every candidate index through ``reward.reward_batch``.

    The one scoring entry of training, serving and EDA: the env's step,
    the behaviour policy, the greedy traversal and the EDA baseline all
    call it, for the base reward and its wrappers alike.
    """
    return reward.reward_batch(builder, cand_idx)
