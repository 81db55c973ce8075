"""The |I| x |I| action-value table of Section III-C.

``Q[s, e]`` estimates how good it is to move from the item at index ``s``
to the item at index ``e``.  Because the interaction graph is complete
and states are items, the table is logically a square matrix over
catalog indices; the diagonal (self-transitions) is never used.

Two storage backends implement that contract:

* :class:`QTable` — the dense ``float64`` matrix of the original
  reproduction.  O(1) reads/writes and vectorized row slices, but
  ``8 * |I|^2`` bytes of memory (a 50k-item catalog would need ~20 GB).
* :class:`SparseQTable` — dict-of-rows storage holding only entries that
  were ever written.  SARSA touches at most ``episodes * horizon`` cells,
  so memory is proportional to training effort, not catalog size.

Both derive from :class:`QTableBase` (exported as ``QTableBackend``),
which owns id resolution, greedy argmax semantics (including NaN
handling and tie-breaking), entry import/export, and copying — so the
backends are bit-identical everywhere except raw storage.  Use
:func:`make_qtable` to pick a backend by catalog size.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .catalog import Catalog
from .exceptions import PlanningError

#: Catalog size at or above which :func:`make_qtable`'s ``"auto"`` mode
#: picks the sparse backend.  At the threshold the dense matrix costs
#: ``8 * 2048^2`` = 32 MiB per table; the registry's warm LRU keeps
#: several tables alive at once, so the cutover is deliberately well
#: below the point where a single table hurts.
SPARSE_BACKEND_THRESHOLD = 2048


class QTableBase:
    """Shared behaviour of every Q-table backend.

    Subclasses provide raw storage via :meth:`q_value`,
    :meth:`row_values`, :meth:`_set_idx`, :meth:`td_update`,
    :meth:`to_entries`, :meth:`best_continuation`, and
    :meth:`_copy_storage_into`; everything keyed by item *ids*, the
    greedy lookups, and the (de)serialization entry points live here so
    the two backends cannot drift apart semantically.

    Parameters
    ----------
    catalog:
        Defines the index space; the table is ``len(catalog)`` squared.
    initial_value:
        Optimistic or zero initialization for all entries.
    """

    def __init__(self, catalog: Catalog, initial_value: float = 0.0) -> None:
        self.catalog = catalog
        self._updates = 0
        #: Entries dropped by the most recent :meth:`from_entries` load
        #: because their ids were absent from the catalog.
        self.skipped_on_load = 0

    # ------------------------------------------------------------------
    # Storage interface (implemented per backend)
    # ------------------------------------------------------------------

    def q_value(self, state_idx: int, action_idx: int) -> float:
        """``Q(s, e)`` by catalog indices."""
        raise NotImplementedError

    def row_values(self, state_idx: int, action_idx: np.ndarray) -> np.ndarray:
        """``Q(s, .)`` over the given action indices as a float64 array."""
        raise NotImplementedError

    def _set_idx(self, state_idx: int, action_idx: int, value: float) -> None:
        raise NotImplementedError

    def td_update(
        self,
        state_idx: int,
        action_idx: int,
        target: float,
        learning_rate: float,
    ) -> float:
        """Apply ``Q += alpha * (target - Q)`` and return the new value."""
        raise NotImplementedError

    def to_entries(self) -> Dict[Tuple[str, str], float]:
        """Sparse dict of the learned entries, keyed by item-id pairs.

        An entry is *learned* when it was ever written through
        :meth:`set` or :meth:`td_update` (dense backend: or when its
        value differs from zero, a safety net for tables built by direct
        array manipulation).  Tracking touched cells — not just non-zero
        values — means a genuinely learned entry whose value decayed to
        exactly 0.0 survives a save/load round trip.

        Used by transfer learning to re-key values onto another catalog,
        by persistence, and by tests to snapshot learned policies.
        """
        raise NotImplementedError

    def best_continuation(
        self, cand_idx: np.ndarray, remaining_idx: np.ndarray
    ) -> np.ndarray:
        """``max(0, max_b Q(a, b))`` for each candidate ``a``.

        ``b`` ranges over ``remaining_idx`` minus the candidate itself
        (no self-transition).  Requires ``remaining_idx`` sorted
        ascending and every candidate present in it — exactly the shape
        the recommender's lookahead produces.  The clamp at zero makes
        the result backend-independent: unstored sparse cells and dense
        zero cells agree, and an empty continuation set yields 0.
        """
        raise NotImplementedError

    def _copy_storage_into(self, clone: "QTableBase") -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        """``(|I|, |I|)``."""
        n = len(self.catalog)
        return (n, n)

    @property
    def update_count(self) -> int:
        """Number of TD updates applied (learning-progress metric)."""
        return self._updates

    @update_count.setter
    def update_count(self, count: int) -> None:
        """Restore the update counter (deserialization / transfer).

        The counter marks a table as "trained" to the recommender, so
        restoring it is part of the persistence contract rather than a
        private poke.
        """
        if count < 0:
            raise PlanningError("update_count must be >= 0")
        self._updates = int(count)

    def get(self, state_id: str, action_id: str) -> float:
        """``Q(s, e)`` by item ids."""
        s = self.catalog.index_of(state_id)
        e = self.catalog.index_of(action_id)
        return self.q_value(s, e)

    def set(self, state_id: str, action_id: str, value: float) -> None:
        """Overwrite one entry (used by tests and transfer mapping)."""
        s = self.catalog.index_of(state_id)
        e = self.catalog.index_of(action_id)
        self._set_idx(s, e, value)

    # ------------------------------------------------------------------
    # Greedy lookups
    # ------------------------------------------------------------------

    def best_action(
        self,
        state_id: str,
        allowed_ids: Sequence[str],
        rng: Optional[np.random.Generator] = None,
    ) -> str:
        """Argmax over allowed actions from ``state_id``.

        Ties are broken uniformly at random when ``rng`` is given, else
        deterministically by ``allowed_ids`` order (the first tied entry
        of the sequence wins).  NaN Q-values never win: they are treated
        as minus infinity, and if *every* allowed value is NaN the tie is
        broken over the whole allowed set instead of raising.
        """
        if not allowed_ids:
            raise PlanningError(
                f"no allowed actions from state {state_id!r}"
            )
        s = self.catalog.index_of(state_id)
        indices = np.fromiter(
            (self.catalog.index_of(a) for a in allowed_ids),
            dtype=np.int64,
            count=len(allowed_ids),
        )
        row = self.row_values(s, indices)
        finite = row[~np.isnan(row)]
        if finite.size == 0:
            winners = list(allowed_ids)
        else:
            best = finite.max()
            winners = [
                allowed_ids[i]
                for i in range(len(allowed_ids))
                if row[i] >= best
            ]
        if rng is not None and len(winners) > 1:
            return winners[int(rng.integers(len(winners)))]
        return winners[0]

    def best_action_idx(
        self,
        state_idx: Optional[int],
        allowed_idx: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> int:
        """Index-based :meth:`best_action` for the greedy hot loops.

        Semantically identical to resolving ids through the catalog and
        calling :meth:`best_action` (same NaN handling, same winner set
        and order, same number of rng draws) but operating directly on
        catalog indices, so the traversal never rebuilds id lists.
        Returns the chosen *catalog index*.  ``state_idx`` None is a
        state the table does not index (a foreign plan item): it reads
        as a never-visited row, so every allowed action ties.
        """
        allowed_idx = np.asarray(allowed_idx, dtype=np.int64)
        if allowed_idx.size == 0:
            raise PlanningError(
                f"no allowed actions from state index {state_idx}"
            )
        if state_idx is None:
            row = np.zeros(allowed_idx.size)
        else:
            row = self.row_values(int(state_idx), allowed_idx)
        nan = np.isnan(row)
        if nan.all():
            winners = np.arange(allowed_idx.size)
        else:
            best = row[~nan].max()
            # NaN >= best is False, so NaN entries never enter the set —
            # matching best_action's explicit filtering.
            winners = np.flatnonzero(row >= best)
        if rng is not None and winners.size > 1:
            return int(allowed_idx[int(winners[int(rng.integers(winners.size))])])
        return int(allowed_idx[int(winners[0])])

    def action_values(
        self, state_id: str, allowed_ids: Sequence[str]
    ) -> Dict[str, float]:
        """Q-values of the allowed actions from ``state_id``."""
        s = self.catalog.index_of(state_id)
        return {
            a: self.q_value(s, self.catalog.index_of(a))
            for a in allowed_ids
        }

    # ------------------------------------------------------------------
    # Serialization / transfer support
    # ------------------------------------------------------------------

    @classmethod
    def from_entries(
        cls,
        catalog: Catalog,
        entries: Dict[Tuple[str, str], float],
        strict: bool = False,
        update_count: Optional[int] = None,
    ) -> "QTableBase":
        """Rebuild a table over ``catalog`` from id-keyed entries.

        Entries whose ids are absent from ``catalog`` are skipped unless
        ``strict`` is True — this permissive behaviour is exactly what
        cross-catalog transfer needs; the number of skipped entries is
        recorded on the public :attr:`skipped_on_load` attribute.

        ``update_count`` restores the training-progress counter (e.g.
        from a policy file's metadata) so callers never have to reach
        into private state to mark a table as trained.

        Works on any backend class: ``QTable.from_entries(...)`` and
        ``SparseQTable.from_entries(...)`` accept the same entry dicts,
        which is what makes policy artifacts backend-portable.
        """
        table = cls(catalog)
        skipped = 0
        for (state_id, action_id), value in entries.items():
            if state_id in catalog and action_id in catalog:
                table.set(state_id, action_id, value)
            elif strict:
                missing = state_id if state_id not in catalog else action_id
                raise PlanningError(
                    f"entry references item {missing!r} not in catalog "
                    f"{catalog.name!r}"
                )
            else:
                skipped += 1
        table.skipped_on_load = skipped
        if update_count is not None:
            table.update_count = update_count
        return table

    def copy(self) -> "QTableBase":
        """Deep copy over the same catalog (same backend).

        Carries every piece of public metadata, including
        :attr:`skipped_on_load` — a clone of a loaded table keeps its
        load provenance.
        """
        clone = type(self)(self.catalog)
        clone._updates = self._updates
        clone.skipped_on_load = self.skipped_on_load
        self._copy_storage_into(clone)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"{type(self).__name__}(catalog={self.catalog.name!r}, "
            f"shape={self.shape}, updates={self._updates})"
        )


#: Public name of the backend contract: anything accepting "a Q-table"
#: should type against / duck-type this, not the dense class.
QTableBackend = QTableBase


class QTable(QTableBase):
    """Dense action-value table keyed by catalog item indices.

    The faithful |I| x |I| ``float64`` matrix of the paper.  Right for
    catalogs up to a few thousand items; beyond that use
    :class:`SparseQTable` (or let :func:`make_qtable` decide).
    """

    def __init__(self, catalog: Catalog, initial_value: float = 0.0) -> None:
        super().__init__(catalog, initial_value)
        n = len(catalog)
        self._values = np.full((n, n), float(initial_value), dtype=np.float64)
        self._touched = np.zeros((n, n), dtype=bool)

    @property
    def values(self) -> np.ndarray:
        """The underlying matrix (a live view; do not mutate directly)."""
        return self._values

    def q_value(self, state_idx: int, action_idx: int) -> float:
        return float(self._values[state_idx, action_idx])

    def row_values(self, state_idx: int, action_idx: np.ndarray) -> np.ndarray:
        return self._values[state_idx, action_idx]

    def _set_idx(self, state_idx: int, action_idx: int, value: float) -> None:
        self._values[state_idx, action_idx] = value
        self._touched[state_idx, action_idx] = True

    def td_update(
        self,
        state_idx: int,
        action_idx: int,
        target: float,
        learning_rate: float,
    ) -> float:
        old = self._values[state_idx, action_idx]
        new = old + learning_rate * (target - old)
        self._values[state_idx, action_idx] = new
        self._touched[state_idx, action_idx] = True
        self._updates += 1
        return float(new)

    def to_entries(self) -> Dict[Tuple[str, str], float]:
        # One reused |I|^2 boolean temporary (|= is in place) and bulk
        # flat-index extraction — no per-cell Python indexing.
        mask = self._values != 0.0
        mask |= self._touched
        flat = np.flatnonzero(mask.ravel())
        n = self._values.shape[1]
        rows, cols = np.divmod(flat, n)
        values = self._values.ravel()[flat]
        ids = self.catalog.item_ids
        return {
            (ids[r], ids[c]): v
            for r, c, v in zip(
                rows.tolist(), cols.tolist(), values.tolist()
            )
        }

    def best_continuation(
        self, cand_idx: np.ndarray, remaining_idx: np.ndarray
    ) -> np.ndarray:
        continuation = self._values[np.ix_(cand_idx, remaining_idx)]
        # Mask each candidate's own column (no self-transition); the
        # candidates are a subset of the remaining items, and
        # remaining_idx is sorted ascending.  NaN never wins, as in
        # best_action and the sparse backend: fmax skips it, and the
        # masked self column keeps every row's reduction non-NaN.
        self_col = np.searchsorted(remaining_idx, cand_idx)
        rows = np.arange(len(cand_idx))
        continuation[rows, self_col] = -np.inf
        return np.maximum(np.fmax.reduce(continuation, axis=1), 0.0)

    def _copy_storage_into(self, clone: "QTableBase") -> None:
        assert isinstance(clone, QTable)
        clone._values = self._values.copy()
        clone._touched = self._touched.copy()


class SparseQTable(QTableBase):
    """Dict-of-rows action-value table for large catalogs.

    Stores only entries ever written through :meth:`set` /
    :meth:`td_update`; unstored cells read as the implicit 0.0 the dense
    backend initializes with.  Memory scales with the number of learned
    entries (at most ``episodes * horizon`` under SARSA) instead of
    ``|I|^2``, which is what lets a 50k-item catalog train in megabytes
    where the dense matrix would need ~20 GB.

    Only zero initialization is supported: a non-zero ``initial_value``
    would have to materialize the full matrix, defeating the backend.
    """

    def __init__(self, catalog: Catalog, initial_value: float = 0.0) -> None:
        if initial_value != 0.0:
            raise PlanningError(
                "SparseQTable only supports initial_value=0.0 (a non-zero "
                "default would densify the table); use QTable for "
                "optimistic initialization"
            )
        super().__init__(catalog, initial_value)
        self._rows: Dict[int, Dict[int, float]] = {}

    @property
    def values(self) -> np.ndarray:
        raise PlanningError(
            "SparseQTable has no dense value matrix; use row_values(), "
            "q_value(), or best_continuation() instead"
        )

    @property
    def nnz(self) -> int:
        """Number of stored entries (diagnostics / memory accounting)."""
        return sum(len(row) for row in self._rows.values())

    def q_value(self, state_idx: int, action_idx: int) -> float:
        row = self._rows.get(int(state_idx))
        if row is None:
            return 0.0
        return float(row.get(int(action_idx), 0.0))

    def row_values(self, state_idx: int, action_idx: np.ndarray) -> np.ndarray:
        row = self._rows.get(int(state_idx))
        if not row:
            return np.zeros(len(action_idx), dtype=np.float64)
        get = row.get
        return np.fromiter(
            (get(int(a), 0.0) for a in action_idx),
            dtype=np.float64,
            count=len(action_idx),
        )

    def _set_idx(self, state_idx: int, action_idx: int, value: float) -> None:
        self._rows.setdefault(int(state_idx), {})[int(action_idx)] = float(
            value
        )

    def td_update(
        self,
        state_idx: int,
        action_idx: int,
        target: float,
        learning_rate: float,
    ) -> float:
        row = self._rows.setdefault(int(state_idx), {})
        old = row.get(int(action_idx), 0.0)
        new = old + learning_rate * (target - old)
        row[int(action_idx)] = new
        self._updates += 1
        return float(new)

    def to_entries(self) -> Dict[Tuple[str, str], float]:
        ids = self.catalog.item_ids
        entries: Dict[Tuple[str, str], float] = {}
        # Row-major sorted order matches the dense backend's scan order,
        # so iteration order (and hence any order-sensitive downstream
        # rendering) is backend-independent.
        for s in sorted(self._rows):
            row = self._rows[s]
            state_id = ids[s]
            for a in sorted(row):
                entries[(state_id, ids[a])] = float(row[a])
        return entries

    def best_continuation(
        self, cand_idx: np.ndarray, remaining_idx: np.ndarray
    ) -> np.ndarray:
        # Scan stored entries (few) against a remaining lookup instead of
        # slicing a dense submatrix.  The clamp at 0 mirrors the dense
        # path exactly: unstored remaining cells read 0.0 there, so the
        # dense max is >= 0 whenever any unstored remaining cell exists,
        # and the explicit clamp covers the rest.  NaN never wins
        # (``value > best`` is False), as in the dense path.  Only a
        # candidate with a stored row can continue above 0, so walk
        # whichever is shorter: the candidates or the stored rows.
        n = len(self.catalog)
        in_remaining = np.zeros(n, dtype=bool)
        in_remaining[remaining_idx] = True
        is_candidate = np.zeros(n, dtype=bool)
        is_candidate[cand_idx] = True
        rows = self._rows
        states = rows if len(rows) < len(cand_idx) else cand_idx.tolist()
        best_by_state = np.zeros(n, dtype=np.float64)
        for s in states:
            row = rows.get(s)
            if not row or not is_candidate[s]:
                continue
            best = 0.0
            for a, value in row.items():
                if a != s and value > best and in_remaining[a]:
                    best = value
            best_by_state[s] = best
        return best_by_state[cand_idx]

    def _copy_storage_into(self, clone: "QTableBase") -> None:
        assert isinstance(clone, SparseQTable)
        clone._rows = {s: dict(row) for s, row in self._rows.items()}


_BACKENDS: Dict[str, type] = {"dense": QTable, "sparse": SparseQTable}


def resolve_backend(catalog: Catalog, backend: str = "auto") -> type:
    """The backend *class* for a catalog under a selection policy.

    ``backend`` is ``"dense"``, ``"sparse"``, or ``"auto"`` (dense below
    :data:`SPARSE_BACKEND_THRESHOLD` items, sparse at or above it).
    """
    if backend == "auto":
        backend = (
            "sparse"
            if len(catalog) >= SPARSE_BACKEND_THRESHOLD
            else "dense"
        )
    try:
        return _BACKENDS[backend]
    except KeyError:
        raise PlanningError(
            f"unknown qtable backend {backend!r}; expected 'auto', "
            f"'dense', or 'sparse'"
        ) from None


def make_qtable(
    catalog: Catalog, backend: str = "auto", initial_value: float = 0.0
) -> QTableBase:
    """Build a Q-table over ``catalog`` with the selected backend.

    The single construction point used by the learner, the trainer, the
    policy loader, and transfer — so ``PlannerConfig.qtable_backend``
    steers every table in the system through one switch.
    """
    return resolve_backend(catalog, backend)(catalog, initial_value)
