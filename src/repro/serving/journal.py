"""Write-ahead delta journal: crash durability for the serving state.

PR 8 made the world mutable — closed items, credit overrides, catalog
versions — but all of it lived in one process's memory.  A restart
silently resurrected closed items and served plans violating the
paper's availability constraints.  This module is the serving-side twin
of the runner's crash-safe checkpoints (PR 3): every
:class:`~repro.core.deltas.CatalogDelta` is appended to an append-only
JSONL journal and fsync'd *before* it is applied/acked, so the
journal's fold is always a superset of any state a client was ever told
about.

Record format (one JSON object per line)::

    {"schema": 1, "seq": 7, "delta": {...}, "checksum": "<sha256>"}

``checksum`` covers the canonical serialization of ``schema``/``seq``/
``delta``, so a flipped bit is distinguishable from a crash-torn tail.

Durability contract
-------------------
* **fsync-before-ack** — ``append`` returns only after the line is
  flushed and ``fdatasync``'d; a crash after the ack replays the delta.
* **at-least-once + idempotence** — a crash *between* fsync and apply
  means the journal holds a delta the in-memory view never folded; the
  replay applies it.  The facade dedupes by ``seq``, so a client retry
  of an acked delta is a no-op, never a double-apply.
* **torn-tail tolerance** — a kill mid-append leaves a truncated final
  line; :func:`~repro.runner.manifest.tolerant_stream_rows` drops it
  with a warning, as is a final line that parses as JSON but is
  *structurally incomplete* (missing record fields).  A structurally
  complete record whose checksum fails — final line or not — is real
  corruption (bit rot on bytes that were fully fsync'd and acked, not
  a crash artifact) and raises a typed
  :class:`~repro.core.exceptions.ArtifactError` so the caller can
  quarantine the journal instead of silently dropping an acked delta.
* **bounded replay** — ``write_snapshot`` persists the view's fold
  state atomically and truncates the journal, so replay cost is
  ``O(compact_every)`` regardless of uptime.  A crash between the
  snapshot rename and the truncation leaves the old tail on disk;
  replay skips that stale pre-watermark prefix (every record already
  folded into the snapshot) rather than treating it as corruption.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import pathlib
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..core.deltas import Delta, delta_from_payload
from ..core.exceptions import ArtifactError, DeltaError
from ..obs import get_registry
from ..runner.manifest import (
    PathLike,
    atomic_write_text,
    canonical_sha256,
    tolerant_stream_rows,
)

logger = logging.getLogger(__name__)

JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_NAME = "snapshot.json"
JOURNAL_SCHEMA = 1

#: fsync latency buckets: journaling sits on the apply_delta hot path,
#: so the interesting range is 100 µs (fast NVMe fdatasync) to the tens
#: of milliseconds a loaded spinning disk can take.
FSYNC_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.25,
)

# fdatasync skips flushing unchanged metadata (mtime) — measurably
# cheaper than fsync for line appends — but is POSIX-only.
_SYNC = getattr(os, "fdatasync", os.fsync)


def _canonical(payload: Dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _TornRecordError(ArtifactError):
    """A record that is structurally incomplete (missing fields).

    Internal marker: only this flavour of decode failure may be
    reclassified as a crash-torn tail when it hits the final line.  A
    structurally complete record that fails validation (checksum, seq,
    schema value) always stays an :class:`ArtifactError` — an acked,
    fsync'd record hit by bit rot must quarantine, never silently drop.
    """


def record_checksum(seq: int, delta_payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical (schema, seq, delta) triple."""
    return canonical_sha256(
        {"schema": JOURNAL_SCHEMA, "seq": seq, "delta": delta_payload}
    )


def _snapshot_checksum(payload: Dict[str, object]) -> str:
    """SHA-256 over a snapshot's canonical (schema, seq, state) triple."""
    return canonical_sha256(
        {key: payload.get(key) for key in ("schema", "seq", "state")}
    )


@dataclasses.dataclass(frozen=True)
class SnapshotState:
    """The fold state a snapshot persists: everything
    :meth:`CatalogView.restore` needs, plus the journal watermark.

    ``seq`` is the highest journal sequence number folded into this
    state; replay applies only tail records with a larger ``seq``.
    """

    closed: Tuple[str, ...]
    credit_overrides: Dict[str, float]
    version: int
    seq: int

    def state_payload(self) -> Dict[str, object]:
        """The ``CatalogView.state_payload()``-shaped portion."""
        return {
            "closed": list(self.closed),
            "credit_overrides": dict(self.credit_overrides),
            "version": self.version,
        }

    def to_dict(self) -> Dict[str, object]:
        body = {
            "schema": JOURNAL_SCHEMA,
            "seq": self.seq,
            "state": self.state_payload(),
        }
        body["checksum"] = _snapshot_checksum(body)
        return body

    @classmethod
    def from_dict(cls, payload: object, source: str) -> "SnapshotState":
        if not isinstance(payload, dict):
            raise ArtifactError(
                f"{source}: snapshot must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        if payload.get("schema") != JOURNAL_SCHEMA:
            raise ArtifactError(
                f"{source}: unsupported snapshot schema "
                f"{payload.get('schema')!r} (expected {JOURNAL_SCHEMA})"
            )
        expected = _snapshot_checksum(payload)
        if payload.get("checksum") != expected:
            raise ArtifactError(
                f"{source}: snapshot checksum mismatch "
                f"(stored {str(payload.get('checksum'))[:12]}..., "
                f"computed {expected[:12]}...)"
            )
        state = payload.get("state")
        seq = payload.get("seq")
        if not isinstance(state, dict) or not isinstance(seq, int):
            raise ArtifactError(f"{source}: malformed snapshot body")
        closed = state.get("closed")
        overrides = state.get("credit_overrides")
        version = state.get("version")
        if (
            not isinstance(closed, list)
            or not isinstance(overrides, dict)
            or not isinstance(version, int)
        ):
            raise ArtifactError(f"{source}: malformed snapshot state")
        return cls(
            closed=tuple(closed),
            credit_overrides={
                item: float(credits)
                for item, credits in overrides.items()
            },
            version=version,
            seq=seq,
        )


@dataclasses.dataclass(frozen=True)
class ReplayResult:
    """What :meth:`DeltaJournal.replay` recovered.

    ``last_seq`` is the high-water mark the facade resumes dedupe from:
    the tail's final record, or the snapshot's watermark when the tail
    is empty, or 0 for a pristine journal.  ``stale_records`` counts
    pre-watermark tail records skipped because a crash landed between
    the snapshot rename and the journal truncation.
    """

    snapshot: Optional[SnapshotState]
    deltas: Tuple[Delta, ...]
    last_seq: int
    torn_tail: bool = False
    stale_records: int = 0

    @property
    def empty(self) -> bool:
        return self.snapshot is None and not self.deltas


class DeltaJournal:
    """Append-only, checksummed, fsync'd delta journal with snapshots.

    Parameters
    ----------
    root:
        Directory holding ``journal.jsonl`` + ``snapshot.json``
        (created if missing).
    compact_every:
        Tail length at which :meth:`should_compact` turns true; the
        facade then snapshots the view and truncates the journal.
    fsync:
        ``False`` skips the per-append ``fdatasync`` (tests/benchmarks
        that want the format without the durability tax).

    Thread-safe: appends and snapshots serialize under an internal
    lock.  The facade additionally holds its delta lock around the
    journal+apply pair, so the journal order always matches the fold
    order.
    """

    def __init__(
        self,
        root: PathLike,
        compact_every: int = 512,
        fsync: bool = True,
    ) -> None:
        if compact_every < 1:
            raise ValueError(
                f"compact_every must be >= 1, got {compact_every}"
            )
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.compact_every = compact_every
        self.fsync = fsync
        self._lock = threading.Lock()
        self._handle = None
        self._tail_records = 0
        self._closed = False

    @property
    def journal_path(self) -> pathlib.Path:
        return self.root / JOURNAL_NAME

    @property
    def snapshot_path(self) -> pathlib.Path:
        return self.root / SNAPSHOT_NAME

    @property
    def tail_records(self) -> int:
        """Records appended since the last snapshot (this process +
        whatever :meth:`replay` counted)."""
        return self._tail_records

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def _writer(self):
        if self._closed:
            raise ArtifactError(
                f"journal {self.root} is closed; appends refused"
            )
        if self._handle is None:
            self._handle = self.journal_path.open("a")
        return self._handle

    def append(self, delta: Delta) -> None:
        """Durably append one seq-stamped delta (fsync-before-return).

        The caller (the facade) stamps ``seq`` before appending;
        unstamped deltas are refused because replay dedupe would be
        meaningless without a watermark.
        """
        if delta.seq <= 0:
            raise DeltaError(
                f"journal appends require a positive seq, got {delta.seq}"
            )
        payload = delta.to_dict()
        line = _canonical(
            {
                "schema": JOURNAL_SCHEMA,
                "seq": delta.seq,
                "delta": payload,
                "checksum": record_checksum(delta.seq, payload),
            }
        )
        obs = get_registry()
        with self._lock:
            handle = self._writer()
            handle.write(line + "\n")
            handle.flush()
            if self.fsync:
                t0 = time.perf_counter()
                _SYNC(handle.fileno())
                obs.histogram(
                    "journal_fsync_seconds", FSYNC_BUCKETS
                ).observe(time.perf_counter() - t0)
            self._tail_records += 1
        obs.inc("journal_appends_total")

    def should_compact(self) -> bool:
        """True when the tail has outgrown ``compact_every``."""
        return self._tail_records >= self.compact_every

    def write_snapshot(
        self, state: Dict[str, object], seq: int
    ) -> pathlib.Path:
        """Atomically persist the fold state and truncate the journal.

        ``state`` is a :meth:`CatalogView.state_payload` dict; ``seq``
        is the watermark of the last journaled delta folded into it.
        Ordering is crash-safe: the snapshot lands via tmp+fsync+rename
        *before* the journal is truncated, so a crash between the two
        merely replays tail deltas already covered by the snapshot —
        harmless, because replay skips records at/below the watermark.
        """
        snapshot = SnapshotState(
            closed=tuple(state.get("closed", ())),
            credit_overrides=dict(state.get("credit_overrides", {})),
            version=int(state.get("version", 0)),
            seq=seq,
        )
        with self._lock:
            path = atomic_write_text(
                self.snapshot_path,
                _canonical(snapshot.to_dict()) + "\n",
            )
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            # Truncate-in-place (not unlink) keeps the inode any
            # concurrent reader already has open coherent.
            with self.journal_path.open("w") as handle:
                handle.flush()
                os.fsync(handle.fileno())
            self._tail_records = 0
        get_registry().inc("journal_snapshots_total")
        return path

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self._closed = True

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def replay(self) -> ReplayResult:
        """Read snapshot + journal tail back into typed deltas.

        Raises :class:`ArtifactError` on real corruption (bad snapshot
        checksum, any structurally complete record whose checksum
        fails, seq regressions within the post-watermark tail) — the
        caller should :meth:`quarantine` and fall back to the pristine
        catalog.  A torn final line (crash mid-append: truncated JSON
        or a parsed object missing record fields) is dropped with a
        warning: by the fsync-before-ack contract no client was ever
        acked for it.  Tail records at or below the snapshot watermark
        that precede any post-watermark record are the stale remainder
        of a crash between snapshot and truncation — already folded
        into the snapshot, so they are skipped, not errors.
        """
        snapshot: Optional[SnapshotState] = None
        if self.snapshot_path.exists():
            try:
                payload = json.loads(self.snapshot_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ArtifactError(
                    f"{self.snapshot_path}: unreadable snapshot: {exc}"
                ) from exc
            snapshot = SnapshotState.from_dict(
                payload, str(self.snapshot_path)
            )
        last_seq = snapshot.seq if snapshot is not None else 0

        total_lines = 0
        if self.journal_path.exists():
            with self.journal_path.open() as handle:
                total_lines = sum(1 for _ in handle)
        rows = tolerant_stream_rows(self.journal_path)
        if total_lines - len(rows) > 1:
            # tolerant_stream_rows stops at the first undecodable line;
            # more than one dropped line means the failure was not the
            # crash-torn tail but mid-stream corruption.
            raise ArtifactError(
                f"{self.journal_path}: undecodable record at line "
                f"{len(rows) + 1} of {total_lines} (mid-stream "
                f"corruption, not a torn tail)"
            )
        torn_tail = total_lines - len(rows) == 1

        snapshot_seq = last_seq
        deltas: List[Delta] = []
        stale = 0
        for index, row in enumerate(rows):
            is_last = index == len(rows) - 1
            try:
                delta = self._decode_record(row, index + 1)
            except _TornRecordError:
                if is_last and not torn_tail:
                    # A final line that parses as JSON but is missing
                    # record fields is still the torn tail of a crash
                    # mid-append.  (A *complete* record failing its
                    # checksum propagates: that is bit rot on acked
                    # bytes, and dropping it would lose a durable
                    # delta — quarantine instead.)
                    logger.warning(
                        "%s: dropping torn final record at line %d",
                        self.journal_path, index + 1,
                    )
                    torn_tail = True
                    break
                raise
            if delta.seq <= snapshot_seq and not deltas:
                # Stale pre-watermark prefix: a crash between
                # write_snapshot's atomic rename and the journal
                # truncation left the old tail on disk.  Every one of
                # these records is already folded into the snapshot.
                stale += 1
                continue
            if delta.seq <= last_seq:
                raise ArtifactError(
                    f"{self.journal_path}: seq regression at line "
                    f"{index + 1}: {delta.seq} <= watermark {last_seq}"
                )
            last_seq = delta.seq
            deltas.append(delta)
        if stale:
            logger.warning(
                "%s: skipped %d stale pre-watermark record(s) <= seq %d "
                "(crash between snapshot and truncation; already folded "
                "into the snapshot)",
                self.journal_path, stale, snapshot_seq,
            )
            get_registry().inc("journal_replay_stale_records_total", stale)

        with self._lock:
            self._tail_records = len(deltas)
        return ReplayResult(
            snapshot=snapshot,
            deltas=tuple(deltas),
            last_seq=last_seq,
            torn_tail=torn_tail,
            stale_records=stale,
        )

    def _decode_record(self, row: Dict[str, object], lineno: int) -> Delta:
        source = f"{self.journal_path}:{lineno}"
        if not isinstance(row, dict):
            raise _TornRecordError(
                f"{source}: record must be a JSON object"
            )
        missing = [
            key
            for key in ("schema", "seq", "delta", "checksum")
            if key not in row
        ]
        if missing:
            raise _TornRecordError(
                f"{source}: record missing field(s) {missing} "
                f"(structurally incomplete)"
            )
        if row.get("schema") != JOURNAL_SCHEMA:
            raise ArtifactError(
                f"{source}: unsupported record schema "
                f"{row.get('schema')!r} (expected {JOURNAL_SCHEMA})"
            )
        seq = row.get("seq")
        payload = row.get("delta")
        if not isinstance(seq, int) or not isinstance(payload, dict):
            raise ArtifactError(f"{source}: malformed record body")
        if row.get("checksum") != record_checksum(seq, payload):
            raise ArtifactError(
                f"{source}: record checksum mismatch (bit rot or "
                f"tampering; refusing to replay)"
            )
        try:
            delta = delta_from_payload(payload)
        except DeltaError as exc:
            raise ArtifactError(
                f"{source}: checksummed record decodes to an invalid "
                f"delta: {exc}"
            ) from exc
        if delta.seq != seq:
            raise ArtifactError(
                f"{source}: record seq {seq} disagrees with delta seq "
                f"{delta.seq}"
            )
        return delta

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------

    def quarantine(self) -> Tuple[pathlib.Path, ...]:
        """Move the corrupt journal + snapshot aside and start fresh.

        Files are renamed with an incrementing ``.quarantined-N``
        suffix (no wall-clock in names — deterministic test artifacts),
        preserved for the forensics the ops runbook in EXPERIMENTS.md
        walks through.  Returns the quarantined paths.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            victims = [
                path
                for path in (self.journal_path, self.snapshot_path)
                if path.exists()
            ]
            moved: List[pathlib.Path] = []
            if victims:
                index = 0
                while True:
                    targets = [
                        path.with_name(
                            f"{path.name}.quarantined-{index}"
                        )
                        for path in victims
                    ]
                    if not any(t.exists() for t in targets):
                        break
                    index += 1
                for path, target in zip(victims, targets):
                    path.rename(target)
                    moved.append(target)
            self._tail_records = 0
        get_registry().inc("journal_quarantines_total")
        for target in moved:
            logger.warning("journal quarantined: %s", target)
        return tuple(moved)

    def __enter__(self) -> "DeltaJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
