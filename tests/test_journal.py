"""Durability suite: write-ahead delta journal + crash-safe restart.

Unit layer: record/checksum round trips, torn-tail tolerance vs
mid-stream corruption, snapshot compaction, quarantine fallback, and
the facade's seq-dedupe contract (at-least-once delivery composing
with exactly-once application).

Chaos layer (``-m chaos``): the restart drill the PR's acceptance
criterion names — a serving process is SIGKILL'd mid-churn and a fresh
process must replay the journal to *byte-identical* live-catalog state
and never serve a closed item afterwards.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.core.deltas import (
    DELTA_CLOSE,
    DELTA_CREDIT_CHANGE,
    DELTA_REOPEN,
    CatalogDelta,
    CatalogView,
)
from repro.core.exceptions import ArtifactError, DeltaError
from repro.scenarios.churn import poisson_schedule
from repro.serving import (
    DeltaJournal,
    JOURNAL_SCHEMA,
    PlanningService,
    ServeRequest,
    SnapshotState,
)
from repro.serving.journal import record_checksum

pytestmark = pytest.mark.serving

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _delta(kind, item_id, seq=0, credits=None):
    return CatalogDelta(kind=kind, item_id=item_id, seq=seq, credits=credits)


def _record_line(seq, delta):
    payload = delta.to_dict()
    return json.dumps(
        {
            "schema": JOURNAL_SCHEMA,
            "seq": seq,
            "delta": payload,
            "checksum": record_checksum(seq, payload),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


@pytest.fixture
def service(toy_catalog, toy_task):
    return PlanningService(toy_catalog, toy_task, audit=False)


class TestJournalFile:
    def test_append_replay_roundtrip(self, tmp_path, toy_catalog):
        ids = sorted(toy_catalog.item_ids)
        with DeltaJournal(tmp_path) as journal:
            journal.append(_delta(DELTA_CLOSE, ids[0], seq=1))
            journal.append(_delta(DELTA_REOPEN, ids[0], seq=2))
            journal.append(
                _delta(DELTA_CREDIT_CHANGE, ids[1], seq=3, credits=4.0)
            )
        replay = DeltaJournal(tmp_path).replay()
        assert replay.snapshot is None
        assert replay.last_seq == 3
        assert not replay.torn_tail
        assert [d.seq for d in replay.deltas] == [1, 2, 3]
        assert [d.kind for d in replay.deltas] == [
            DELTA_CLOSE, DELTA_REOPEN, DELTA_CREDIT_CHANGE,
        ]
        assert replay.deltas[2].credits == 4.0

    def test_append_refuses_unstamped_deltas(self, tmp_path, toy_catalog):
        journal = DeltaJournal(tmp_path)
        with pytest.raises(DeltaError, match="positive seq"):
            journal.append(_delta(DELTA_CLOSE, sorted(toy_catalog.item_ids)[0]))

    def test_empty_journal_replays_empty(self, tmp_path):
        replay = DeltaJournal(tmp_path).replay()
        assert replay.empty and replay.last_seq == 0

    def test_torn_trailing_line_is_dropped(self, tmp_path, toy_catalog):
        ids = sorted(toy_catalog.item_ids)
        journal = DeltaJournal(tmp_path)
        journal.append(_delta(DELTA_CLOSE, ids[0], seq=1))
        journal.append(_delta(DELTA_CLOSE, ids[1], seq=2))
        journal.close()
        # A SIGKILL mid-append truncates the final line mid-JSON.
        with journal.journal_path.open("a") as handle:
            handle.write('{"schema": 1, "seq": 3, "del')
        replay = DeltaJournal(tmp_path).replay()
        assert replay.torn_tail
        assert [d.seq for d in replay.deltas] == [1, 2]
        assert replay.last_seq == 2

    def test_checksum_failing_final_line_raises(
        self, tmp_path, toy_catalog
    ):
        ids = sorted(toy_catalog.item_ids)
        journal = DeltaJournal(tmp_path)
        journal.append(_delta(DELTA_CLOSE, ids[0], seq=1))
        journal.append(_delta(DELTA_CLOSE, ids[1], seq=2))
        journal.close()
        # A structurally complete final record whose checksum fails is
        # bit rot on fsync'd+acked bytes, not a torn tail: silently
        # dropping it would lose an acked delta, so replay must raise
        # and let the caller quarantine.
        lines = journal.journal_path.read_text().splitlines()
        rotted = json.loads(lines[-1])
        rotted["checksum"] = "0" * 64
        lines[-1] = json.dumps(rotted, sort_keys=True, separators=(",", ":"))
        journal.journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            DeltaJournal(tmp_path).replay()

    def test_structurally_incomplete_final_line_is_torn_tail(
        self, tmp_path, toy_catalog
    ):
        ids = sorted(toy_catalog.item_ids)
        journal = DeltaJournal(tmp_path)
        journal.append(_delta(DELTA_CLOSE, ids[0], seq=1))
        journal.close()
        # Parses as JSON but is missing record fields: a torn tail
        # (never acked), dropped with a warning.
        with journal.journal_path.open("a") as handle:
            handle.write('{"schema": 1, "seq": 2}\n')
        replay = DeltaJournal(tmp_path).replay()
        assert replay.torn_tail
        assert [d.seq for d in replay.deltas] == [1]
        assert replay.last_seq == 1

    def test_midstream_corruption_raises_artifact_error(
        self, tmp_path, toy_catalog
    ):
        ids = sorted(toy_catalog.item_ids)
        journal = DeltaJournal(tmp_path)
        for seq, item in enumerate(ids[:3], start=1):
            journal.append(_delta(DELTA_CLOSE, item, seq=seq))
        journal.close()
        lines = journal.journal_path.read_text().splitlines()
        lines[0] = lines[0][:20]  # bit rot on a *non-final* record
        journal.journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactError, match="mid-stream corruption"):
            DeltaJournal(tmp_path).replay()

    def test_midstream_checksum_mismatch_raises(self, tmp_path, toy_catalog):
        ids = sorted(toy_catalog.item_ids)
        journal = DeltaJournal(tmp_path)
        journal.append(_delta(DELTA_CLOSE, ids[0], seq=1))
        journal.append(_delta(DELTA_CLOSE, ids[1], seq=2))
        journal.close()
        lines = journal.journal_path.read_text().splitlines()
        lines[0] = lines[0].replace(ids[0], ids[2])  # valid JSON, wrong hash
        journal.journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            DeltaJournal(tmp_path).replay()

    def test_seq_regression_raises(self, tmp_path, toy_catalog):
        ids = sorted(toy_catalog.item_ids)
        journal = DeltaJournal(tmp_path)
        journal.append(_delta(DELTA_CLOSE, ids[0], seq=5))
        journal.append(_delta(DELTA_CLOSE, ids[1], seq=3))
        journal.close()
        with pytest.raises(ArtifactError, match="seq regression"):
            DeltaJournal(tmp_path).replay()

    def test_snapshot_truncates_tail_and_carries_watermark(
        self, tmp_path, toy_catalog
    ):
        ids = sorted(toy_catalog.item_ids)
        journal = DeltaJournal(tmp_path, compact_every=2)
        journal.append(_delta(DELTA_CLOSE, ids[0], seq=1))
        journal.append(_delta(DELTA_CLOSE, ids[1], seq=2))
        assert journal.should_compact()
        journal.write_snapshot(
            {"closed": [ids[0], ids[1]], "credit_overrides": {}, "version": 2},
            seq=2,
        )
        assert journal.tail_records == 0
        assert journal.journal_path.read_text() == ""
        replay = DeltaJournal(tmp_path).replay()
        assert replay.snapshot == SnapshotState(
            closed=(ids[0], ids[1]),
            credit_overrides={},
            version=2,
            seq=2,
        )
        assert replay.deltas == () and replay.last_seq == 2

    def test_crash_between_snapshot_and_truncate_replays(
        self, tmp_path, toy_catalog
    ):
        ids = sorted(toy_catalog.item_ids)
        journal = DeltaJournal(tmp_path)
        journal.append(_delta(DELTA_CLOSE, ids[0], seq=1))
        journal.append(_delta(DELTA_CLOSE, ids[1], seq=2))
        journal.append(_delta(DELTA_REOPEN, ids[0], seq=3))
        pre_truncate_tail = journal.journal_path.read_text()
        journal.write_snapshot(
            {"closed": [ids[1]], "credit_overrides": {}, "version": 3},
            seq=3,
        )
        journal.close()
        # Simulate a crash after write_snapshot's atomic rename but
        # *before* the journal truncation: the new snapshot coexists
        # with the old tail, every record at/below the watermark.
        journal.journal_path.write_text(pre_truncate_tail)

        replay = DeltaJournal(tmp_path).replay()
        assert replay.snapshot is not None and replay.snapshot.seq == 3
        assert replay.snapshot.closed == (ids[1],)
        assert replay.stale_records == 3
        assert replay.deltas == ()
        assert replay.last_seq == 3
        assert not replay.torn_tail

    def test_stale_prefix_then_live_tail_replays_both(
        self, tmp_path, toy_catalog
    ):
        ids = sorted(toy_catalog.item_ids)
        journal = DeltaJournal(tmp_path)
        journal.append(_delta(DELTA_CLOSE, ids[0], seq=1))
        journal.append(_delta(DELTA_CLOSE, ids[1], seq=2))
        stale_tail = journal.journal_path.read_text()
        journal.write_snapshot(
            {"closed": [ids[0], ids[1]], "credit_overrides": {}, "version": 2},
            seq=2,
        )
        # Crash window left the old tail, then the restarted process
        # appended a post-watermark delta before the *next* crash.
        journal.journal_path.write_text(stale_tail)
        journal.append(_delta(DELTA_REOPEN, ids[0], seq=3))
        journal.close()

        replay = DeltaJournal(tmp_path).replay()
        assert replay.stale_records == 2
        assert [d.seq for d in replay.deltas] == [3]
        assert replay.last_seq == 3

    def test_seq_regression_after_live_tail_still_raises(
        self, tmp_path, toy_catalog
    ):
        ids = sorted(toy_catalog.item_ids)
        journal = DeltaJournal(tmp_path)
        journal.write_snapshot(
            {"closed": [], "credit_overrides": {}, "version": 0}, seq=3
        )
        # A pre-watermark seq *after* a post-watermark record is not a
        # stale-prefix artifact — it is a genuinely non-monotonic tail.
        journal.append(_delta(DELTA_CLOSE, ids[0], seq=5))
        journal.append(_delta(DELTA_CLOSE, ids[1], seq=2))
        journal.close()
        with pytest.raises(ArtifactError, match="seq regression"):
            DeltaJournal(tmp_path).replay()

    def test_corrupt_snapshot_raises(self, tmp_path):
        journal = DeltaJournal(tmp_path)
        journal.snapshot_path.write_text('{"schema": 1, "seq": true}\n')
        with pytest.raises(ArtifactError):
            journal.replay()
        journal.snapshot_path.write_text("not json at all\n")
        with pytest.raises(ArtifactError, match="unreadable snapshot"):
            journal.replay()

    def test_quarantine_moves_files_aside_deterministically(
        self, tmp_path, toy_catalog
    ):
        ids = sorted(toy_catalog.item_ids)
        journal = DeltaJournal(tmp_path)
        journal.append(_delta(DELTA_CLOSE, ids[0], seq=1))
        journal.snapshot_path.write_text("garbage\n")
        moved = journal.quarantine()
        assert sorted(p.name for p in moved) == [
            "journal.jsonl.quarantined-0",
            "snapshot.json.quarantined-0",
        ]
        assert not journal.journal_path.exists()
        # A second corrupt generation gets the next free suffix.
        journal.append(_delta(DELTA_CLOSE, ids[0], seq=1))
        moved = journal.quarantine()
        assert [p.name for p in moved] == ["journal.jsonl.quarantined-1"]

    def test_closed_journal_refuses_appends(self, tmp_path, toy_catalog):
        journal = DeltaJournal(tmp_path)
        journal.close()
        with pytest.raises(ArtifactError, match="closed"):
            journal.append(
                _delta(DELTA_CLOSE, sorted(toy_catalog.item_ids)[0], seq=1)
            )


class TestChecksumStability:
    """Checksums written by earlier builds must still verify.

    Both literals were computed by the hand-rolled canonical-JSON hashing
    the journal used before it called ``canonical_sha256``.
    """

    def test_record_checksum_is_stable(self):
        delta = _delta(DELTA_CREDIT_CHANGE, "c2", seq=7, credits=4.5)
        assert record_checksum(7, delta.to_dict()) == (
            "7fdd8c531b547a875dcb5eb264436078937955a5e37c9814cd65c24ac6e554e4"
        )

    def test_snapshot_checksum_is_stable(self):
        state = SnapshotState(
            closed=("c1", "c3"),
            credit_overrides={"c2": 4.5},
            version=5,
            seq=7,
        )
        stored = {
            "schema": 1,
            "seq": 7,
            "state": {
                "closed": ["c1", "c3"],
                "credit_overrides": {"c2": 4.5},
                "version": 5,
            },
            "checksum": (
                "e39e99f3c6d0b66293a9a8833cca065a"
                "39b62ce075da4398c7e01e9b1cc7d766"
            ),
        }
        assert state.to_dict() == stored
        assert SnapshotState.from_dict(stored, "stored") == state


class TestFacadeDurability:
    def test_attach_empty_journal_serves_pristine(self, tmp_path, service):
        recovery = service.attach_journal(DeltaJournal(tmp_path))
        assert not recovery.restored
        assert "journal empty" in recovery.describe()
        assert service.journal_seq == 0
        assert service.live_catalog is service.catalog

    def test_unstamped_deltas_get_the_next_seq(self, tmp_path, service):
        service.attach_journal(DeltaJournal(tmp_path))
        ids = sorted(service.catalog.item_ids)
        first = service.apply_delta(_delta(DELTA_CLOSE, ids[0]))
        second = service.apply_delta(_delta(DELTA_REOPEN, ids[0]))
        assert (first.seq, second.seq) == (1, 2)
        assert service.journal_seq == 2

    def test_duplicate_seq_is_acked_as_noop(self, tmp_path, service):
        service.attach_journal(DeltaJournal(tmp_path))
        ids = sorted(service.catalog.item_ids)
        report = service.apply_delta(_delta(DELTA_CLOSE, ids[0], seq=1))
        assert not report.duplicate
        version = service.catalog_version
        retry = service.apply_delta(_delta(DELTA_CLOSE, ids[0], seq=1))
        assert retry.duplicate and retry.seq == 1
        assert retry.findings == ()
        assert service.catalog_version == version
        # The journal holds exactly one record, not two.
        assert len(service.journal.journal_path.read_text().splitlines()) == 1

    def test_duplicate_seq_with_different_payload_raises(
        self, tmp_path, service
    ):
        service.attach_journal(DeltaJournal(tmp_path))
        ids = sorted(service.catalog.item_ids)
        service.apply_delta(_delta(DELTA_CLOSE, ids[0], seq=1))
        version = service.catalog_version
        # A miscounting client reusing seq 1 for a *new* world event
        # must be rejected, not silently acked as a duplicate no-op.
        with pytest.raises(DeltaError, match="seq-space collision"):
            service.apply_delta(_delta(DELTA_CLOSE, ids[1], seq=1))
        assert service.catalog_version == version
        assert len(service.journal.journal_path.read_text().splitlines()) == 1
        # A true retry (identical payload) still acks as a no-op.
        retry = service.apply_delta(_delta(DELTA_CLOSE, ids[0], seq=1))
        assert retry.duplicate

    def test_duplicate_verification_survives_restart(
        self, tmp_path, service, toy_catalog, toy_task
    ):
        service.attach_journal(DeltaJournal(tmp_path))
        ids = sorted(service.catalog.item_ids)
        service.apply_delta(_delta(DELTA_CLOSE, ids[0], seq=1))
        service.journal.close()

        restarted = PlanningService(toy_catalog, toy_task, audit=False)
        restarted.attach_journal(DeltaJournal(tmp_path))
        retry = restarted.apply_delta(_delta(DELTA_CLOSE, ids[0], seq=1))
        assert retry.duplicate
        with pytest.raises(DeltaError, match="seq-space collision"):
            restarted.apply_delta(_delta(DELTA_REOPEN, ids[0], seq=1))

    def test_crash_between_snapshot_and_truncate_recovers_state(
        self, tmp_path, service, toy_catalog, toy_task
    ):
        service.attach_journal(DeltaJournal(tmp_path, compact_every=2))
        ids = sorted(service.catalog.item_ids)
        service.apply_delta(_delta(DELTA_CLOSE, ids[0]))
        pre_truncate_tail = service.journal.journal_path.read_text()
        service.apply_delta(_delta(DELTA_CLOSE, ids[1]))  # snapshot fires
        tail_after = service.journal.journal_path.read_text()
        service.journal.close()
        # Crash after the snapshot rename, before the truncation: the
        # old tail precedes whatever the truncation would have kept.
        service.journal.journal_path.write_text(
            pre_truncate_tail
            + _record_line(2, _delta(DELTA_CLOSE, ids[1], seq=2))
            + "\n"
            + tail_after
        )

        restarted = PlanningService(toy_catalog, toy_task, audit=False)
        recovery = restarted.attach_journal(DeltaJournal(tmp_path))
        assert recovery.restored
        assert recovery.stale_records == 2
        assert not recovery.quarantined
        assert restarted.journal_seq == service.journal_seq
        assert restarted.catalog_version == service.catalog_version
        assert restarted.live_catalog.item_ids == service.live_catalog.item_ids
        assert restarted.live_catalog.name == service.live_catalog.name

    def test_unknown_item_rejected_before_journaling(
        self, tmp_path, service
    ):
        journal = DeltaJournal(tmp_path)
        service.attach_journal(journal)
        with pytest.raises(DeltaError, match="unknown to base catalog"):
            service.apply_delta(_delta(DELTA_CLOSE, "no-such-item"))
        assert service.journal_seq == 0
        assert not journal.journal_path.exists() or (
            journal.journal_path.read_text() == ""
        )

    def test_restart_replays_to_identical_state(
        self, tmp_path, service, toy_catalog, toy_task
    ):
        service.attach_journal(DeltaJournal(tmp_path))
        ids = sorted(service.catalog.item_ids)
        service.apply_delta(_delta(DELTA_CLOSE, ids[0]))
        service.apply_delta(_delta(DELTA_CREDIT_CHANGE, ids[1], credits=5.0))
        service.apply_delta(_delta(DELTA_REOPEN, ids[0]))
        service.journal.close()

        restarted = PlanningService(toy_catalog, toy_task, audit=False)
        recovery = restarted.attach_journal(DeltaJournal(tmp_path))
        assert recovery.restored
        assert recovery.replayed_deltas == 3 and recovery.skipped_deltas == 0
        assert restarted.journal_seq == service.journal_seq == 3
        assert restarted.catalog_version == service.catalog_version == 3
        assert restarted.live_catalog.item_ids == service.live_catalog.item_ids
        assert restarted.live_catalog.name == service.live_catalog.name
        assert restarted.live_catalog[ids[1]].credits == 5.0

    def test_compaction_through_facade_then_recover(
        self, tmp_path, service, toy_catalog, toy_task
    ):
        service.attach_journal(DeltaJournal(tmp_path, compact_every=2))
        ids = sorted(service.catalog.item_ids)
        service.apply_delta(_delta(DELTA_CLOSE, ids[0]))
        service.apply_delta(_delta(DELTA_CLOSE, ids[1]))  # triggers snapshot
        service.apply_delta(_delta(DELTA_REOPEN, ids[0]))
        journal = service.journal
        assert journal.snapshot_path.exists()
        assert len(journal.journal_path.read_text().splitlines()) == 1
        journal.close()

        restarted = PlanningService(toy_catalog, toy_task, audit=False)
        recovery = restarted.attach_journal(DeltaJournal(tmp_path))
        assert recovery.restored and recovery.snapshot_seq == 2
        assert recovery.replayed_deltas == 1
        assert restarted.journal_seq == 3
        assert restarted.live_catalog.item_ids == service.live_catalog.item_ids
        assert restarted.catalog_version == service.catalog_version

    def test_corrupt_journal_quarantined_not_crash_loop(
        self, tmp_path, service, toy_catalog, toy_task
    ):
        service.attach_journal(DeltaJournal(tmp_path))
        ids = sorted(service.catalog.item_ids)
        service.apply_delta(_delta(DELTA_CLOSE, ids[0]))
        service.apply_delta(_delta(DELTA_CLOSE, ids[1]))
        service.journal.close()
        path = service.journal.journal_path
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:15]  # mid-stream corruption, not a torn tail
        path.write_text("\n".join(lines) + "\n")

        restarted = PlanningService(toy_catalog, toy_task, audit=False)
        recovery = restarted.attach_journal(DeltaJournal(tmp_path))
        assert not recovery.restored
        assert recovery.quarantined
        assert "CORRUPT" in recovery.describe()
        assert restarted.live_catalog is restarted.catalog
        assert not path.exists()
        # The quarantined directory accepts fresh durable state.
        report = restarted.apply_delta(_delta(DELTA_CLOSE, ids[0]))
        assert report.seq == 1 and restarted.journal_seq == 1

    def test_wrong_universe_snapshot_quarantined(
        self, tmp_path, service
    ):
        journal = DeltaJournal(tmp_path)
        journal.write_snapshot(
            {"closed": ["alien-item"], "credit_overrides": {}, "version": 1},
            seq=1,
        )
        recovery = service.attach_journal(DeltaJournal(tmp_path))
        assert not recovery.restored and recovery.quarantined
        assert service.live_catalog is service.catalog

    def test_replay_skips_deterministically_rejected_delta(
        self, tmp_path, service, toy_catalog, toy_task
    ):
        ids = sorted(toy_catalog.item_ids)
        journal = DeltaJournal(tmp_path)
        # Journal closes for every item: the trailing ones were
        # journaled pre-crash but rejected at apply (closing the last
        # open item, or pruning the live catalog empty) — replay must
        # reject them identically and keep serving.
        for seq, item in enumerate(ids, start=1):
            journal.append(_delta(DELTA_CLOSE, item, seq=seq))
        journal.close()

        reference = CatalogView(toy_catalog)
        rejected = 0
        for seq, item in enumerate(ids, start=1):
            try:
                reference.apply(_delta(DELTA_CLOSE, item, seq=seq))
            except DeltaError:
                rejected += 1
        assert rejected >= 1  # the drill must actually exercise a skip

        recovery = service.attach_journal(DeltaJournal(tmp_path))
        assert recovery.restored
        assert recovery.skipped_deltas == rejected
        assert recovery.replayed_deltas == len(ids) - rejected
        assert service.live_catalog.item_ids == reference.live.item_ids
        assert service.catalog_version == reference.version
        assert service.journal_seq == len(ids)

    def test_torn_tail_never_acked_so_retry_reapplies(
        self, tmp_path, service, toy_catalog, toy_task
    ):
        service.attach_journal(DeltaJournal(tmp_path))
        ids = sorted(service.catalog.item_ids)
        service.apply_delta(_delta(DELTA_CLOSE, ids[0]))
        service.journal.close()
        with service.journal.journal_path.open("a") as handle:
            handle.write('{"schema": 1, "se')  # crash mid-append of seq 2

        restarted = PlanningService(toy_catalog, toy_task, audit=False)
        recovery = restarted.attach_journal(DeltaJournal(tmp_path))
        assert recovery.restored and recovery.torn_tail
        assert restarted.journal_seq == 1
        # The client that never got an ack retries; it must apply, not
        # dedupe (the torn record was dropped, not folded).
        report = restarted.apply_delta(_delta(DELTA_CLOSE, ids[1], seq=2))
        assert not report.duplicate and restarted.journal_seq == 2


# ----------------------------------------------------------------------
# The restart drill: SIGKILL mid-churn, replay, serve
# ----------------------------------------------------------------------

_CHURN_CHILD = textwrap.dedent(
    """
    import os
    import sys
    import time

    from repro.datasets import toy_course_catalog, toy_course_task
    from repro.scenarios.churn import poisson_schedule
    from repro.serving import DeltaJournal, PlanningService

    journal_dir, progress_path, seed = (
        sys.argv[1], sys.argv[2], int(sys.argv[3])
    )
    catalog, task = toy_course_catalog(), toy_course_task()
    service = PlanningService(catalog, task, audit=False)
    service.attach_journal(DeltaJournal(journal_dir))
    schedule = poisson_schedule(
        catalog, seed=seed, rate=40.0, reopen_rate=25.0
    )
    with open(progress_path, "a") as fh:
        for event in schedule.events:
            report = service.apply_delta(event.delta)
            fh.write(f"{report.seq}\\n")
            fh.flush()
            os.fsync(fh.fileno())
            time.sleep(0.05)
    print("completed without being killed", file=sys.stderr)
    """
)


@pytest.mark.chaos
@pytest.mark.slow
class TestRestartDrill:
    def test_kill9_midchurn_recovers_byte_identical_state(
        self, tmp_path, toy_catalog, toy_task
    ):
        journal_dir = tmp_path / "journal"
        progress = tmp_path / "progress.txt"
        script = tmp_path / "churn_child.py"
        script.write_text(_CHURN_CHILD)
        seed = 11

        env = dict(os.environ)
        src = os.path.join(REPO_ROOT, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        child = subprocess.Popen(
            [
                sys.executable, str(script),
                str(journal_dir), str(progress), str(seed),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if progress.exists() and len(
                    progress.read_text().splitlines()
                ) >= 4:
                    break
                if child.poll() is not None:
                    _, err = child.communicate()
                    pytest.fail(
                        f"churn child exited early: {err.decode()!r}"
                    )
                time.sleep(0.01)
            else:
                pytest.fail("churn child made no progress before timeout")
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30)
            if child.poll() is None:  # pragma: no cover
                child.kill()

        acked = [int(s) for s in progress.read_text().split()]
        assert len(acked) >= 4

        restarted = PlanningService(toy_catalog, toy_task, audit=False)
        recovery = restarted.attach_journal(DeltaJournal(journal_dir))
        assert recovery.restored
        watermark = restarted.journal_seq
        # fsync-before-ack: every acked delta survived the SIGKILL.
        assert watermark >= max(acked)

        # Reference fold: the same seeded schedule, truncated at the
        # recovered watermark, applied to a fresh view.
        schedule = poisson_schedule(
            toy_catalog, seed=seed, rate=40.0, reopen_rate=25.0
        )
        reference = CatalogView(toy_catalog)
        for event in schedule.events:
            if event.delta.seq > watermark:
                break
            reference.apply(event.delta)
        assert restarted.catalog_version == reference.version
        assert restarted.live_catalog.item_ids == reference.live.item_ids
        assert restarted.live_catalog.name == reference.live.name

        # Zero closed items served post-restart: every plan the
        # recovered service emits draws only on the live catalog — and
        # when the recovered closures make the task infeasible, the
        # request is *rejected* against the replayed world (a pristine
        # fallback would have served), never answered with dead items.
        closed = set(toy_catalog.item_ids) - set(reference.live.item_ids)
        result = restarted.serve(ServeRequest(deadline_s=10.0))
        if result.plan is not None:
            assert not set(result.plan.item_ids) & closed
            assert set(result.plan.item_ids) <= set(
                restarted.live_catalog.item_ids
            )
        else:
            assert result.outcome in ("rejected", "failed")
            assert result.catalog_version == reference.version
