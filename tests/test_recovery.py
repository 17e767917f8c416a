"""Crash-recovery tests for the incremental commit pipeline.

Extends the failure-injection approach of ``test_failure_injection.py``
to the WAL/snapshot pipeline: the process model is killed at every
fsync/rename boundary (mid-WAL-append, post-WAL pre-snapshot,
mid-compaction, pre-audit-append) and ``Warehouse.open`` must always
recover a consistent document or raise ``WarehouseCorruptError`` —
never a silent half-state.  Property tests check that
replay(snapshot + WAL) is node-for-node identical to the in-memory
application, and that incrementally maintained statistics equal freshly
collected ones after every commit.
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import (
    DeleteOperation,
    InsertOperation,
    Session,
    UpdateTransaction,
    collect_stats,
)
from repro.tpwj.parser import parse_pattern
from repro.errors import UpdateError, WarehouseCorruptError, WarehouseLockedError
from repro.trees import tree
from repro.trees.random import RandomTreeConfig
from repro.warehouse import CommitPolicy, Storage, Warehouse, WriteAheadLog
from repro.warehouse.log import TransactionLog, _record_digest
from repro.warehouse import storage as storage_module
from repro.warehouse import warehouse as warehouse_module
from repro.workloads import FuzzyWorkloadConfig, random_fuzzy_tree, random_update_for


class _Crash(Exception):
    """The injected fault: the process dies here."""


def _no_compact_policy(snapshot_every: int = 1000) -> CommitPolicy:
    return CommitPolicy(snapshot_every=snapshot_every, compact_on_close=False)


def _kill(warehouse: Warehouse) -> None:
    """Simulate process death: the lock evaporates, nothing is flushed."""
    warehouse._storage.release_lock()
    warehouse._closed = True


def _insert_tx(confidence: float = 0.5, label: str = "N") -> UpdateTransaction:
    return UpdateTransaction(
        parse_pattern("C[$c]"), [InsertOperation("c", tree(label))], confidence
    )


def _root_delete_tx(root: str = "A") -> UpdateTransaction:
    """Inserts under the root, then asks to delete it: always refused."""
    return UpdateTransaction(
        parse_pattern(f"/{root}[$r]"),
        [InsertOperation("r", tree("Phantom")), DeleteOperation("r")],
        1.0,
    )


def _state(warehouse: Warehouse) -> tuple:
    """Everything a reopen must reproduce: document, events, the fresh
    counter (the next minted name) and the sequence."""
    document = warehouse.document
    return (
        document.root.canonical(),
        document.events.as_dict(),
        document.events.fresh_counter,
        warehouse.sequence,
    )


class TestCrashMidWalAppend:
    def test_torn_tail_record_discarded(self, tmp_path, slide12_doc):
        """A crash mid-append leaves a partial last line; recovery drops
        it and serves the previous commit's state."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx())
        durable_state = wh.document.root.canonical()
        durable_sequence = wh.sequence
        wh._commit_update(_insert_tx())
        _kill(wh)
        # Tear the last WAL record: the crash happened mid-write.
        wal_path = path / "wal.jsonl"
        raw = wal_path.read_bytes()
        wal_path.write_bytes(raw[: len(raw) - 25])
        with Warehouse.open(path) as recovered:
            assert recovered.document.root.canonical() == durable_state
            assert recovered.sequence == durable_sequence

    def test_crash_raised_inside_append(self, tmp_path, slide12_doc, monkeypatch):
        """The append itself dies after partial bytes hit the file."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx())
        durable_state = wh.document.root.canonical()
        durable_sequence = wh.sequence

        def torn_append(self, kind, sequence, payload):
            with open(self.path, "ab") as handle:
                handle.write(b'{"kind": "update", "seq')
            raise _Crash()

        monkeypatch.setattr(WriteAheadLog, "append", torn_append)
        with pytest.raises(_Crash):
            wh._commit_update(_insert_tx())
        monkeypatch.undo()
        _kill(wh)
        with Warehouse.open(path) as recovered:
            assert recovered.document.root.canonical() == durable_state
            assert recovered.sequence == durable_sequence

    def test_torn_tail_is_truncated_before_the_next_append(self, tmp_path, slide12_doc):
        """Recovery cuts a torn tail away: a commit acknowledged after
        it must not be written onto the torn line, where the next open
        would read it as mid-file damage and lose it."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx())
        _kill(wh)
        with open(path / "wal.jsonl", "ab") as handle:
            handle.write(b'{"kind": "update", "seq')  # crash mid-append
        wh = Warehouse.open(path, policy=_no_compact_policy())
        assert wh.sequence == 2
        wh._commit_update(_insert_tx(label="Acked"))
        assert wh.sequence == 3
        expected = _state(wh)
        _kill(wh)
        with Warehouse.open(path) as recovered:
            assert _state(recovered) == expected

    def test_corrupt_record_before_tail_detected(self, tmp_path, slide12_doc):
        """Acknowledged (non-tail) WAL damage must raise, not skip."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx())
        wh._commit_update(_insert_tx())
        _kill(wh)
        wal_path = path / "wal.jsonl"
        lines = wal_path.read_bytes().splitlines(keepends=True)
        lines[0] = lines[0][:40] + b"X" + lines[0][41:]
        wal_path.write_bytes(b"".join(lines))
        with pytest.raises(WarehouseCorruptError, match="checksum|unparseable"):
            Warehouse.open(path)

    def test_wal_sequence_gap_detected(self, tmp_path, slide12_doc):
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        for _ in range(3):
            wh._commit_update(_insert_tx())
        _kill(wh)
        wal_path = path / "wal.jsonl"
        lines = wal_path.read_bytes().splitlines(keepends=True)
        del lines[1]  # a durable commit vanished
        wal_path.write_bytes(b"".join(lines))
        with pytest.raises(WarehouseCorruptError, match="sequence gap"):
            Warehouse.open(path)


class TestCrashDuringCompaction:
    def test_crash_post_wal_pre_snapshot(self, tmp_path, slide12_doc, monkeypatch):
        """Snapshot write dies after the WAL append: the commit is
        durable in the WAL and replays on open."""
        path = tmp_path / "wh"
        wh = Warehouse.create(
            path, slide12_doc, policy=CommitPolicy(snapshot_every=2, compact_on_close=False)
        )
        wh._commit_update(_insert_tx())  # seq 2: WAL only

        def dying_write(self, xml_text, sequence, extra_meta=None, binary=None):
            raise _Crash()

        monkeypatch.setattr(Storage, "write_document", dying_write)
        with pytest.raises(_Crash):
            wh._commit_update(_insert_tx())  # seq 3: WAL append ok, compaction dies
        monkeypatch.undo()
        expected = wh.document.root.canonical()
        _kill(wh)
        with Warehouse.open(path) as recovered:
            assert recovered.document.root.canonical() == expected
            assert recovered.sequence == 3
            assert recovered.stats()["wal_depth"] == 2  # both replayed

    def test_crash_between_snapshot_and_wal_reset(
        self, tmp_path, slide12_doc, monkeypatch
    ):
        """Snapshot written, WAL reset dies: stale records are skipped."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx())
        wh._commit_update(_insert_tx())

        def dying_reset(self):
            raise _Crash()

        monkeypatch.setattr(WriteAheadLog, "reset", dying_reset)
        with pytest.raises(_Crash):
            wh.compact()
        monkeypatch.undo()
        expected = wh.document.root.canonical()
        sequence = wh.sequence
        _kill(wh)
        # The WAL still holds records <= the fresh snapshot's sequence.
        assert WriteAheadLog(path).size_bytes() > 0
        with Warehouse.open(path) as recovered:
            assert recovered.document.root.canonical() == expected
            assert recovered.sequence == sequence
            assert recovered.stats()["wal_depth"] == 0

    @pytest.mark.parametrize(
        "boundary", [1, 2, 3], ids=["document.xml", "meta.json", "document.bin"]
    )
    @pytest.mark.parametrize("route", ["compact", "threshold"])
    def test_snapshot_dying_at_each_write_keeps_the_store_readable(
        self, tmp_path, slide12_doc, monkeypatch, route, boundary
    ):
        """meta.json is the snapshot's commit point: whichever of the
        three writes dies — in compact() or in a commit crossing
        snapshot_every — the handle stays open and a reopen reads the
        document, events and sequence the live handle serves."""
        path = tmp_path / "wh"
        wh = Warehouse.create(
            path, slide12_doc, policy=CommitPolicy(snapshot_every=3, compact_on_close=False)
        )
        wh._commit_update(_insert_tx())  # seq 2: WAL only
        wh._commit_update(_insert_tx())  # seq 3: WAL only
        real_atomic_write = storage_module._atomic_write
        calls = {"n": 0}

        def dying_atomic_write(target, payload):
            calls["n"] += 1
            # Writes per snapshot: document.xml, meta.json, document.bin.
            if calls["n"] == boundary:
                raise _Crash()
            real_atomic_write(target, payload)

        monkeypatch.setattr(storage_module, "_atomic_write", dying_atomic_write)
        with pytest.raises(_Crash):
            if route == "compact":
                wh.compact()
            else:
                wh._commit_update(_insert_tx())  # seq 4 crosses snapshot_every=3
        monkeypatch.undo()
        assert wh.health()["alive"]
        expected = _state(wh)
        assert expected[3] == (3 if route == "compact" else 4)
        _kill(wh)
        with Warehouse.open(path) as recovered:
            assert _state(recovered) == expected


class TestCrashBeforeAuditAppend:
    def test_audit_entry_reconstructed_from_wal(
        self, tmp_path, slide12_doc, monkeypatch
    ):
        """The WAL made the commit durable; a crash before the audit
        append must not lose history — recovery rebuilds the entry."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx())

        def dying_append(self, kind, sequence, payload, fsync=True):
            raise _Crash()

        monkeypatch.setattr(TransactionLog, "append", dying_append)
        with pytest.raises(_Crash):
            wh._commit_update(_insert_tx())
        monkeypatch.undo()
        expected = wh.document.root.canonical()
        _kill(wh)
        with Warehouse.open(path) as recovered:
            assert recovered.document.root.canonical() == expected
            last = recovered.history()[-1]
            assert last["sequence"] == 3
            assert last["replayed"] is True
            assert last["kind"] == "update"

    def test_replayed_entries_equal_the_live_ones(self, tmp_path, slide12_doc):
        """Live commit and recovery build audit entries with one
        routine: losing the whole log tail rebuilds the same entries
        (update and batch kinds), marked replayed."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx())
        wh.update_many([_insert_tx(1.0), _insert_tx(0.3)], confidence=0.25)
        live = wh.history()
        assert [entry["kind"] for entry in live] == ["create", "update", "batch"]
        _kill(wh)
        log_path = path / "log.jsonl"
        log_path.write_text(log_path.read_text().splitlines(keepends=True)[0])

        def comparable(entry):
            return {k: v for k, v in entry.items() if k not in ("timestamp", "replayed")}

        with Warehouse.open(path) as recovered:
            rebuilt = recovered.history()
        assert [comparable(entry) for entry in rebuilt] == [
            comparable(entry) for entry in live
        ]
        assert [entry.get("replayed") for entry in rebuilt] == [None, True, True]


class TestReplayDivergenceGuard:
    def test_foreign_confidence_event_detected(self, tmp_path, slide12_doc):
        """A WAL record whose recorded confidence event cannot be
        re-minted means snapshot and WAL describe different histories."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx(confidence=0.5))
        _kill(wh)
        wal_path = path / "wal.jsonl"
        record = json.loads(wal_path.read_text().splitlines()[0])
        record["payload"]["confidence_event"] = "w999"
        record["sha256"] = _record_digest(
            {k: v for k, v in record.items() if k != "sha256"}
        )
        wal_path.write_text(json.dumps(record, sort_keys=True) + "\n")
        with pytest.raises(WarehouseCorruptError, match="diverged"):
            Warehouse.open(path)

    @pytest.mark.parametrize("cap", [-1, "x", 1.5])
    def test_malformed_recorded_match_cap_detected(self, tmp_path, slide12_doc, cap):
        """A WAL record carrying a ``max_matches`` no session could have
        written is corruption — typed, not a ``ValueError`` from deep
        inside the matcher."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx(confidence=0.5))
        _kill(wh)
        wal_path = path / "wal.jsonl"
        record = json.loads(wal_path.read_text().splitlines()[0])
        record["payload"]["max_matches"] = cap
        record["sha256"] = _record_digest(
            {k: v for k, v in record.items() if k != "sha256"}
        )
        wal_path.write_text(json.dumps(record, sort_keys=True) + "\n")
        with pytest.raises(WarehouseCorruptError, match="max_matches"):
            Warehouse.open(path)


# ----------------------------------------------------------------------
# Property tests: replay fidelity and incremental statistics
# ----------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**32 - 1)

SMALL_DOCS = FuzzyWorkloadConfig(
    tree=RandomTreeConfig(max_nodes=16, min_nodes=4, max_children=3, max_depth=4),
    n_events=3,
)

relaxed = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_session(rng: random.Random, warehouse: Warehouse) -> None:
    """Drive a short random mix of single and batched commits."""
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            members = [
                random_update_for(
                    rng, warehouse.document, confidence=rng.choice([0.5, 0.9, 1.0])
                )
                for _ in range(rng.randint(1, 3))
            ]
            warehouse.update_many(members)
        else:
            warehouse._commit_update(
                random_update_for(
                    rng, warehouse.document, confidence=rng.choice([0.5, 0.9, 1.0])
                )
            )


@relaxed
@given(seeds)
def test_replay_is_identical_to_in_memory_application(seed):
    """replay(snapshot + WAL deltas) == the document the live session
    held, node for node, event for event, sequence for sequence."""
    rng = random.Random(seed)
    doc = random_fuzzy_tree(rng, SMALL_DOCS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wh"
        wh = Warehouse.create(path, doc, policy=_no_compact_policy())
        _random_session(rng, wh)
        expected = wh.document.root.canonical()
        expected_events = wh.document.events.as_dict()
        expected_sequence = wh.sequence
        assert wh.stats()["wal_depth"] >= 1
        _kill(wh)
        with Warehouse.open(path) as recovered:
            assert recovered.document.root.canonical() == expected
            assert recovered.document.events.as_dict() == expected_events
            assert recovered.sequence == expected_sequence


@relaxed
@given(seeds)
def test_incremental_stats_equal_fresh_stats_after_every_commit(seed):
    """The delta-maintained DocumentStats snapshot equals a fresh
    one-pass collection after every commit (single and batched)."""
    rng = random.Random(seed)
    doc = random_fuzzy_tree(rng, SMALL_DOCS)
    with tempfile.TemporaryDirectory() as tmp:
        wh = Warehouse.create(Path(tmp) / "wh", doc)
        wh.engine.stats.current()  # prime the maintained accumulator
        for _ in range(rng.randint(2, 6)):
            wh._commit_update(
                random_update_for(
                    rng, wh.document, confidence=rng.choice([0.5, 0.9, 1.0])
                )
            )
            assert wh.engine.stats.current() == collect_stats(wh.document.root)
        members = [
            random_update_for(rng, wh.document, confidence=1.0)
            for _ in range(rng.randint(1, 3))
        ]
        wh.update_many(members)
        assert wh.engine.stats.current() == collect_stats(wh.document.root)
        wh.close()


class TestReviewRegressions:
    """Failure modes found in review: each must stay fixed."""

    def test_torn_audit_tail_does_not_block_recovery(self, tmp_path, slide12_doc):
        """log.jsonl is best-effort: a torn last line (un-fsynced crash
        debris) must not prevent open — the entry is rebuilt from the WAL."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx())
        wh._commit_update(_insert_tx())
        expected = wh.document.root.canonical()
        _kill(wh)
        log_path = path / "log.jsonl"
        raw = log_path.read_bytes()
        log_path.write_bytes(raw[: len(raw) - 20])  # tear the tail
        with Warehouse.open(path) as recovered:
            assert recovered.document.root.canonical() == expected
            last = recovered.history()[-1]
            assert last["sequence"] == 3
            assert last.get("replayed") is True

    def test_failed_wal_append_restores_the_durable_state(
        self, tmp_path, slide12_doc, monkeypatch
    ):
        """An append that dies leaves nothing behind: the live handle
        and a reopen both read the pre-commit state, and the
        unacknowledged insert is never served."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx())
        before = _state(wh)

        def dying_append(self, kind, sequence, payload):
            raise OSError("disk full")

        monkeypatch.setattr(WriteAheadLog, "append", dying_append)
        with pytest.raises(OSError, match="disk full"):
            wh._commit_update(_insert_tx(label="Ghost"))
        monkeypatch.undo()
        assert _state(wh) == before
        assert Session(wh).query("//Ghost").answers() == []
        _kill(wh)
        with Warehouse.open(path) as recovered:
            assert _state(recovered) == before

    def test_open_releases_lock_when_reconciliation_fails(
        self, tmp_path, slide12_doc, monkeypatch
    ):
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx())
        _kill(wh)

        def dying_append(self, kind, sequence, payload, fsync=True):
            raise OSError("disk full")

        monkeypatch.setattr(TransactionLog, "append", dying_append)
        # Force reconciliation to run by removing the audit entry.
        (path / "log.jsonl").write_text("")
        with pytest.raises(OSError):
            Warehouse.open(path)
        monkeypatch.undo()
        assert not (path / "lock").exists()
        Warehouse.open(path).close()  # lock was not leaked

    def test_replay_uses_writing_sessions_match_semantics(
        self, tmp_path, slide12_doc
    ):
        """Recovery under a different MatchConfig must rebuild the
        document the writing session acknowledged, not a reinterpretation."""
        from repro.tpwj.match import MatchConfig

        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx(confidence=1.0))  # first N under C
        wh._commit_update(_insert_tx(confidence=1.0))  # second N under C
        # Two N nodes: this transaction applies at BOTH matches.
        wh._commit_update(
            UpdateTransaction(
                parse_pattern("N[$n]"), [InsertOperation("n", tree("M"))], 1.0
            )
        )
        assert sum(1 for n in wh.document.iter_nodes() if n.label == "M") == 2
        expected = wh.document.root.canonical()
        _kill(wh)
        # A truncating handle would see only one match per transaction;
        # replay must use the recorded (untruncated) semantics instead.
        with Warehouse.open(path, match_config=MatchConfig(max_matches=1)) as recovered:
            assert recovered.document.root.canonical() == expected

    def test_threshold_snapshot_cannot_lose_audit_entry(
        self, tmp_path, slide12_doc, monkeypatch
    ):
        """The audit entry is written (and fsynced) before a threshold
        snapshot resets the WAL: a crash anywhere in that commit leaves
        history either complete or rebuildable."""
        path = tmp_path / "wh"
        wh = Warehouse.create(
            path,
            slide12_doc,
            policy=CommitPolicy(snapshot_every=2, compact_on_close=False),
        )
        wh._commit_update(_insert_tx())  # seq 2: WAL only
        # Crash during the threshold commit's snapshot: the WAL record
        # and audit entry are already down, the fold never happened.
        def dying_write(self, xml_text, sequence, extra_meta=None, binary=None):
            raise _Crash()

        monkeypatch.setattr(Storage, "write_document", dying_write)
        with pytest.raises(_Crash):
            wh._commit_update(_insert_tx())  # seq 3 crosses snapshot_every=2
        monkeypatch.undo()
        _kill(wh)
        with Warehouse.open(path) as recovered:
            assert recovered.sequence == 3
            assert [e["sequence"] for e in recovered.history()] == [1, 2, 3]
            # The entries were the live ones, not reconstructions.
            assert all("replayed" not in e for e in recovered.history())

    def test_lock_file_appears_atomically_with_payload(self, tmp_path, slide12_doc):
        """A concurrent acquirer must never observe a lock without its
        pid/token payload (the mid-acquire steal race)."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc)
        content = (path / "lock").read_bytes()
        record = json.loads(content)
        assert record["pid"] > 0
        # No staging debris left behind.
        assert not list(path.glob("lock.*.tmp"))
        wh.close()

    def test_partial_batch_failure_restores_the_durable_state(
        self, tmp_path, slide12_doc
    ):
        """A batch member refused after an earlier member mutated the
        document leaves the live handle and a reopen at the pre-batch
        state — later WAL records replay against the base they were
        written on."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        before = _state(wh)
        with pytest.raises(UpdateError, match="document root"):
            wh.update_many([_insert_tx(1.0, label="Orphan"), _root_delete_tx()])
        assert _state(wh) == before
        _kill(wh)
        with Warehouse.open(path) as recovered:
            assert _state(recovered) == before

    def test_rotten_complete_final_wal_record_raises(self, tmp_path, slide12_doc):
        """A newline-terminated final record that fails its checksum is
        acknowledged data gone bad — it must raise, not be dropped as a
        torn tail."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx())
        _kill(wh)
        wal_path = path / "wal.jsonl"
        raw = wal_path.read_bytes()
        assert raw.endswith(b"\n")
        # Flip a byte inside the (complete) record, newline preserved.
        wal_path.write_bytes(raw[:40] + b"X" + raw[41:])
        with pytest.raises(WarehouseCorruptError, match="checksum|unparseable"):
            Warehouse.open(path)

    def test_failed_simplify_snapshot_restores_the_durable_state(
        self, tmp_path, slide12_doc, monkeypatch
    ):
        """A snapshot-path commit (simplify) whose write fails leaves the
        live handle and a reopen at the pre-simplify state and sequence,
        so the next WAL append leaves no gap."""
        path = tmp_path / "wh"
        slide12_doc.events.declare("w9", 0.3)  # unused: simplify collects it
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx())
        before = _state(wh)

        def dying_write(self, xml_text, sequence, extra_meta=None, binary=None):
            raise _Crash()

        monkeypatch.setattr(Storage, "write_document", dying_write)
        with pytest.raises(_Crash):
            wh.simplify()
        monkeypatch.undo()
        assert _state(wh) == before
        _kill(wh)
        with Warehouse.open(path) as recovered:
            assert _state(recovered) == before

    def test_engine_sees_mutation_even_when_audit_append_fails(
        self, tmp_path, slide12_doc, monkeypatch
    ):
        """The commit is durable in the WAL but the audit append dies:
        the handle stays usable and queries must see the new nodes (a
        stale cached walk would hide them)."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        Session(wh).query("//N").answers()  # warm the engine's walk on the pre-update tree
        fresh_tx = UpdateTransaction(
            parse_pattern("C[$c]"), [InsertOperation("c", tree("Fresh"))], 1.0
        )

        def dying_append(self, kind, sequence, payload, fsync=True):
            raise _Crash()

        monkeypatch.setattr(TransactionLog, "append", dying_append)
        with pytest.raises(_Crash):
            wh._commit_update(fresh_tx)
        monkeypatch.undo()
        assert len(Session(wh).query("//Fresh").answers()) == 1  # no stale walk served
        wh.close()

    def test_lost_lock_race_backs_off(self, tmp_path, monkeypatch):
        """If a concurrent breaker replaced our freshly linked lock, the
        acquirer must back off rather than hold a phantom lock."""
        import os

        storage = Storage(tmp_path / "s")
        storage.initialize()
        real_link = os.link

        def racing_link(src, dst, **kwargs):
            real_link(src, dst, **kwargs)
            # Simulate the concurrent breaker: unlink our fresh lock
            # and install its own, in the break window.
            os.unlink(dst)
            (tmp_path / "s" / "other").write_text('{"pid": 1, "token": "x"}')
            real_link(tmp_path / "s" / "other", dst)

        monkeypatch.setattr(os, "link", racing_link)
        with pytest.raises(WarehouseLockedError, match="lost the lock race"):
            storage.acquire_lock()
        monkeypatch.undo()
        assert storage._lock_fd is None


# ----------------------------------------------------------------------
# The one failure rule: a failed commit serves what a reopen reads
# ----------------------------------------------------------------------


@relaxed
@given(seeds, st.integers(min_value=0, max_value=3))
def test_a_batch_refused_at_any_member_changes_nothing(seed, k):
    """A random batch with a root delete at member *k*: earlier members
    apply and are then undone, so the live handle and a reopen equal
    applying nothing — the fresh counter included, so the next update
    mints the name it would have minted had the batch never been sent."""
    rng = random.Random(seed)
    doc = random_fuzzy_tree(rng, SMALL_DOCS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wh"
        wh = Warehouse.create(path, doc, policy=_no_compact_policy())
        _random_session(rng, wh)
        before = _state(wh)
        members = [
            random_update_for(rng, wh.document, confidence=rng.choice([0.5, 1.0]))
            for _ in range(k + rng.randint(0, 2))
        ]
        members.insert(k, _root_delete_tx(wh.document.root.label))
        with pytest.raises(UpdateError, match="document root"):
            wh.update_many(members)
        assert _state(wh) == before
        _kill(wh)
        with Warehouse.open(path) as recovered:
            assert _state(recovered) == before


class TestOneFailureRule:
    def test_unacknowledged_insert_is_not_served(self, tmp_path, monkeypatch):
        """Readers never see an insert whose WAL append failed."""
        path = tmp_path / "wh"
        with repro.connect(path, create=True, root="a", observability=None) as session:

            def dying_append(self, kind, sequence, payload):
                raise OSError("disk full")

            monkeypatch.setattr(WriteAheadLog, "append", dying_append)
            ghost = (
                repro.update(repro.pattern("a", variable="x", anchored=True))
                .insert("x", repro.tree("ghost"))
                .confidence(0.5)
            )
            with pytest.raises(OSError):
                session.update(ghost)
            monkeypatch.undo()
            assert session.query("//ghost").all() == []

    def test_a_failed_restore_closes_the_handle(self, tmp_path, slide12_doc, monkeypatch):
        """When recovery itself fails the handle closes, frees the lock
        and raises WarehouseCorruptError; a fresh open still reads the
        state before the batch."""
        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc, policy=_no_compact_policy())
        wh._commit_update(_insert_tx())
        before = _state(wh)
        wh.close()
        real_recover = warehouse_module._recover
        calls = {"n": 0}

        def recover_failing_on_second_call(*args):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("disk gone")
            return real_recover(*args)

        monkeypatch.setattr(warehouse_module, "_recover", recover_failing_on_second_call)
        wh = Warehouse.open(path, policy=_no_compact_policy())  # call 1
        with pytest.raises(WarehouseCorruptError, match="restore") as excinfo:
            wh.update_many([_insert_tx(label="Kept"), _root_delete_tx()])  # call 2
        assert isinstance(excinfo.value.__cause__, OSError)
        assert wh.health()["alive"] is False
        assert not (path / "lock").exists()
        with Warehouse.open(path) as recovered:
            assert _state(recovered) == before

    def test_recovery_runs_once_per_failed_commit_and_never_on_success(
        self, tmp_path, slide12_doc, monkeypatch
    ):
        """Structural guard: the success path never recovers; each failed
        commit — auto-simplify's included — recovers exactly once."""
        real_recover = warehouse_module._recover
        calls = []

        def counting_recover(*args):
            calls.append(args)
            return real_recover(*args)

        monkeypatch.setattr(warehouse_module, "_recover", counting_recover)
        path = tmp_path / "wh"
        wh = Warehouse.create(
            path,
            slide12_doc,
            policy=CommitPolicy(snapshot_every=8, compact_on_close=False),
            auto_simplify_factor=1.5,
        )
        for i in range(50):
            if i % 5 == 4:
                wh.update_many([_insert_tx(label="B1"), _insert_tx(label="B2")])
            else:
                wh._commit_update(_insert_tx(label=f"N{i}"))
        assert "simplify" in {entry["kind"] for entry in wh.history()}
        assert calls == []

        def fails_once(failing_commit):
            before = len(calls)
            with pytest.raises((UpdateError, _Crash)):
                failing_commit()
            assert len(calls) == before + 1

        fails_once(lambda: wh.update_many([_insert_tx(), _root_delete_tx()]))

        def dying_append(self, kind, sequence, payload):
            raise _Crash()

        with monkeypatch.context() as patch:
            patch.setattr(WriteAheadLog, "append", dying_append)
            fails_once(lambda: wh._commit_update(_insert_tx()))

        # An update that commits, then trips an auto-simplify whose
        # snapshot dies: one restore, to a state holding the update.
        while wh.document.size() + 1 <= 1.5 * wh._baseline_size:
            wh._commit_update(_insert_tx())
        wh.compact()  # the triggering commit itself stays WAL-only

        def dying_write(self, xml_text, sequence, extra_meta=None, binary=None):
            raise _Crash()

        with monkeypatch.context() as patch:
            patch.setattr(Storage, "write_document", dying_write)
            fails_once(lambda: wh._commit_update(_insert_tx(label="Trigger")))
        assert any(node.label == "Trigger" for node in wh.document.iter_nodes())
        wh.close()
