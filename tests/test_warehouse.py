"""Unit tests for the probabilistic XML warehouse (repro.warehouse)."""

import json

import pytest

from repro.errors import (
    WarehouseCorruptError,
    WarehouseError,
    WarehouseLockedError,
)
from repro import (
    DeleteOperation,
    InsertOperation,
    Session,
    UpdateTransaction,
)
from repro.tpwj.parser import parse_pattern
from repro.trees import tree
from repro.warehouse import Storage, TransactionLog, Warehouse


@pytest.fixture
def warehouse(tmp_path, slide12_doc):
    with Warehouse.create(tmp_path / "wh", slide12_doc) as wh:
        yield wh


class TestStorage:
    def test_atomic_write_and_read(self, tmp_path):
        storage = Storage(tmp_path / "s")
        storage.write_document("<hello/>", sequence=3)
        text, sequence = storage.read_document()
        assert text == "<hello/>" and sequence == 3

    def test_missing_document(self, tmp_path):
        with pytest.raises(WarehouseError, match="no document"):
            Storage(tmp_path / "s").read_document()

    def test_checksum_detects_tampering(self, tmp_path):
        storage = Storage(tmp_path / "s")
        storage.write_document("<hello/>", sequence=1)
        storage.document_path.write_text("<tampered/>")
        with pytest.raises(WarehouseCorruptError, match="checksum"):
            storage.read_document()

    def test_missing_meta_is_corrupt(self, tmp_path):
        storage = Storage(tmp_path / "s")
        storage.write_document("<hello/>", sequence=1)
        storage.meta_path.unlink()
        with pytest.raises(WarehouseCorruptError, match="metadata"):
            storage.read_document()

    def test_lock_exclusive(self, tmp_path):
        first = Storage(tmp_path / "s")
        second = Storage(tmp_path / "s")
        first.acquire_lock()
        with pytest.raises(WarehouseLockedError):
            second.acquire_lock()
        first.release_lock()
        second.acquire_lock()
        second.release_lock()

    def test_stale_lock_broken(self, tmp_path):
        storage = Storage(tmp_path / "s")
        storage.initialize()
        storage.lock_path.write_text("999999999")  # no such pid
        storage.acquire_lock()
        storage.release_lock()

    def test_acquire_is_idempotent_within_holder(self, tmp_path):
        storage = Storage(tmp_path / "s")
        storage.acquire_lock()
        storage.acquire_lock()
        storage.release_lock()


class TestTransactionLog:
    def test_append_and_read(self, tmp_path):
        log = TransactionLog(tmp_path)
        log.append("update", 1, {"matches": 2})
        log.append("simplify", 2, {})
        entries = log.entries()
        assert [e["kind"] for e in entries] == ["update", "simplify"]
        assert entries[0]["matches"] == 2

    def test_empty_log(self, tmp_path):
        assert TransactionLog(tmp_path).entries() == []
        assert TransactionLog(tmp_path).last_sequence() == 0

    def test_corrupt_line_detected(self, tmp_path):
        log = TransactionLog(tmp_path)
        log.append("update", 1, {})
        with open(log.path, "a") as handle:
            handle.write("not json\n")
        with pytest.raises(WarehouseCorruptError, match="line 2"):
            log.entries()

    def test_last_sequence(self, tmp_path):
        log = TransactionLog(tmp_path)
        log.append("update", 5, {})
        log.append("update", 7, {})
        assert log.last_sequence() == 7


class TestWarehouseLifecycle:
    def test_create_then_open(self, tmp_path, slide12_doc):
        with Warehouse.create(tmp_path / "wh", slide12_doc) as wh:
            sequence = wh.sequence
        with Warehouse.open(tmp_path / "wh") as wh:
            assert wh.sequence == sequence
            assert wh.document.root.canonical() == slide12_doc.root.canonical()

    def test_create_twice_rejected(self, tmp_path, slide12_doc):
        Warehouse.create(tmp_path / "wh", slide12_doc).close()
        with pytest.raises(WarehouseError, match="already exists"):
            Warehouse.create(tmp_path / "wh", slide12_doc)

    def test_open_missing_rejected(self, tmp_path):
        with pytest.raises(WarehouseError, match="no warehouse"):
            Warehouse.open(tmp_path / "nope")

    def test_open_while_locked_rejected(self, tmp_path, slide12_doc):
        with Warehouse.create(tmp_path / "wh", slide12_doc):
            with pytest.raises(WarehouseLockedError):
                Warehouse.open(tmp_path / "wh")

    def test_closed_handle_unusable(self, tmp_path, slide12_doc):
        wh = Warehouse.create(tmp_path / "wh", slide12_doc)
        wh.close()
        with pytest.raises(WarehouseError, match="closed"):
            Session(wh).query("B").answers()

    def test_close_releases_the_engine_views(self, tmp_path, slide12_doc):
        """A closed handle keeps no per-root walk or condition index alive
        (the warehouse and its engine form a cycle only a full GC frees)."""
        wh = Warehouse.create(tmp_path / "wh", slide12_doc)
        assert Session(wh).query("//D").answers()
        assert wh.engine._views  # the query built the live root's view
        engine = wh.engine
        wh.close()
        assert not engine._views

    def test_create_stores_a_clone(self, tmp_path, slide12_doc):
        with Warehouse.create(tmp_path / "wh", slide12_doc) as wh:
            slide12_doc.root.children[0].detach()
            assert wh.document.size() == 4


class TestWarehouseOperations:
    def test_query_text_or_pattern(self, warehouse):
        via_text = Session(warehouse).query("//D").answers()
        via_pattern = Session(warehouse).query(parse_pattern("//D")).answers()
        assert len(via_text) == len(via_pattern) == 1
        assert via_text[0].probability == pytest.approx(0.7)

    def test_update_with_transaction(self, warehouse):
        tx = UpdateTransaction(
            parse_pattern("C[$c]"), [InsertOperation("c", tree("N"))], 0.5
        )
        report = warehouse._commit_update(tx)
        assert report.applied
        assert warehouse.sequence == 2

    def test_update_with_xupdate_string(self, warehouse):
        text = (
            '<xu:modifications xmlns:xu="urn:repro:xupdate" '
            'query="C[$c]" confidence="0.5">'
            "<xu:insert anchor='c'><N/></xu:insert>"
            "</xu:modifications>"
        )
        report = warehouse._commit_update(text)
        assert report.applied

    def test_update_confidence_override(self, warehouse):
        tx = UpdateTransaction(
            parse_pattern("C[$c]"), [InsertOperation("c", tree("N"))], 1.0
        )
        report = warehouse._commit_update(tx, confidence=0.25)
        assert warehouse.document.events.probability(
            report.confidence_event
        ) == pytest.approx(0.25)

    def test_updates_survive_reopen(self, tmp_path, slide12_doc):
        tx = UpdateTransaction(
            parse_pattern("C[$c]"), [InsertOperation("c", tree("N"))], 0.5
        )
        with Warehouse.create(tmp_path / "wh", slide12_doc) as wh:
            wh._commit_update(tx)
            expected = wh.document.root.canonical()
        with Warehouse.open(tmp_path / "wh") as wh:
            assert wh.document.root.canonical() == expected

    def test_history_records_updates(self, warehouse):
        tx = UpdateTransaction(
            parse_pattern("B[$b]"), [DeleteOperation("b")], 0.9
        )
        warehouse._commit_update(tx)
        kinds = [entry["kind"] for entry in warehouse.history()]
        assert kinds == ["create", "update"]
        last = warehouse.history()[-1]
        assert last["confidence"] == 0.9
        assert "xu:modifications" in last["transaction"]

    def test_stats(self, warehouse):
        stats = warehouse.stats()
        assert stats["nodes"] == 4
        assert stats["sequence"] == 1
        assert stats["log_entries"] == 1

    def test_explicit_simplify_commits(self, warehouse):
        warehouse.document.events.declare("orphan", 0.5)
        report = warehouse.simplify()
        assert report.collected_events == 1
        assert warehouse.sequence == 2

    def test_auto_simplify_triggers(self, tmp_path, slide12_doc):
        wh = Warehouse.create(
            tmp_path / "wh", slide12_doc, auto_simplify_factor=1.5
        )
        with wh:
            tx = UpdateTransaction(
                parse_pattern("C[$c]"),
                [InsertOperation("c", tree("N", tree("M"), tree("O")))],
                1.0,
            )
            wh._commit_update(tx)  # 4 -> 7 nodes > 1.5 * 4: simplify committed too
            kinds = [entry["kind"] for entry in wh.history()]
            assert "simplify" in kinds

    def test_log_is_valid_json(self, warehouse, tmp_path):
        tx = UpdateTransaction(
            parse_pattern("B[$b]"), [DeleteOperation("b")], 0.9
        )
        warehouse._commit_update(tx)
        log_path = warehouse.history()
        for entry in log_path:
            json.dumps(entry)  # re-serializable


class TestWriteAheadLog:
    def _wal(self, tmp_path):
        from repro.warehouse import WriteAheadLog

        return WriteAheadLog(tmp_path)

    def test_append_and_replayable(self, tmp_path):
        wal = self._wal(tmp_path)
        wal.append("update", 2, {"transaction": "<xu/>"})
        wal.append("update", 3, {"transaction": "<xu/>"})
        records, torn = wal.replayable(1)
        assert torn is None
        assert [r["sequence"] for r in records] == [2, 3]

    def test_records_before_snapshot_skipped(self, tmp_path):
        wal = self._wal(tmp_path)
        for sequence in (2, 3, 4):
            wal.append("update", sequence, {})
        records, _ = wal.replayable(3)
        assert [r["sequence"] for r in records] == [4]

    def test_torn_tail_discarded_with_note(self, tmp_path):
        wal = self._wal(tmp_path)
        wal.append("update", 2, {})
        with open(wal.path, "ab") as handle:
            handle.write(b'{"kind": "upd')  # crash mid-append
        records, torn = wal.replayable(1)
        assert [r["sequence"] for r in records] == [2]
        assert torn is not None and "torn" in torn

    def test_checksum_mismatch_mid_file_raises(self, tmp_path):
        wal = self._wal(tmp_path)
        wal.append("update", 2, {"transaction": "aaaa"})
        wal.append("update", 3, {})
        lines = wal.path.read_bytes().splitlines(keepends=True)
        lines[0] = lines[0].replace(b"aaaa", b"bbbb")
        wal.path.write_bytes(b"".join(lines))
        with pytest.raises(WarehouseCorruptError, match="checksum"):
            wal.records()

    def test_sequence_gap_raises(self, tmp_path):
        wal = self._wal(tmp_path)
        wal.append("update", 2, {})
        wal.append("update", 4, {})
        with pytest.raises(WarehouseCorruptError, match="gap"):
            wal.replayable(1)

    def test_reset_empties_atomically(self, tmp_path):
        wal = self._wal(tmp_path)
        wal.append("update", 2, {})
        assert wal.size_bytes() > 0
        wal.reset()
        assert wal.size_bytes() == 0
        assert wal.replayable(0) == ([], None)

    def test_depth(self, tmp_path):
        wal = self._wal(tmp_path)
        assert wal.depth(0) == 0
        wal.append("update", 2, {})
        wal.append("update", 3, {})
        assert wal.depth(1) == 2
        assert wal.depth(2) == 1


class TestLockPidReuse:
    """The explicit stale-lock breaking rule (see storage docstring)."""

    def _storage(self, tmp_path):
        storage = Storage(tmp_path / "s")
        storage.initialize()
        return storage

    def test_dead_pid_lock_broken(self, tmp_path):
        storage = self._storage(tmp_path)
        storage.lock_path.write_text('{"pid": 999999999, "token": "123"}')
        storage.acquire_lock()
        storage.release_lock()

    def test_live_pid_with_matching_token_respected(self, tmp_path):
        import os

        from repro.warehouse.storage import _process_token

        token = _process_token(os.getpid())
        if token is None:
            pytest.skip("no /proc process-start tokens on this platform")
        storage = self._storage(tmp_path)
        storage.lock_path.write_text(
            json.dumps({"pid": os.getpid(), "token": token})
        )
        with pytest.raises(WarehouseLockedError):
            storage.acquire_lock()

    def test_pid_reuse_lock_broken(self, tmp_path):
        """The recorded pid is alive but belongs to a different process
        (start-time token differs): the lock is provably stale."""
        import os

        from repro.warehouse.storage import _process_token

        if _process_token(os.getpid()) is None:
            pytest.skip("no /proc process-start tokens on this platform")
        storage = self._storage(tmp_path)
        storage.lock_path.write_text(
            json.dumps({"pid": os.getpid(), "token": "0"})
        )
        storage.acquire_lock()
        storage.release_lock()

    def test_legacy_integer_lock_with_live_pid_respected(self, tmp_path):
        """A legacy lock has no token: a live owner can never be broken
        (when in doubt, refuse to steal)."""
        import os

        storage = self._storage(tmp_path)
        storage.lock_path.write_text(str(os.getpid()))
        with pytest.raises(WarehouseLockedError):
            storage.acquire_lock()

    def test_unreadable_lock_broken(self, tmp_path):
        storage = self._storage(tmp_path)
        storage.lock_path.write_text("not a pid at all")
        storage.acquire_lock()
        storage.release_lock()


class TestCommitPipeline:
    def _insert_tx(self, label="N", confidence=1.0):
        return UpdateTransaction(
            parse_pattern("C[$c]"), [InsertOperation("c", tree(label))], confidence
        )

    def test_policy_validation(self):
        from repro.warehouse import CommitPolicy

        with pytest.raises(WarehouseError):
            CommitPolicy(snapshot_every=0)
        with pytest.raises(WarehouseError):
            CommitPolicy(wal_bytes_limit=0)
        assert CommitPolicy(snapshot_every=1).full_rewrite

    def test_updates_go_to_wal_not_snapshot(self, tmp_path, slide12_doc):
        from repro.warehouse import CommitPolicy

        path = tmp_path / "wh"
        with Warehouse.create(
            path, slide12_doc, policy=CommitPolicy(snapshot_every=100)
        ) as wh:
            snapshot_bytes = (path / "document.xml").read_bytes()
            wh._commit_update(self._insert_tx())
            assert (path / "document.xml").read_bytes() == snapshot_bytes
            stats = wh.stats()
            assert stats["wal_depth"] == 1
            assert stats["wal_bytes"] > 0
            assert stats["snapshot_sequence"] == 1
            assert wh.sequence == 2

    def test_snapshot_every_triggers_compaction(self, tmp_path, slide12_doc):
        from repro.warehouse import CommitPolicy

        with Warehouse.create(
            tmp_path / "wh", slide12_doc, policy=CommitPolicy(snapshot_every=3)
        ) as wh:
            wh._commit_update(self._insert_tx())
            wh._commit_update(self._insert_tx())
            assert wh.stats()["wal_depth"] == 2
            wh._commit_update(self._insert_tx())  # third commit folds the WAL
            stats = wh.stats()
            assert stats["wal_depth"] == 0
            assert stats["snapshot_sequence"] == wh.sequence

    def test_wal_bytes_limit_triggers_compaction(self, tmp_path, slide12_doc):
        from repro.warehouse import CommitPolicy

        with Warehouse.create(
            tmp_path / "wh",
            slide12_doc,
            policy=CommitPolicy(snapshot_every=1000, wal_bytes_limit=64),
        ) as wh:
            wh._commit_update(self._insert_tx())  # record alone exceeds 64 bytes
            assert wh.stats()["wal_depth"] == 0

    def test_close_compacts_by_default(self, tmp_path, slide12_doc):
        from repro.warehouse import WriteAheadLog

        path = tmp_path / "wh"
        wh = Warehouse.create(path, slide12_doc)
        wh._commit_update(self._insert_tx())
        assert wh.stats()["wal_depth"] == 1
        wh.close()
        assert WriteAheadLog(path).size_bytes() == 0
        with Warehouse.open(path) as reopened:
            assert reopened.sequence == 2
            assert reopened.document.size() == 5

    def test_reopen_replays_without_close_compaction(self, tmp_path, slide12_doc):
        from repro.warehouse import CommitPolicy

        path = tmp_path / "wh"
        policy = CommitPolicy(snapshot_every=100, compact_on_close=False)
        with Warehouse.create(path, slide12_doc, policy=policy) as wh:
            wh._commit_update(self._insert_tx(confidence=0.5))
            expected = wh.document.root.canonical()
            events = wh.document.events.as_dict()
        with Warehouse.open(path) as reopened:
            assert reopened.stats()["wal_depth"] == 1
            assert reopened.document.root.canonical() == expected
            assert reopened.document.events.as_dict() == events

    def test_full_rewrite_policy_snapshots_every_commit(self, tmp_path, slide12_doc):
        from repro.warehouse import CommitPolicy

        path = tmp_path / "wh"
        with Warehouse.create(
            path, slide12_doc, policy=CommitPolicy(snapshot_every=1)
        ) as wh:
            wh._commit_update(self._insert_tx())
            assert wh.stats()["wal_depth"] == 0
            assert wh.stats()["snapshot_sequence"] == wh.sequence
            assert (path / "wal.jsonl").read_bytes() == b""

    def test_simplify_compacts(self, tmp_path, slide12_doc):
        from repro.warehouse import CommitPolicy

        with Warehouse.create(
            tmp_path / "wh", slide12_doc, policy=CommitPolicy(snapshot_every=100)
        ) as wh:
            wh._commit_update(self._insert_tx())
            wh.simplify()
            assert wh.stats()["wal_depth"] == 0
            assert wh.stats()["snapshot_sequence"] == wh.sequence

    def test_compact_command(self, tmp_path, slide12_doc):
        from repro.warehouse import CommitPolicy

        with Warehouse.create(
            tmp_path / "wh", slide12_doc, policy=CommitPolicy(snapshot_every=100)
        ) as wh:
            wh._commit_update(self._insert_tx())
            wh._commit_update(self._insert_tx())
            summary = wh.compact()
            assert summary["folded_records"] == 2
            assert wh.stats()["wal_depth"] == 0

    def test_fresh_counter_persisted_in_meta(self, tmp_path, slide12_doc):
        path = tmp_path / "wh"
        with Warehouse.create(path, slide12_doc) as wh:
            wh._commit_update(self._insert_tx(confidence=0.5))  # mints an event
            counter = wh.document.events.fresh_counter
            assert counter >= 1
        meta = json.loads((path / "meta.json").read_text())
        assert meta["fresh_counter"] == counter
        with Warehouse.open(path) as reopened:
            assert reopened.document.events.fresh_counter == counter


class TestBatchedUpdates:
    def _insert_tx(self, label="N", confidence=1.0):
        return UpdateTransaction(
            parse_pattern("C[$c]"), [InsertOperation("c", tree(label))], confidence
        )

    def test_update_many_is_one_commit(self, warehouse):
        reports = warehouse.update_many(
            [self._insert_tx(), self._insert_tx("M"), self._insert_tx("O")]
        )
        assert [r.applied for r in reports] == [True, True, True]
        assert warehouse.sequence == 2  # one commit for the whole batch
        assert warehouse.stats()["wal_depth"] == 1
        entry = warehouse.history()[-1]
        assert entry["kind"] == "batch"
        assert entry["transactions"] == 3
        assert len(entry["reports"]) == 3

    def test_update_many_empty_is_noop(self, warehouse):
        assert warehouse.update_many([]) == []
        assert warehouse.sequence == 1

    def test_update_many_accepts_strings_and_confidence(self, warehouse):
        text = (
            '<xu:modifications xmlns:xu="urn:repro:xupdate" '
            'query="C[$c]" confidence="1.0">'
            "<xu:insert anchor='c'><N/></xu:insert>"
            "</xu:modifications>"
        )
        reports = warehouse.update_many([text], confidence=0.25)
        assert reports[0].confidence_event is not None
        assert warehouse.document.events.probability(
            reports[0].confidence_event
        ) == pytest.approx(0.25)

    def test_later_member_sees_earlier_insertion(self, warehouse):
        first = self._insert_tx("Fresh")
        second = UpdateTransaction(
            parse_pattern("Fresh[$f]"), [InsertOperation("f", tree("Nested"))], 1.0
        )
        reports = warehouse.update_many([first, second])
        assert reports[1].applied  # Fresh existed by the time it ran
        assert len(Session(warehouse).query("//Nested").answers()) == 1

    def test_session_batch_context_manager(self, warehouse):
        with Session(warehouse).batch() as batch:
            batch.update(self._insert_tx())
            batch.update(self._insert_tx("M"), confidence=0.5)
            assert len(batch) == 2
            assert warehouse.sequence == 1  # nothing committed yet
        assert warehouse.sequence == 2
        assert len(batch.reports) == 2
        assert batch.reports[1].confidence_event is not None

    def test_session_batch_aborts_on_exception(self, warehouse):
        with pytest.raises(RuntimeError):
            with Session(warehouse).batch() as batch:
                batch.update(self._insert_tx())
                raise RuntimeError("boom")
        assert warehouse.sequence == 1
        assert batch.reports is None

    def test_provenance_through_batch(self, warehouse):
        reports = warehouse.update_many([self._insert_tx(confidence=0.5)])
        event = reports[0].confidence_event
        origin = warehouse.provenance(event)
        assert origin is not None
        assert origin["kind"] == "batch"
        assert origin["confidence_event"] == event

    def test_batch_survives_reopen(self, tmp_path, slide12_doc):
        from repro.warehouse import CommitPolicy

        path = tmp_path / "wh"
        policy = CommitPolicy(snapshot_every=100, compact_on_close=False)
        with Warehouse.create(path, slide12_doc, policy=policy) as wh:
            wh.update_many(
                [self._insert_tx(confidence=0.5), self._insert_tx("M")]
            )
            expected = wh.document.root.canonical()
        with Warehouse.open(path) as reopened:
            assert reopened.document.root.canonical() == expected


# Captured from the commit before single and batch commits shared one
# routine: the on-disk record formats are frozen, existing stores must
# reopen unchanged.
_XU = 'xmlns:xu=\\"urn:repro:xupdate\\"'
_GOLDEN_TX = (
    f'<xu:modifications {_XU} query=\\"C[$c]\\" confidence=\\"0.5\\">'
    f'<xu:insert anchor=\\"c\\"><N>v</N></xu:insert></xu:modifications>'
)
_GOLDEN_MEMBERS = (
    '<xu:modifications {ns}query=\\"C[$c]\\" confidence=\\"0.25\\">'
    '<xu:insert anchor=\\"c\\"><M /></xu:insert></xu:modifications>',
    '<xu:modifications {ns}query=\\"A[$a] {{ B[$b] }}\\" confidence=\\"0.25\\">'
    '<xu:delete target=\\"b\\" /></xu:modifications>',
)
_GOLDEN_WAL = [
    '{"kind": "update", "payload": {"confidence_event": "w3", '
    '"honor_negation": true, "max_matches": null, "transaction": "'
    + _GOLDEN_TX
    + '"}, "sequence": 2, "sha256": '
    '"57bd264ff22cb0fcabb5b57ec935c91ef7fdf543cfca6ac3bc540845b4590110"}',
    '{"kind": "batch", "payload": {"batch": "<xu:batch '
    + _XU
    + ">"
    + "".join(member.format(ns="") for member in _GOLDEN_MEMBERS)
    + '</xu:batch>", "confidence_events": ["w4", "w5"], '
    '"honor_negation": true, "max_matches": null}, "sequence": 3, "sha256": '
    '"ae55c2a31d6c411bbf27a2596eb41a2c48af33daaa9aeb37ad809dac32510991"}',
]
_GOLDEN_LOG = [
    '{"kind": "create", "sequence": 1, "timestamp": 1143504000.0}',
    '{"applied": true, "confidence": 0.5, "confidence_event": "w3", '
    '"inserted_nodes": 1, "kind": "update", "matches": 1, "sequence": 2, '
    '"survivor_copies": 0, "timestamp": 1143504000.0, "transaction": "'
    + _GOLDEN_TX
    + '"}',
    '{"applied": 2, "inserted_nodes": 1, "kind": "batch", "matches": 2, '
    '"reports": [{"applied": true, "confidence": 0.25, "confidence_event": '
    '"w4", "inserted_nodes": 1, "matches": 1, "survivor_copies": 0, '
    '"transaction": "'
    + _GOLDEN_MEMBERS[0].format(ns=_XU + " ")
    + '"}, {"applied": true, "confidence": 0.25, "confidence_event": "w5", '
    '"inserted_nodes": 0, "matches": 1, "survivor_copies": 1, "transaction": "'
    + _GOLDEN_MEMBERS[1].format(ns=_XU + " ")
    + '"}], "sequence": 3, "survivor_copies": 1, "timestamp": 1143504000.0, '
    '"transactions": 2}',
]


def test_record_formats_are_frozen(tmp_path, slide12_doc, monkeypatch):
    """One single update + one batch of two write exactly the WAL and
    audit bytes the pre-merge commit wrote."""
    monkeypatch.setattr("time.time", lambda: 1143504000.0)
    path = tmp_path / "wh"
    warehouse = Warehouse.create(path, slide12_doc, observability=None)
    warehouse._commit_update(
        UpdateTransaction(
            parse_pattern("C[$c]"), [InsertOperation("c", tree("N", "v"))], 0.5
        )
    )
    warehouse.update_many(
        [
            UpdateTransaction(
                parse_pattern("C[$c]"), [InsertOperation("c", tree("M"))], 1.0
            ),
            UpdateTransaction(
                parse_pattern("A[$a] { B[$b] }"), [DeleteOperation("b")], 0.9
            ),
        ],
        confidence=0.25,
    )
    # Read before close(): compact_on_close folds the WAL away.
    assert (path / "wal.jsonl").read_text().splitlines() == _GOLDEN_WAL
    assert (path / "log.jsonl").read_text().splitlines() == _GOLDEN_LOG
    warehouse.close()
