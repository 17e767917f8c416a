"""Tests for process-per-shard serving: wire, ring, supervisor, workers.

The process tests spawn real worker processes (``spawn`` start method)
and exercise the cluster guarantees end to end: thread/process row
parity, acknowledged-commit durability across ``kill -9``, supervisor
respawn with WAL recovery, and the single-core degradation to the
thread engine.  Everything carries a ``timeout`` mark so a wedged pipe
fails fast on CI instead of hanging the runner.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import struct
import threading
import time
import zlib
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.errors import QueryError, ShardUnavailableError, UpdateError, WarehouseError
from repro.obs import Observability
from repro.serve import Collection, ProcessCollection, connect_collection
from repro.serve.cluster.chaos import ChaosTransport
from repro.serve.cluster.worker import REPLICA_DIR, _Worker
from repro.serve.collection import ShardMap
from repro.serve.cluster.ring import HashRing
from repro.serve.cluster.wire import (
    FRAME_FORMAT_VERSION,
    Verb,
    WireError,
    decode_frame,
    encode_frame,
)

KEYS = ("alice", "bob", "carol", "dave", "erin")


def _insert_email(value: str, confidence: float = 0.9):
    return (
        repro.update(repro.pattern("person", variable="p", anchored=True))
        .insert("p", repro.tree("email", value))
        .confidence(confidence)
    )


_PATTERN = "/person { email [$e] }"


def _seed_collection(path) -> None:
    with connect_collection(path, create=True, workers=2) as seed:
        for key in KEYS:
            seed.create_document(key, root="person")
            for i in range(3):
                seed.update(key, _insert_email(f"{key}{i}@x", 0.5 + 0.1 * i))


def _wait_shard_alive(collection, key: str, deadline: float = 60.0) -> None:
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline:
        if collection.health()["shards"].get(key, {}).get("alive"):
            return
        time.sleep(0.05)
    raise AssertionError(f"shard {key!r} never came back alive")


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------


class TestWire:
    def test_frame_round_trip(self):
        payload = {"rows": [1, 2.5, "x"], "nested": {"a": None}}
        frame = encode_frame(Verb.QUERY, 42, payload)
        verb, request_id, decoded = decode_frame(frame)
        assert verb is Verb.QUERY
        assert request_id == 42
        assert decoded == payload

    def test_all_verbs_encode(self):
        for verb in Verb:
            decoded_verb, _, _ = decode_frame(encode_frame(verb, 1, {}))
            assert decoded_verb is verb

    def test_truncated_frame_rejected(self):
        frame = encode_frame(Verb.OK, 7, {"k": "v"})
        for cut in (3, len(frame) // 2, len(frame) - 1):
            with pytest.raises(WireError):
                decode_frame(frame[:cut])

    def test_corrupt_payload_rejected(self):
        frame = bytearray(encode_frame(Verb.OK, 7, {"k": "v"}))
        frame[-1] ^= 0xFF
        with pytest.raises(WireError, match="checksum"):
            decode_frame(bytes(frame))

    def test_unknown_verb_rejected(self):
        # The checksum covers the verb byte, so an in-flight flip fails
        # the CRC first; an *honestly signed* unknown verb (a future
        # peer speaking this frame version) must still be rejected.
        body = struct.pack("<I", 2) + b"{}" + struct.pack("<I", 0)
        header = struct.pack("<BBQ", FRAME_FORMAT_VERSION, 0xEE, 7)
        crc = zlib.crc32(body, zlib.crc32(header))
        frame = (
            struct.pack("<I", len(header) + 4 + len(body))
            + header
            + struct.pack("<I", crc)
            + body
        )
        with pytest.raises(WireError, match="verb"):
            decode_frame(frame)

    def test_version_mismatch_rejected(self):
        frame = bytearray(encode_frame(Verb.OK, 7, {}))
        frame[4] = FRAME_FORMAT_VERSION + 1  # past the u32 length prefix
        with pytest.raises(WireError, match="version"):
            decode_frame(bytes(frame))

    def test_binary_blobs_round_trip(self):
        payload = {
            "files": {"document.bin": b"\x00\xff\x01snap", "meta.json": b"{}"},
            "note": {"__blob__": 3, "k": b"escaped"},
        }
        _, _, decoded = decode_frame(encode_frame(Verb.SYNC_PUSH, 9, payload))
        assert decoded == payload

    def test_no_pickle_in_cluster_package(self):
        import repro.serve.cluster as cluster_pkg

        package_dir = Path(cluster_pkg.__file__).parent
        for module in package_dir.glob("*.py"):
            source = module.read_text(encoding="utf-8")
            assert "import pickle" not in source, module.name


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------


class TestHashRing:
    def test_routing_is_stable_and_total(self):
        ring = HashRing(["w0", "w1", "w2"])
        keys = [f"doc{i}" for i in range(200)]
        first = ring.assignment(keys)
        assert set(first.values()) <= {"w0", "w1", "w2"}
        # Same inputs, fresh ring: SHA-1 placement never depends on
        # process state (unlike hash()).
        assert HashRing(["w0", "w1", "w2"]).assignment(keys) == first

    def test_every_worker_owns_something(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        owners = set(ring.assignment(f"doc{i}" for i in range(400)).values())
        assert owners == {"w0", "w1", "w2", "w3"}

    def test_adding_a_node_moves_few_keys(self):
        keys = [f"doc{i}" for i in range(1000)]
        ring = HashRing(["w0", "w1", "w2"])
        before = ring.assignment(keys)
        ring.add("w3")
        after = ring.assignment(keys)
        moved = sum(1 for k in keys if before[k] != after[k])
        # Ideal is K/N = 250; allow generous slack but far below a full
        # reshuffle (a mod-N scheme moves ~750).
        assert 0 < moved < 500
        # Every moved key moved TO the new node, never between old ones.
        assert all(after[k] == "w3" for k in keys if before[k] != after[k])

    def test_errors(self):
        ring = HashRing(["w0"])
        with pytest.raises(WarehouseError):
            ring.add("w0")
        with pytest.raises(WarehouseError):
            HashRing().route("doc")


# ----------------------------------------------------------------------
# Mode selection
# ----------------------------------------------------------------------


class TestModeSelection:
    def test_single_core_degrades_to_threads(self, tmp_path, monkeypatch):
        _seed_collection(tmp_path / "coll")
        import repro.serve.collection as collection_module

        monkeypatch.setattr(collection_module.os, "cpu_count", lambda: 1)
        with connect_collection(tmp_path / "coll", mode="process") as col:
            assert isinstance(col, Collection)
        with connect_collection(tmp_path / "coll", mode="auto") as col:
            assert isinstance(col, Collection)

    @pytest.mark.timeout(180)
    def test_force_processes_overrides_single_core(self, tmp_path, monkeypatch):
        _seed_collection(tmp_path / "coll")
        import repro.serve.collection as collection_module

        monkeypatch.setattr(collection_module.os, "cpu_count", lambda: 1)
        with connect_collection(
            tmp_path / "coll",
            mode="process",
            shard_processes=2,
            force_processes=True,
            observability=None,
        ) as col:
            assert isinstance(col, ProcessCollection)
            assert col.query(_PATTERN).count() == len(KEYS) * 3

    def test_auto_picks_threads_on_many_cores(self, tmp_path, monkeypatch):
        """No committed multi-core number shows process shards winning
        (at 2 CPUs they read 0.27-0.40x of the thread engine), so
        ``auto`` serves on threads whatever the core count."""
        path = _fresh_store(tmp_path / "coll")
        import repro.serve.collection as collection_module

        monkeypatch.setattr(collection_module.os, "cpu_count", lambda: 8)
        with connect_collection(
            path, mode="auto", shard_processes=2, observability=None
        ) as col:
            assert type(col) is Collection

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(WarehouseError, match="mode"):
            connect_collection(tmp_path / "c", create=True, mode="fibers")


# ----------------------------------------------------------------------
# Process collection end to end
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster") / "coll"
    _seed_collection(path)
    return path


SURFACES = ("session", "thread", "process")


@contextmanager
def _open_surface(kind: str, path, key: str):
    """One of the three engines over the collection at *path* (the
    session surface serves document *key* of it)."""
    if kind == "session":
        with repro.connect(path / key) as session:
            yield session
    elif kind == "thread":
        with connect_collection(path, workers=2) as threads:
            yield threads
    else:
        with ProcessCollection(
            path, shard_processes=2, observability=None
        ) as cluster:
            yield cluster


@pytest.fixture(params=SURFACES)
def surface(request, seeded):
    """One query surface over the seeded data, plus a probe counting
    the read work it has started (pins / pool tasks / QUERY frames)."""
    with _open_surface(request.param, seeded, "alice") as source:
        if request.param == "session":
            pins = []
            pin = source.warehouse.pin
            source.warehouse.pin = lambda: pins.append(1) or pin()
            yield source, lambda: len(pins)
        elif request.param == "thread":
            yield source, lambda: source.stats()["pool"]["submitted_tasks"]
        else:
            frames = []
            send = source._request

            def counting(handle, verb, payload, timeout=None):
                if verb is Verb.QUERY:
                    frames.append(payload)
                return send(handle, verb, payload, timeout)

            source._request = counting
            yield source, lambda: len(frames)


class TestResultSetContract:
    """The refinement surface is one base class: Session, thread
    collection and process collection must behave identically."""

    @pytest.mark.timeout(180)
    def test_refinements_and_materializers(self, surface):
        source, reads_started = surface
        results = source.query(_PATTERN)

        # Chaining keeps the strictest value, in either order.
        assert results.limit(5).limit(2).options.limit == 2
        assert results.limit(2).limit(5).options.limit == 2
        assert results.min_probability(0.3).min_probability(0.6).options.min_probability == 0.6
        assert results.min_probability(0.6).min_probability(0.3).options.min_probability == 0.6
        assert results.options.limit is None  # refinements never mutate

        for bad in (-1, True, 1.5, "3", None):
            with pytest.raises(QueryError, match="limit"):
                results.limit(bad)
        for bad in (-0.1, 1.5, True, "0.5", None):
            with pytest.raises(QueryError, match="min_probability"):
                results.min_probability(bad)

        # repr renders every non-default option.
        shaped = results.order_by_probability().limit(2).min_probability(0.5)
        for fragment in ("limit=2", "order_by='probability'", "min_probability=0.5"):
            assert fragment in repr(shaped)

        # limit(0) runs nothing at all.
        before = reads_started()
        empty = results.order_by_probability().limit(0)
        assert empty.all() == [] and empty.first() is None and empty.count() == 0
        assert empty.estimate(epsilon=0.1) == []
        assert reads_started() == before

        # first()/count() agree with all().
        def key(row):
            return (row.document, row.probability, row.tree.canonical())

        rows = results.all()
        assert rows and reads_started() > before
        assert results.count() == len(rows)
        assert key(results.first()) == key(rows[0])
        assert [key(row) for row in results.limit(2)] == [key(row) for row in rows[:2]]
        assert results.limit(2).count() == 2
        assert source.query("//missing").first() is None

    @pytest.mark.timeout(180)
    def test_answers_is_typed_everywhere(self, surface):
        from repro.serve.http import status_for

        source, _reads_started = surface
        results = source.query(_PATTERN)
        row = results.first()
        if isinstance(source, ProcessCollection):
            with pytest.raises(QueryError, match="process collection") as excinfo:
                results.answers()
            assert status_for(excinfo.value) == 400
            with pytest.raises(QueryError, match="process collection") as excinfo:
                row.explain()
            assert status_for(excinfo.value) == 400
        else:
            assert len(results.answers()) == len(results.all())
            [record] = row.explain()
            assert record["probability"] == pytest.approx(row.probability)


def _fresh_store(path):
    """A collection holding one document ``doc`` = ``a(b)``, no events."""
    document = repro.FuzzyTree(
        repro.FuzzyNode("a", children=[repro.FuzzyNode("b")]), repro.EventTable()
    )
    with connect_collection(path, create=True, workers=1) as seed:
        seed.create_document("doc", document=document)
    return path


def _insert_under_a(label: str, confidence: float = 0.5):
    return (
        repro.update(repro.pattern("a", variable="x", anchored=True))
        .insert("x", repro.tree(label))
        .confidence(confidence)
    )


def _disk_state(path) -> dict:
    """What a fresh open of the ``doc`` shard recovers."""
    with repro.connect(path / "doc") as session:
        return {
            "document": session.document.root.canonical(),
            "events": dict(session.document.events.items()),
            "fresh_counter": session.document.events.fresh_counter,
            "sequence": session.sequence,
            "history": [
                (entry["kind"], entry.get("confidence_event"))
                for entry in session.history()
            ],
        }


class TestWriteContract:
    """One write path: the three surfaces commit, report and reject
    identically."""

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("kind", SURFACES)
    def test_rejected_update_leaves_the_document_untouched(self, kind, tmp_path):
        path = _fresh_store(tmp_path / "coll")
        before = _disk_state(path)
        route = () if kind == "session" else ("doc",)
        # Inserts, then asks to delete the root: refused as a whole.
        rejected = _insert_under_a("phantom").delete("x")
        with _open_surface(kind, path, "doc") as source:
            if kind == "session":
                shard = source
            elif kind == "thread":
                shard = source.document("doc")
            else:
                shard = None  # lives in a worker process: checked on disk below

            def live():
                return (
                    shard.document.root.canonical(),
                    dict(shard.document.events.items()),
                    shard.document.events.fresh_counter,
                    shard.sequence,
                    shard.history(),
                )

            untouched = live() if shard else None
            with pytest.raises(UpdateError, match="document root"):
                source.update(*route, rejected)
            # A batch refused at member 2, after member 1 applied: the
            # whole batch is undone, on the live handle too.
            with pytest.raises(UpdateError, match="document root"):
                source.update_many(*route, [_insert_under_a("kept"), rejected])
            if shard:
                assert live() == untouched
                shard.compact()
            rows = source.query("//*").all()
            assert rows and not any(
                label in row.tree.canonical()
                for row in rows
                for label in ("phantom", "kept")
            )
            good = source.update(*route, _insert_under_a("real"))
            assert good.confidence_event == "w1"  # the refused updates minted nothing
        assert _disk_state(path) == {
            "document": "a(b,real[w1])",
            "events": {"w1": 0.5},
            "fresh_counter": before["fresh_counter"] + 1,
            "sequence": before["sequence"] + 1,
            "history": before["history"] + [("update", "w1")],
        }

    @pytest.mark.timeout(180)
    def test_rejected_batch_leaves_primary_and_replica_equal(self, tmp_path):
        """R=2: a batch refused at member 2, then one good update.  The
        primary must not keep the refused member's insert, or ``w1``
        would name different events on the primary and the replica
        while both report the same sequence."""
        path = _fresh_store(tmp_path / "coll")
        with ProcessCollection(
            path, shard_processes=2, replication_factor=2, observability=None
        ) as cluster:
            cluster.await_replication(60.0)
            rejected = _insert_under_a("phantom").delete("x")
            with pytest.raises(UpdateError, match="document root"):
                cluster.update_many("doc", [_insert_under_a("kept"), rejected])
            cluster.update("doc", _insert_under_a("real"))
            cluster.await_replication(60.0)
            replica = cluster.replicas_of("doc")[1]

        def copy_state(root):
            state = _disk_state(root)
            del state["history"]  # the audit log is per copy
            return state

        primary = copy_state(path)
        assert copy_state(path / REPLICA_DIR / replica) == primary
        assert primary["document"] == "a(b,real[w1])"

    @pytest.mark.timeout(180)
    def test_single_batch_and_empty_batch_agree_everywhere(self, tmp_path):
        outcomes = {}
        for kind in SURFACES:
            path = _fresh_store(tmp_path / kind)
            route = () if kind == "session" else ("doc",)
            with _open_surface(kind, path, "doc") as source:

                def shard_stats():
                    stats = source.stats()
                    stats = stats if kind == "session" else stats["documents"]["doc"]
                    return stats["sequence"], stats["wal_depth"]

                start = shard_stats()
                single = source.update(*route, _insert_under_a("one", 0.9))
                batch = source.update_many(
                    *route,
                    [_insert_under_a("two"), _insert_under_a("three", 1.0)],
                    confidence=0.25,
                )
                committed = shard_stats()
                assert source.update_many(*route, []) == []  # a no-op ...
                assert shard_stats() == committed  # ... that commits nothing
                assert committed == (start[0] + 2, start[1] + 2)
            outcomes[kind] = (
                [dataclasses.asdict(report) for report in [single, *batch]],
                _disk_state(path),
            )
        reports, state = outcomes["session"]
        assert [r["confidence_event"] for r in reports] == ["w1", "w2", "w3"]
        assert state["events"] == {"w1": 0.9, "w2": 0.25, "w3": 0.25}
        assert state["history"][-2:] == [("update", "w1"), ("batch", None)]
        assert outcomes["thread"] == outcomes["session"]
        assert outcomes["process"] == outcomes["session"]


class TestProcessCollection:
    @pytest.mark.timeout(180)
    def test_parity_with_thread_engine(self, seeded):
        with connect_collection(seeded) as threads:
            expected = [
                (row.document, row.probability, row.bindings())
                for row in threads.query(_PATTERN)
            ]
        with ProcessCollection(
            seeded, shard_processes=2, observability=None
        ) as cluster:
            got = [
                (row.document, row.probability, row.bindings())
                for row in cluster.query(_PATTERN)
            ]
        assert got == expected

    @pytest.mark.timeout(180)
    def test_topk_and_threshold_parity_with_thread_engine(self, seeded):
        """Probability-ordered and thresholded fan-out matches the
        thread engine row for row (same merge discipline, same ties)."""
        with connect_collection(seeded) as threads:
            expected_topk = [
                (row.document, row.probability, row.bindings())
                for row in threads.query(_PATTERN).order_by_probability().limit(4)
            ]
            expected_floor = [
                (row.document, row.probability, row.bindings())
                for row in threads.query(_PATTERN).min_probability(0.6)
            ]
        with ProcessCollection(
            seeded, shard_processes=2, observability=None
        ) as cluster:
            got_topk = [
                (row.document, row.probability, row.bindings())
                for row in cluster.query(_PATTERN).order_by_probability().limit(4)
            ]
            got_floor = [
                (row.document, row.probability, row.bindings())
                for row in cluster.query(_PATTERN).min_probability(0.6)
            ]
            assert cluster.query(_PATTERN).order_by_probability().limit(0).all() == []
        assert got_topk == expected_topk
        assert got_floor == expected_floor

    @pytest.mark.timeout(180)
    def test_estimate_parity_with_thread_engine(self, seeded):
        """Fixed-seed Monte-Carlo estimates are identical across the
        thread and process engines: same samples, same merge order."""
        with connect_collection(seeded) as threads:
            expected = [
                (e.document, e.probability, e.stderr, e.samples, e.tree.canonical())
                for e in threads.query(_PATTERN).estimate(epsilon=0.05)
            ]
            # A limit smaller than the shard count caps the *merged*
            # pairs on both engines, not each shard's contribution.
            capped = [
                (e.document, e.probability, e.tree.canonical())
                for e in threads.query(_PATTERN).limit(3).estimate(epsilon=0.05)
            ]
        with ProcessCollection(
            seeded, shard_processes=2, observability=None
        ) as cluster:
            got = [
                (e.document, e.probability, e.stderr, e.samples, e.tree.canonical())
                for e in cluster.query(_PATTERN).estimate(epsilon=0.05)
            ]
            got_capped = [
                (e.document, e.probability, e.tree.canonical())
                for e in cluster.query(_PATTERN).limit(3).estimate(epsilon=0.05)
            ]
        assert got == expected
        assert len(KEYS) > 3 and len(capped) == 3
        assert got_capped == capped

    @pytest.mark.timeout(180)
    def test_limit_first_count_and_key_scoping(self, seeded):
        with ProcessCollection(
            seeded, shard_processes=2, observability=None
        ) as cluster:
            assert cluster.query(_PATTERN).count() == len(KEYS) * 3
            assert len(cluster.query(_PATTERN).limit(4).all()) == 4
            first = cluster.query(_PATTERN).first()
            assert first.document == sorted(KEYS)[0]
            assert first.tree.label == "person"
            scoped = cluster.query(_PATTERN, keys=["bob"]).all()
            assert {row.document for row in scoped} == {"bob"}
            with pytest.raises(WarehouseError, match="mallory"):
                cluster.query(_PATTERN, keys=["mallory"])
            assert cluster.query(_PATTERN).limit(0).all() == []

    @pytest.mark.timeout(180)
    def test_update_durable_across_engines(self, tmp_path):
        path = tmp_path / "coll"
        _seed_collection(path)
        with ProcessCollection(
            path, shard_processes=2, observability=None
        ) as cluster:
            report = cluster.update("carol", _insert_email("durable@x", 0.8))
            assert report.applied
            reports = cluster.update_many(
                "carol", [_insert_email("batch1@x"), _insert_email("batch2@x")]
            )
            assert len(reports) == 2
        # Reopen with the thread engine: commits crossed the process
        # boundary into that shard's WAL/snapshot, not a cache.
        with connect_collection(path) as threads:
            values = {
                row.bindings()["e"]
                for row in threads.query(_PATTERN, keys=["carol"])
            }
        assert {"durable@x", "batch1@x", "batch2@x"} <= values

    @pytest.mark.timeout(180)
    def test_create_document_routes_to_a_worker(self, tmp_path):
        path = tmp_path / "coll"
        _seed_collection(path)
        with ProcessCollection(
            path, shard_processes=2, observability=None
        ) as cluster:
            cluster.create_document("frank", root="person")
            assert "frank" in cluster
            cluster.update("frank", _insert_email("frank@x"))
            rows = cluster.query(_PATTERN, keys=["frank"]).all()
            assert [row.bindings()["e"] for row in rows] == ["frank@x"]
            with pytest.raises(WarehouseError, match="already exists"):
                cluster.create_document("frank", root="person")

    @pytest.mark.timeout(180)
    def test_stats_and_health_shapes(self, seeded):
        with ProcessCollection(
            seeded, shard_processes=2, observability=None
        ) as cluster:
            stats = cluster.stats()
            assert stats["document_count"] == len(KEYS)
            assert stats["cluster"]["mode"] == "process"
            assert stats["cluster"]["processes"] == 2
            assert stats["totals"]["nodes"] > 0
            health = cluster.health()
            assert set(health["shards"]) == set(KEYS)
            for shard in health["shards"].values():
                assert shard["alive"] is True
                assert shard["respawns"] == 0
                assert isinstance(shard["wal_depth"], int)

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("verb", [Verb.STATS, Verb.HEALTH], ids=["stats", "health"])
    def test_stats_and_health_survive_a_damaged_reply(self, seeded, verb):
        """A worker reply that fails its checksum reports that worker's
        shards down for one poll instead of raising ``WireError``; the
        pipe stays in step, so the next poll reads every shard alive."""
        with ProcessCollection(
            seeded, shard_processes=2, observability=None
        ) as cluster:
            handle = cluster._handles["w0"]
            with handle.lock:
                handle.transport = ChaosTransport(handle.transport, random.Random(7))
                handle.transport.arm_corrupt()
            damaged = set(cluster.workers()["w0"]["keys"])
            assert damaged
            if verb is Verb.STATS:
                workers = cluster.stats()["cluster"]["workers"]
                assert workers["w0"]["alive"] is False
                assert workers["w1"]["alive"] is True
            else:
                shards = cluster.health()["shards"]
                assert set(shards) == set(KEYS)
                assert {k for k, s in shards.items() if not s["alive"]} == damaged
            health = cluster.health()
            assert set(health["shards"]) == set(KEYS)
            for shard in health["shards"].values():
                assert shard["alive"] is True
                assert shard["respawns"] == 0


class TestCrashRecovery:
    @pytest.mark.timeout(300)
    def test_kill9_after_commit_loses_nothing(self, tmp_path):
        """The acceptance scenario: a worker SIGKILLed *after* the WAL
        fsync but *before* the acknowledgement.  The caller sees a
        retryable ShardUnavailableError, the supervisor respawns the
        worker, WAL replay restores the commit."""
        path = tmp_path / "coll"
        _seed_collection(path)
        with ProcessCollection(
            path, shard_processes=2, observability=None, fault_injection=True
        ) as cluster:
            with pytest.raises(ShardUnavailableError) as err:
                cluster.update(
                    "alice", _insert_email("committed@x"), fault="after_commit"
                )
            assert err.value.retryable is True
            _wait_shard_alive(cluster, "alice")
            values = {
                row.bindings()["e"]
                for row in cluster.query(_PATTERN, keys=["alice"])
            }
            assert "committed@x" in values
            workers = cluster.workers()
            assert sum(info["respawns"] for info in workers.values()) == 1

    @pytest.mark.timeout(300)
    def test_kill9_before_commit_applies_nothing(self, tmp_path):
        path = tmp_path / "coll"
        _seed_collection(path)
        with ProcessCollection(
            path, shard_processes=2, observability=None, fault_injection=True
        ) as cluster:
            with pytest.raises(ShardUnavailableError):
                cluster.update(
                    "alice", _insert_email("phantom@x"), fault="before_commit"
                )
            _wait_shard_alive(cluster, "alice")
            values = {
                row.bindings()["e"]
                for row in cluster.query(_PATTERN, keys=["alice"])
            }
            assert "phantom@x" not in values
            # The retry contract: the same update re-submitted lands.
            report = cluster.update("alice", _insert_email("retried@x"))
            assert report.applied

    @pytest.mark.timeout(300)
    def test_faults_ignored_without_opt_in(self, tmp_path):
        path = tmp_path / "coll"
        _seed_collection(path)
        with ProcessCollection(
            path, shard_processes=2, observability=None
        ) as cluster:
            report = cluster.update(
                "bob", _insert_email("safe@x"), fault="after_commit"
            )
            assert report.applied  # no kill: faults need fault_injection=True


# ----------------------------------------------------------------------
# One collection front over both engines
# ----------------------------------------------------------------------

ENGINES = ("thread", "process")
BAD_KEYS = ("a/b", ".hidden", "../escape", "", 42)


@pytest.fixture(scope="module")
def admin_store(tmp_path_factory):
    """A seeded collection the admin contract reads but never changes."""
    path = tmp_path_factory.mktemp("admin") / "coll"
    _seed_collection(path)
    return path


@pytest.fixture(scope="module", params=ENGINES)
def admin(request, admin_store):
    """One open collection per engine, shared by the contract tests."""
    with _open_surface(request.param, admin_store, "alice") as collection:
        yield collection


@pytest.fixture(scope="module")
def solo_store(tmp_path_factory):
    """A collection holding one document, ``solo``, with four emails."""
    path = tmp_path_factory.mktemp("solo") / "coll"
    with connect_collection(path, create=True, workers=1) as seed:
        seed.create_document("solo", root="person")
        for i, confidence in enumerate((0.6, 0.9, 0.6, 0.75)):
            seed.update("solo", _insert_email(f"solo{i}@x", confidence))
    return path


def _tree(root) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*"))


class TestCollectionContract:
    """keys / create / update / query / stats / health / close answer the
    same way on both engines: they are written once, on the front."""

    @pytest.mark.timeout(180)
    def test_keys_len_and_membership(self, admin):
        assert admin.keys() == sorted(KEYS)
        assert len(admin) == len(KEYS)
        assert "alice" in admin and "mallory" not in admin

    @pytest.mark.timeout(180)
    def test_duplicate_create_is_refused(self, admin):
        with pytest.raises(WarehouseError, match="document 'alice' already exists"):
            admin.create_document("alice", root="person")
        assert admin.keys() == sorted(KEYS)

    @pytest.mark.timeout(180)
    def test_unknown_keys_raise_the_same_error(self, admin, admin_store):
        message = f"no document 'mallory' in collection {admin_store}"
        calls = (
            lambda: admin.update("mallory", _insert_email("m@x")),
            lambda: admin.update_many("mallory", [_insert_email("m@x")]),
            lambda: admin.query(_PATTERN, keys=["alice", "mallory"]),
        )
        for call in calls:
            with pytest.raises(WarehouseError) as excinfo:
                call()
            assert type(excinfo.value) is WarehouseError
            assert str(excinfo.value) == message

    @pytest.mark.timeout(180)
    def test_stats_shape(self, admin):
        stats = admin.stats()
        documents = stats["documents"]
        assert sorted(documents) == sorted(KEYS)
        assert stats["document_count"] == len(KEYS)
        # One commit for the create, three for the seeded updates.
        assert {key: info["sequence"] for key, info in documents.items()} == {
            key: 4 for key in KEYS
        }
        for name, total in stats["totals"].items():
            assert total == sum(info.get(name, 0) for info in documents.values())
        assert stats["totals"]["sequence"] == 4 * len(KEYS)

    @pytest.mark.timeout(180)
    def test_health_record_shape(self, admin):
        shards = admin.health()["shards"]
        assert sorted(shards) == sorted(KEYS)
        for record in shards.values():
            assert record.keys() == {"alive", "wal_depth", "respawns"}
            assert record["alive"] is True and record["respawns"] == 0
            assert isinstance(record["wal_depth"], int)

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("key", BAD_KEYS, ids=repr)
    def test_bad_keys_are_refused_before_touching_disk(self, admin, key):
        outside = admin.path.parent
        before = _tree(outside)
        with pytest.raises(WarehouseError, match="invalid document key"):
            admin.create_document(key, root="person")
        assert admin.keys() == sorted(KEYS)
        assert _tree(outside) == before

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("kind", ENGINES)
    def test_closed_collection_holds_no_documents(self, kind, tmp_path):
        path = _fresh_store(tmp_path / "coll")
        with _open_surface(kind, path, "doc") as collection:
            assert collection.keys() == ["doc"]
            collection.close()
            assert collection.keys() == [] and len(collection) == 0
            assert "doc" not in collection
            for call in (
                lambda: collection.query("//b"),
                lambda: collection.update("doc", _insert_under_a("x")),
                lambda: collection.update_many("doc", []),
                lambda: collection.create_document("new", root="a"),
                collection.stats,
                collection.health,
            ):
                with pytest.raises(WarehouseError, match="collection is closed"):
                    call()
            collection.close()  # idempotent

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("kind", ENGINES)
    def test_one_document_collection_reads_like_its_session(self, kind, solo_store):
        """Rows, top-k, answers (thread engine) and estimates of a
        one-document collection are its session's, item for item; the
        shard key in ``document`` is the only difference."""
        reads = {
            "all": lambda target: target.query(_PATTERN).all(),
            "top3": lambda target: target.query(_PATTERN)
            .order_by_probability()
            .limit(3)
            .all(),
            "estimate": lambda target: target.query(_PATTERN).estimate(seed=0),
        }
        if kind == "thread":
            reads["answers"] = lambda target: target.query(_PATTERN).answers()

        def view(target):
            items = {name: read(target) for name, read in reads.items()}
            documents = {item.document for found in items.values() for item in found}
            return documents, {
                name: [
                    (
                        item.probability,
                        item.tree.canonical(),
                        item.bindings() if hasattr(item, "bindings") else None,
                    )
                    for item in found
                ]
                for name, found in items.items()
            }

        with repro.connect(solo_store / "solo") as session:
            session_documents, expected = view(session)
        with _open_surface(kind, solo_store, "solo") as collection:
            assert type(collection.query(_PATTERN)) is repro.ResultSet
            documents, got = view(collection)
        assert session_documents == {None} and documents == {"solo"}
        assert all(expected.values()) and got == expected

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("kind", ENGINES)
    def test_both_engines_discover_shards_by_one_rule(self, kind, tmp_path):
        path = _fresh_store(tmp_path / "coll")
        shutil.copytree(path / "doc", path / ".hidden")
        with pytest.raises(WarehouseError, match="invalid document key '.hidden'"):
            with _open_surface(kind, path, "doc"):
                pass


class TestOneShardMapOnePool:
    """Structural guards: every shard opens through the one map, and
    process fan-out runs on the collection's pool."""

    def test_every_shard_opens_through_the_shard_map(self, tmp_path, monkeypatch):
        path = _fresh_store(tmp_path / "coll")

        def refuse(self, key):
            raise RuntimeError(f"shard map refused {key}")

        monkeypatch.setattr(ShardMap, "open", refuse)
        with pytest.raises(RuntimeError, match="refused doc"):
            connect_collection(path)
        worker = _Worker(path, {})
        try:
            with pytest.raises(RuntimeError, match="refused doc"):
                worker.open_shard("doc")
        finally:
            worker.close_all()

    @pytest.mark.timeout(180)
    def test_process_fanout_runs_on_the_pool(self, seeded, monkeypatch):
        panel = Observability()
        with ProcessCollection(seeded, shard_processes=2, observability=panel) as cluster:
            assert all(info["keys"] for info in cluster.workers().values())
            waits = panel.metrics.histogram("serve.queue_wait_seconds")
            before = waits.count
            started = []
            start = threading.Thread.start

            def counting(thread):
                started.append(thread.name)
                return start(thread)

            monkeypatch.setattr(threading.Thread, "start", counting)
            for _ in range(20):
                assert cluster.query(_PATTERN).count() == len(KEYS) * 3
            monkeypatch.undo()
            assert waits.count - before == 40
            assert started == []
