"""Tests for the serving layer: SessionPool, Collection, CLI surface."""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.cli import main
from repro.core.fuzzy_tree import FuzzyNode, FuzzyTree
from repro.errors import WarehouseError
from repro.serve import Collection, SessionPool, connect_collection
from repro.serve.collection import BaseCollection
from repro.serve.pool import default_workers


def _insert_email(value: str, confidence: float = 0.9):
    return (
        repro.update(repro.pattern("person", variable="p", anchored=True))
        .insert("p", repro.tree("email", value))
        .confidence(confidence)
    )


@pytest.fixture
def collection(tmp_path):
    with repro.connect_collection(
        tmp_path / "coll", create=True, workers=4
    ) as collection:
        for key in ("alice", "bob", "carol"):
            collection.create_document(key, root="person")
            for i in range(3):
                collection.update(key, _insert_email(f"{key}{i}@x", 0.5 + 0.1 * i))
        yield collection


class TestSessionPool:
    def test_default_workers_bounds(self):
        assert 2 <= default_workers() <= 8

    def test_submit_and_stats(self):
        with SessionPool(workers=2) as pool:
            futures = [pool.submit(lambda x: x * x, n) for n in range(5)]
            assert [f.result() for f in futures] == [0, 1, 4, 9, 16]
            info = pool.stats()
            assert info["workers"] == 2
            assert info["submitted_tasks"] == 5
            assert info["active_tasks"] == 0
        assert pool.stats()["closed"]

    def test_submit_after_shutdown_raises(self):
        pool = SessionPool(workers=1)
        pool.shutdown()
        pool.shutdown()  # idempotent
        with pytest.raises(WarehouseError):
            pool.submit(lambda: None)

    def test_invalid_workers(self):
        with pytest.raises(WarehouseError):
            SessionPool(workers=0)


class TestCollectionLifecycle:
    def test_create_and_reopen(self, tmp_path):
        path = tmp_path / "c"
        with repro.connect_collection(path, create=True) as collection:
            collection.create_document("d1", root="person")
            assert collection.keys() == ["d1"]
        assert Collection.is_collection(path)
        with repro.connect_collection(path) as collection:
            assert collection.keys() == ["d1"]
            assert len(collection) == 1
            assert "d1" in collection

    def test_create_twice_fails(self, tmp_path):
        path = tmp_path / "c"
        connect_collection(path, create=True).close()
        with pytest.raises(WarehouseError):
            connect_collection(path, create=True)

    def test_open_missing_fails(self, tmp_path):
        with pytest.raises(WarehouseError):
            connect_collection(tmp_path / "nope")

    def test_plain_warehouse_is_not_a_collection(self, tmp_path):
        repro.connect(tmp_path / "wh", create=True, root="r").close()
        assert not Collection.is_collection(tmp_path / "wh")

    def test_invalid_keys_rejected(self, collection):
        for bad in ("", ".hidden", "a/b", "a b", 7):
            with pytest.raises(WarehouseError):
                collection.create_document(bad, root="x")

    def test_duplicate_key_rejected(self, collection):
        with pytest.raises(WarehouseError):
            collection.create_document("alice", root="person")

    def test_unknown_document_rejected(self, collection):
        with pytest.raises(WarehouseError):
            collection.document("nobody")
        with pytest.raises(WarehouseError):
            collection.update("nobody", _insert_email("x@x"))

    def test_closed_collection_raises(self, tmp_path):
        collection = connect_collection(tmp_path / "c", create=True)
        collection.close()
        collection.close()  # idempotent
        with pytest.raises(WarehouseError):
            collection.query("//x")


class TestRouting:
    def test_update_routes_to_one_shard(self, collection):
        before = {
            key: collection.document(key).sequence for key in collection.keys()
        }
        collection.update("bob", _insert_email("routed@x"))
        after = {key: collection.document(key).sequence for key in collection.keys()}
        assert after["bob"] == before["bob"] + 1
        assert after["alice"] == before["alice"]
        assert after["carol"] == before["carol"]
        values = {
            row.tree.canonical()
            for row in collection.query("//email", keys=["bob"])
        }
        assert "person(email='routed@x')" in values

    def test_update_many_is_one_commit(self, collection):
        before = collection.document("carol").sequence
        reports = collection.update_many(
            "carol", [_insert_email(f"batch{i}@x") for i in range(3)]
        )
        assert len(reports) == 3
        assert collection.document("carol").sequence == before + 1

    def test_parallel_writers_on_distinct_shards(self, collection):
        errors: list = []

        def writer(key: str) -> None:
            try:
                for i in range(8):
                    collection.update(key, _insert_email(f"{key}-par{i}@x"))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((key, repr(exc)))

        threads = [
            threading.Thread(target=writer, args=(key,))
            for key in collection.keys()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for key in collection.keys():
            count = collection.query("//email", keys=[key]).count()
            assert count == 3 + 8


class TestFanOut:
    def test_merge_order_is_shard_then_row(self, collection):
        merged = [(row.document, row.tree.canonical()) for row in
                  collection.query("//email")]
        expected = []
        for key in collection.keys():  # sorted key order
            expected.extend(
                (key, row.tree.canonical())
                for row in collection.document(key).query("//email")
            )
        assert merged == expected

    def test_reiteration_is_deterministic(self, collection):
        results = collection.query("//email")
        first = [(r.document, r.tree.canonical(), r.probability) for r in results]
        second = [(r.document, r.tree.canonical(), r.probability) for r in results]
        assert first == second

    def test_limit_is_a_prefix_and_short_circuits(self, collection):
        full = [(r.document, r.tree.canonical()) for r in collection.query("//email")]
        for n in (0, 1, 4, 7, 100):
            limited = [
                (r.document, r.tree.canonical())
                for r in collection.query("//email").limit(n)
            ]
            assert limited == full[:n]
        assert collection.query("//email").limit(2).count() == 2

    def test_first_and_count(self, collection):
        first = collection.query("//email").first()
        assert first is not None and first.document == "alice"
        assert collection.query("//email").count() == 9
        assert collection.query("//missing").first() is None

    def test_keys_subset(self, collection):
        rows = collection.query("//email", keys=["carol", "alice"]).all()
        assert {row.document for row in rows} == {"alice", "carol"}
        with pytest.raises(WarehouseError):
            collection.query("//email", keys=["ghost"])

    def test_answers_rank_within_shards(self, collection):
        answers = collection.query("//email").answers()
        assert len(answers) == 9
        seen_keys = [answer.document for answer in answers]
        assert seen_keys == sorted(seen_keys)
        by_key: dict[str, list[float]] = {}
        for answer in answers:
            by_key.setdefault(answer.document, []).append(answer.probability)
        for probabilities in by_key.values():
            assert probabilities == sorted(probabilities, reverse=True)

    def test_shard_rows_carry_bindings_and_provenance(self, collection):
        row = collection.query("//email[$e]").first()
        assert row.bindings()["e"] == "alice0@x"
        records = row.explain()
        assert records and all("probability" in record for record in records)
        assert 0.0 < row.probability <= 1.0

    def test_rows_probabilities_match_direct_session(self, collection):
        for key in collection.keys():
            direct = [
                (row.tree.canonical(), row.probability)
                for row in collection.document(key).query("//email")
            ]
            fanned = [
                (row.tree.canonical(), row.probability)
                for row in collection.query("//email", keys=[key])
            ]
            assert direct == fanned


class TestCollectionStats:
    def test_aggregates_and_pool(self, collection):
        info = collection.stats()
        assert info["document_count"] == 3
        assert set(info["documents"]) == {"alice", "bob", "carol"}
        assert info["totals"]["nodes"] == sum(
            doc["nodes"] for doc in info["documents"].values()
        )
        assert info["pool"]["workers"] == 4
        assert info["totals"]["read_sessions"] == 0


def _two_b_document() -> FuzzyTree:
    """``A`` with two ``B`` children under independent 0.5 events: the
    answer ``A(B)`` has probability 0.75, either match alone 0.5."""
    events = repro.EventTable({"w1": 0.5, "w2": 0.5})
    children = [FuzzyNode("B", condition=repro.Condition.of(e)) for e in events]
    return FuzzyTree(FuzzyNode("A", children=children), events)


class TestServeCli:
    @pytest.fixture
    def two_b_stores(self, tmp_path):
        """The same document as a warehouse and as a collection's ``d1``."""
        warehouse = tmp_path / "wh"
        repro.connect(warehouse, create=True, document=_two_b_document()).close()
        collection = tmp_path / "coll"
        with repro.connect_collection(collection, create=True) as opened:
            opened.create_document("d1", document=_two_b_document())
        return str(warehouse), str(collection)

    @pytest.fixture
    def cli_collection(self, tmp_path):
        path = tmp_path / "cli-coll"
        with repro.connect_collection(path, create=True) as collection:
            for key in ("a1", "b2"):
                collection.create_document(key, root="person")
                collection.update(key, _insert_email(f"{key}@x"))
        return path

    def test_serve_stats_on_warehouse(self, tmp_path, capsys):
        path = tmp_path / "wh"
        assert main(["init", str(path), "--root", "directory"]) == 0
        capsys.readouterr()
        assert main(["serve-stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "read_sessions: 0" in out and "shannon_cache_entries" in out

    def test_serve_stats_on_collection(self, cli_collection, capsys):
        assert main(["serve-stats", str(cli_collection)]) == 0
        out = capsys.readouterr().out
        assert "documents: 2" in out
        assert "pool:" in out and "a1:" in out and "b2:" in out

    def test_query_fans_out(self, cli_collection, capsys):
        assert main(["query", str(cli_collection), "//email"]) == 0
        out = capsys.readouterr().out
        assert "a1  " in out and "b2  " in out

    def test_query_stream_with_limit(self, cli_collection, capsys):
        assert main(
            ["query", str(cli_collection), "//email", "--stream", "--limit", "1"]
        ) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line.strip()
        ]
        assert len(lines) == 1 and lines[0].startswith("a1")

    def test_answer_limit_slices_the_ranking_on_both_targets(
        self, two_b_stores, capsys
    ):
        # --limit must not cut the rows the answers are priced from.
        warehouse, collection = two_b_stores
        assert main(["query", warehouse, "/A { B }", "--limit", "1"]) == 0
        assert capsys.readouterr().out == "0.750000  A(B)\n"
        assert main(["query", collection, "/A { B }", "--limit", "1"]) == 0
        assert capsys.readouterr().out == "d1  0.750000  A(B)\n"

    def test_no_planner_runs_the_fixed_plan_on_a_collection(
        self, cli_collection, monkeypatch, capsys
    ):
        built = []
        query = BaseCollection.query

        def spy(self, *args, **kwargs):
            built.append(query(self, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(BaseCollection, "query", spy)
        assert main(["query", str(cli_collection), "//email", "--no-planner"]) == 0
        assert [results.options.plan for results in built] == ["fixed"]
        assert "a1  " in capsys.readouterr().out

    @pytest.mark.parametrize("xml", [False, True])
    def test_estimate_output_matches_warehouse(self, two_b_stores, capsys, xml):
        warehouse, collection = two_b_stores
        flags = ["--estimate"] + (["--xml"] if xml else [])
        assert main(["query", warehouse, "/A { B }", *flags]) == 0
        expected = capsys.readouterr().out.splitlines()
        assert main(["query", collection, "/A { B }", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "samples" in expected[0]
        if xml:
            assert lines[0].startswith("<!-- d1: P = ")
            lines[0] = lines[0].replace("<!-- d1: ", "<!-- ", 1)
        else:
            assert all(line.startswith("d1  ") for line in lines)
            lines = [line.removeprefix("d1  ") for line in lines]
        assert lines == expected

    def test_update_requires_doc_key(self, cli_collection, tmp_path, capsys):
        tx = tmp_path / "tx.xml"
        tx.write_text(
            '<xu:modifications xmlns:xu="urn:repro:xupdate" '
            'query="person[$p]" confidence="0.7">'
            '<xu:insert anchor="p"><phone>555</phone></xu:insert>'
            "</xu:modifications>"
        )
        assert main(["update", str(cli_collection), "--xupdate", str(tx)]) == 2
        assert "--doc" in capsys.readouterr().err
        assert main(
            ["update", str(cli_collection), "--xupdate", str(tx), "--doc", "b2"]
        ) == 0
        assert "applied: True" in capsys.readouterr().out
        capsys.readouterr()
        assert main(["query", str(cli_collection), "//phone", "--stream"]) == 0
        out = capsys.readouterr().out
        assert "b2" in out and "a1" not in out

    def test_doc_flag_rejected_on_plain_warehouse(self, tmp_path, capsys):
        path = tmp_path / "wh"
        assert main(["init", str(path), "--root", "person"]) == 0
        tx = tmp_path / "tx.xml"
        tx.write_text(
            '<xu:modifications xmlns:xu="urn:repro:xupdate" '
            'query="person[$p]" confidence="0.7">'
            '<xu:insert anchor="p"><phone>555</phone></xu:insert>'
            "</xu:modifications>"
        )
        capsys.readouterr()
        assert main(
            ["update", str(path), "--xupdate", str(tx), "--doc", "x"]
        ) == 2
        assert "--doc only applies" in capsys.readouterr().err


class TestPoolShutdownRace:
    """Shutdown ordering contracts: a task accepted by submit() always
    runs (it is queued ahead of the poison pill under the pool lock);
    a submit that loses to shutdown raises WarehouseError; a wedged
    worker is abandoned with a log line, never an interpreter hang."""

    def test_submit_after_shutdown_raises(self):
        pool = SessionPool(workers=1)
        future = pool.submit(lambda: 42)
        pool.shutdown()
        assert future.result(timeout=30) == 42
        with pytest.raises(WarehouseError):
            pool.submit(lambda: None)
        info = pool.stats()
        assert info["closed"] and info["active_tasks"] == 0

    def test_shutdown_logs_and_abandons_stragglers(self, caplog):
        pool = SessionPool(workers=1)
        release = threading.Event()
        pool.submit(release.wait)
        with caplog.at_level("WARNING", logger="repro.serve"):
            pool.shutdown(timeout=0.2)
        try:
            assert any(
                "straggler" in record.message for record in caplog.records
            )
        finally:
            release.set()

    @pytest.mark.timeout(120)
    def test_submit_vs_shutdown_hammer(self):
        for _ in range(25):
            pool = SessionPool(workers=2)
            errors: list[BaseException] = []
            futures = []
            futures_lock = threading.Lock()
            barrier = threading.Barrier(5)

            def submitter():
                barrier.wait()
                for _ in range(100):
                    try:
                        future = pool.submit(lambda: 1)
                    except WarehouseError:
                        return  # the documented loser-of-the-race outcome
                    except BaseException as exc:  # noqa: BLE001 - the bug
                        errors.append(exc)
                        return
                    with futures_lock:
                        futures.append(future)

            threads = [threading.Thread(target=submitter) for _ in range(4)]
            for thread in threads:
                thread.start()
            barrier.wait()
            pool.shutdown()
            for thread in threads:
                thread.join(30)
            assert not errors, f"bare exception escaped submit: {errors!r}"
            for future in futures:
                if not future.cancelled():
                    assert future.result(timeout=30) == 1
            assert pool.stats()["active_tasks"] == 0


class TestAbandonMidMerge:
    """Regression: abandoning a fan-out mid-merge must stop shard tasks
    that *start after* the cancel decision, not just cancel queued ones."""

    def _assert_settles_clean(self, collection, timeout=15.0):
        deadline = time.monotonic() + timeout

        def settled():
            if collection.stats()["pool"]["active_tasks"] != 0:
                return False
            return all(
                collection.document(key).stats()["read_sessions"] == 0
                for key in collection.keys()
            )

        while time.monotonic() < deadline:
            if settled():
                return
            time.sleep(0.01)
        info = {
            "pool": collection.stats()["pool"],
            "read_sessions": {
                key: collection.document(key).stats()["read_sessions"]
                for key in collection.keys()
            },
        }
        raise AssertionError(f"fan-out never settled after abandon: {info}")

    def test_abandon_mid_merge_releases_everything(self, collection):
        stream = iter(collection.query("//email"))
        row = next(stream)
        assert row.document == "alice"
        stream.close()
        self._assert_settles_clean(collection)

    def test_abandon_with_single_worker_pool(self, tmp_path):
        # workers=1 serializes the shards, so later shard tasks start
        # only after the abandon decision — the exact racy window.
        with repro.connect_collection(
            tmp_path / "c", create=True, workers=1
        ) as collection:
            for key in ("a", "b", "c", "d", "e", "f"):
                collection.create_document(key, root="person")
                for i in range(4):
                    collection.update(key, _insert_email(f"{key}{i}@x"))
            for _ in range(10):
                stream = iter(collection.query("//email"))
                assert next(stream).document == "a"
                stream.close()
                self._assert_settles_clean(collection)
