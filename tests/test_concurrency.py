"""Concurrency stress tests: single-writer / multi-reader serving.

The CI ``stress`` tier runs this file under ``pytest-timeout`` so a
deadlock fails fast instead of hanging the runner; every test that
spins threads carries an explicit ``@pytest.mark.timeout`` (registered
as a no-op marker when the plugin is absent locally — see
``conftest.pytest_configure``).

What is being defended:

* **snapshot isolation under threads** — a pinned reader sees one
  frozen, internally consistent document generation whose row
  probabilities match a serial re-run of the pinned snapshot, while a
  writer commits random updates (the copy-on-write contract);
* **no torn reads** — a live-session iteration pins its generation on
  entry and never observes a half-applied mutation;
* **pin accounting** — pins are released exactly once from any thread,
  including abandoned iterators (weakref finalizer) and racing
  double-releases, and ``stats()["read_sessions"]`` always returns
  to 0;
* **writer serialization** — concurrent committers queue; the commit
  sequence has no gaps and recovery replays cleanly.
"""

from __future__ import annotations

import gc
import random
import sys
import threading

import pytest

import repro
from repro.core.query import iter_query_rows, query_fuzzy_tree
from repro.errors import UpdateError
from repro.tpwj.parser import parse_pattern


def _insert(label: str, value: str, confidence: float = 0.9):
    """An update inserting ``<label>value</label>`` under the root."""
    return (
        repro.update(repro.pattern("directory", variable="d", anchored=True))
        .insert("d", repro.tree("person", repro.tree(label, value)))
        .confidence(confidence)
    )


@pytest.fixture
def session(tmp_path):
    with repro.connect(tmp_path / "wh", create=True, root="directory") as session:
        for i in range(12):
            session.update(_insert("name", f"seed{i}", 0.5 + 0.04 * i))
        yield session


def _run_threads(threads, errors):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == [], errors


class TestSnapshotIsolationUnderThreads:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_readers_see_frozen_consistent_generations(self, session, seed):
        """K concurrent pinned readers vs. a writer committing M random
        updates: every reader's rows are stable across re-reads and
        their probabilities match a serial re-run of the pinned
        snapshot through the engine-free slow path."""
        readers, commits = 4, 25
        rng = random.Random(seed)
        updates = [
            _insert("name", f"w{seed}-{i}", rng.uniform(0.05, 0.95))
            for i in range(commits)
        ]
        errors: list = []
        started = threading.Barrier(readers + 1)

        def reader(k: int) -> None:
            try:
                started.wait()
                for _ in range(6):
                    with session.snapshot() as snap:
                        first = snap.query("//person { name }").all()
                        second = snap.query("//person { name }").all()
                        assert [r.probability for r in first] == [
                            r.probability for r in second
                        ], "snapshot re-read diverged"
                        # Serial re-run of the pinned generation: the
                        # engine-free path walks ancestor chains and
                        # expands with a private memo — bit-identical
                        # probabilities prove the pinned tree, its
                        # event table and the shared engine caches are
                        # all consistent mid-churn.
                        serial = query_fuzzy_tree(
                            snap.document, parse_pattern("//person { name }")
                        )
                        engine_side = snap.query("//person { name }").answers()
                        assert [a.probability for a in engine_side] == [
                            a.probability for a in serial
                        ], "engine path diverged from serial re-run"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((k, repr(exc)))

        def writer() -> None:
            try:
                started.wait()
                for update in updates:
                    session.update(update)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(("writer", repr(exc)))

        threads = [
            threading.Thread(target=reader, args=(k,)) for k in range(readers)
        ]
        threads.append(threading.Thread(target=writer))
        _run_threads(threads, errors)
        assert session.stats()["read_sessions"] == 0

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_pinned_readers_never_see_a_refused_batch(self, session, seed):
        """A writer alternates good batches with batches refused at a
        random member, each refusal swapping in the restored document.
        Readers streaming on pinned generations see rows bit-identical
        to a serial (planner-free) re-run of their snapshot, and never
        a member of a refused batch."""
        readers, rounds = 4, 10
        rng = random.Random(seed)
        root_delete = repro.update(
            repro.pattern("directory", variable="d", anchored=True)
        ).delete("d")
        errors: list = []
        started = threading.Barrier(readers + 1)
        stop = threading.Event()

        def reader(k: int) -> None:
            try:
                started.wait()
                while not stop.is_set():
                    with session.snapshot() as snap:
                        streamed = [
                            (row.canonical, row.probability)
                            for row in snap.query("//person { name }")
                        ]
                        serial = [
                            (row.canonical, row.probability)
                            for row in snap.query("//person { name }", planner=False)
                        ]
                    assert sorted(streamed) == sorted(serial), "rows diverged"
                    assert not any("refused" in key for key, _ in streamed)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((k, repr(exc)))

        def writer() -> None:
            try:
                started.wait()
                for i in range(rounds):
                    session.update_many(
                        [_insert("name", f"ok{i}-{j}", rng.uniform(0.05, 0.95)) for j in range(3)]
                    )
                    refused = [_insert("name", f"refused{i}-{j}") for j in range(3)]
                    refused.insert(rng.randint(0, 3), root_delete)
                    with pytest.raises(UpdateError):
                        session.update_many(refused)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(("writer", repr(exc)))
            finally:
                stop.set()

        threads = [
            threading.Thread(target=reader, args=(k,)) for k in range(readers)
        ]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave readers inside the swap
        try:
            _run_threads(threads, errors)
        finally:
            sys.setswitchinterval(interval)
        assert session.stats()["read_sessions"] == 0
        assert session.query("//name").count() == 12 + 3 * rounds

    @pytest.mark.timeout(120)
    def test_live_iteration_counts_never_regress(self, session):
        """The writer only inserts, so the row count a reader's
        iteration observes must be non-decreasing over its successive
        (freshly pinned) iterations — a torn or half-applied read would
        break monotonicity or crash mid-walk."""
        errors: list = []
        stop = threading.Event()

        def reader(k: int) -> None:
            try:
                last = 0
                while not stop.is_set():
                    count = session.query("//name").count()
                    assert count >= last, f"count regressed: {last} -> {count}"
                    last = count
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((k, repr(exc)))

        def writer() -> None:
            try:
                for i in range(40):
                    session.update(_insert("name", f"live{i}"))
            finally:
                stop.set()

        threads = [threading.Thread(target=reader, args=(k,)) for k in range(3)]
        threads.append(threading.Thread(target=writer))
        _run_threads(threads, errors)
        assert session.stats()["read_sessions"] == 0


class TestWalkPatchedUnderReaders:
    """Commits patch the live root's document walk in place when no pin
    holds the document, and clone the document (leaving the pinned
    generation's walk frozen) when one does."""

    QUERIES = ("//person { name }", "//person { //email }", "/directory { person }")

    @staticmethod
    def _rows(rows) -> list:
        return sorted(
            (row.canonical, tuple(id(n) for n in row.match.iter_images()), row.probability)
            for row in rows
        )

    def _check(self, snap) -> None:
        """The snapshot's rows equal a fresh-walk evaluation of its
        pinned generation (no engine: a throw-away walk per query)."""
        for text in self.QUERIES:
            fresh = iter_query_rows(snap.document, parse_pattern(text))
            assert self._rows(snap.query(text).all()) == self._rows(fresh), text

    @staticmethod
    def _writes(seed: int) -> list:
        """Inserts (root-anchored and located), deletes with survivor
        copies, and batches mixing both."""
        rng = random.Random(seed)

        def person(name: str, variable: str = "p"):
            return repro.pattern("person", variable=variable).child("name", value=name)

        writes = []
        for i in range(30):
            named = f"seed{rng.randrange(12)}"
            email = (
                repro.update(person(named))
                .insert("p", repro.tree("email", f"e{i}"))
                .confidence(rng.uniform(0.3, 0.9))
            )
            if i % 5 == 4:
                writes.append(
                    [_insert("name", f"w{i}"), email, repro.update(person(f"w{i - 2}"))
                     .delete("p").confidence(0.6)]
                )
            elif i % 3 == 2:
                writes.append(repro.update(person(f"w{i - 1}")).delete("p").confidence(0.7))
            elif i % 3 == 1:
                writes.append(email)
            else:
                writes.append(_insert("name", f"w{i}", rng.uniform(0.3, 0.9)))
        return writes

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_rows_match_a_fresh_walk_across_and_between_commits(self, session, seed):
        errors: list = []
        done = threading.Event()
        warehouse = session._warehouse

        def holder(k: int) -> None:
            """Pins across commits: the writer must clone."""
            try:
                while not done.is_set():
                    with session.snapshot() as snap:
                        self._check(snap)
                        sequence = warehouse.sequence
                        while warehouse.sequence == sequence and not done.is_set():
                            done.wait(0.001)
                        self._check(snap)
                    done.wait(0.01)  # commits land unpinned meanwhile
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((f"holder{k}", repr(exc)))

        def between(k: int) -> None:
            """Pins between commits: the writer patches in place."""
            try:
                while not done.is_set():
                    with session.snapshot() as snap:
                        self._check(snap)
                    done.wait(0.002)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((f"between{k}", repr(exc)))

        def writer() -> None:
            try:
                for write in self._writes(seed):
                    if isinstance(write, list):
                        session.update_many(write)
                    else:
                        session.update(write)
                    done.wait(0.003)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(("writer", repr(exc)))
            finally:
                done.set()

        threads = [threading.Thread(target=holder, args=(k,)) for k in range(2)]
        threads += [threading.Thread(target=between, args=(k,)) for k in range(2)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave readers inside a patch
        try:
            _run_threads(threads, errors)
        finally:
            sys.setswitchinterval(interval)
        assert session.stats()["read_sessions"] == 0
        with session.snapshot() as snap:
            self._check(snap)


class TestPinAccounting:
    def test_abandoned_iterator_releases_pin(self, session):
        """Regression: a live-session stream dropped without exhaustion
        used to keep its generation pinned forever."""
        stream = iter(session.query("//person"))
        next(stream)
        assert session.stats()["read_sessions"] == 1
        del stream
        gc.collect()
        assert session.stats()["read_sessions"] == 0

    def test_stream_context_manager_releases_pin(self, session):
        with iter(session.query("//person")) as stream:
            next(stream)
            assert session.stats()["read_sessions"] == 1
        assert stream.closed
        assert session.stats()["read_sessions"] == 0

    def test_exhaustion_and_close_are_idempotent(self, session):
        stream = iter(session.query("//person").limit(2))
        assert len(list(stream)) == 2
        assert session.stats()["read_sessions"] == 0
        stream.close()
        stream.close()
        assert session.stats()["read_sessions"] == 0

    def test_first_releases_pin(self, session):
        assert session.query("//person").first() is not None
        assert session.stats()["read_sessions"] == 0

    def test_racing_pin_releases_decrement_once(self, session):
        pin = session.warehouse.pin()
        errors: list = []
        barrier = threading.Barrier(4)

        def release(k: int) -> None:
            try:
                barrier.wait()
                pin.release()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((k, repr(exc)))

        _run_threads(
            [threading.Thread(target=release, args=(k,)) for k in range(4)], errors
        )
        assert session.stats()["read_sessions"] == 0

    @pytest.mark.timeout(120)
    def test_snapshot_churn_across_threads(self, session):
        errors: list = []

        def churn(k: int) -> None:
            try:
                for _ in range(30):
                    with session.snapshot() as snap:
                        assert snap.query("//name").count() >= 12
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((k, repr(exc)))

        _run_threads(
            [threading.Thread(target=churn, args=(k,)) for k in range(6)], errors
        )
        assert session.stats()["read_sessions"] == 0


class TestWriterSerialization:
    @pytest.mark.timeout(120)
    def test_concurrent_writers_queue_without_gaps(self, tmp_path):
        path = tmp_path / "wh"
        writers, each = 4, 10
        with repro.connect(path, create=True, root="directory") as session:
            base = session.sequence
            errors: list = []

            def writer(k: int) -> None:
                try:
                    for i in range(each):
                        session.update(_insert("name", f"t{k}-{i}"))
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append((k, repr(exc)))

            _run_threads(
                [threading.Thread(target=writer, args=(k,)) for k in range(writers)],
                errors,
            )
            assert session.sequence == base + writers * each
            names = {
                row.tree.canonical()
                for row in session.query("//person { name }")
            }
            assert len(names) == writers * each
        # Clean reopen: the interleaved commit history replays/loads.
        with repro.connect(path) as session:
            assert session.query("//name").count() == writers * each

    @pytest.mark.timeout(120)
    def test_batches_and_simplify_interleave_safely(self, session):
        errors: list = []

        def batcher(k: int) -> None:
            try:
                for i in range(5):
                    session.update_many(
                        [_insert("name", f"b{k}-{i}-{j}") for j in range(4)]
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((k, repr(exc)))

        def maintainer() -> None:
            try:
                for _ in range(3):
                    session.simplify()
                    session.compact()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(("maintainer", repr(exc)))

        threads = [threading.Thread(target=batcher, args=(k,)) for k in range(3)]
        threads.append(threading.Thread(target=maintainer))
        _run_threads(threads, errors)
        assert session.query("//name").count() >= 3 * 5 * 4


class TestStressTier:
    """The heavyweight mixed workload the CI stress job exists for."""

    @pytest.mark.timeout(240)
    def test_eight_readers_one_writer_mixed_workload(self, tmp_path):
        with repro.connect(tmp_path / "wh", create=True, root="directory") as session:
            for i in range(20):
                session.update(_insert("name", f"seed{i}", 0.4 + 0.02 * i))
            errors: list = []
            stop = threading.Event()
            iterations = [0] * 8

            def reader(k: int) -> None:
                try:
                    while not stop.is_set():
                        mode = k % 4
                        if mode == 0:
                            rows = session.query("//person { name }").limit(5).all()
                            assert len(rows) == 5
                        elif mode == 1:
                            with session.snapshot() as snap:
                                a = snap.query("//name").answers()
                                b = snap.query("//name").answers()
                                assert [x.probability for x in a] == [
                                    x.probability for x in b
                                ]
                        elif mode == 2:
                            stream = iter(session.query("//person"))
                            next(stream)
                            stream.close()
                        else:
                            for row in session.query("//name").limit(3):
                                assert 0.0 < row.probability <= 1.0
                        iterations[k] += 1
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append((k, repr(exc)))

            def writer() -> None:
                try:
                    for i in range(30):
                        if i % 10 == 9:
                            session.update_many(
                                [_insert("name", f"wb{i}-{j}") for j in range(3)]
                            )
                        else:
                            session.update(_insert("name", f"w{i}"))
                finally:
                    stop.set()

            threads = [
                threading.Thread(target=reader, args=(k,)) for k in range(8)
            ]
            threads.append(threading.Thread(target=writer))
            _run_threads(threads, errors)
            assert all(count > 0 for count in iterations), iterations
            assert session.stats()["read_sessions"] == 0
            # The shared engine's caches stayed coherent: one more full
            # read agrees with the engine-free slow path.
            serial = query_fuzzy_tree(
                session.document, parse_pattern("//person { name }")
            )
            fast = session.query("//person { name }").answers()
            assert [a.probability for a in fast] == [a.probability for a in serial]
