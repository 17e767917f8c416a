"""Fault-tolerance tier: replication, failover, retry policy, chaos.

The process tests spawn real worker processes and kill them for real
(SIGKILL, dropped pipes, corrupted frames, injected slowness) — driven
by the seeded :class:`~repro.serve.cluster.FaultPlan` so every run
replays the same schedule.  The invariants under test are the
availability contract of ``replication_factor=2``:

* a read never surfaces an error while at most one worker is down;
* an acknowledged write survives any single worker death, including
  the "committed, never acknowledged" window (``after_commit``);
* replicas that diverged or missed write-throughs are healed from the
  primary's folded snapshot without operator action.

The wire-corruption property tests assert the failure-family split the
failover path relies on: damaged bytes raise ``WireError`` (retry on
the same pipe), never ``EOFError`` (respawn) — and vice versa.
"""

from __future__ import annotations

import time

import pytest

import repro
from repro.errors import ShardUnavailableError, WarehouseError
from repro.serve import connect_collection
from repro.serve.cluster import (
    ChaosMonkey,
    FaultPlan,
    ProcessCollection,
    RetryPolicy,
    call_with_retry,
    is_retryable,
    kill_worker,
)
from repro.serve.cluster.chaos import Fault
from repro.serve.cluster.ring import HashRing
from repro.serve.cluster.wire import (
    FRAME_FORMAT_VERSION,
    Verb,
    WireError,
    decode_frame,
    encode_frame,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in CI
    HAVE_HYPOTHESIS = False

KEYS = ("alice", "bob", "carol", "dave", "erin")
_PATTERN = "/person { email [$e] }"


def _insert_email(value: str, confidence: float = 0.9):
    return (
        repro.update(repro.pattern("person", variable="p", anchored=True))
        .insert("p", repro.tree("email", value))
        .confidence(confidence)
    )


def _seed_collection(path) -> None:
    with connect_collection(path, create=True, workers=2) as seed:
        for key in KEYS:
            seed.create_document(key, root="person")
            seed.update(key, _insert_email(f"{key}0@x", 0.6))


def _wait_workers_alive(cluster, deadline: float = 60.0) -> None:
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline:
        if all(info["alive"] for info in cluster.workers().values()):
            return
        time.sleep(0.05)
    raise AssertionError("workers never all came back alive")


def _emails(cluster, key: str) -> list[str]:
    return sorted(
        row.bindings()["e"] for row in cluster.query(_PATTERN, keys=[key])
    )


def _layout(cluster) -> tuple[dict, dict]:
    """Every worker's key sets and every key's placement."""
    workers = {
        name: (info["keys"], info["replica_keys"])
        for name, info in cluster.workers().items()
    }
    return workers, {key: cluster.replicas_of(key) for key in cluster.keys()}


@pytest.fixture(scope="module")
def replicated_cluster(tmp_path_factory):
    """One shared R=2 cluster: spawning three interpreters per test
    would dominate the suite's runtime."""
    path = tmp_path_factory.mktemp("faults") / "coll"
    _seed_collection(path)
    cluster = ProcessCollection(
        path,
        shard_processes=3,
        replication_factor=2,
        observability=None,
        fault_injection=True,
        attempt_timeout=2.0,
        query_deadline=30.0,
    )
    cluster.await_replication(60.0)
    yield cluster
    cluster.close()


# ----------------------------------------------------------------------
# Wire corruption: the WireError-vs-EOFError family split
# ----------------------------------------------------------------------


class TestWireCorruption:
    """Bit flips anywhere in a frame must decode to WireError — never
    to a silent success (misread data) and never to EOFError (which
    would misclassify damage as worker death and trigger a respawn)."""

    FRAME = encode_frame(Verb.QUERY, 0x0123456789ABCDEF, {"keys": ["alice"]})

    def _flip(self, frame: bytes, bit: int) -> bytes:
        damaged = bytearray(frame)
        damaged[bit // 8] ^= 1 << (bit % 8)
        return bytes(damaged)

    @pytest.mark.parametrize(
        ("field", "offset", "size"),
        [
            ("length", 0, 4),
            ("version", 4, 1),
            ("verb", 5, 1),
            ("request_id", 6, 8),
            ("crc", 14, 4),
        ],
    )
    def test_header_field_flips_rejected(self, field, offset, size):
        for bit in range(offset * 8, (offset + size) * 8):
            with pytest.raises(WireError):
                decode_frame(self._flip(self.FRAME, bit))

    def test_payload_flips_rejected(self):
        for bit in range(18 * 8, len(self.FRAME) * 8):
            with pytest.raises(WireError):
                decode_frame(self._flip(self.FRAME, bit))

    if HAVE_HYPOTHESIS:

        @given(
            verb=st.sampled_from(list(Verb)),
            request_id=st.integers(min_value=0, max_value=2**64 - 1),
            payload=st.dictionaries(
                st.text(min_size=1).filter(
                    lambda s: s not in ("__blob__", "__esc__")
                ),
                st.one_of(
                    st.none(),
                    st.booleans(),
                    st.integers(),
                    st.text(),
                    st.binary(max_size=64),
                ),
                max_size=4,
            ),
            position=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        )
        @settings(max_examples=200, deadline=None)
        def test_any_single_bit_flip_is_wire_error(
            self, verb, request_id, payload, position
        ):
            frame = encode_frame(verb, request_id, payload)
            bit = int(position * len(frame) * 8)
            damaged = self._flip(frame, bit)
            # The family split: damage is WireError, never EOFError,
            # never a silently different decode.
            with pytest.raises(WireError):
                decode_frame(damaged)

        @given(
            verb=st.sampled_from(list(Verb)),
            request_id=st.integers(min_value=0, max_value=2**64 - 1),
            payload=st.recursive(
                st.one_of(
                    st.none(),
                    st.booleans(),
                    st.integers(min_value=-(2**53), max_value=2**53),
                    st.text(max_size=20),
                    st.binary(max_size=64),
                ),
                lambda children: st.one_of(
                    st.lists(children, max_size=4),
                    st.dictionaries(st.text(max_size=8), children, max_size=4),
                ),
                max_leaves=12,
            ),
        )
        @settings(max_examples=150, deadline=None)
        def test_clean_frames_round_trip(self, verb, request_id, payload):
            decoded_verb, decoded_id, decoded = decode_frame(
                encode_frame(verb, request_id, payload)
            )
            assert decoded_verb is verb
            assert decoded_id == request_id
            assert decoded == payload

    def test_version_byte_is_tagged(self):
        assert self.FRAME[4] == FRAME_FORMAT_VERSION


# ----------------------------------------------------------------------
# Ring replica placement
# ----------------------------------------------------------------------


class TestReplicaPlacement:
    def test_successors_are_distinct_and_stable(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        for i in range(100):
            owners = ring.successors(f"doc{i}", 3)
            assert len(owners) == len(set(owners)) == 3
            assert owners == HashRing(["w0", "w1", "w2", "w3"]).successors(
                f"doc{i}", 3
            )
            assert owners[0] == ring.route(f"doc{i}")

    def test_factor_above_cluster_size_degrades(self):
        ring = HashRing(["w0", "w1"])
        assert sorted(ring.successors("doc", 5)) == ["w0", "w1"]


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------


class _Retryable(Exception):
    retryable = True


class _Fatal(Exception):
    pass


class TestRetryPolicy:
    def _clocked(self):
        """A fake clock + sleep pair accumulating slept time."""
        state = {"now": 0.0}

        def clock():
            return state["now"]

        def sleep(seconds):
            state["now"] += seconds

        return state, clock, sleep

    def test_retries_until_success(self):
        import random

        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 4:
                raise _Retryable("boom")
            return "done"

        state, clock, sleep = self._clocked()
        result = call_with_retry(
            flaky,
            policy=RetryPolicy(base_delay=0.01, max_delay=0.1),
            rng=random.Random(7),
            clock=clock,
            sleep=sleep,
        )
        assert result == "done"
        assert len(attempts) == 4
        assert state["now"] > 0

    def test_non_retryable_is_immediate(self):
        calls = []

        def fatal():
            calls.append(1)
            raise _Fatal("no")

        with pytest.raises(_Fatal):
            call_with_retry(fatal, sleep=lambda s: None)
        assert len(calls) == 1

    def test_deadline_budget_reraises_original_error(self):
        import random

        state, clock, sleep = self._clocked()

        def always():
            raise _Retryable("still down")

        with pytest.raises(_Retryable, match="still down"):
            call_with_retry(
                always,
                deadline=0.5,
                policy=RetryPolicy(base_delay=0.05, max_delay=0.2),
                rng=random.Random(3),
                clock=clock,
                sleep=sleep,
            )
        # Never slept past the deadline: the budget is a hard wall.
        assert state["now"] < 0.5

    def test_max_attempts_cap(self):
        import random

        calls = []

        def always():
            calls.append(1)
            raise _Retryable("down")

        with pytest.raises(_Retryable):
            call_with_retry(
                always,
                policy=RetryPolicy(base_delay=0.001, max_attempts=3),
                rng=random.Random(1),
                sleep=lambda s: None,
            )
        assert len(calls) == 3

    def test_decorrelated_jitter_bounds(self):
        import random

        policy = RetryPolicy(base_delay=0.02, max_delay=0.5, multiplier=3.0)
        rng = random.Random(11)
        previous = None
        for _ in range(200):
            delay = policy.next_delay(previous, rng)
            assert 0.02 <= delay <= 0.5
            previous = delay

    def test_classification_contract(self):
        assert is_retryable(ShardUnavailableError("x"))
        assert not is_retryable(WarehouseError("x"))
        assert not is_retryable(ValueError("x"))

    def test_on_retry_observer(self):
        import random

        seen = []

        def twice():
            if len(seen) < 1:
                raise _Retryable("once")
            return "ok"

        call_with_retry(
            twice,
            policy=RetryPolicy(base_delay=0.001),
            rng=random.Random(5),
            on_retry=lambda attempt, delay, exc: seen.append((attempt, delay)),
            sleep=lambda s: None,
        )
        assert len(seen) == 1
        assert seen[0][0] == 1


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        a = FaultPlan(20060328, length=16)
        b = FaultPlan(20060328, length=16)
        assert list(a) == list(b)

    def test_different_seeds_differ(self):
        assert list(FaultPlan(1, length=16)) != list(FaultPlan(2, length=16))

    def test_kill_only_plan(self):
        assert all(f.kind == "kill" for f in FaultPlan.kills(9, length=12))

    def test_unknown_kind_rejected(self):
        with pytest.raises(WarehouseError):
            Fault(kind="meteor", victim=0)
        with pytest.raises(WarehouseError):
            FaultPlan(1, kinds=("meteor",))


# ----------------------------------------------------------------------
# Replication + failover against live workers
# ----------------------------------------------------------------------


@pytest.mark.timeout(300)
class TestReplication:
    def test_replica_sets_cover_every_key(self, replicated_cluster):
        cluster = replicated_cluster
        ring = HashRing(["w0", "w1", "w2"])
        for key in KEYS:
            placement = cluster.replicas_of(key)
            assert len(placement) == 2
            assert len(set(placement)) == 2
            # The worker set is fixed at open: placement is the ring's.
            assert placement == ring.successors(key, 2)

    def test_acked_write_survives_primary_kill(self, replicated_cluster):
        cluster = replicated_cluster
        key = "bob"
        placement = cluster.replicas_of(key)
        layout = _layout(cluster)
        cluster.update(key, _insert_email("bob-acked@x"))
        cluster.await_replication(60.0)
        kill_worker(cluster, placement[0])
        emails = _emails(cluster, key)  # served by the replica
        assert "bob-acked@x" in emails
        _wait_workers_alive(cluster)
        cluster.await_replication(60.0)
        assert "bob-acked@x" in _emails(cluster, key)
        # A respawn restarts the same worker: nothing is re-placed.
        assert _layout(cluster) == layout

    def test_commit_window_divergence_heals(self, replicated_cluster):
        """after_commit: the primary's WAL has the commit, no replica
        saw it.  The heal must bring replicas up to the replayed WAL,
        proven by reading from the replica after a second kill."""
        cluster = replicated_cluster
        key = "carol"
        placement = cluster.replicas_of(key)
        with pytest.raises(ShardUnavailableError):
            cluster.update(
                key, _insert_email("carol-window@x"), fault="after_commit"
            )
        _wait_workers_alive(cluster)
        cluster.await_replication(60.0)
        kill_worker(cluster, placement[0])
        assert "carol-window@x" in _emails(cluster, key)
        _wait_workers_alive(cluster)
        cluster.await_replication(60.0)

    def test_created_document_is_replicated(self, replicated_cluster):
        cluster = replicated_cluster
        cluster.create_document("frank", root="person")
        cluster.update("frank", _insert_email("frank0@x"))
        cluster.await_replication(60.0)
        placement = cluster.replicas_of("frank")
        if len(placement) > 1:
            kill_worker(cluster, placement[0])
            assert "frank0@x" in _emails(cluster, "frank")
            _wait_workers_alive(cluster)
            cluster.await_replication(60.0)

    def test_stats_and_workers_report_replication(self, replicated_cluster):
        cluster = replicated_cluster
        replication = cluster.stats()["cluster"]["replication"]
        assert replication["factor"] == 2
        workers = cluster.workers()
        replica_keys = set().union(
            *(set(info["replica_keys"]) for info in workers.values())
        )
        assert set(KEYS) <= replica_keys


@pytest.mark.timeout(300)
class TestChaosHarness:
    def test_mixed_fault_schedule_zero_read_errors(self, replicated_cluster):
        """One fault per step from a seeded plan — kills, dropped
        pipes, corrupted frames, slowness — with reads in between;
        every read must succeed with the full row set."""
        cluster = replicated_cluster
        _wait_workers_alive(cluster)
        cluster.await_replication(60.0)
        expected = {key: _emails(cluster, key) for key in KEYS}
        monkey = ChaosMonkey(cluster, FaultPlan(20060328, length=5))
        while True:
            fault = monkey.apply_next()
            if fault is None:
                break
            for key in KEYS:
                assert _emails(cluster, key) == expected[key], fault
            _wait_workers_alive(cluster)
            cluster.await_replication(60.0)
        kinds = {fault.kind for fault, _name in monkey.applied}
        assert kinds  # the plan actually did something

    def test_writes_survive_chaos_with_retry(self, replicated_cluster):
        """Acked writes under a kill-heavy schedule: the writer retries
        retryable failures within a budget; every acked value must be
        readable after the dust settles."""
        import random

        cluster = replicated_cluster
        _wait_workers_alive(cluster)
        cluster.await_replication(60.0)
        monkey = ChaosMonkey(cluster, FaultPlan.kills(7, length=2))
        acked = []
        for i in range(6):
            if i % 3 == 1:
                monkey.apply_next()
            value = f"dave-chaos{i}@x"

            def write():
                cluster.update("dave", _insert_email(value))

            call_with_retry(
                write,
                deadline=time.monotonic() + 60.0,
                rng=random.Random(i),
            )
            acked.append(value)
        _wait_workers_alive(cluster)
        cluster.await_replication(60.0)
        emails = _emails(cluster, "dave")
        for value in acked:
            assert value in emails


# ----------------------------------------------------------------------
# HTTP surface: Retry-After on shard 503s
# ----------------------------------------------------------------------


class TestRetryAfterHeader:
    def test_shard_unavailable_503_carries_retry_after(self):
        from repro.serve.http.app import error_body, retry_after_headers

        exc = ShardUnavailableError("worker w0 is down")
        status, payload = error_body(exc)
        assert status == 503
        assert retry_after_headers(exc, status) == (("Retry-After", "1"),)
        assert payload["error"]["family"] == "ShardUnavailableError"

    def test_other_errors_get_no_retry_after(self):
        from repro.serve.http.app import retry_after_headers

        assert retry_after_headers(WarehouseError("boom"), 500) == ()
        assert retry_after_headers(WarehouseError("draining"), 503) == ()
