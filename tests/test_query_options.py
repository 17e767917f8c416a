"""The 2.0 QueryOptions surface: top-k, thresholds, anytime answers.

Three contracts under test:

* **Equivalence** — branch-and-bound top-k returns exactly the first k
  rows of the full probability sort (ties broken by enumeration
  order), and a ``min_probability`` floor never drops a qualifying
  row.  Both properties run against randomized warehouses so the
  pruning bound is exercised on arbitrary condition structure.
* **Anytime accuracy** — Monte-Carlo estimates land within the
  requested ±epsilon of the exact Shannon probability at the sampled
  3-sigma confidence, across seeds.
* **Surface** — ``QueryOptions`` round-trips through its JSON wire
  form bit-exactly, validation aggregates every bad field into one
  error, and ``limit(0)`` short-circuits without pinning a read
  session.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import QueryOptions, QueryOptionsError, connect
from repro.errors import QueryError

# ----------------------------------------------------------------------
# Warehouse fixtures
# ----------------------------------------------------------------------


def _seed_session(session, rng: random.Random, people: int) -> None:
    """Insert *people* persons with varied (and colliding) confidences."""
    palette = [0.12, 0.25, 0.25, 0.4, 0.55, 0.55, 0.7, 0.85, 0.97]
    for i in range(people):
        session.update(
            repro.update(
                repro.pattern("directory", variable="d", anchored=True)
            ).insert(
                "d",
                repro.tree("person", repro.tree("name", f"p{i:03d}")),
            ),
            confidence=rng.choice(palette),
        )


def _make_warehouse(path, seed: int, people: int):
    session = connect(path, create=True, root="directory")
    _seed_session(session, random.Random(seed), people)
    return session


PATTERN = "//person { name [$n] }"


# ----------------------------------------------------------------------
# Top-k == prefix of the full probability sort
# ----------------------------------------------------------------------


class TestTopK:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 1_000), k=st.integers(1, 12))
    def test_topk_equals_sorted_prefix(self, tmp_path_factory, seed, k):
        path = tmp_path_factory.mktemp("topk") / f"wh-{seed}-{k}"
        with _make_warehouse(path, seed, people=9) as session:
            full = list(session.query(PATTERN))
            # Stable sort by descending probability: enumeration order
            # breaks ties, which is exactly the top-k tie contract.
            expected = sorted(
                full, key=lambda row: -row.probability
            )[:k]
            got = list(session.query(PATTERN).order_by_probability().limit(k))
            assert [
                (r.probability, r.tree.canonical(), r.bindings())
                for r in got
            ] == [
                (r.probability, r.tree.canonical(), r.bindings())
                for r in expected
            ]

    def test_order_without_limit_sorts_everything(self, tmp_path):
        with _make_warehouse(tmp_path / "wh", 5, people=7) as session:
            got = [r.probability for r in session.query(PATTERN).order_by_probability()]
            assert got == sorted(got, reverse=True)
            assert len(got) == 7

    def test_topk_prunes_enumeration(self, tmp_path):
        """The bounded join actually prunes partial matches."""
        from repro.obs.metrics import process_registry

        with _make_warehouse(tmp_path / "wh", 3, people=24) as session:
            process_registry.reset()
            list(session.query(PATTERN).order_by_probability().limit(2))
            assert process_registry.counter("match.bound_pruned") > 0


# ----------------------------------------------------------------------
# min_probability: never drops a qualifying row
# ----------------------------------------------------------------------


class TestMinProbability:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 1_000), floor=st.sampled_from([0.2, 0.5, 0.8]))
    def test_threshold_completeness(self, tmp_path_factory, seed, floor):
        path = tmp_path_factory.mktemp("minp") / f"wh-{seed}-{floor}"
        with _make_warehouse(path, seed, people=9) as session:
            full = list(session.query(PATTERN))
            expected = [
                (r.probability, r.tree.canonical())
                for r in full
                if r.probability >= floor
            ]
            got = [
                (r.probability, r.tree.canonical())
                for r in session.query(PATTERN).min_probability(floor)
            ]
            assert got == expected

    def test_threshold_composes_with_topk(self, tmp_path):
        with _make_warehouse(tmp_path / "wh", 11, people=9) as session:
            got = list(
                session.query(PATTERN)
                .order_by_probability()
                .min_probability(0.5)
                .limit(3)
            )
            assert all(r.probability >= 0.5 for r in got)
            probs = [r.probability for r in got]
            assert probs == sorted(probs, reverse=True)

    def test_chaining_keeps_strictest_floor(self, tmp_path):
        with _make_warehouse(tmp_path / "wh", 2, people=5) as session:
            rs = session.query(PATTERN).min_probability(0.3).min_probability(0.6)
            assert rs.options.min_probability == 0.6
            rs2 = session.query(PATTERN).min_probability(0.6).min_probability(0.3)
            assert rs2.options.min_probability == 0.6


# ----------------------------------------------------------------------
# Anytime Monte-Carlo accuracy
# ----------------------------------------------------------------------


class TestEstimate:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 42])
    def test_estimates_within_epsilon(self, tmp_path, seed):
        epsilon = 0.05
        with _make_warehouse(tmp_path / "wh", 19, people=8) as session:
            exact = {
                answer.tree.canonical(): answer.probability
                for answer in session.query(PATTERN).answers()
            }
            estimates = session.query(PATTERN).estimate(
                epsilon=epsilon, seed=seed
            )
            assert estimates, "estimator returned nothing"
            for est in estimates:
                key = est.tree.canonical()
                assert key in exact
                # The sampler stops when 3*stderr <= epsilon, so the
                # true probability lies within ±epsilon at 3 sigma.
                assert abs(est.probability - exact[key]) <= epsilon
                assert est.stderr * 3.0 <= epsilon + 1e-12
                assert est.samples > 0

    def test_estimates_are_seed_deterministic(self, tmp_path):
        with _make_warehouse(tmp_path / "wh", 23, people=6) as session:
            a = session.query(PATTERN).estimate(epsilon=0.05, seed=9)
            b = session.query(PATTERN).estimate(epsilon=0.05, seed=9)
            assert [
                (e.probability, e.stderr, e.samples, e.tree.canonical())
                for e in a
            ] == [
                (e.probability, e.stderr, e.samples, e.tree.canonical())
                for e in b
            ]

    def test_deadline_bounds_sampling(self, tmp_path):
        with _make_warehouse(tmp_path / "wh", 29, people=6) as session:
            estimates = session.query(PATTERN).estimate(deadline_ms=30)
            assert estimates
            # At least one batch always runs, even under a tiny budget.
            assert all(e.samples >= 1 for e in estimates)

    def test_estimate_respects_min_probability(self, tmp_path):
        with _make_warehouse(tmp_path / "wh", 31, people=8) as session:
            estimates = (
                session.query(PATTERN)
                .min_probability(0.5)
                .estimate(epsilon=0.05)
            )
            assert all(e.probability >= 0.5 for e in estimates)


# ----------------------------------------------------------------------
# limit(0): no pin, no stream
# ----------------------------------------------------------------------


class TestLimitZero:
    def test_limit_zero_takes_no_pin(self, tmp_path):
        with _make_warehouse(tmp_path / "wh", 37, people=4) as session:
            warehouse = session.warehouse
            assert warehouse.read_sessions == 0
            with session.query(PATTERN).limit(0).stream() as stream:
                # The empty stream must not have pinned a generation.
                assert warehouse.read_sessions == 0
                assert list(stream) == []
            assert warehouse.read_sessions == 0
            assert session.query(PATTERN).limit(0).all() == []
            assert session.query(PATTERN).limit(0).answers() == []
            assert session.query(PATTERN).limit(0).estimate(epsilon=0.1) == []
            assert warehouse.read_sessions == 0

    def test_limit_zero_after_order(self, tmp_path):
        with _make_warehouse(tmp_path / "wh", 41, people=4) as session:
            rs = session.query(PATTERN).order_by_probability().limit(0)
            assert rs.all() == []


# ----------------------------------------------------------------------
# QueryOptions: round-trip and validation
# ----------------------------------------------------------------------

_options_strategy = st.builds(
    QueryOptions,
    pattern=st.sampled_from(["//a", "/a { b }", "//person { name [$n] }"]),
    limit=st.one_of(st.none(), st.integers(0, 50)),
    order=st.sampled_from(["document", "probability"]),
    min_probability=st.one_of(
        st.none(), st.floats(0.0, 1.0, allow_nan=False, width=32)
    ),
    epsilon=st.one_of(
        st.none(),
        st.floats(0.0009765625, 0.5, allow_nan=False, width=32),
    ),
    deadline_ms=st.one_of(st.none(), st.integers(1, 10_000)),
    document=st.one_of(st.none(), st.sampled_from(["alice", "bob"])),
    plan=st.sampled_from(["auto", "fixed"]),
)


class TestQueryOptionsSurface:
    @settings(max_examples=200, deadline=None)
    @given(options=_options_strategy)
    def test_json_round_trip(self, options):
        wire = options.to_json()
        back = QueryOptions.from_json(wire)
        assert back == options
        # And the wire form itself is a fixed point.
        assert back.to_json() == wire

    def test_defaults_are_omitted_from_wire(self):
        assert QueryOptions(pattern="//a").to_json() == {"pattern": "//a"}

    def test_from_json_aggregates_every_error(self):
        with pytest.raises(QueryOptionsError) as excinfo:
            QueryOptions.from_json(
                {
                    "limit": -3,
                    "order_by": "size",
                    "min_probability": 2.0,
                    "epsilon": 0,
                    "deadline_ms": -1,
                    "plan": "magic",
                    "bogus": 1,
                }
            )
        fields = {e["field"] for e in excinfo.value.errors}
        assert {
            "pattern",
            "limit",
            "order_by",
            "min_probability",
            "epsilon",
            "deadline_ms",
            "plan",
            "bogus",
        } <= fields
        assert isinstance(excinfo.value, QueryError)

    def test_options_are_immutable(self):
        options = QueryOptions(pattern="//a")
        with pytest.raises(AttributeError):
            options.limit = 3  # type: ignore[misc]

    def test_constructor_validates(self):
        with pytest.raises(QueryOptionsError):
            QueryOptions(limit=-1)
        with pytest.raises(QueryOptionsError):
            QueryOptions(order="size")
        with pytest.raises(QueryOptionsError):
            QueryOptions(epsilon=1.5)

    def test_session_query_via_options(self, tmp_path):
        with _make_warehouse(tmp_path / "wh", 43, people=5) as session:
            options = QueryOptions(
                pattern=PATTERN, order="probability", limit=2
            )
            via_options = [
                (r.probability, r.tree.canonical())
                for r in session.query(options=options)
            ]
            fluent = [
                (r.probability, r.tree.canonical())
                for r in session.query(PATTERN).order_by_probability().limit(2)
            ]
            assert via_options == fluent

    def test_query_requires_a_pattern_somewhere(self, tmp_path):
        with _make_warehouse(tmp_path / "wh", 47, people=2) as session:
            with pytest.raises(QueryError):
                session.query()
            with pytest.raises(QueryError):
                session.query(options=QueryOptions(limit=3))
