"""The probability fast path (E12): ancestor-condition index, interned
conditions, factorized + engine-scoped Shannon expansion, lazy rows.

The contract of every optimization here is *bit-for-bit equivalence*
(or 1e-12, where float op order legitimately differs) with the slow
path — the per-match ancestor walk and the per-call Shannon memo — and
with the possible-worlds semantics the property tests already pin.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Condition, EventTable, FuzzyNode, FuzzyTree
from repro.analysis.instrumentation import counters
from repro.core.montecarlo import estimate_query
from repro.core.update import apply_update
from repro.core.aggregates import expected_matches
from repro.core.query import (
    _AncestorWalk,
    group_rows,
    iter_bounded_rows,
    iter_query_rows,
    match_conditions,
    query_fuzzy_tree,
    topk_rows,
)
from repro.engine import AncestorConditionIndex, QueryEngine, StatsDelta
from repro.events import Dnf, Literal, ShannonCache, dnf_probability
from repro.tpwj.parser import parse_pattern
from repro.trees import RandomTreeConfig
from repro.workloads import (
    FuzzyWorkloadConfig,
    random_fuzzy_tree,
    random_query_for,
    random_update_for,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

SMALL_DOCS = FuzzyWorkloadConfig(
    tree=RandomTreeConfig(max_nodes=14, max_children=3, max_depth=4),
    n_events=3,
)
MEDIUM_DOCS = FuzzyWorkloadConfig(
    tree=RandomTreeConfig(max_nodes=40, max_children=4, max_depth=6),
    n_events=5,
)

relaxed = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _engine_for(fuzzy: FuzzyTree) -> QueryEngine:
    return QueryEngine(lambda: fuzzy.root)


# ----------------------------------------------------------------------
# Interning
# ----------------------------------------------------------------------


class TestInterning:
    def test_literals_are_interned(self):
        assert Literal("w1") is Literal("w1")
        assert Literal("w1", False) is Literal("w1", False)
        assert Literal("w1") is not Literal("w1", False)
        assert Literal("w1").negate() is Literal("w1", False)

    def test_literal_is_immutable(self):
        lit = Literal("w1")
        with pytest.raises(AttributeError):
            lit.event = "w2"

    def test_conditions_are_interned(self):
        a = Condition.of("w1", "!w2")
        b = Condition.of("!w2", "w1")
        assert a is b
        assert Condition.parse("w1 !w2") is a

    def test_interned_inconsistent_condition_still_raises(self):
        bad = frozenset({Literal("w5"), Literal("w5", False)})
        first = Condition(bad, allow_inconsistent=True)
        assert not first.is_consistent
        with pytest.raises(Exception):
            Condition(bad)  # same literal set, flag off: must still raise

    def test_restrict_returns_interned_cofactor(self):
        c = Condition.of("a", "b")
        assert c.restrict("a", True) is Condition.of("b")
        assert c.restrict("a", False) is None
        assert c.restrict("zz", True) is c


# ----------------------------------------------------------------------
# Dnf absorption
# ----------------------------------------------------------------------


def _naive_minimal_terms(terms):
    """Reference absorption: the set of minimal consistent terms."""
    consistent = {t for t in terms if t.is_consistent}
    return {
        t
        for t in consistent
        if not any(
            other is not t and other.literals < t.literals for other in consistent
        )
    }


class TestDnfAbsorption:
    @given(seed=seeds)
    @relaxed
    def test_matches_naive_minimal_antichain(self, seed):
        rng = random.Random(seed)
        names = [f"e{i}" for i in range(4)]
        terms = []
        for _ in range(rng.randint(1, 12)):
            chosen = rng.sample(names, rng.randint(1, 4))
            terms.append(
                Condition.of(*(n if rng.random() < 0.5 else f"!{n}" for n in chosen))
            )
        assert set(Dnf(terms).terms) == _naive_minimal_terms(terms)

    def test_true_short_circuits(self):
        from repro.events import TRUE

        dnf = Dnf([Condition.of("a"), TRUE, Condition.of("b")])
        assert dnf.terms == (TRUE,)

    def test_large_disjunction_absorbs_correctly(self):
        # A deletion-complement shape: many terms, one absorber.
        base = Condition.of("a")
        terms = [base] + [
            Condition.of("a", *(f"x{i}" for i in range(1, k)))
            for k in range(2, 40)
        ]
        assert Dnf(terms).terms == (base,)


# ----------------------------------------------------------------------
# Factorized, cached Shannon expansion
# ----------------------------------------------------------------------


def _brute_force(terms, table):
    from repro.events import assignment_weight, enumerate_assignments

    total = 0.0
    for assignment in enumerate_assignments(table.names()):
        if any(term.satisfied_by(assignment) for term in terms):
            total += assignment_weight(assignment, table)
    return total


class TestFactorizedShannon:
    def test_disjoint_components_multiply(self):
        # Two components sharing no event: P = 1 - (1-Pa)(1-Pb).
        table = EventTable({"a": 0.3, "b": 0.6, "c": 0.2, "d": 0.9})
        terms = [Condition.of("a", "b"), Condition.of("c"), Condition.of("c", "!d")]
        assert dnf_probability(terms, table) == pytest.approx(
            _brute_force(terms, table), abs=1e-12
        )

    @given(seed=seeds)
    @relaxed
    def test_matches_brute_force_with_shared_cache(self, seed):
        rng = random.Random(seed)
        names = [f"e{i}" for i in range(6)]
        table = EventTable({n: rng.uniform(0.0, 1.0) for n in names})
        cache = ShannonCache()
        for _ in range(3):
            terms = []
            for _ in range(rng.randint(1, 6)):
                chosen = rng.sample(names, rng.randint(1, 3))
                terms.append(
                    Condition.of(
                        *(n if rng.random() < 0.5 else f"!{n}" for n in chosen)
                    )
                )
            cached = dnf_probability(terms, table, cache=cache)
            fresh = dnf_probability(terms, table)
            brute = _brute_force(terms, table)
            assert cached == pytest.approx(fresh, abs=1e-12)
            assert cached == pytest.approx(brute, abs=1e-12)

    def test_cache_is_actually_shared(self):
        table = EventTable({"a": 0.5, "b": 0.5, "c": 0.5})
        cache = ShannonCache()
        terms = [Condition.of("a", "b"), Condition.of("b", "c")]
        dnf_probability(terms, table, cache=cache)
        misses_after_first = cache.misses
        dnf_probability(terms, table, cache=cache)
        assert cache.misses == misses_after_first  # pure hits on repeat
        assert cache.hits > 0

    def test_cache_capacity_bounds_entries(self):
        table = EventTable({f"e{i}": 0.5 for i in range(10)})
        cache = ShannonCache(capacity=4)
        for i in range(10):
            dnf_probability([Condition.of(f"e{i}")], table, cache=cache)
        assert len(cache) <= 4


class TestProbabilityGenerationInvalidation:
    def test_removal_and_redeclare_retires_cached_entries(self):
        # The regression the engine-scoped cache must survive: an event's
        # probability changes (remove + redeclare through the public
        # surface) after entries were cached against the old value.
        table = EventTable({"w": 0.5, "k": 0.25})
        cache = ShannonCache()
        terms = [Condition.of("w"), Condition.of("k")]
        before = dnf_probability(terms, table, cache=cache)
        assert before == pytest.approx(1 - 0.5 * 0.75, abs=1e-12)
        generation_before = table.generation
        table.remove("w")
        table.declare("w", 0.9)
        assert table.generation != generation_before
        after = dnf_probability(terms, table, cache=cache)
        assert after == pytest.approx(1 - 0.1 * 0.75, abs=1e-12)

    def test_declaring_new_event_keeps_generation(self):
        # Adding an event cannot change any previously computable
        # probability, so cached entries stay shareable.
        table = EventTable({"w": 0.5})
        generation = table.generation
        table.declare("fresh_event", 0.7)
        table.fresh(0.3)
        assert table.generation == generation

    def test_engine_cache_survives_structural_commit(self):
        events = EventTable({"w1": 0.6, "w2": 0.3})
        root = FuzzyNode(
            "A",
            children=[
                FuzzyNode("B", condition=Condition.of("w1")),
                FuzzyNode("B", condition=Condition.of("w2")),
            ],
        )
        fuzzy = FuzzyTree(root, events)
        engine = _engine_for(fuzzy)
        pattern = parse_pattern("//B")
        answers = query_fuzzy_tree(fuzzy, pattern, engine=engine)
        assert any(a.probability < 1.0 for a in answers)
        # Structural commit tracked by a delta: memo survives (entries
        # are generation-keyed), and repeated evaluation hits it.
        tx = parse_pattern("/A[$r]")
        from repro.trees import tree
        from repro.updates.operations import InsertOperation
        from repro.updates.transaction import UpdateTransaction

        delta = StatsDelta()
        apply_update(
            fuzzy,
            UpdateTransaction(tx, [InsertOperation("r", tree("C"))], 1.0),
            delta=delta,
        )
        engine.apply_delta(delta)
        hits_before = engine.shannon.hits
        entries_before = len(engine.shannon)
        assert entries_before > 0
        query_fuzzy_tree(fuzzy, pattern, engine=engine)
        assert len(engine.shannon) >= entries_before
        assert engine.shannon.hits > hits_before

    def test_engine_invalidate_clears_shannon_cache(self, rng):
        fuzzy = random_fuzzy_tree(rng, MEDIUM_DOCS)
        engine = _engine_for(fuzzy)
        pattern = random_query_for(rng, fuzzy.root)
        query_fuzzy_tree(fuzzy, pattern, engine=engine)
        engine.invalidate()
        assert len(engine.shannon) == 0

    def test_update_changing_event_probability_is_not_served_stale(self, rng):
        # End to end: warm the engine cache, swap an event's probability
        # behind a remove+redeclare, and check the engine path computes
        # the new value (a stale-cache bug would reproduce the old one).
        events = EventTable({"w": 0.5})
        root = FuzzyNode("A", children=[FuzzyNode("B", condition=Condition.of("w"))])
        fuzzy = FuzzyTree(root, events)
        engine = _engine_for(fuzzy)
        pattern = parse_pattern("//B")
        [before] = query_fuzzy_tree(fuzzy, pattern, engine=engine)
        assert before.probability == pytest.approx(0.5, abs=1e-12)
        fuzzy.events.remove("w")
        fuzzy.events.declare("w", 0.875)
        [after] = query_fuzzy_tree(fuzzy, pattern, engine=engine)
        assert after.probability == pytest.approx(0.875, abs=1e-12)


# ----------------------------------------------------------------------
# Ancestor-condition index
# ----------------------------------------------------------------------


class TestAncestorConditionIndex:
    @given(seed=seeds)
    @relaxed
    def test_closures_match_path_conditions(self, seed):
        fuzzy = random_fuzzy_tree(random.Random(seed), MEDIUM_DOCS)
        index = AncestorConditionIndex.build(fuzzy.root)
        for node in fuzzy.iter_nodes():
            closed = index.closed_condition(node)
            expected = node.path_condition_or_none()
            if expected is None:
                assert not closed.is_consistent
            else:
                assert closed == expected

    @given(seed=seeds)
    @relaxed
    def test_delta_patching_stays_exact(self, seed):
        rng = random.Random(seed)
        fuzzy = random_fuzzy_tree(rng, SMALL_DOCS)
        engine = _engine_for(fuzzy)
        index = engine.condition_index()
        assert index is not None
        for _ in range(3):
            delta = StatsDelta()
            apply_update(fuzzy, random_update_for(rng, fuzzy), delta=delta)
            engine.apply_delta(delta)
            patched = engine.condition_index()
            assert patched is index  # patched in place, not rebuilt
            for node in fuzzy.iter_nodes():
                closed = patched.closed_condition(node)
                expected = node.path_condition_or_none()
                if expected is None:
                    assert not closed.is_consistent
                else:
                    assert closed == expected

    def test_plain_tree_engine_has_no_index(self):
        from repro.trees import tree

        root = tree("A", tree("B"))
        engine = QueryEngine(lambda: root)
        assert engine.condition_index() is None

    @given(seed=seeds)
    @relaxed
    def test_match_conditions_fast_and_slow_agree(self, seed):
        rng = random.Random(seed)
        fuzzy = random_fuzzy_tree(rng, MEDIUM_DOCS)
        engine = _engine_for(fuzzy)
        pattern = random_query_for(rng, fuzzy.root)
        index = engine.condition_index()
        for match in engine.find_matches(pattern):
            assert set(match_conditions(match, index=index)) == set(
                match_conditions(match)
            )


# ----------------------------------------------------------------------
# End-to-end equivalence of the fast path
# ----------------------------------------------------------------------


class TestFastPathEquivalence:
    @given(seed=seeds)
    @relaxed
    def test_engine_and_plain_paths_agree_exactly(self, seed):
        rng = random.Random(seed)
        fuzzy = random_fuzzy_tree(rng, MEDIUM_DOCS)
        engine = _engine_for(fuzzy)
        pattern = random_query_for(rng, fuzzy.root)
        fast = query_fuzzy_tree(fuzzy, pattern, engine=engine)
        slow = query_fuzzy_tree(fuzzy, pattern)
        assert [(a.tree.canonical(), a.dnf) for a in fast] == [
            (a.tree.canonical(), a.dnf) for a in slow
        ]
        for fast_answer, slow_answer in zip(fast, slow):
            assert fast_answer.probability == pytest.approx(
                slow_answer.probability, abs=1e-12
            )

    @given(seed=seeds)
    @relaxed
    def test_equivalence_survives_tracked_updates(self, seed):
        rng = random.Random(seed)
        fuzzy = random_fuzzy_tree(rng, SMALL_DOCS)
        engine = _engine_for(fuzzy)
        for _ in range(3):
            delta = StatsDelta()
            apply_update(fuzzy, random_update_for(rng, fuzzy), delta=delta)
            engine.apply_delta(delta)
            pattern = random_query_for(rng, fuzzy.root)
            fast = query_fuzzy_tree(fuzzy, pattern, engine=engine)
            slow = query_fuzzy_tree(fuzzy, pattern)
            assert [(a.tree.canonical(), a.dnf) for a in fast] == [
                (a.tree.canonical(), a.dnf) for a in slow
            ]
            for fast_answer, slow_answer in zip(fast, slow):
                assert fast_answer.probability == pytest.approx(
                    slow_answer.probability, abs=1e-12
                )

    def test_zero_probability_rows_are_still_skipped(self):
        events = EventTable({"dead": 0.0, "live": 0.5})
        root = FuzzyNode(
            "A",
            children=[
                FuzzyNode("B", condition=Condition.of("dead")),
                FuzzyNode("B", condition=Condition.of("live")),
            ],
        )
        fuzzy = FuzzyTree(root, events)
        engine = _engine_for(fuzzy)
        rows = list(iter_query_rows(fuzzy, parse_pattern("//B"), engine=engine))
        assert len(rows) == 1
        assert rows[0].probability == pytest.approx(0.5)


# ----------------------------------------------------------------------
# One row path: every consumer of the shared match→conditions loop agrees
# ----------------------------------------------------------------------


def _row_key(row):
    return (row.tree.canonical(), row.dnf, row.probability)


class TestOneRowPath:
    @given(seed=seeds, negated=st.booleans(), planned=st.booleans())
    @relaxed
    def test_consumers_of_the_shared_loop_agree(self, seed, negated, planned):
        rng = random.Random(seed)
        fuzzy = random_fuzzy_tree(rng, SMALL_DOCS)
        if negated:
            labels = sorted({node.label for node in fuzzy.root.iter()})
            pattern = parse_pattern(
                f"{fuzzy.root.label} {{ //{rng.choice(labels)}, "
                f"!//{rng.choice(labels)} }}"
            )
        else:
            pattern = random_query_for(rng, fuzzy.root)
        engine = _engine_for(fuzzy) if planned else None

        rows = list(iter_query_rows(fuzzy, pattern, engine=engine))
        keys = [_row_key(row) for row in rows]
        for limit in (0, 1, 3):
            limited = iter_query_rows(fuzzy, pattern, engine=engine, limit=limit)
            assert [_row_key(row) for row in limited] == keys[:limit]

        # Grouping matches directly == grouping the streamed rows.
        direct = query_fuzzy_tree(fuzzy, pattern, engine=engine)
        folded = group_rows(rows, fuzzy.events)
        assert [(a.tree.canonical(), a.dnf) for a in direct] == [
            (a.tree.canonical(), a.dnf) for a in folded
        ]
        assert [a.probability for a in direct] == pytest.approx(
            [a.probability for a in folded], abs=1e-12
        )

        # Top-k == prefix of the stable sort by decreasing probability.
        ranked = sorted(keys, key=lambda key: -key[2])
        for k in (None, 1, 2, len(keys) + 1):
            top = topk_rows(fuzzy, pattern, engine=engine, k=k)
            assert [_row_key(row) for row in top] == ranked[:k]

        # Threshold == filter of the document-order stream.
        floor = rng.choice([0.0, 0.2, 0.5])
        bounded = iter_bounded_rows(
            fuzzy, pattern, engine=engine, min_probability=floor
        )
        assert [_row_key(row) for row in bounded] == [
            key for key in keys if key[2] >= floor
        ]

        # Linearity of expectation over the same per-match pieces.
        assert expected_matches(fuzzy, pattern) == pytest.approx(
            sum(key[2] for key in keys), abs=1e-12
        )

    @given(seed=seeds)
    @relaxed
    def test_ancestor_walk_matches_the_index(self, seed):
        fuzzy = random_fuzzy_tree(random.Random(seed), MEDIUM_DOCS)
        index = AncestorConditionIndex.build(fuzzy.root)
        for node in fuzzy.root.iter():
            walked = _AncestorWalk.closed_condition(node)
            assert walked.literals == index.closed_condition(node).literals


# ----------------------------------------------------------------------
# Lazy rows
# ----------------------------------------------------------------------


class TestLazyRowProbability:
    def test_probability_computed_on_first_access_only(self, rng):
        fuzzy = random_fuzzy_tree(rng, MEDIUM_DOCS)
        engine = _engine_for(fuzzy)
        pattern = random_query_for(rng, fuzzy.root)
        rows = list(iter_query_rows(fuzzy, pattern, engine=engine))
        if not rows:
            pytest.skip("workload produced no rows")
        assert all(row._probability is None for row in rows)
        values = [row.probability for row in rows]
        assert all(row._probability is not None for row in rows)
        assert values == [row.probability for row in rows]  # cached

    def test_lazy_probability_equals_eager_computation(self, rng):
        fuzzy = random_fuzzy_tree(rng, MEDIUM_DOCS)
        engine = _engine_for(fuzzy)
        pattern = random_query_for(rng, fuzzy.root)
        for row in iter_query_rows(fuzzy, pattern, engine=engine):
            assert row.probability == pytest.approx(
                dnf_probability(row.dnf, fuzzy.events), abs=1e-12
            )

    def test_lazy_probability_survives_event_gc(self, tmp_path):
        # Regression: a row streamed (probability unread), then the
        # matched subtree deleted and the document simplified — the
        # GC removes the confidence event the row's DNF references.
        # The lazy read must still produce the emission-time value
        # (eager computation's result), not raise UnknownEventError.
        import repro
        from repro import tree

        with repro.connect(tmp_path / "wh", create=True, root="dir") as session:
            session.update(
                repro.update(repro.pattern("dir", variable="d", anchored=True))
                .insert("d", tree("person", tree("name", "Alice")))
                .confidence(0.9)
            )
            rows = session.query("//person").all()
            assert len(rows) == 1
            session.update(
                repro.update(
                    repro.pattern("dir", anchored=True).child(
                        repro.pattern("person", variable="p")
                    )
                )
                .delete("p")
                .confidence(1.0)
            )
            session.simplify()  # GCs the 0.9-confidence event
            assert rows[0].probability == pytest.approx(0.9, abs=1e-12)
            assert "0.9" in repr(rows[0])


# ----------------------------------------------------------------------
# Monte-Carlo convergence (satellite)
# ----------------------------------------------------------------------


class TestMonteCarloConvergence:
    @pytest.mark.parametrize("seed", range(6))
    def test_estimates_within_three_sigma_of_fast_path(self, seed):
        rng = random.Random(seed)
        fuzzy = random_fuzzy_tree(rng, SMALL_DOCS)
        pattern = random_query_for(rng, fuzzy.root, max_nodes=3)
        engine = _engine_for(fuzzy)
        exact = {
            a.tree.canonical(): a.probability
            for a in query_fuzzy_tree(fuzzy, pattern, engine=engine)
        }
        samples = 4000
        estimates = estimate_query(
            fuzzy, pattern, samples=samples, rng=random.Random(seed + 1)
        )
        estimated = {e.tree.canonical(): e for e in estimates}
        # Every sampled answer must be a real answer, within 3σ.
        for key, estimate in estimated.items():
            assert key in exact, f"sampled answer {key} has no exact counterpart"
            sigma = max(estimate.stderr, (0.25 / samples) ** 0.5)
            assert abs(estimate.probability - exact[key]) <= 3 * sigma
        # Every answer of non-trivial probability must have been sampled.
        for key, probability in exact.items():
            if probability > 0.05:
                assert key in estimated, f"exact answer {key} (p={probability}) unseen"


# ----------------------------------------------------------------------
# Instrumentation flag (satellite)
# ----------------------------------------------------------------------


class TestCountersFlag:
    def test_incr_is_noop_when_disabled(self):
        counters.reset()
        with counters.disabled():
            counters.incr("x.y")
        assert counters.get("x.y") == 0
        counters.incr("x.y")
        assert counters.get("x.y") == 1
        counters.reset()

    def test_disabled_restores_previous_state(self):
        assert counters.enabled
        with counters.disabled():
            assert not counters.enabled
            with counters.disabled():
                pass
            assert not counters.enabled
        assert counters.enabled

    def test_query_hot_loop_honors_flag(self, rng):
        fuzzy = random_fuzzy_tree(rng, MEDIUM_DOCS)
        engine = _engine_for(fuzzy)
        pattern = random_query_for(rng, fuzzy.root)
        counters.reset()
        with counters.disabled():
            query_fuzzy_tree(fuzzy, pattern, engine=engine)
        assert counters.get("core.query.matches") == 0
        assert counters.get("match.assignments") == 0
        query_fuzzy_tree(fuzzy, pattern, engine=engine)
        assert counters.get("core.query.matches") > 0
        counters.reset()
