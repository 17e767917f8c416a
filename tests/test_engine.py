"""Unit tests for the cost-based query engine (repro.engine)."""

from __future__ import annotations

import random

import pytest

import repro
from repro import EventTable, FuzzyNode, FuzzyTree, Session
from repro.api.builders import compile_transaction
from repro.core.update import apply_update
from repro.tpwj.match import find_matches
from repro.tpwj.parser import parse_pattern
from repro.trees.random import RandomTreeConfig
from repro.warehouse import CommitPolicy, Warehouse
from repro.workloads.generator import FuzzyWorkloadConfig, random_fuzzy_tree
from repro.obs.metrics import process_registry
from repro.engine import executor
from repro.engine import (
    DocumentStats,
    PlanCache,
    QueryEngine,
    build_plan,
    collect_stats,
    pattern_fingerprint,
)
from repro.engine.cardinality import (
    axis_selectivity,
    estimate_candidates,
    estimate_enumeration_cost,
    join_selectivity,
)
from repro.tpwj.pattern import PatternNode
from repro.trees import Node, tree


@pytest.fixture
def doc() -> Node:
    """A small catalogue: 3 person entries, repeated names, one email."""
    return tree(
        "directory",
        tree("person", tree("name", "ana"), tree("email", "a@x")),
        tree("person", tree("name", "bob")),
        tree("person", tree("name", "ana")),
        tree("misc", "ana"),
    )


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


class TestStats:
    def test_one_pass_counts(self, doc):
        stats = collect_stats(doc)
        assert stats.node_count == 9
        assert stats.label_counts == {
            "directory": 1,
            "person": 3,
            "name": 3,
            "email": 1,
            "misc": 1,
        }
        assert stats.leaf_count == 5
        assert stats.valued_count == 5
        assert stats.valued_counts == {"name": 3, "email": 1, "misc": 1}
        assert stats.distinct_values == {"name": 2, "email": 1, "misc": 1}
        assert stats.distinct_values_total == 3  # ana, bob, a@x
        assert stats.internal_counts == {"directory": 1, "person": 3}
        assert stats.max_depth == 2
        assert stats.max_fanout == 4

    def test_depth_and_fanout_aggregates(self, doc):
        stats = collect_stats(doc)
        # sum_depth = number of proper (ancestor, descendant) pairs.
        assert stats.sum_depth == 4 * 1 + 4 * 2  # 4 at depth 1, 4 at depth 2
        assert stats.avg_depth == pytest.approx(12 / 9)
        # 8 edges spread over 4 internal nodes.
        assert stats.avg_fanout == pytest.approx(2.0)

    def test_as_dict_is_flat(self, doc):
        info = collect_stats(doc).as_dict()
        assert info["nodes"] == 9
        assert info["labels"] == 5
        assert info["distinct_values"] == 3

    def test_document_stats_invalidation(self, doc):
        holder = DocumentStats(lambda: doc)
        first = holder.current()
        assert holder.current() is first  # cached
        assert holder.version == 0
        doc.add_child(Node("extra"))
        holder.invalidate()
        assert holder.version == 1
        second = holder.current()
        assert second is not first
        assert second.node_count == first.node_count + 1


# ----------------------------------------------------------------------
# Cardinality
# ----------------------------------------------------------------------


class TestCardinality:
    def test_label_histogram_drives_candidates(self, doc):
        stats = collect_stats(doc)
        assert estimate_candidates(PatternNode("person"), stats, set()) == 3.0
        assert estimate_candidates(PatternNode("nope"), stats, set()) == 0.0
        assert estimate_candidates(PatternNode(None), stats, set()) == 9.0

    def test_value_test_uses_distinct_values(self, doc):
        stats = collect_stats(doc)
        # 3 valued name nodes over 2 distinct values -> 1.5 per value.
        node = PatternNode("name", value="ana")
        assert estimate_candidates(node, stats, set()) == pytest.approx(1.5)

    def test_internal_requirement_scales_estimate(self, doc):
        stats = collect_stats(doc)
        node = PatternNode("misc", children=[PatternNode("x")])
        # All misc nodes are leaves: requiring a child kills the estimate.
        assert estimate_candidates(node, stats, set()) == 0.0

    def test_join_variable_requires_valued_nodes(self, doc):
        stats = collect_stats(doc)
        node = PatternNode("person", variable="j")
        # No person carries a value, so a join on $j has no candidates.
        assert estimate_candidates(node, stats, {"j"}) == 0.0

    def test_axis_and_join_selectivity_bounds(self, doc):
        stats = collect_stats(doc)
        child = PatternNode("name")
        PatternNode("person", children=[child])
        assert 0.0 < axis_selectivity(child, stats) <= 1.0
        assert join_selectivity(PatternNode("name"), stats) == pytest.approx(0.5)

    def test_selective_order_is_cheaper(self, doc):
        stats = collect_stats(doc)
        pattern = parse_pattern('directory { person { name[="bob"] } }')
        pre_order = pattern.positive_nodes()
        cost = estimate_enumeration_cost(pattern, pre_order, stats, False)
        assert cost > 0.0


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------


class TestPlanner:
    def test_plan_is_topological_and_complete(self, doc):
        pattern = parse_pattern("directory { person { name[$x] }, misc[$x] }")
        plan = build_plan(pattern, collect_stats(doc))
        assert set(map(id, plan.order)) == set(map(id, pattern.positive_nodes()))
        positions = {id(n): i for i, n in enumerate(plan.order)}
        for node in plan.order:
            if node.parent is not None:
                assert positions[id(node.parent)] < positions[id(node)]

    def test_toggle_choices(self, doc):
        stats = collect_stats(doc)
        joined = build_plan(
            parse_pattern("directory { person { name[$x] }, misc[$x] }"), stats
        )
        assert joined.early_join_check
        assert joined.use_label_index
        plain = build_plan(parse_pattern("person { name }"), stats)
        assert not plain.early_join_check
        # Tiny candidate volume: the prune pass is not worth it.
        assert not plain.use_semijoin_pruning
        wildcards = build_plan(parse_pattern("* { * }"), stats)
        assert not wildcards.use_label_index

    def test_explain_mentions_decisions(self, doc):
        pattern = parse_pattern("directory { person { name[$x] }, misc[$x] }")
        plan = build_plan(pattern, collect_stats(doc), stats_version=7)
        text = plan.explain()
        assert "stats version: 7" in text
        assert "visit order" in text
        assert "est. candidates" in text
        assert "early" in text  # join check placement

    def test_fingerprint_identifies_structure(self):
        a = parse_pattern("/A { B[$x], //C[$x] }")
        b = parse_pattern("/ A { B [ $x ] , // C [ $x ] }")
        c = parse_pattern("/A { B[$x], C[$x] }")
        assert pattern_fingerprint(a) == pattern_fingerprint(b)
        assert pattern_fingerprint(a) != pattern_fingerprint(c)


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------


class TestPlanCache:
    def _plan(self, text: str, doc, version: int = 0):
        return build_plan(parse_pattern(text), collect_stats(doc), version)

    def test_hit_and_miss_accounting(self, doc):
        cache = PlanCache(capacity=4)
        plan = self._plan("person { name }", doc)
        assert cache.get(plan.fingerprint, 0) is None
        cache.put(plan)
        assert cache.get(plan.fingerprint, 0) is plan
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_stats_version_partitions_entries(self, doc):
        cache = PlanCache(capacity=4)
        old = self._plan("person { name }", doc, version=0)
        cache.put(old)
        # Same query against a newer document state: miss.
        assert cache.get(old.fingerprint, 1) is None

    def test_lru_eviction(self, doc):
        cache = PlanCache(capacity=2)
        p1 = self._plan("person", doc)
        p2 = self._plan("name", doc)
        p3 = self._plan("misc", doc)
        cache.put(p1)
        cache.put(p2)
        assert cache.get(p1.fingerprint, 0) is p1  # refresh p1
        cache.put(p3)  # evicts p2 (least recently used)
        assert cache.get(p2.fingerprint, 0) is None
        assert cache.get(p1.fingerprint, 0) is p1
        assert cache.get(p3.fingerprint, 0) is p3
        assert cache.evictions == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


# ----------------------------------------------------------------------
# QueryEngine + instrumentation
# ----------------------------------------------------------------------


class TestQueryEngine:
    def test_plan_reuse_and_invalidation(self, doc):
        engine = QueryEngine(lambda: doc)
        pattern = parse_pattern("person { name }")
        first = engine.plan_for(pattern)
        second = engine.plan_for(parse_pattern("person { name }"))
        assert second is first  # cache hit on an equivalent pattern
        engine.invalidate()
        third = engine.plan_for(pattern)
        assert third is not first
        assert third.stats_version == 1

    def test_find_matches_through_engine(self, doc):
        engine = QueryEngine(lambda: doc)
        matches = engine.find_matches(parse_pattern("person { name[$x] }"))
        assert len(matches) == 3

    def test_cached_plan_matches_are_keyed_by_callers_pattern(self, doc):
        engine = QueryEngine(lambda: doc)
        first = parse_pattern("person { name[$x] }")
        engine.find_matches(first)  # populates the plan cache
        second = parse_pattern("person { name[$x] }")
        match = engine.find_matches(second)[0]
        # Indexing with the *caller's* nodes must work despite the
        # cached plan carrying the first pattern's node objects.
        assert match[second.root].label == "person"
        assert match.pattern is second
        assert match.binding("x") is not None

    def test_anchored_single_node_pattern_is_a_root_probe(self, doc, monkeypatch):
        """An anchored single-node pattern (the target of every
        ``directory[$d]``-style insert, hence of most WAL records) is
        answered from the root alone: with the document walk made
        impossible it still matches, while an unanchored pattern
        trips — so the fast path cannot silently decay into a walk."""
        def no_walk(self, *args, **kwargs):
            raise AssertionError("the document was walked")

        monkeypatch.setattr(executor._Intervals, "__init__", no_walk)
        assert len(find_matches(parse_pattern("/directory"), doc)) == 1
        assert find_matches(parse_pattern("/person"), doc) == []
        assert len(find_matches(parse_pattern("/directory { !//ghost }"), doc)) == 1
        assert find_matches(parse_pattern("/directory { !//name }"), doc) == []

        directory = FuzzyTree(FuzzyNode("directory"), EventTable())
        person_insert = compile_transaction(
            repro.update(repro.pattern("directory", variable="d", anchored=True))
            .insert("d", repro.tree("person", repro.tree("name", "p0001")))
            .confidence(0.5)
        )
        assert apply_update(directory, person_insert).applied
        assert [child.label for child in directory.root.children] == ["person"]

        with pytest.raises(AssertionError, match="walked"):
            find_matches(parse_pattern("//person"), doc)

    def test_child_edges_read_each_parent_a_bounded_number_of_times(self, monkeypatch):
        """A child edge is joined through a parent index: one execution
        reads each child-edge candidate's parent O(1) times, not once
        per candidate anchor (the quadratic filter this replaced)."""
        persons = 40
        directory = tree(
            "directory",
            *(
                tree("person", tree("name", f"p{i}"), tree("email", f"m{i}"))
                for i in range(persons)
            ),
        )
        reads: dict[int, int] = {}
        plain = Node.parent

        def counting(self):
            reads[id(self)] = reads.get(id(self), 0) + 1
            return plain.fget(self)

        pattern = parse_pattern("//person { name, email }")
        monkeypatch.setattr(Node, "parent", property(counting))
        matches = find_matches(pattern, directory)
        monkeypatch.undo()
        assert len(matches) == persons
        edge_candidates = [
            node for node in directory.iter() if node.label in ("name", "email")
        ]
        assert max(reads.get(id(node), 0) for node in edge_candidates) <= 2

    def test_walk_reuse_and_invalidation(self, doc):
        engine = QueryEngine(lambda: doc)
        pattern = parse_pattern("person { name }")
        engine.find_matches(pattern)
        view = engine._views[id(doc)]
        walk = view.intervals
        assert walk is not None
        engine.find_matches(pattern)
        assert engine._views[id(doc)].intervals is walk  # document walk reused
        engine.invalidate()
        assert not engine._views
        assert len(engine.find_matches(pattern)) == 3

    def test_planner_counters_are_populated(self, doc):
        process_registry.reset()
        engine = QueryEngine(lambda: doc)
        pattern = parse_pattern("directory { person { name[$x] }, misc[$x] }")
        engine.find_matches(pattern)
        engine.find_matches(pattern)
        seen = process_registry.snapshot()["counters"]
        assert seen["engine.stats_collected"] == 1
        assert seen["engine.plans_built"] == 1
        assert seen["engine.plans_executed"] == 2
        assert seen["engine.plan_cache_misses"] == 1
        assert seen["engine.plan_cache_hits"] == 1
        # Estimated vs actual candidate volume both recorded.
        assert seen["engine.estimated_candidates"] > 0
        assert seen["engine.actual_candidates"] > 0
        process_registry.reset()

    def test_explain_renders_stats_plan_and_cache(self, doc):
        engine = QueryEngine(lambda: doc)
        text = engine.explain(parse_pattern("person { name }"))
        assert "statistics:" in text
        assert "nodes: 9" in text
        assert "plan for person { name }" in text
        assert "plan cache:" in text


# ----------------------------------------------------------------------
# Warehouse integration
# ----------------------------------------------------------------------


class TestWarehousePlans:
    def test_repeated_query_hits_the_plan_cache(self, tmp_path, slide12_doc):
        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            Session(warehouse).query("//D").answers()
            hits_before = warehouse.engine.cache.hits
            again = Session(warehouse).query("//D").answers()
            assert warehouse.engine.cache.hits == hits_before + 1
            assert len(again) == 1

    def test_planned_and_fixed_paths_agree(self, tmp_path, slide12_doc):
        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            planned = Session(warehouse).query("/A { //D }").answers()
            fixed = Session(warehouse).query("/A { //D }", planner=False).answers()
            assert [(a.probability, a.tree.canonical()) for a in planned] == [
                (a.probability, a.tree.canonical()) for a in fixed
            ]

    def test_commit_invalidates_stats(self, tmp_path, slide12_doc):
        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            version = warehouse.engine.stats.version
            warehouse.simplify()
            assert warehouse.engine.stats.version == version + 1
            # A fresh plan is built for the new version (no stale serve).
            plan = warehouse.engine.plan_for(parse_pattern("//D"))
            assert plan.stats_version == version + 1

    def test_explain_plan_from_text(self, tmp_path, slide12_doc):
        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            text = warehouse.explain_plan("/A { //D }")
            assert "visit order" in text
            assert "statistics:" in text

    def test_max_matches_handle_uses_planner(self, tmp_path, slide12_doc):
        from repro.tpwj.match import MatchConfig

        path = tmp_path / "wh"
        with Warehouse.create(path, slide12_doc):
            pass
        config = MatchConfig(max_matches=1)
        with Warehouse.open(path, match_config=config) as warehouse:
            # Truncated enumeration goes through the cost-based engine
            # too: the cap is pushed into the streaming protocol, and
            # the plan cache serves repeats.
            assert len(Session(warehouse).query("//D").answers()) == 1
            assert warehouse.engine.cache.misses == 1
            Session(warehouse).query("//D").answers()
            assert warehouse.engine.cache.hits == 1

    def test_engine_survives_reopen(self, tmp_path, slide12_doc):
        path = tmp_path / "wh"
        with Warehouse.create(path, slide12_doc):
            pass
        with Warehouse.open(path) as warehouse:
            assert len(Session(warehouse).query("//D").answers()) == 1


# ----------------------------------------------------------------------
# Incremental statistics maintenance
# ----------------------------------------------------------------------


class TestIncrementalStats:
    def _insert_tx(self, label="N"):
        from repro import InsertOperation, UpdateTransaction

        return UpdateTransaction(
            parse_pattern("C[$c]"), [InsertOperation("c", tree(label))], 1.0
        )

    def test_update_adjusts_stats_without_recollection(self, tmp_path, slide12_doc):
        process_registry.reset()
        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            warehouse.engine.stats.current()  # one full collection
            collected_before = process_registry.counter("engine.stats_collected")
            warehouse._commit_update(self._insert_tx())
            stats = warehouse.engine.stats.current()
            seen = process_registry.snapshot()["counters"]
            assert seen["engine.stats_collected"] == collected_before
            assert seen["engine.stats_delta_applied"] >= 1
            assert stats == collect_stats(warehouse.document.root)
        process_registry.reset()

    def test_no_op_commit_keeps_version_and_cached_plan(self, tmp_path, slide12_doc):
        from repro import DeleteOperation, UpdateTransaction

        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            pattern = parse_pattern("//D")
            plan_before = warehouse.engine.plan_for(pattern)
            version = warehouse.engine.stats.version
            # No Z anywhere: the update matches nothing, changes nothing.
            report = warehouse._commit_update(
                UpdateTransaction(parse_pattern("Z[$z]"), [DeleteOperation("z")], 1.0)
            )
            assert not report.applied
            assert warehouse.sequence == 2  # the commit still happened
            assert warehouse.engine.stats.version == version
            assert warehouse.engine.plan_for(pattern) is plan_before

    def test_plan_never_stale_after_label_frequency_change(
        self, tmp_path, slide12_doc
    ):
        """Regression: a commit that changes label frequencies must bump
        the stats version, so a plan priced on the old frequencies can
        never be served for the changed document."""
        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            pattern = parse_pattern("//B")
            plan_before = warehouse.engine.plan_for(pattern)
            version_before = warehouse.engine.stats.version
            frequency_before = warehouse.engine.stats.current().label_counts["B"]
            warehouse._commit_update(self._insert_tx(label="B"))  # B: 1 -> 2
            assert warehouse.engine.stats.version > version_before
            plan_after = warehouse.engine.plan_for(pattern)
            assert plan_after is not plan_before
            assert plan_after.stats_version == warehouse.engine.stats.version
            # The maintained statistics reflect the live document.
            current = warehouse.engine.stats.current()
            assert current.label_counts["B"] == frequency_before + 1
            assert current == collect_stats(warehouse.document.root)
            # The query path serves the fresh plan, not the stale one.
            assert warehouse.engine.plan_for(pattern).stats_version != version_before

    def test_deletion_at_max_depth_falls_back_to_recollection(
        self, tmp_path, slide12_doc
    ):
        from repro import DeleteOperation, UpdateTransaction

        process_registry.reset()
        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            warehouse.engine.stats.current()
            # D is the unique deepest node: its removal may lower
            # max_depth, which aggregates cannot decide — recollect.
            warehouse._commit_update(
                UpdateTransaction(parse_pattern("D[$d]"), [DeleteOperation("d")], 1.0)
            )
            stats = warehouse.engine.stats.current()
            assert stats == collect_stats(warehouse.document.root)
            seen = process_registry.snapshot()["counters"]
            assert seen.get("engine.stats_delta_recollected", 0) >= 1
        process_registry.reset()

    def test_batch_commit_feeds_one_delta(self, tmp_path, slide12_doc):
        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            warehouse.engine.stats.current()
            version = warehouse.engine.stats.version
            warehouse.update_many([self._insert_tx(), self._insert_tx("M")])
            assert warehouse.engine.stats.version == version + 1
            assert warehouse.engine.stats.current() == collect_stats(
                warehouse.document.root
            )


# ----------------------------------------------------------------------
# One walk per document generation
# ----------------------------------------------------------------------


def _slot_document(slots: int = 30) -> FuzzyTree:
    """A ~1 100-node fuzzy tree with *slots* uniquely identified anchors
    under the root (an insert addresses exactly one of them)."""
    document = random_fuzzy_tree(
        random.Random(7),
        FuzzyWorkloadConfig(
            tree=RandomTreeConfig(max_nodes=1100, min_nodes=1000, max_depth=10),
            n_events=6,
        ),
    )
    for i in range(slots):
        slot = document.root.add_child(FuzzyNode("slot"))
        slot.add_child(FuzzyNode("id", value=f"s{i}"))
    return document


def _slot_insert(serial: int, slots: int = 30):
    return compile_transaction(
        repro.update(
            repro.pattern("slot", variable="s").child("id", value=f"s{serial % slots}")
        )
        .insert("s", repro.tree("note", f"n{serial:05d}"))
        .confidence(0.75)
    )


def _person_insert():
    return compile_transaction(
        repro.update(repro.pattern("directory", variable="d", anchored=True))
        .insert("d", repro.tree("person", repro.tree("name", "p0001")))
        .confidence(0.5)
    )


@pytest.fixture
def walk_builds(monkeypatch) -> list:
    """Every document walk constructed while the test runs."""
    built: list = []
    construct = executor._Intervals.__init__

    def counting(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(executor._Intervals, "__init__", counting)
    return built


class TestOneWalkPerGeneration:
    """Updates locate their targets on the live view's walk and commits
    patch it, so neither an insert nor the query after it walks the
    document again; replay shares one walk across its records."""

    def test_interleaved_slot_inserts_build_one_walk(self, tmp_path, walk_builds):
        document = _slot_document()
        assert document.size() > 1000
        with repro.connect(tmp_path / "wh", create=True, document=document) as session:
            for serial in range(30):
                assert session.update(_slot_insert(serial)).applied
                assert len(session.query("//slot { note }").all()) == serial + 1
        exhausted = sum(getattr(walk, "stale", False) for walk in walk_builds)
        assert 1 <= len(walk_builds) <= 1 + exhausted

    def test_replaying_reopen_builds_one_walk(self, tmp_path, walk_builds):
        policy = CommitPolicy(snapshot_every=100, compact_on_close=False)
        with Warehouse.create(tmp_path / "wh", _slot_document(), policy=policy) as wh:
            for serial in range(32):
                wh.update_many([_slot_insert(serial)])
            expected = wh.document.root.canonical()
        walk_builds.clear()
        with Warehouse.open(tmp_path / "wh", policy=policy) as wh:
            assert wh.document.root.canonical() == expected
            assert len(walk_builds) <= 1

    def test_root_anchored_insert_builds_no_walk(self, tmp_path, walk_builds):
        policy = CommitPolicy(snapshot_every=100, compact_on_close=False)
        directory = FuzzyTree(FuzzyNode("directory"), EventTable())
        with Warehouse.create(tmp_path / "wh", directory, policy=policy) as wh:
            assert wh.update_many([_person_insert()])[0].applied
        with Warehouse.open(tmp_path / "wh", policy=policy) as wh:
            assert [c.label for c in wh.document.root.children] == ["person"]
        assert walk_builds == []
