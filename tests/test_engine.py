"""Unit tests for the query engine (repro.engine)."""

from __future__ import annotations

import random

import pytest

import repro
from repro import EventTable, FuzzyNode, FuzzyTree, Session
from repro.api.builders import compile_transaction
from repro.core.update import apply_update
from repro.tpwj.match import MatchConfig, find_matches
from repro.tpwj.parser import parse_pattern
from repro.trees.random import RandomTreeConfig
from repro.warehouse import CommitPolicy, Warehouse
from repro.workloads.generator import FuzzyWorkloadConfig, random_fuzzy_tree
from repro.obs.metrics import process_registry
from repro.engine import executor
from repro.engine import QueryEngine, build_plan, pattern_fingerprint
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


def _counts(plan) -> dict:
    """Each visited pattern node's label -> its candidate count."""
    return {step.node.label: step.candidates for step in plan.steps}


def _options(plan) -> dict:
    return {step.node.label: step.options for step in plan.steps}


# ----------------------------------------------------------------------
# The exact counts a plan reads
# ----------------------------------------------------------------------


class TestStats:
    def test_one_pass_counts(self, doc):
        walk = executor._Intervals(doc)
        assert len(walk.all_nodes) == 9
        assert {label: len(nodes) for label, nodes in walk.label_index.items()} == {
            "directory": 1,
            "person": 3,
            "name": 3,
            "email": 1,
            "misc": 1,
        }
        plan = build_plan(parse_pattern("directory { person { name, email }, misc }"), doc)
        assert _counts(plan) == {"directory": 1, "person": 3, "name": 3, "email": 1, "misc": 1}

    def test_depth_and_fanout_aggregates(self, doc):
        # Options: a node's candidates under one candidate of its parent.
        below = build_plan(parse_pattern("directory { //name }"), doc)
        assert _options(below)["name"] == pytest.approx(3.0)
        child = build_plan(parse_pattern("person { name }"), doc)
        assert _options(child)["name"] == pytest.approx(1.0)
        sparse = build_plan(parse_pattern("person { email }"), doc)
        assert _counts(sparse) == {"person": 3, "email": 1}
        assert _options(sparse)["email"] == pytest.approx(1 / 3)

    def test_as_dict_is_flat(self, doc):
        text = build_plan(parse_pattern("person { name }"), doc).explain()
        assert "1. person  [label-index]  candidates=3" in text
        assert "2. name  [label-index]  candidates=3  options=1.00" in text

    def test_document_stats_invalidation(self, doc):
        engine = QueryEngine(lambda: doc)
        pattern = parse_pattern("person")
        first = engine.plan_for(pattern)
        assert engine.plan_for(pattern) is first  # kept on the walk
        doc.add_child(Node("person"))
        engine.invalidate()
        second = engine.plan_for(pattern)
        assert second is not first
        assert _counts(second) == {"person": _counts(first)["person"] + 1}


# ----------------------------------------------------------------------
# Candidate counts and options
# ----------------------------------------------------------------------


class TestCardinality:
    def test_label_histogram_drives_candidates(self, doc):
        assert _counts(build_plan(parse_pattern("person"), doc)) == {"person": 3}
        assert _counts(build_plan(parse_pattern("nope"), doc)) == {"nope": 0}
        assert _counts(build_plan(parse_pattern("*"), doc)) == {None: 9}

    def test_value_test_uses_distinct_values(self, doc):
        # Two names carry "ana".
        assert _counts(build_plan(parse_pattern('name[="ana"]'), doc)) == {"name": 2}
        # misc binds $x first (1 option against 3 persons); a name then
        # has 1 option per person, over 2 distinct name values.
        plan = build_plan(parse_pattern("directory { person { name[$x] }, misc[$x] }"), doc)
        assert [step.node.label for step in plan.steps] == ["directory", "misc", "person", "name"]
        assert _options(plan)["name"] == pytest.approx(0.5)

    def test_internal_requirement_scales_estimate(self, doc):
        # All misc nodes are leaves: requiring a child leaves none.
        plan = build_plan(parse_pattern("misc { x }"), doc)
        assert _counts(plan) == {"misc": 0, "x": None}
        assert "no match: a candidate list came out empty" in plan.reasons

    def test_join_variable_requires_valued_nodes(self, doc):
        # No person carries a value, so a join on $j has no candidates.
        plan = build_plan(parse_pattern("directory { person[$j], misc[$j] }"), doc)
        assert _counts(plan)["person"] == 0

    def test_axis_and_join_selectivity_bounds(self, doc):
        plan = build_plan(parse_pattern("directory { person { name[$x] }, misc[$x] }"), doc)
        for step in plan.steps[1:]:
            assert 0.0 < step.options <= step.candidates

    def test_selective_order_is_cheaper(self, doc):
        pattern = parse_pattern("person { name, email }")
        plan = build_plan(pattern, doc)
        assert [step.node.label for step in plan.steps] == ["person", "email", "name"]
        # Too little volume for the semi-join: only the order differs.
        config = MatchConfig(use_semijoin_pruning=False)
        assert not plan.use_semijoin_pruning
        work = {}
        for shape in (None, "auto"):
            process_registry.reset()
            assert len(find_matches(pattern, doc, config, plan=shape)) == 1
            work[shape] = process_registry.counter("match.assignments")
        process_registry.reset()
        assert work["auto"] < work[None]


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------


class TestPlanner:
    def test_plan_is_topological_and_complete(self, doc):
        pattern = parse_pattern("directory { person { name[$x] }, misc[$x] }")
        plan = build_plan(pattern, doc)
        assert set(map(id, plan.order)) == set(map(id, pattern.positive_nodes()))
        positions = {id(n): i for i, n in enumerate(plan.order)}
        for node in plan.order:
            if node.parent is not None:
                assert positions[id(node.parent)] < positions[id(node)]

    def test_toggle_choices(self, doc):
        joined = build_plan(
            parse_pattern("directory { person { name[$x] }, misc[$x] }"), doc
        )
        assert joined.early_join_check
        assert joined.use_label_index
        plain = build_plan(parse_pattern("person { name }"), doc)
        assert not plain.early_join_check
        # Tiny candidate volume: the prune pass is not worth it.
        assert not plain.use_semijoin_pruning
        wildcards = build_plan(parse_pattern("* { * }"), doc)
        assert not wildcards.use_label_index

    def test_explain_mentions_decisions(self, doc):
        pattern = parse_pattern("directory { person { name[$x] }, misc[$x] }")
        plan = build_plan(pattern, doc)
        text = plan.explain()
        assert "visit order" in text
        assert "candidates=3" in text
        assert "reordered visit sequence" in text
        assert "early" in text  # join check placement

    def test_fingerprint_identifies_structure(self):
        a = parse_pattern("/A { B[$x], //C[$x] }")
        b = parse_pattern("/ A { B [ $x ] , // C [ $x ] }")
        c = parse_pattern("/A { B[$x], C[$x] }")
        assert pattern_fingerprint(a) == pattern_fingerprint(b)
        assert pattern_fingerprint(a) != pattern_fingerprint(c)


# ----------------------------------------------------------------------
# Kept plans: each walk keeps a plan with its preparation, per pattern
# ----------------------------------------------------------------------


class TestPlanCache:
    def test_hit_and_miss_accounting(self, doc):
        walk = executor._Intervals(doc)
        process_registry.reset()
        entry = walk.prepared(parse_pattern("person { name }"), doc)
        assert walk.prepared(parse_pattern("person { name }"), doc) is entry
        assert process_registry.counter("engine.plan_cache_misses") == 1
        assert process_registry.counter("engine.plan_cache_hits") == 1
        assert process_registry.counter("engine.plans_built") == 1
        process_registry.reset()

    def test_stats_version_partitions_entries(self, doc):
        walk = executor._Intervals(doc)
        pattern = parse_pattern("person { name }")
        kept = walk.prepared(pattern, doc)
        untouched = walk.prepared(parse_pattern("misc"), doc)
        # A patch naming the plan's labels drops its entry: re-planned.
        walk.attach(doc.add_child(tree("person", tree("name", "cy"))))
        fresh = walk.prepared(pattern, doc)
        assert fresh is not kept
        assert _counts(fresh.plan) == {"person": 4, "name": 4}
        assert walk.prepared(parse_pattern("misc"), doc) is untouched

    def test_lru_eviction(self, doc, preparations):
        """A hot pattern queried between more distinct ones than a walk
        keeps is refreshed on every hit, so it is planned once."""
        for i in range(1, 200):
            doc.add_child(tree(f"L{i}", tree("x", f"v{i}")))
        doc.add_child(tree("L0", tree("x", "v0")))
        engine = QueryEngine(lambda: doc)
        hot = parse_pattern("//L0 { x }")
        for i in range(1, 200):
            assert len(engine.find_matches(parse_pattern(f"//L{i} {{ x }}"))) == 1
            assert len(engine.find_matches(hot)) == 1
        assert preparations.count(pattern_fingerprint(hot)) == 1

    def test_capacity_validation(self, doc):
        walk = executor._Intervals(doc)
        process_registry.reset()
        for i in range(executor._PREPARED + 5):
            walk.prepared(parse_pattern(f"L{i}"), doc)
        assert len(walk._prepared) == executor._PREPARED
        assert process_registry.counter("engine.plan_cache_evictions") == 5
        assert pattern_fingerprint(parse_pattern("L0")) not in walk._prepared
        process_registry.reset()


# ----------------------------------------------------------------------
# QueryEngine + instrumentation
# ----------------------------------------------------------------------


class TestQueryEngine:
    def test_plan_reuse_and_invalidation(self, doc):
        engine = QueryEngine(lambda: doc)
        pattern = parse_pattern("person { name }")
        first = engine.plan_for(pattern)
        second = engine.plan_for(parse_pattern("person { name }"))
        assert second is first  # kept plan served for an equivalent pattern
        engine.invalidate()
        third = engine.plan_for(pattern)
        assert third is not first
        assert third.steps == first.steps  # same document, same counts

    def test_find_matches_through_engine(self, doc):
        engine = QueryEngine(lambda: doc)
        matches = engine.find_matches(parse_pattern("person { name[$x] }"))
        assert len(matches) == 3

    def test_cached_plan_matches_are_keyed_by_callers_pattern(self, doc):
        engine = QueryEngine(lambda: doc)
        first = parse_pattern("person { name[$x] }")
        engine.find_matches(first)  # the walk keeps its plan
        second = parse_pattern("person { name[$x] }")
        match = engine.find_matches(second)[0]
        # Indexing with the *caller's* nodes must work despite the
        # kept plan carrying the first pattern's node objects.
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
        assert seen["engine.plans_built"] == 1
        assert seen["engine.plans_executed"] == 2
        assert seen["engine.plan_cache_misses"] == 1
        assert seen["engine.plan_cache_hits"] == 1
        assert seen["engine.actual_candidates"] > 0
        process_registry.reset()

    def test_explain_renders_stats_plan_and_cache(self, doc):
        engine = QueryEngine(lambda: doc)
        text = engine.explain(parse_pattern("person { name }"))
        assert "plan for person { name }" in text
        assert "candidates=3" in text
        assert "shannon cache:" in text


# ----------------------------------------------------------------------
# Warehouse integration
# ----------------------------------------------------------------------


class TestWarehousePlans:
    def test_repeated_query_hits_the_plan_cache(self, tmp_path, slide12_doc):
        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            Session(warehouse).query("//D").answers()
            hits_before = process_registry.counter("engine.plan_cache_hits")
            again = Session(warehouse).query("//D").answers()
            assert process_registry.counter("engine.plan_cache_hits") == hits_before + 1
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
            before = warehouse.engine.plan_for(parse_pattern("//D"))
            warehouse.simplify()
            # simplify() reports no subtrees: the engine drops every
            # walk, and with them the kept plans (no stale serve).
            plan = warehouse.engine.plan_for(parse_pattern("//D"))
            assert plan is not before

    def test_explain_plan_from_text(self, tmp_path, slide12_doc):
        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            text = warehouse.explain_plan("/A { //D }")
            assert "visit order" in text
            assert "candidates=1" in text

    def test_max_matches_handle_uses_planner(self, tmp_path, slide12_doc):
        from repro.tpwj.match import MatchConfig

        path = tmp_path / "wh"
        with Warehouse.create(path, slide12_doc):
            pass
        config = MatchConfig(max_matches=1)
        with Warehouse.open(path, match_config=config) as warehouse:
            # Truncated enumeration goes through the cost-based engine
            # too: the cap is pushed into the streaming protocol, and
            # the walk's kept plan serves repeats.
            process_registry.reset()
            assert len(Session(warehouse).query("//D").answers()) == 1
            assert process_registry.counter("engine.plan_cache_misses") == 1
            Session(warehouse).query("//D").answers()
            assert process_registry.counter("engine.plan_cache_hits") == 1
            process_registry.reset()

    def test_engine_survives_reopen(self, tmp_path, slide12_doc):
        path = tmp_path / "wh"
        with Warehouse.create(path, slide12_doc):
            pass
        with Warehouse.open(path) as warehouse:
            assert len(Session(warehouse).query("//D").answers()) == 1


# ----------------------------------------------------------------------
# Commits keep the walk, and the plans whose labels they leave alone
# ----------------------------------------------------------------------


class TestIncrementalStats:
    def _insert_tx(self, label="N"):
        from repro import InsertOperation, UpdateTransaction

        return UpdateTransaction(
            parse_pattern("C[$c]"), [InsertOperation("c", tree(label))], 1.0
        )

    def test_update_adjusts_stats_without_recollection(self, tmp_path, slide12_doc):
        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            engine = warehouse.engine
            engine.plan_for(parse_pattern("//N"))  # builds the live walk
            walk = engine._current_walk(warehouse.document.root)
            warehouse._commit_update(self._insert_tx())
            root = warehouse.document.root
            assert engine._current_walk(root) is walk  # patched, not rebuilt
            plan = engine.plan_for(parse_pattern("//N"))
            assert _counts(plan) == {"N": 1}
            assert plan.steps == build_plan(plan.pattern, root).steps

    def test_no_op_commit_keeps_version_and_cached_plan(self, tmp_path, slide12_doc):
        from repro import DeleteOperation, UpdateTransaction

        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            pattern = parse_pattern("//D")
            plan_before = warehouse.engine.plan_for(pattern)
            commits = warehouse.engine._commits
            # No Z anywhere: the update matches nothing, changes nothing.
            report = warehouse._commit_update(
                UpdateTransaction(parse_pattern("Z[$z]"), [DeleteOperation("z")], 1.0)
            )
            assert not report.applied
            assert warehouse.sequence == 2  # the commit still happened
            assert warehouse.engine._commits == commits
            assert warehouse.engine.plan_for(pattern) is plan_before

    def test_plan_never_stale_after_label_frequency_change(
        self, tmp_path, slide12_doc
    ):
        """Regression: a commit that changes a label's frequency must drop
        the plans naming the label, so a plan chosen on the old counts can
        never be served for the changed document."""
        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            pattern = parse_pattern("//B")
            plan_before = warehouse.engine.plan_for(pattern)
            frequency_before = _counts(plan_before)["B"]
            warehouse._commit_update(self._insert_tx(label="B"))  # B: 1 -> 2
            plan_after = warehouse.engine.plan_for(pattern)
            assert plan_after is not plan_before
            assert _counts(plan_after)["B"] == frequency_before + 1
            # The query path serves the fresh plan, not the stale one.
            assert warehouse.engine.plan_for(pattern) is plan_after

    def test_deletion_at_max_depth_falls_back_to_recollection(
        self, tmp_path, slide12_doc
    ):
        from repro import DeleteOperation, UpdateTransaction

        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            pattern = parse_pattern("//C { D }")
            assert not warehouse.engine.plan_for(pattern).reasons[0].startswith("no match")
            # D is the unique deepest node; its removal turns C into a
            # leaf, so the plan is chosen again and finds nothing.
            warehouse._commit_update(
                UpdateTransaction(parse_pattern("D[$d]"), [DeleteOperation("d")], 1.0)
            )
            plan = warehouse.engine.plan_for(pattern)
            assert _counts(plan) == {"C": 0, "D": None}
            assert "no match: a candidate list came out empty" in plan.reasons

    def test_batch_commit_feeds_one_delta(self, tmp_path, slide12_doc):
        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            commits = warehouse.engine._commits
            warehouse.update_many([self._insert_tx(), self._insert_tx("M")])
            assert warehouse.engine._commits == commits + 1
            plan = warehouse.engine.plan_for(parse_pattern("C { N, M }"))
            assert _counts(plan) == {"C": 1, "N": 1, "M": 1}


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


@pytest.fixture
def preparations(monkeypatch) -> list:
    """The fingerprint of every pattern planned and prepared for a walk
    to keep while the test runs (fixed plans — update location — are
    left out)."""
    prepared: list = []
    planned = executor._planned

    def counting(pattern, *args, **kwargs):
        prepared.append(pattern_fingerprint(pattern))
        return planned(pattern, *args, **kwargs)

    monkeypatch.setattr(executor, "_planned", counting)
    return prepared


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

    def test_commits_keep_the_preparations_they_do_not_touch(
        self, tmp_path, walk_builds, preparations
    ):
        """A slot insert touches ``slot`` (the parent) and ``note``: a
        plan over neither is prepared once per walk, one naming either
        after every insert."""
        untouched, noted, slotted = "//A { B, //C }", "//slot { note }", "//slot { id }"
        with repro.connect(tmp_path / "wh", create=True, document=_slot_document()) as session:
            for serial in range(30):
                assert session.update(_slot_insert(serial)).applied
                for text in (untouched, noted, slotted, untouched):
                    assert session.query(text).limit(5).all()
        counts = {
            text: preparations.count(pattern_fingerprint(parse_pattern(text)))
            for text in (untouched, noted, slotted)
        }
        assert 1 <= counts[untouched] <= len(walk_builds)
        assert counts[noted] == counts[slotted] == 30

    def test_an_insert_under_a_leaf_drops_the_entries_naming_it(
        self, tmp_path, preparations
    ):
        """``shelf`` turns from leaf to inner node under an unrelated
        label: the plans naming ``shelf`` prepare again, the other not."""
        shelf, box = "//shelf", "//box { item }"
        root = FuzzyNode(
            "R", children=[FuzzyNode("shelf"), FuzzyNode("box", children=[FuzzyNode("item")])]
        )
        insert = compile_transaction(
            repro.update(repro.pattern("shelf", variable="s"))
            .insert("s", repro.tree("note", "n"))
            .confidence(1.0)
        )
        with repro.connect(
            tmp_path / "wh", create=True, document=FuzzyTree(root, EventTable())
        ) as session:
            for text in (shelf, box, shelf, box):
                assert len(session.query(text).all()) == 1
            assert session.update(insert).applied
            for text in (shelf, box):
                assert len(session.query(text).all()) == 1
        fingerprints = [pattern_fingerprint(parse_pattern(t)) for t in (shelf, box)]
        assert preparations == fingerprints + fingerprints[:1]

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
