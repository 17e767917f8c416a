"""Tests for the public session API (repro.api).

This file is the deprecation firewall: CI runs it under
``-W error::DeprecationWarning``, so nothing here (nor any internal
code it exercises) may touch the library's own deprecated shims.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import errors
from repro.api import (
    PatternBuilder,
    Session,
    connect,
    pattern,
    update,
)
from repro.core.query import query_fuzzy_tree
from repro.obs.metrics import process_registry
from repro.tpwj.match import MatchConfig, find_matches
from repro.tpwj.parser import format_pattern, parse_pattern
from repro.trees import RandomTreeConfig, random_tree, tree
from repro.updates.operations import DeleteOperation, InsertOperation
from repro.updates.transaction import UpdateTransaction
from repro.xmlio.xupdate import transaction_from_string, transaction_to_string

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.fixture
def session(tmp_path):
    with connect(tmp_path / "wh", create=True, root="directory") as session:
        yield session


def _person_tx(name: str, confidence: float = 1.0):
    return (
        update(pattern("directory", variable="d", anchored=True))
        .insert("d", tree("person", tree("name", name)))
        .confidence(confidence)
    )


def _populate(session: Session, names=("Alice", "Bob", "Carol"), confidence=0.9):
    for name in names:
        session.update(_person_tx(name, confidence))


# ----------------------------------------------------------------------
# connect() and session lifecycle
# ----------------------------------------------------------------------


class TestConnect:
    def test_create_then_reopen(self, tmp_path):
        path = tmp_path / "wh"
        with connect(path, create=True, root="directory") as session:
            _populate(session, ["Alice"])
            sequence = session.sequence
        with connect(path) as session:
            assert session.sequence == sequence
            assert session.query("//name").count() == 1

    def test_create_from_document(self, tmp_path, slide12_doc):
        with connect(tmp_path / "wh", create=True, document=slide12_doc) as session:
            assert session.stats()["nodes"] == slide12_doc.size()

    def test_create_needs_a_source(self, tmp_path):
        with pytest.raises(errors.WarehouseError):
            connect(tmp_path / "wh", create=True)

    def test_open_rejects_create_arguments(self, tmp_path):
        with pytest.raises(errors.WarehouseError):
            connect(tmp_path / "wh", root="directory")

    def test_policy_kwargs_reach_the_warehouse(self, tmp_path):
        with connect(
            tmp_path / "wh",
            create=True,
            root="r",
            snapshot_every=7,
            wal_bytes_limit=1234,
            compact_on_close=False,
        ) as session:
            policy = session.warehouse.policy
            assert policy.snapshot_every == 7
            assert policy.wal_bytes_limit == 1234
            assert policy.compact_on_close is False

    def test_closed_session_raises(self, tmp_path):
        session = connect(tmp_path / "wh", create=True, root="r")
        session.close()
        session.close()  # idempotent
        assert session.closed
        with pytest.raises(errors.SessionClosedError):
            session.query("//x")
        with pytest.raises(errors.SessionClosedError):
            session.update(_person_tx("Zoe"))
        with pytest.raises(errors.SessionClosedError):
            session.stats()

    def test_close_releases_open_snapshots(self, tmp_path):
        session = connect(tmp_path / "wh", create=True, root="r")
        snapshot = session.snapshot()
        assert session.stats()["read_sessions"] == 1
        session.close()
        assert snapshot.closed
        with pytest.raises(errors.SessionClosedError):
            snapshot.query("//x")


# ----------------------------------------------------------------------
# PatternBuilder
# ----------------------------------------------------------------------


class TestPatternBuilder:
    def test_slide6_query(self):
        built = (
            pattern("A", anchored=True)
            .child("B", variable="v")
            .child(pattern("C").descendant("D", variable="v"))
            .build()
        )
        assert format_pattern(built) == "/A { B[$v], C { //D[$v] } }"
        parsed = parse_pattern("/A { B[$v], C { //D[$v] } }")
        assert format_pattern(parsed) == format_pattern(built)

    def test_wildcard_value_and_negation(self):
        built = (
            pattern("*")
            .child("b", value="x y")
            .without("c", descendant=True)
            .build()
        )
        assert format_pattern(built) == '* { b[="x y"], !//c }'

    def test_nested_builder_with_keyword_overrides(self):
        built = pattern("A").child(pattern("B"), variable="v").build()
        assert built.root.children[0].variable == "v"

    def test_value_escaping_round_trips(self):
        built = pattern("A").child("b", value='say "hi" \\ there').build()
        reparsed = parse_pattern(format_pattern(built))
        assert reparsed.root.children[0].value == 'say "hi" \\ there'

    def test_build_is_repeatable_and_fresh(self):
        builder = pattern("A").child("B")
        first, second = builder.build(), builder.build()
        assert first.root is not second.root
        assert format_pattern(first) == format_pattern(second)

    def test_attach_snapshots_the_sub_builder(self):
        # Attaching must not mutate the caller's builder: the same
        # sub-builder under two parents keeps each pattern's own axis
        # and negation.
        sub = pattern("X")
        first = pattern("A").child(sub)
        second = pattern("B").descendant(sub)
        third = pattern("C").without(sub)
        assert format_pattern(first.build()) == "A { X }"
        assert format_pattern(second.build()) == "B { //X }"
        assert format_pattern(third.build()) == "C { !X }"
        # Keyword overrides land on the snapshot, not the original.
        pattern("D").child(sub, variable="v")
        assert format_pattern(pattern("E").child(sub).build()) == "E { X }"

    def test_fluent_equals_and_var(self):
        built = pattern("A").child(PatternBuilder("b").var("x").equals("1")).build()
        assert format_pattern(built) == 'A { b[$x="1"] }'

    def test_anchored_child_rejected(self):
        with pytest.raises(errors.QueryError):
            pattern("A").child(pattern("B", anchored=True))

    def test_negated_root_rejected(self):
        builder = pattern("A")
        builder._negated = True
        with pytest.raises(errors.QueryError):
            builder.build()

    def test_bad_label_rejected(self):
        with pytest.raises(errors.QueryError):
            PatternBuilder("")

    def test_validation_delegates_to_pattern(self):
        # A join variable on a non-leaf is the model's rule, not the
        # builder's: build() surfaces Pattern's own validation.
        builder = (
            pattern("A")
            .child(pattern("B", variable="v").child("C"))
            .descendant("D", variable="v")
        )
        with pytest.raises(errors.QueryError):
            builder.build()


# ----------------------------------------------------------------------
# UpdateBuilder
# ----------------------------------------------------------------------


class TestUpdateBuilder:
    def test_compiles_to_plain_transaction(self):
        built = (
            update(pattern("person", variable="p"))
            .insert("p", tree("email", "a@b"))
            .delete("p")
            .confidence(0.5)
            .build()
        )
        assert isinstance(built, UpdateTransaction)
        assert built.confidence == 0.5
        assert isinstance(built.insertions[0], InsertOperation)
        assert isinstance(built.deletions[0], DeleteOperation)

    def test_label_shorthand_insert(self):
        built = (
            update(pattern("person", variable="p"))
            .insert("p", "email", "a@b")
            .build()
        )
        subtree = built.insertions[0].subtree
        assert subtree.label == "email" and subtree.value == "a@b"

    def test_value_with_node_subtree_rejected(self):
        with pytest.raises(errors.UpdateError):
            update(pattern("p", variable="p")).insert("p", tree("email"), "a@b")

    def test_same_wire_format_as_parser(self):
        built = (
            update("person[$p]").insert("p", tree("email", "a@b")).confidence(0.25)
        ).build()
        reparsed = transaction_from_string(transaction_to_string(built))
        assert transaction_to_string(reparsed) == transaction_to_string(built)

    def test_query_spellings_are_equivalent(self):
        for query in ("person[$p]", parse_pattern("person[$p]"), pattern("person", variable="p")):
            built = update(query).delete("p").build()
            assert format_pattern(built.query) == "person[$p]"

    def test_bad_anchor_variable_rejected_at_build(self):
        with pytest.raises(errors.QueryError):
            update(pattern("person", variable="p")).delete("q").build()


# ----------------------------------------------------------------------
# ResultSet streaming
# ----------------------------------------------------------------------


class TestResultSet:
    def test_rows_match_classic_aggregation(self, session):
        _populate(session)
        rows = session.query("//person { name }").all()
        assert len(rows) == 3
        for row in rows:
            assert 0.0 < row.probability <= 1.0
            assert row.tree.label == "directory"
        answers = session.query("//person { name }").answers()
        classic = query_fuzzy_tree(
            session.document, parse_pattern("//person { name }")
        )
        assert [(a.probability, a.tree.canonical()) for a in answers] == [
            (a.probability, a.tree.canonical()) for a in classic
        ]

    def test_is_lazy(self, session):
        _populate(session)
        process_registry.reset()
        results = session.query("//person { name }")
        assert process_registry.counter("engine.plans_executed") == 0
        results.first()
        assert process_registry.counter("engine.plans_executed") == 1

    def test_limit_is_a_prefix_of_the_unlimited_order(self, session):
        # Regression for the PR-1 wart: limit(n) runs on the cost-based
        # planner and returns exactly the first n of the deterministic
        # unlimited match order.
        _populate(session)
        full = [row.tree.canonical() for row in session.query("//person { name }")]
        for n in range(len(full) + 2):
            limited = [
                row.tree.canonical()
                for row in session.query("//person { name }").limit(n)
            ]
            assert limited == full[:n]

    def test_limit_hits_the_plan_cache_on_repeat(self, session):
        _populate(session)
        cache = session.warehouse.engine.cache
        session.query("//person { name }").limit(1).all()
        misses = cache.misses
        session.query("//person { name }").limit(2).all()
        assert cache.misses == misses
        assert cache.hits >= 1

    def test_limit_stops_the_enumeration_early(self, session):
        _populate(session, [f"p{i}" for i in range(12)])
        query = "//person { name }"
        process_registry.reset()
        session.query(query).all()
        full_assignments = process_registry.counter("match.assignments")
        process_registry.reset()
        session.query(query).limit(1).all()
        limited_assignments = process_registry.counter("match.assignments")
        assert limited_assignments < full_assignments

    def test_live_iteration_survives_a_commit(self, session):
        # A live-session iterator pins its document generation: a
        # commit landing between two rows copies-on-write instead of
        # mutating the tree mid-walk (it becomes visible to the *next*
        # iteration, not this one).
        _populate(session, ["Alice", "Bob", "Carol"])
        expected = [r.tree.canonical() for r in session.query("//person { name }")]
        assert session.stats()["read_sessions"] == 0
        stream = iter(session.query("//person { name }"))
        seen = [next(stream).tree.canonical()]
        assert session.stats()["read_sessions"] == 1  # pinned while open
        session.update(
            update(pattern("person", variable="p").child("name", value="Bob"))
            .delete("p")
        )
        seen.extend(r.tree.canonical() for r in stream)
        assert seen == expected  # Bob's deletion is invisible mid-iteration
        assert session.stats()["read_sessions"] == 0  # pin released
        fresh = [r.tree.canonical() for r in session.query("//person { name }")]
        assert fresh != expected  # ...but visible to the next iteration

    def test_first_and_count(self, session):
        _populate(session)
        results = session.query("//person { name }")
        assert results.count() == 3
        first = results.first()
        assert first is not None
        assert first.tree.canonical() == next(iter(results)).tree.canonical()
        assert session.query("//zzz").first() is None
        # first() closes its iterator: the pin is released immediately,
        # not whenever the abandoned generator happens to be collected.
        assert session.stats()["read_sessions"] == 0

    def test_bindings(self, session):
        _populate(session, ["Alice"])
        row = session.query(pattern("person").child("name", variable="n")).first()
        assert row.bindings() == {"n": "Alice"}

    def test_planner_false_agrees(self, session):
        _populate(session)
        via_planner = session.query("//person { name }").answers()
        via_fixed = session.query("//person { name }", planner=False).answers()
        assert [(a.probability, a.tree.canonical()) for a in via_planner] == [
            (a.probability, a.tree.canonical()) for a in via_fixed
        ]

    def test_row_explain_provenance(self, session):
        _populate(session, ["Alice"], confidence=0.8)
        row = session.query("//person { name }").first()
        records = row.explain()
        assert len(records) == 1
        record = records[0]
        assert record["probability"] == 0.8
        assert record["origin"]["kind"] == "update"

    def test_max_matches_handle_truncates_via_engine(self, tmp_path, slide12_doc):
        path = tmp_path / "wh"
        with connect(path, create=True, document=slide12_doc):
            pass
        with connect(path, match_config=MatchConfig(max_matches=1)) as session:
            # The handle's cap rides the engine's streaming protocol —
            # no fixed-matcher fallback, and the plan cache is used.
            rows = session.query("//*").all()
            assert len(rows) == 1
            assert session.warehouse.engine.cache.misses >= 1


# ----------------------------------------------------------------------
# Snapshot isolation
# ----------------------------------------------------------------------


class TestSnapshots:
    def test_snapshot_pins_state_across_commits(self, session):
        _populate(session, ["Alice"])
        with session.snapshot() as snapshot:
            before = [r.tree.canonical() for r in snapshot.query("//person")]
            _populate(session, ["Bob"])
            after = [r.tree.canonical() for r in snapshot.query("//person")]
            live = [r.tree.canonical() for r in session.query("//person")]
        assert before == after
        assert len(before) == 1 and len(live) == 2

    def test_writer_committing_mid_iteration_does_not_change_reader(self, session):
        _populate(session, ["Alice", "Bob", "Carol"])
        with session.snapshot() as snapshot:
            expected = [r.tree.canonical() for r in snapshot.query("//person { name }")]
            stream = iter(snapshot.query("//person { name }"))
            seen = [next(stream).tree.canonical()]
            # A writer commits (insert + a deletion-heavy simplify)
            # while the reader is mid-iteration.
            _populate(session, ["Dave", "Erin"])
            session.simplify()
            seen.extend(r.tree.canonical() for r in stream)
        assert seen == expected

    def test_snapshot_sequence_and_document(self, session):
        _populate(session, ["Alice"])
        with session.snapshot() as snapshot:
            assert snapshot.sequence == session.sequence
            _populate(session, ["Bob"])
            assert snapshot.sequence < session.sequence
            assert snapshot.document.size() < session.document.size()

    def test_read_sessions_counter(self, session):
        assert session.stats()["read_sessions"] == 0
        first = session.snapshot()
        second = session.snapshot()
        assert session.stats()["read_sessions"] == 2
        assert session.warehouse.read_sessions == 2
        first.close()
        first.close()  # idempotent
        assert session.stats()["read_sessions"] == 1
        second.close()
        assert session.stats()["read_sessions"] == 0

    def test_snapshot_is_cheap_until_a_write(self, session):
        _populate(session, ["Alice"])
        with session.snapshot() as snapshot:
            # No write yet: the snapshot shares the live object.
            assert snapshot.document is session.document
            _populate(session, ["Bob"])
            # Copy-on-write detached the live document, not the pin's.
            assert snapshot.document is not session.document

    def test_two_snapshots_same_generation_share_one_copy(self, session):
        _populate(session, ["Alice"])
        with session.snapshot() as first, session.snapshot() as second:
            assert first.document is second.document
            _populate(session, ["Bob"])
            assert first.document is second.document  # both stayed pinned

    def test_closed_snapshot_raises(self, session):
        snapshot = session.snapshot()
        snapshot.close()
        with pytest.raises(errors.SessionClosedError):
            snapshot.query("//x")
        with pytest.raises(errors.SessionClosedError):
            snapshot.document

    def test_snapshot_explain_provenance(self, session):
        _populate(session, ["Alice"], confidence=0.8)
        with session.snapshot() as snapshot:
            _populate(session, ["Bob"], confidence=0.5)
            row = snapshot.query("//person { name }").first()
            records = row.explain()
            assert records[0]["probability"] == 0.8


# ----------------------------------------------------------------------
# Batched updates through the session
# ----------------------------------------------------------------------


class TestSessionUpdates:
    def test_update_spellings(self, session):
        report = session.update(_person_tx("Alice"))  # builder
        assert report.applied
        built = _person_tx("Bob").build()
        assert session.update(built).applied  # transaction
        wire = transaction_to_string(_person_tx("Carol").build())
        assert session.update(wire).applied  # XUpdate string

    def test_confidence_override(self, session):
        report = session.update(_person_tx("Alice"), confidence=0.25)
        assert report.confidence_event is not None
        assert session.document.events.probability(report.confidence_event) == 0.25

    def test_update_many_is_one_commit(self, session):
        before = session.sequence
        reports = session.update_many([_person_tx("A"), _person_tx("B")])
        assert [r.applied for r in reports] == [True, True]
        assert session.sequence == before + 1

    def test_batch_context_manager(self, session):
        before = session.sequence
        with session.batch() as batch:
            batch.update(_person_tx("A"))
            batch.update(_person_tx("B"), confidence=0.5)
            assert len(batch) == 2
        assert session.sequence == before + 1
        assert batch.reports is not None and len(batch.reports) == 2
        assert batch.reports[1].confidence_event is not None

    def test_batch_aborts_on_exception(self, session):
        before = session.sequence
        with pytest.raises(RuntimeError):
            with session.batch() as batch:
                batch.update(_person_tx("A"))
                raise RuntimeError("abort")
        assert session.sequence == before
        assert batch.reports is None

    def test_simplify_and_compact(self, tmp_path):
        with connect(
            tmp_path / "wh",
            create=True,
            root="directory",
            snapshot_every=100,
            compact_on_close=False,
        ) as session:
            _populate(session, ["Alice"], confidence=0.7)
            assert session.stats()["wal_depth"] > 0
            summary = session.compact()
            assert summary["folded_records"] > 0
            report = session.simplify()
            assert report.nodes_after <= report.nodes_before


# ----------------------------------------------------------------------
# Errors and the 2.0 surface (no deprecated 1.x shims)
# ----------------------------------------------------------------------


class TestErrorsAndShims:
    def test_error_hierarchy(self):
        assert issubclass(errors.PatternSyntaxError, errors.QueryError)
        assert issubclass(errors.SessionClosedError, errors.WarehouseError)
        assert issubclass(errors.WarehouseCorruptError, errors.WarehouseError)
        assert errors.QueryParseError is errors.PatternSyntaxError
        assert issubclass(errors.PatternSyntaxError, errors.ReproError)

    def test_cli_exit_codes_distinct(self):
        from repro.cli import exit_code_for

        assert exit_code_for(errors.PatternSyntaxError("bad")) == 3
        assert exit_code_for(errors.WarehouseCorruptError("bad")) == 4
        assert exit_code_for(errors.WarehouseLockedError("bad")) == 5
        assert exit_code_for(errors.SessionClosedError("bad")) == 6
        assert exit_code_for(errors.WarehouseError("bad")) == 2
        assert exit_code_for(errors.ReproError("bad")) == 2

    def test_bad_query_spelling(self, session):
        with pytest.raises(errors.QueryError):
            session.query(42)

    def test_bad_update_spelling(self, session):
        with pytest.raises(errors.UpdateError):
            session.update(42)

    def test_pattern_syntax_error_from_session(self, session):
        with pytest.raises(errors.PatternSyntaxError):
            session.query("A {")

    def test_module_level_shims_are_gone(self):
        # 2.0 removed the 1.x lazy shims: the attributes no longer
        # resolve at all, and the model-level functions stay available
        # (warning-free) at their defining modules.
        for name in ("parse_pattern", "query_fuzzy_tree", "apply_update"):
            with pytest.raises(AttributeError):
                getattr(repro, name)

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist  # noqa: B018

    def test_star_import_is_warning_free(self):
        import warnings

        namespace: dict = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            exec("from repro import *", namespace)  # noqa: S102
        assert "connect" in namespace
        assert "QueryOptions" in namespace
        assert "parse_pattern" not in namespace

    def test_warehouse_shims_are_gone(self, tmp_path, slide12_doc):
        # The Warehouse surface is sessions-only in 2.0: the deprecated
        # pass-throughs were deleted outright.
        from repro.warehouse import Warehouse

        with Warehouse.create(tmp_path / "wh", slide12_doc) as warehouse:
            with pytest.raises(AttributeError):
                warehouse.query  # noqa: B018
            with pytest.raises(AttributeError):
                warehouse.update  # noqa: B018
            with pytest.raises(AttributeError):  # Session.batch() is the one
                warehouse.begin_batch  # noqa: B018

    def test_version_is_2(self):
        assert repro.__version__.startswith("2.")

    def test_setup_py_reports_the_package_version(self):
        import subprocess
        import sys
        from pathlib import Path

        setup_py = Path(__file__).resolve().parent.parent / "setup.py"
        result = subprocess.run(
            [sys.executable, str(setup_py), "--version"],
            cwd=setup_py.parent,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert result.stdout.split()[-1] == repro.__version__


# ----------------------------------------------------------------------
# Property: builder round-trips through the text syntax
# ----------------------------------------------------------------------

_LABELS = ["A", "B", "C", "item", "x1", "a.b-c"]
_VALUES = ["", "foo", 'say "hi"', "back\\slash", "x y"]
_VARIABLES = ["v", "w", "x"]


def _random_builder(rng: random.Random, depth: int = 0, negated: bool = False) -> PatternBuilder:
    label = rng.choice(_LABELS + ["*"])
    builder = PatternBuilder(label)
    is_leaf = depth >= 3 or rng.random() < 0.45
    if is_leaf:
        if rng.random() < 0.4:
            builder.equals(rng.choice(_VALUES))
        elif not negated and rng.random() < 0.5:
            # Variables only on leaves: repeats become value joins, and
            # the model requires joined nodes to be leaves.
            builder.var(rng.choice(_VARIABLES))
        return builder
    for _ in range(rng.randint(1, 3)):
        child_negated = not negated and rng.random() < 0.25
        child = _random_builder(rng, depth + 1, negated or child_negated)
        descendant = rng.random() < 0.4
        if child_negated:
            builder.without(child, descendant=descendant)
        elif descendant:
            builder.descendant(child)
        else:
            builder.child(child)
    return builder


def _match_signature(pattern_obj, matches):
    ordered = pattern_obj.positive_nodes()
    return sorted(
        tuple(id(match[node]) for node in ordered) for match in matches
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=seeds)
def test_builder_round_trips_through_text_syntax(seed):
    rng = random.Random(seed)
    builder = _random_builder(rng)
    if rng.random() < 0.5:
        builder.anchored()
    built = builder.build()
    text = format_pattern(built)
    reparsed = parse_pattern(text)
    # Structural identity: same fingerprint...
    assert format_pattern(reparsed) == text
    assert reparsed.anchored == built.anchored
    assert len(reparsed.nodes()) == len(built.nodes())
    # ...and the same match set on a random document.
    doc = random_tree(
        rng,
        RandomTreeConfig(max_nodes=30, max_children=4, max_depth=5, labels=_LABELS),
    )
    built_matches = find_matches(built, doc)
    reparsed_matches = find_matches(reparsed, doc)
    assert _match_signature(built, built_matches) == _match_signature(
        reparsed, reparsed_matches
    )
