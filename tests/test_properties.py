"""Property-based tests (hypothesis) for the model's core invariants.

These are the load-bearing tests of the reproduction: the paper's two
commuting diagrams (slides 13 and 14), the expressiveness theorem
(slide 12), semantics preservation of simplification (slide 19), and
the algebraic invariants of the substrates (canonical forms, DNF
probability, disjoint complements).
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Condition,
    EventTable,
    from_possible_worlds,
    query_possible_worlds,
    simplify,
    to_possible_worlds,
    update_possible_worlds,
)
from repro.core.update import apply_update
from repro.core.query import query_fuzzy_tree
from repro.events import (
    assignment_weight,
    complement_as_disjoint_conditions,
    dnf_probability,
    enumerate_assignments,
)
from repro.trees import Node, RandomTreeConfig, random_tree
from repro.workloads import (
    FuzzyWorkloadConfig,
    random_fuzzy_tree,
    random_query_for,
    random_update_for,
)

# All instance generation is routed through the library's seeded
# generators; hypothesis supplies the seeds.  This keeps shrinking
# meaningful (a seed shrinks towards 0) while reusing generators that
# respect every model invariant.
seeds = st.integers(min_value=0, max_value=2**32 - 1)

SMALL_DOCS = FuzzyWorkloadConfig(
    tree=RandomTreeConfig(max_nodes=14, max_children=3, max_depth=4),
    n_events=3,
)

relaxed = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Trees
# ----------------------------------------------------------------------


def shuffled_copy(node: Node, rng: random.Random) -> Node:
    """A copy of *node* with every child list randomly permuted."""
    fresh = Node(node.label, node.value)
    children = list(node.children)
    rng.shuffle(children)
    for child in children:
        fresh.add_child(shuffled_copy(child, rng))
    return fresh


@relaxed
@given(seeds, seeds)
def test_canonical_invariant_under_sibling_permutation(seed, shuffle_seed):
    doc = random_tree(random.Random(seed), RandomTreeConfig(max_nodes=25))
    permuted = shuffled_copy(doc, random.Random(shuffle_seed))
    assert doc.canonical() == permuted.canonical()


@relaxed
@given(seeds)
def test_clone_preserves_canonical_and_size(seed):
    doc = random_tree(random.Random(seed), RandomTreeConfig(max_nodes=25))
    copy = doc.clone()
    assert copy.canonical() == doc.canonical()
    assert copy.size() == doc.size()


# ----------------------------------------------------------------------
# Event algebra
# ----------------------------------------------------------------------


def random_terms(rng: random.Random, n_events: int = 4):
    names = [f"e{i}" for i in range(n_events)]
    table = EventTable({n: rng.uniform(0.05, 0.95) for n in names})
    terms = []
    for _ in range(rng.randint(1, 4)):
        chosen = rng.sample(names, rng.randint(1, 3))
        terms.append(
            Condition.of(*(n if rng.random() < 0.5 else f"!{n}" for n in chosen))
        )
    return table, names, terms


@relaxed
@given(seeds)
def test_dnf_probability_matches_enumeration(seed):
    table, names, terms = random_terms(random.Random(seed))
    brute = sum(
        assignment_weight(a, table)
        for a in enumerate_assignments(names)
        if any(t.satisfied_by(a) for t in terms)
    )
    assert abs(dnf_probability(terms, table) - brute) < 1e-9


@relaxed
@given(seeds)
def test_complement_pieces_partition_the_complement(seed):
    _table, names, terms = random_terms(random.Random(seed))
    pieces = complement_as_disjoint_conditions(terms)
    for assignment in enumerate_assignments(names):
        in_disjunction = any(t.satisfied_by(assignment) for t in terms)
        holding = sum(1 for p in pieces if p.satisfied_by(assignment))
        assert holding == (0 if in_disjunction else 1)


# ----------------------------------------------------------------------
# Slide 12: expressiveness (fuzzy <-> possible worlds round-trip)
# ----------------------------------------------------------------------


@relaxed
@given(seeds)
def test_fuzzy_to_worlds_is_a_distribution(seed):
    doc = random_fuzzy_tree(random.Random(seed), SMALL_DOCS)
    to_possible_worlds(doc).check_distribution(1e-9)


@relaxed
@given(seeds)
def test_expressiveness_roundtrip(seed):
    doc = random_fuzzy_tree(random.Random(seed), SMALL_DOCS)
    worlds = to_possible_worlds(doc)
    rebuilt = from_possible_worlds(worlds)
    assert to_possible_worlds(rebuilt).same_distribution(worlds, 1e-9)


# ----------------------------------------------------------------------
# Slide 13: query commutation
# ----------------------------------------------------------------------


@relaxed
@given(seeds)
def test_query_commutes_with_semantics(seed):
    rng = random.Random(seed)
    doc = random_fuzzy_tree(rng, SMALL_DOCS)
    pattern = random_query_for(rng, doc.root)
    via_fuzzy = {
        a.tree.canonical(): a.probability for a in query_fuzzy_tree(doc, pattern)
    }
    via_worlds = {
        w.tree.canonical(): w.probability
        for w in query_possible_worlds(to_possible_worlds(doc), pattern)
    }
    assert set(via_fuzzy) == set(via_worlds)
    for key, probability in via_worlds.items():
        assert abs(via_fuzzy[key] - probability) < 1e-9


# ----------------------------------------------------------------------
# Slide 14: update commutation
# ----------------------------------------------------------------------


@relaxed
@given(seeds)
def test_update_commutes_with_semantics(seed):
    rng = random.Random(seed)
    doc = random_fuzzy_tree(rng, SMALL_DOCS)
    tx = random_update_for(rng, doc)
    truth = update_possible_worlds(to_possible_worlds(doc), tx)
    apply_update(doc, tx)
    assert to_possible_worlds(doc).same_distribution(truth, 1e-9)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seeds)
def test_update_chains_commute(seed):
    rng = random.Random(seed)
    doc = random_fuzzy_tree(
        rng,
        FuzzyWorkloadConfig(
            tree=RandomTreeConfig(max_nodes=10, max_children=3, max_depth=3),
            n_events=2,
        ),
    )
    worlds = to_possible_worlds(doc)
    for _step in range(3):
        tx = random_update_for(rng, doc)
        worlds = update_possible_worlds(worlds, tx)
        apply_update(doc, tx)
    assert to_possible_worlds(doc).same_distribution(worlds, 1e-9)


# ----------------------------------------------------------------------
# Slide 19: simplification preserves semantics
# ----------------------------------------------------------------------


@relaxed
@given(seeds)
def test_simplify_preserves_semantics(seed):
    rng = random.Random(seed)
    doc = random_fuzzy_tree(rng, SMALL_DOCS)
    for _step in range(2):
        apply_update(doc, random_update_for(rng, doc))
    before = to_possible_worlds(doc)
    report = simplify(doc)
    assert to_possible_worlds(doc).same_distribution(before, 1e-9)
    assert report.nodes_after <= report.nodes_before
    doc.validate()


@relaxed
@given(seeds)
def test_simplify_is_idempotent_on_sizes(seed):
    rng = random.Random(seed)
    doc = random_fuzzy_tree(rng, SMALL_DOCS)
    apply_update(doc, random_update_for(rng, doc))
    simplify(doc)
    size_after_first = doc.size()
    literals_after_first = doc.condition_literal_count()
    simplify(doc)
    assert doc.size() == size_after_first
    assert doc.condition_literal_count() == literals_after_first


# ----------------------------------------------------------------------
# XML round-trips
# ----------------------------------------------------------------------


@relaxed
@given(seeds)
def test_xml_roundtrip_preserves_document(seed):
    from repro.xmlio import fuzzy_from_string, fuzzy_to_string

    doc = random_fuzzy_tree(random.Random(seed), SMALL_DOCS)
    parsed = fuzzy_from_string(fuzzy_to_string(doc))
    assert parsed.root.canonical() == doc.root.canonical()
    assert parsed.events == doc.events


# ----------------------------------------------------------------------
# Negation extension (slide 19)
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seeds)
def test_negated_query_commutes_with_semantics(seed):
    from repro.tpwj.pattern import PatternNode

    rng = random.Random(seed)
    doc = random_fuzzy_tree(rng, SMALL_DOCS)
    pattern = random_query_for(rng, doc.root, max_nodes=3, join_probability=0.0)
    if pattern.root.value is None:
        pattern.root.add_child(
            PatternNode(
                rng.choice(["A", "B", "C", "D", "E", "F"]),
                descendant=rng.random() < 0.5,
                negated=True,
            )
        )
    via_fuzzy = {
        a.tree.canonical(): a.probability for a in query_fuzzy_tree(doc, pattern)
    }
    via_worlds = {
        w.tree.canonical(): w.probability
        for w in query_possible_worlds(to_possible_worlds(doc), pattern)
    }
    assert set(via_fuzzy) == set(via_worlds)
    for key, probability in via_worlds.items():
        assert abs(via_fuzzy[key] - probability) < 1e-9


@relaxed
@given(seeds)
def test_xupdate_roundtrip_preserves_transaction(seed):
    from repro.xmlio import transaction_from_string, transaction_to_string

    rng = random.Random(seed)
    doc = random_fuzzy_tree(rng, SMALL_DOCS)
    tx = random_update_for(rng, doc)
    parsed = transaction_from_string(transaction_to_string(tx))
    assert str(parsed.query) == str(tx.query)
    assert parsed.confidence == tx.confidence
    assert len(parsed.operations) == len(tx.operations)
