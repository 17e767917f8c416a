"""Seeded inputs for the four E19 workloads.

The *shape* of every document (node count, labels, which node carries
which condition) comes from ``STRUCTURE_SEED``, a constant: twig cost
on a random tree moves ±15 % from one shape to the next, which would
drown the 10 % bounds the benchmark gates on.  ``--seed`` drives
everything else — event probabilities, update confidences and values,
which slot and which document each update lands on, and how queries
and updates interleave.  Seeded numbers are drawn with a fixed printed
width, so byte counts do not depend on the seed either.

The program under test only ever sees the generated inputs; nothing
here is read by ``src/``.
"""

from __future__ import annotations

import random
from collections import Counter

import repro
from repro.api.builders import compile_transaction
from repro.core.fuzzy_tree import FuzzyNode, FuzzyTree
from repro.core.update import apply_update
from repro.events.table import EventTable
from repro.trees.random import RandomTreeConfig
from repro.workloads import FuzzyWorkloadConfig, random_fuzzy_tree

STRUCTURE_SEED = 19
SLOTS = 8
LIMIT = 10

#: Operations per round (queries, updates).  Counts are fixed so the
#: exact-count metrics repeat; a round is about a second of work on
#: the reference machine.
ROUND_SHAPE = {
    "embedded_match": (270, 30),
    "embedded_probability": (45, 5),
    "http_point": (360, 40),
    "cluster_mixed": (100, 100),
}

DIRECTORY_PERSONS = 60
DIRECTORY_EMAILS = 6
DIRECTORY_HOT = 6
DIRECTORY_QUERY = "//person { name [$n], email [$e] }"


class Op:
    """One operation of the closed loop.  *request* is whatever the
    workload's entry point takes, prepared outside the timed window."""

    __slots__ = ("is_update", "key", "pattern", "transaction", "request")

    def __init__(self, key, pattern=None, transaction=None) -> None:
        self.is_update = transaction is not None
        self.key = key
        self.pattern = pattern
        self.transaction = transaction
        self.request = None


def fixed3(rng: random.Random, low: int = 1, high: int = 8) -> float:
    """A probability in (0, 1) that always prints as five characters."""
    return float(f"0.{rng.randint(low, high)}{rng.randint(0, 9)}{rng.randint(1, 9)}")


def tree_document(n_nodes: int, shape: int, rng: random.Random) -> FuzzyTree:
    """A random fuzzy tree of fixed shape with seeded event
    probabilities and ``SLOTS`` uniquely identified anchors under the root
    (an update addresses exactly one of them)."""
    base = random_fuzzy_tree(
        random.Random(STRUCTURE_SEED * 1000 + shape),
        FuzzyWorkloadConfig(
            tree=RandomTreeConfig(
                max_nodes=n_nodes, min_nodes=int(n_nodes * 0.9), max_depth=10
            ),
            n_events=6,
        ),
    )
    events = EventTable({name: fixed3(rng) for name in base.events.names()})
    events.advance_fresh_counter(base.events.fresh_counter)
    for i in range(SLOTS):
        slot = FuzzyNode("slot")
        slot.add_child(FuzzyNode("id", value=f"s{i}"))
        base.root.add_child(slot)
    return FuzzyTree(base.root, events)


def common_labels(document: FuzzyTree) -> list[str]:
    counts = Counter(
        node.label
        for node in document.root.iter()
        if node.label not in ("slot", "id")
    )
    return [label for label, _ in sorted(counts.items(), key=lambda e: (-e[1], e[0]))]


def slot_insert(rng: random.Random, serial: int):
    """Insert one confidence-tagged note under a seeded slot."""
    return compile_transaction(
        repro.update(
            repro.pattern("slot", variable="s").child(
                "id", value=f"s{rng.randrange(SLOTS)}"
            )
        )
        .insert("s", repro.tree("note", f"n{serial:05d}"))
        .confidence(fixed3(rng, 5, 9))
    )


def directory_document(rng: random.Random, persons: int, emails: int, hot: int):
    """An E18-style directory grown by updates: few near-certain
    persons, a long low-confidence tail, every person with every email."""
    document = FuzzyTree(FuzzyNode("directory"), EventTable())
    for i in range(persons):
        confidence = fixed3(rng, 9, 9) if i < hot else fixed3(rng, 0, 0)
        apply_update(document, person_insert(f"p{i:04d}", confidence))
    for j in range(emails):
        apply_update(
            document,
            compile_transaction(
                repro.update(repro.pattern("person", variable="p"))
                .insert("p", repro.tree("email", f"m{j}@example.org"))
                .confidence(fixed3(rng, 4, 7))
            ),
        )
    return document


def person_insert(name: str, confidence: float):
    return compile_transaction(
        repro.update(repro.pattern("directory", variable="d", anchored=True))
        .insert("d", repro.tree("person", repro.tree("name", name)))
        .confidence(confidence)
    )


def make_documents(workload: str, seed: int):
    """``(documents, queries)``: the store's initial content by key and
    the distinct ``(key, pattern)`` queries the op stream draws from
    (key ``None`` fans out over every document).  Building these is
    part of ``setup_s``."""
    rng = random.Random(f"e19:{workload}:{seed}:documents")
    if workload == "embedded_match":
        document = tree_document(1200, 0, rng)
        a, b, c, d = common_labels(document)[:4]
        patterns = (
            f"//{a} {{ {b} }}",
            f"//{c} {{ //{d} }}",
            f"//{c} [$a] {{ //{a} [$b] }}",
        )
        return {"doc": document}, [("doc", p) for p in patterns]
    if workload == "embedded_probability":
        document = directory_document(
            rng, DIRECTORY_PERSONS, DIRECTORY_EMAILS, DIRECTORY_HOT
        )
        return {"doc": document}, [("doc", DIRECTORY_QUERY)]
    documents = {f"doc{i}": tree_document(300, 1 + i, rng) for i in range(8)}
    if workload == "http_point":
        return documents, [
            (key, f"//{common_labels(document)[0]}")
            for key, document in documents.items()
        ]
    return documents, [(None, f"//{common_labels(documents['doc0'])[0]}")]


class OpStream:
    """The seeded op stream of one run: rounds of the fixed mix of
    ``ROUND_SHAPE`` in a seeded order, queries cycling over *queries*
    and updates over the document keys.  The same (workload, seed)
    gives the same stream however it is cut into calls."""

    def __init__(self, workload: str, seed: int, documents, queries, divisor=1) -> None:
        self._workload = workload
        self._shape = tuple(max(1, n // divisor) for n in ROUND_SHAPE[workload])
        self._rng = random.Random(f"e19:{workload}:{seed}:ops")
        self._keys = sorted(documents)
        self._queries = queries
        self._serial = 0

    def _update(self, i: int) -> Op:
        self._serial += 1
        n = self._serial
        if self._workload == "embedded_probability":
            # No email: the new person is scanned but adds no answer,
            # so the query's cost creeps (+1 %/round) instead of doubling.
            transaction = person_insert(f"q{n:04d}", fixed3(self._rng, 1, 8))
        else:
            transaction = slot_insert(self._rng, n)
        return Op(self._keys[i % len(self._keys)], transaction=transaction)

    def updates(self, count: int) -> list[Op]:
        return [self._update(i) for i in range(count)]

    def round(self) -> list[Op]:
        n_queries, n_updates = self._shape
        queries = self._queries
        ops = [Op(*queries[i % len(queries)]) for i in range(n_queries)]
        ops += self.updates(n_updates)
        self._rng.shuffle(ops)
        return ops
