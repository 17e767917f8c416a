"""A document three times deeper than the recursion limit, through every
surface: build, snapshot, update, query, simplify, compact, reopen from
either image, the possible-worlds oracle, HTTP and a replicated cluster.

No routine bounds document depth: each whole-subtree walk keeps its own
stack (``repro.trees.algorithms``), so nothing here may raise
``RecursionError`` at the interpreter's default limit.
"""

from __future__ import annotations

import http.client
import json
import sys

import pytest

import repro
from repro.api.builders import compile_transaction
from repro.core.semantics import to_possible_worlds
from repro.core.update import apply_update
from repro.pworlds import update_possible_worlds
from repro.serve import ProcessCollection, connect_collection
from repro.serve.http import ServerThread
from repro.trees import Node


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def _deep_subtree(depth: int) -> Node:
    """N/…/N/M='bottom', *depth* levels."""
    root = node = Node("N")
    for _ in range(depth - 2):
        node = node.add_child(Node("N"))
    node.add_child(Node("M", "bottom"))
    return root


def _post_query(port: int, pattern: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/query", body=json.dumps({"pattern": pattern}))
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.mark.timeout(300)
def test_every_surface_at_three_times_the_recursion_limit(
    chain, tmp_path, default_recursion_limit
):
    doc, leaf = chain
    depth = leaf.depth() + 1
    assert depth == 3 * sys.getrecursionlimit()
    update = repro.update("/R[$r]").insert("r", _deep_subtree(depth)).confidence(0.5)
    answer = "R(" + "N(" * (depth - 1) + "M='bottom'" + ")" * depth
    path = tmp_path / "wh"

    # Create (XML and binary snapshot), update (WAL text), rows and
    # answers, then simplify and compact (both snapshot images again).
    with repro.connect(path, create=True, document=doc.clone()) as session:
        report = session.update(update)
        assert report.inserted_nodes == depth
        (row,) = session.query("//B")
        assert row.probability == pytest.approx(0.5)
        (found,) = session.query("//M").answers()
        assert found.probability == pytest.approx(0.5)
        assert found.tree.canonical() == answer
        session.simplify()
        session.compact()
        expected = session.document.root.canonical()
    assert expected.count("(") == 2 * depth - 2

    # Reopen from the binary image, then from the XML alone.
    with repro.connect(path) as session:
        assert session.document.root.canonical() == expected
    (path / "document.bin").unlink()
    with repro.connect(path) as session:
        assert session.document.root.canonical() == expected

    # The possible-worlds oracle agrees with the fuzzy update.
    transaction = compile_transaction(update)
    truth = update_possible_worlds(to_possible_worlds(doc), transaction)
    apply_update(doc, transaction)
    assert to_possible_worlds(doc).same_distribution(truth)

    # HTTP: the encoded row carries the whole answer tree.
    with ServerThread(path, port=0) as server:
        status, body = _post_query(server.port, "//M")
    assert status == 200
    assert [row["tree"] for row in body["rows"]] == [answer]

    # A replicated cluster: the document ships as XML to its primary,
    # resyncs (both images) to its replica, and rows come back as XML.
    collection = tmp_path / "collection"
    connect_collection(collection, create=True).close()
    with ProcessCollection(
        collection, shard_processes=2, replication_factor=2, observability=None
    ) as cluster:
        cluster.create_document("deep", document=doc)
        cluster.await_replication(60.0)
        assert len(cluster.replicas_of("deep")) == 2
        (row,) = cluster.query("//M", keys=["deep"])
        assert row.probability == pytest.approx(0.5)
        assert row.tree.canonical() == answer
