"""Shared fixtures: the paper's worked examples and random-instance helpers."""

from __future__ import annotations

import random

import pytest

from repro import Condition, EventTable, FuzzyNode, FuzzyTree


def pytest_configure(config):
    # The concurrency stress tests mark themselves with @timeout so a
    # deadlock fails fast on CI (where pytest-timeout is installed)
    # instead of hanging the runner.  Locally the plugin may be absent;
    # register the marker so the tests still run (without enforcement)
    # rather than warn.
    if not config.pluginmanager.hasplugin("timeout"):
        config.addinivalue_line(
            "markers",
            "timeout(seconds): fail the test after this many seconds "
            "(enforced by pytest-timeout when installed)",
        )


@pytest.fixture
def slide12_doc() -> FuzzyTree:
    """The fuzzy tree of slide 12: A { B[w1,¬w2], C { D[w2] } }, w1=0.8 w2=0.7.

    Its possible worlds are A(C)=0.06, A(C(D))=0.70, A(B,C)=0.24.
    """
    events = EventTable({"w1": 0.8, "w2": 0.7})
    root = FuzzyNode(
        "A",
        children=[
            FuzzyNode("B", condition=Condition.of("w1", "!w2")),
            FuzzyNode("C", children=[FuzzyNode("D", condition=Condition.of("w2"))]),
        ],
    )
    return FuzzyTree(root, events)


@pytest.fixture
def slide15_doc() -> FuzzyTree:
    """The fuzzy tree of slide 15 before the update: A { B[w1], C[w2] }."""
    events = EventTable({"w1": 0.8, "w2": 0.7})
    root = FuzzyNode(
        "A",
        children=[
            FuzzyNode("B", condition=Condition.of("w1")),
            FuzzyNode("C", condition=Condition.of("w2")),
        ],
    )
    return FuzzyTree(root, events)


#: Depth of the ``chain`` fixture: three times the interpreter's default
#: recursion limit, so any recursion over document nodes fails on it.
CHAIN_DEPTH = 3000


@pytest.fixture
def chain():
    """R/A/…/A/B, ``CHAIN_DEPTH`` levels, the second-to-last A
    conditioned on ``w`` (0.5): ``(document, the B leaf)``."""
    root = node = FuzzyNode("R")
    for _ in range(CHAIN_DEPTH - 3):
        node = node.add_child(FuzzyNode("A"))
    node = node.add_child(FuzzyNode("A", condition=Condition.of("w")))
    leaf = node.add_child(FuzzyNode("B"))
    return FuzzyTree(root, EventTable({"w": 0.5})), leaf


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for seed-driven tests."""
    return random.Random(20060328)  # the paper's presentation date
