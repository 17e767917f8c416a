"""Unordered data trees — substrate S1 (paper, slide 5).

Public surface:

* :class:`Node` — the tree building block (a tree is its root node);
* :func:`tree` — concise literals;
* algorithms: :func:`minimal_subtree`, :func:`restrict`,
  :func:`node_path`, :func:`node_at_path`;
* :func:`random_tree` with :class:`RandomTreeConfig` for seeded generation.
"""

from repro.trees.algorithms import (
    minimal_subtree,
    node_at_path,
    node_path,
    restrict,
)
from repro.trees.builder import tree
from repro.trees.node import Node
from repro.trees.random import RandomTreeConfig, random_tree

__all__ = [
    "Node",
    "tree",
    "minimal_subtree",
    "restrict",
    "node_path",
    "node_at_path",
    "RandomTreeConfig",
    "random_tree",
]
