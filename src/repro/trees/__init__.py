"""Unordered data trees — substrate S1 (paper, slide 5).

Public surface:

* :class:`Node` — the tree building block (a tree is its root node);
* :func:`tree` / :func:`from_spec` / :func:`to_spec` — concise literals;
* algorithms: :func:`minimal_subtree`, :func:`label_index`,
  :func:`find_all`, :func:`find_first`, :func:`lowest_common_ancestor`,
  :func:`multiset_equal`, :func:`node_path`, :func:`node_at_path`;
* :func:`random_tree` with :class:`RandomTreeConfig` for seeded generation.
"""

from repro.trees.algorithms import (
    find_all,
    find_first,
    label_counts,
    label_index,
    lowest_common_ancestor,
    minimal_subtree,
    multiset_equal,
    node_at_path,
    node_path,
    restrict,
    same_tree,
)
from repro.trees.builder import from_spec, to_spec, tree
from repro.trees.node import Node
from repro.trees.random import RandomTreeConfig, random_labels, random_tree

__all__ = [
    "Node",
    "tree",
    "from_spec",
    "to_spec",
    "minimal_subtree",
    "restrict",
    "label_counts",
    "label_index",
    "find_all",
    "find_first",
    "lowest_common_ancestor",
    "same_tree",
    "multiset_equal",
    "node_path",
    "node_at_path",
    "RandomTreeConfig",
    "random_tree",
    "random_labels",
]
