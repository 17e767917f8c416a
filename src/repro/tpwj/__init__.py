"""Tree-Pattern-With-Join queries — substrate S4 (paper, slide 6).

* :class:`Pattern` / :class:`PatternNode` — the query AST;
* :func:`parse_pattern` / :func:`format_pattern` — text syntax;
* :func:`find_matches` with :class:`MatchConfig` — the matcher's entry
  point (enumeration runs in :mod:`repro.engine.executor`);
* :func:`answer_tree` / :func:`distinct_answers` — minimal-subtree
  answers.
"""

from repro.tpwj.match import (
    DEFAULT_CONFIG,
    Match,
    MatchConfig,
    find_embeddings,
    find_matches,
)
from repro.tpwj.parser import format_pattern, parse_pattern
from repro.tpwj.pattern import Pattern, PatternNode
from repro.tpwj.result import answer_tree, distinct_answers
from repro.tpwj.xpath import (
    root_images_via_elementtree,
    to_elementtree_xpath,
    to_xpath,
)

__all__ = [
    "Pattern",
    "PatternNode",
    "parse_pattern",
    "format_pattern",
    "find_matches",
    "find_embeddings",
    "Match",
    "MatchConfig",
    "DEFAULT_CONFIG",
    "answer_tree",
    "distinct_answers",
    "to_xpath",
    "to_elementtree_xpath",
    "root_images_via_elementtree",
]
