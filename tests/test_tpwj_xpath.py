"""The native matcher cross-validated against ElementTree, an
independent engine, through the XPath subset it accepts."""

import random

import pytest

from repro.errors import QueryError
from repro.tpwj import find_matches, parse_pattern
from repro.trees import tree
from reference_xpath import root_images_via_elementtree, to_elementtree_xpath


class TestElementTreeSubset:
    @pytest.mark.parametrize(
        "pattern_text,expected",
        [
            ("A", ".//A"),
            ("/A", "./A"),
            ("A { B, C }", ".//A[B][C]"),
            ('A { B[="x"] }', ".//A[B='x']"),
            ('A[="v"]', ".//A[.='v']"),
        ],
    )
    def test_compilation(self, pattern_text, expected):
        assert to_elementtree_xpath(parse_pattern(pattern_text)) == expected

    @pytest.mark.parametrize(
        "pattern_text,reason",
        [
            ("A { B { C } }", "nest"),
            ("A { //B }", "descendant"),
            ("A { !B }", "negation"),
            ("A { * }", "wildcard"),
            ("A { B[$x], C[$x] }", "join"),
        ],
    )
    def test_out_of_subset_rejected(self, pattern_text, reason):
        with pytest.raises(QueryError, match=reason):
            to_elementtree_xpath(parse_pattern(pattern_text))


class TestCrossValidation:
    """The native matcher against ElementTree — two independent engines."""

    def root_image_count(self, pattern, doc):
        matches = find_matches(pattern, doc)
        return len({id(m[pattern.root]) for m in matches})

    @pytest.mark.parametrize(
        "pattern_text",
        ["B", "/A", 'B[="foo"]', "A { B, E }", 'A { B[="bar"] }', "E"],
    )
    def test_fixed_documents(self, pattern_text):
        doc = tree(
            "A",
            tree("B", "foo"),
            tree("B", "bar"),
            tree("E", tree("C", "foo")),
            tree("E"),
        )
        pattern = parse_pattern(pattern_text)
        assert self.root_image_count(pattern, doc) == root_images_via_elementtree(
            pattern, doc
        )

    def test_random_documents(self):
        from repro.trees import RandomTreeConfig, random_tree

        rng = random.Random(123)
        checked = 0
        while checked < 25:
            doc = random_tree(rng, RandomTreeConfig(max_nodes=40, min_nodes=10))
            # Draw a subset-compatible pattern: a label, optionally with
            # one or two child-label predicates from the document.
            node = rng.choice([n for n in doc.iter()])
            pattern_text = node.label
            children = [c for c in node.children]
            if children and rng.random() < 0.7:
                picks = rng.sample(children, min(len(children), rng.randint(1, 2)))
                parts = []
                for pick in picks:
                    if pick.value is not None and rng.random() < 0.5:
                        parts.append(f'{pick.label}[="{pick.value}"]')
                    else:
                        parts.append(pick.label)
                pattern_text += " { " + ", ".join(parts) + " }"
            pattern = parse_pattern(pattern_text)
            assert self.root_image_count(
                pattern, doc
            ) == root_images_via_elementtree(pattern, doc), pattern_text
            checked += 1
