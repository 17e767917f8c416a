"""The recursive tree routines the library replaced, kept as references.

Every whole-subtree routine in ``repro`` now runs on the explicit-stack
primitives of ``repro.trees.algorithms``.  These are the bodies they
replaced, verbatim but for methods turned into functions (a call on a
child dispatches on the child's type, as the methods did).  They recurse
once per level, so the differential tests run them on shallow trees only.
"""

from __future__ import annotations

from xml.etree import ElementTree as ET

from repro.core.fuzzy_tree import FuzzyNode
from repro.core.simplify import SimplifyReport
from repro.events.condition import TRUE, Condition
from repro.pworlds.worlds import PossibleWorlds, World
from repro.trees.node import Node
from repro.updates.operations import InsertOperation
from repro.tpwj.parser import format_pattern
from repro.xmlio.serialize import NAMESPACE
from repro.xmlio.xupdate import XUPDATE_NAMESPACE

# ----------------------------------------------------------------------
# Node / FuzzyNode
# ----------------------------------------------------------------------


def clone(node):
    if isinstance(node, FuzzyNode):
        copy = FuzzyNode(node.label, node.value, node._condition)
        for child in node.children:
            copy.add_child(clone(child))
        return copy
    copy = Node(node.label, node._value)
    for child in node._children:
        copy.add_child(clone(child))
    return copy


def canonical(node) -> str:
    if isinstance(node, FuzzyNode):
        return _fuzzy_canonical(node)
    return _node_canonical(node)


def _node_canonical(self) -> str:
    encoded: dict[int, str] = {}
    order: list[Node] = []
    stack = [self]
    while stack:
        node = stack.pop()
        order.append(node)
        for child in node._children:
            if type(child) is Node:
                stack.append(child)
            else:
                encoded[id(child)] = canonical(child)
    # Reversed pre-order visits every node after its descendants.
    for node in reversed(order):
        own = node.label if node._value is None else f"{node.label}={node._value!r}"
        if node._children:
            parts = sorted([encoded.pop(id(child)) for child in node._children])
            own = f"{own}({','.join(parts)})"
        encoded[id(node)] = own
    return encoded[id(self)]


def _fuzzy_canonical(self) -> str:
    own = self.label if self.value is None else f"{self.label}={self.value!r}"
    condition = str(self._condition)
    if condition != "true":
        own = f"{own}[{condition}]"
    if self.is_leaf:
        return own
    parts = sorted(canonical(child) for child in self.children)
    return f"{own}({','.join(parts)})"


def height(self) -> int:
    if not self._children:
        return 0
    return 1 + max(height(child) for child in self._children)


def pretty(self, indent: str = "  ") -> str:
    lines: list[str] = []
    fuzzy = isinstance(self, FuzzyNode)

    def visit(node, level: int) -> None:
        suffix = f" = {node.value!r}" if node.value is not None else ""
        if fuzzy and not node.condition.is_true:
            suffix += f"  [{node.condition.pretty()}]"
        lines.append(f"{indent * level}{node.label}{suffix}")
        for child in node.children:
            visit(child, level + 1)

    visit(self, 0)
    return "\n".join(lines)


def from_plain(node: Node, condition: Condition = TRUE) -> FuzzyNode:
    root = FuzzyNode(node.label, node.value, condition)
    for child in node.children:
        root.add_child(from_plain(child))
    return root


# ----------------------------------------------------------------------
# Worlds: FuzzyTree.world and core.semantics.to_possible_worlds
# ----------------------------------------------------------------------


def world(fuzzy, assignment) -> Node:
    def copy(node: FuzzyNode) -> Node:
        fresh = Node(node.label, node.value)
        for child in node.children:
            assert isinstance(child, FuzzyNode)
            if child.condition.satisfied_by(assignment):
                fresh.add_child(copy(child))
        return fresh

    return copy(fuzzy.root)


def to_possible_worlds(fuzzy) -> PossibleWorlds:
    conditioned = [
        node for node in fuzzy.iter_nodes() if not node.condition.is_true
    ]
    leaves: list[tuple[tuple[Condition | None, ...], float]] = []

    def solve(states: tuple[Condition | None, ...], weight: float) -> None:
        counts: dict[str, int] = {}
        for condition in states:
            if condition is not None and not condition.is_true:
                for event in condition.events():
                    counts[event] = counts.get(event, 0) + 1
        if not counts:
            leaves.append((states, weight))
            return
        event = max(sorted(counts), key=lambda name: counts[name])
        probability = fuzzy.events.probability(event)
        for truth, branch_weight in ((True, probability), (False, 1.0 - probability)):
            if branch_weight == 0.0:
                continue
            restricted = tuple(
                None if condition is None else condition.restrict(event, truth)
                for condition in states
            )
            solve(restricted, weight * branch_weight)

    solve(tuple(node.condition for node in conditioned), 1.0)

    worlds: list[World] = []
    for states, weight in leaves:
        keep = {
            id(node)
            for node, condition in zip(conditioned, states)
            if condition is not None
        }
        worlds.append(World(world_from_keep(fuzzy.root, keep), weight))
    return PossibleWorlds(worlds)


def world_from_keep(root: FuzzyNode, keep: set[int]) -> Node:
    def copy(node: FuzzyNode) -> Node:
        fresh = Node(node.label, node.value)
        for child in node.children:
            assert isinstance(child, FuzzyNode)
            if child.condition.is_true or id(child) in keep:
                fresh.add_child(copy(child))
        return fresh

    return copy(root)


# ----------------------------------------------------------------------
# Simplification: the four rewriting rules and their round loop
# ----------------------------------------------------------------------


def simplify(fuzzy, rules) -> SimplifyReport:
    """``repro.core.simplify.simplify`` without the ``gc`` rule."""
    report = SimplifyReport()
    report.nodes_before = fuzzy.size()
    report.literals_before = fuzzy.condition_literal_count()
    changed = True
    while changed and report.rounds < 100:
        changed = False
        report.rounds += 1
        if "certain" in rules:
            changed |= _resolve_certain(fuzzy, report) > 0
        if "impossible" in rules:
            changed |= _remove_impossible(fuzzy, report) > 0
        if "implied" in rules:
            changed |= _drop_implied(fuzzy, report) > 0
        if "siblings" in rules:
            changed |= _merge_siblings(fuzzy, report) > 0
    report.nodes_after = fuzzy.size()
    report.literals_after = fuzzy.condition_literal_count()
    return report


def _resolve_certain(fuzzy, report: SimplifyReport) -> int:
    certain: dict[str, bool] = {}
    for name, probability in fuzzy.events.items():
        if probability == 1.0:
            certain[name] = True
        elif probability == 0.0:
            certain[name] = False
    if not certain:
        return 0

    work = 0
    for node in list(fuzzy.iter_nodes()):
        if node.parent is None and node is not fuzzy.root:
            continue  # already detached in this pass
        if node.root() is not fuzzy.root:
            continue
        doomed = False
        dropped: list = []
        for literal in node.condition.literals:
            truth = certain.get(literal.event)
            if truth is None:
                continue
            if truth == literal.positive:
                dropped.append(literal)  # literal always true: redundant
            else:
                doomed = True  # literal always false: node impossible
                break
        if doomed:
            node.detach()
            report.removed_certain += node.size()
            work += 1
        elif dropped:
            node.condition = node.condition.without_literals(dropped)
            report.dropped_literals += len(dropped)
            work += 1
    return work


def _remove_impossible(fuzzy, report: SimplifyReport) -> int:
    work = 0

    def visit(node: FuzzyNode, accumulated: frozenset) -> None:
        nonlocal work
        literals = accumulated | node.condition.literals
        combined = Condition(literals, allow_inconsistent=True)
        if not combined.is_consistent:
            report.removed_impossible += node.size()
            node.detach()
            work += 1
            return
        for child in list(node.children):
            assert isinstance(child, FuzzyNode)
            visit(child, frozenset(literals))

    visit(fuzzy.root, frozenset())
    return work


def _drop_implied(fuzzy, report: SimplifyReport) -> int:
    work = 0

    def visit(node: FuzzyNode, inherited: frozenset) -> None:
        nonlocal work
        redundant = node.condition.literals & inherited
        if redundant:
            node.condition = node.condition.without_literals(redundant)
            report.dropped_literals += len(redundant)
            work += 1
        for child in list(node.children):
            assert isinstance(child, FuzzyNode)
            visit(child, inherited | node.condition.literals)

    visit(fuzzy.root, frozenset())
    return work


def subtree_key(node: FuzzyNode) -> str:
    """Canonical form of a subtree *excluding* the root's own condition."""
    own = node.label if node.value is None else f"{node.label}={node.value!r}"
    if node.is_leaf:
        return own
    parts = sorted(canonical(child) for child in node.children)
    return f"{own}({','.join(parts)})"


def _merge_siblings(fuzzy, report: SimplifyReport) -> int:
    work = 0
    for node in list(fuzzy.iter_nodes()):
        if node.root() is not fuzzy.root:
            continue
        merged_here = True
        while merged_here:
            merged_here = False
            children = [c for c in node.children if isinstance(c, FuzzyNode)]
            groups: dict[str, list[FuzzyNode]] = {}
            for child in children:
                groups.setdefault(subtree_key(child), []).append(child)
            for group in groups.values():
                if len(group) < 2:
                    continue
                pair = _find_complementary_pair(group)
                if pair is None:
                    continue
                first, second, merged_condition = pair
                first.condition = merged_condition
                second.detach()
                report.merged_siblings += 1
                work += 1
                merged_here = True
                break
    return work


def _find_complementary_pair(group):
    for i, first in enumerate(group):
        for second in group[i + 1 :]:
            difference = first.condition.literals ^ second.condition.literals
            if len(difference) != 2:
                continue
            a, b = sorted(difference, key=lambda lit: lit.positive)
            if a.event == b.event and a.positive != b.positive:
                shared = first.condition.literals & second.condition.literals
                return first, second, Condition(shared)
    return None


# ----------------------------------------------------------------------
# XML: the ElementTree builders, written out by ET.indent + ET.tostring
# ----------------------------------------------------------------------

_COND = f"{{{NAMESPACE}}}cond"


def node_to_element(node: Node) -> ET.Element:
    element = ET.Element(node.label)
    if isinstance(node, FuzzyNode) and not node.condition.is_true:
        element.set(_COND, str(node.condition))
    if node.value is not None:
        element.text = node.value
    for child in node.children:
        element.append(node_to_element(child))
    return element


def fuzzy_to_element(fuzzy) -> ET.Element:
    document = ET.Element(f"{{{NAMESPACE}}}document")
    events = ET.SubElement(document, f"{{{NAMESPACE}}}events")
    for name, probability in fuzzy.events.items():
        ET.SubElement(
            events, f"{{{NAMESPACE}}}event", {"name": name, "prob": repr(probability)}
        )
    document.append(node_to_element(fuzzy.root))
    return document


def transaction_to_element(transaction) -> ET.Element:
    element = ET.Element(
        f"{{{XUPDATE_NAMESPACE}}}modifications",
        {
            "query": format_pattern(transaction.query),
            "confidence": repr(transaction.confidence),
        },
    )
    for op in transaction.operations:
        if isinstance(op, InsertOperation):
            insert = ET.SubElement(
                element, f"{{{XUPDATE_NAMESPACE}}}insert", {"anchor": op.anchor}
            )
            insert.append(node_to_element(op.subtree))
        else:
            ET.SubElement(element, f"{{{XUPDATE_NAMESPACE}}}delete", {"target": op.target})
    return element


def batch_to_element(batch) -> ET.Element:
    element = ET.Element(f"{{{XUPDATE_NAMESPACE}}}batch")
    for transaction in batch:
        element.append(transaction_to_element(transaction))
    return element


def to_string(element: ET.Element, indent: bool) -> str:
    if indent:
        ET.indent(element)
    return ET.tostring(element, encoding="unicode")
