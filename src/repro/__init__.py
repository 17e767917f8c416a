"""repro — a reproduction of Abiteboul & Senellart, *Querying and
Updating Probabilistic Information in XML* (EDBT 2006).

The library implements the paper end to end:

* **fuzzy trees** (:mod:`repro.core`) — unordered data trees whose
  nodes carry conjunctive event conditions, with an event table;
* the **possible-worlds model** (:mod:`repro.pworlds`) — the semantic
  foundation, used as ground truth;
* **TPWJ queries** (:mod:`repro.tpwj`) — tree patterns with value
  joins, evaluated both on worlds and directly on fuzzy trees;
* **probabilistic updates** (:mod:`repro.updates`, applied via
  :func:`repro.core.update.apply_update`) — insert/delete transactions
  with a confidence;
* an **XML dialect** (:mod:`repro.xmlio`) and a filesystem
  **warehouse** (:mod:`repro.warehouse`) matching the paper's system
  architecture;
* **workload generators** (:mod:`repro.workloads`) simulating the
  imprecise modules of the paper's introduction.

Quickstart — the session API is the public surface::

    import repro

    with repro.connect("people-wh", create=True, root="directory") as session:
        session.update(
            repro.update(repro.pattern("directory", variable="d", anchored=True))
            .insert("d", repro.tree("person", repro.tree("name", "Alice")))
            .confidence(0.9)
        )
        for row in session.query("//person { name }").limit(5):
            print(row.probability, row.tree.canonical())

The model layer (fuzzy trees, possible worlds, the event algebra) stays
importable from its subpackages for direct experimentation; the 1.x
module-level conveniences (``repro.parse_pattern``,
``repro.query_fuzzy_tree``, ``repro.apply_update``) were removed in
2.0 — see the README's migration table.
"""

from repro.api import (
    PatternBuilder,
    QueryOptions,
    QueryOptionsError,
    ResultSet,
    Row,
    Session,
    Snapshot,
    UpdateBuilder,
    connect,
    pattern,
    update,
)
from repro.core import (
    ALL_RULES,
    AnswerEstimate,
    FuzzyAnswer,
    FuzzyNode,
    FuzzyTree,
    SimplifyReport,
    UpdateReport,
    estimate_query,
    from_possible_worlds,
    iter_query_rows,
    simplify,
    to_possible_worlds,
)
from repro.engine import Plan, QueryEngine
from repro.errors import (
    EventError,
    InconsistentConditionError,
    InvalidProbabilityError,
    PatternSyntaxError,
    QueryCancelledError,
    QueryError,
    QueryParseError,
    ReproError,
    SessionClosedError,
    TreeError,
    UnknownEventError,
    UpdateError,
    WarehouseCorruptError,
    WarehouseError,
    XMLFormatError,
)
from repro.events import (
    TRUE,
    Condition,
    Dnf,
    EventTable,
    Literal,
    dnf_probability,
)
from repro.obs import (
    MetricsRegistry,
    Observability,
    SlowQueryLog,
    Tracer,
    default_observability,
    render_json,
    render_prometheus,
)
from repro.pworlds import (
    PossibleWorlds,
    World,
    query_possible_worlds,
    update_possible_worlds,
)
from repro.serve import (
    Collection,
    ProcessCollection,
    SessionPool,
    connect_collection,
)
from repro.tpwj import (
    Match,
    MatchConfig,
    Pattern,
    PatternNode,
    find_matches,
    format_pattern,
)
from repro.trees import Node, tree
from repro.updates import (
    DeleteOperation,
    InsertOperation,
    TransactionBatch,
    UpdateTransaction,
    apply_deterministic,
)

__version__ = "2.0.0"

__all__ = [
    "__version__",
    # session API
    "connect",
    "Session",
    "Snapshot",
    "QueryOptions",
    "QueryOptionsError",
    "ResultSet",
    "Row",
    "PatternBuilder",
    "UpdateBuilder",
    "pattern",
    "update",
    # serving layer (collections)
    "connect_collection",
    "Collection",
    "ProcessCollection",
    "SessionPool",
    # errors
    "ReproError",
    "TreeError",
    "EventError",
    "UnknownEventError",
    "InvalidProbabilityError",
    "InconsistentConditionError",
    "QueryError",
    "PatternSyntaxError",
    "QueryCancelledError",
    "QueryParseError",
    "UpdateError",
    "XMLFormatError",
    "WarehouseError",
    "WarehouseCorruptError",
    "SessionClosedError",
    # trees
    "Node",
    "tree",
    # events
    "Literal",
    "Condition",
    "TRUE",
    "EventTable",
    "Dnf",
    "dnf_probability",
    # possible worlds
    "PossibleWorlds",
    "World",
    "query_possible_worlds",
    "update_possible_worlds",
    # queries (model-level helpers live at their defining modules:
    # repro.tpwj.parser.parse_pattern, repro.core.query.query_fuzzy_tree,
    # repro.core.update.apply_update)
    "Pattern",
    "PatternNode",
    "format_pattern",
    "find_matches",
    "Match",
    "MatchConfig",
    # updates
    "InsertOperation",
    "DeleteOperation",
    "UpdateTransaction",
    "TransactionBatch",
    "apply_deterministic",
    # core
    "FuzzyNode",
    "FuzzyTree",
    "to_possible_worlds",
    "from_possible_worlds",
    "FuzzyAnswer",
    "iter_query_rows",
    "UpdateReport",
    "SimplifyReport",
    "simplify",
    "ALL_RULES",
    "AnswerEstimate",
    "estimate_query",
    # engine (its internals live at repro.engine)
    "QueryEngine",
    "Plan",
    # observability
    "Observability",
    "MetricsRegistry",
    "Tracer",
    "SlowQueryLog",
    "default_observability",
    "render_prometheus",
    "render_json",
]
