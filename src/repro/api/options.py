"""``QueryOptions`` — the one per-query knob surface every layer shares.

Before v2.0, each serving layer grew its own ad-hoc kwarg list
(``pattern, limit, timeout_ms, document, ...``): adding a per-query
knob meant four divergent signatures (Session, Collection, HTTP app,
cluster supervisor/worker).  :class:`QueryOptions` is the single frozen
description of a query's execution envelope, threaded *unchanged*
through every layer:

* in-process — ``session.query(options=...)`` or the fluent
  ``ResultSet`` refinements (``limit`` / ``order_by_probability`` /
  ``min_probability``), which are sugar over ``dataclasses.replace``;
* over HTTP — ``POST /query`` bodies validate through
  :meth:`QueryOptions.from_json`, which reports **every** invalid
  field in one structured 400 instead of failing on the first bad key;
* across the cluster wire — the supervisor ships
  :meth:`QueryOptions.to_json` inside the QUERY frame and the worker
  reconstructs the identical object, so per-shard execution follows
  the same semantics as a local query.

The dataclass is frozen and :meth:`to_json`/:meth:`from_json` round-trip
exactly (property-tested), which is what makes the cross-layer
byte-parity contract checkable: same options object, same rows, same
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import QueryError

__all__ = ["QueryOptions", "QueryOptionsError", "ORDERS", "PLANS"]

#: Row orderings: the engine's deterministic match order, or decreasing
#: probability (ties broken by that same match order).
ORDERS = ("document", "probability")
#: Plan selection: the planner, or the fixed pre-order plan
#: of the handle's ``MatchConfig`` (the E9 ablation baseline).
PLANS = ("auto", "fixed")

#: json key -> dataclass field for the wire form (everything else maps
#: by its own name).
_JSON_ALIASES = {"order_by": "order"}
_FIELD_TO_JSON = {"order": "order_by"}


class QueryOptionsError(QueryError):
    """One or more invalid query options, reported together.

    ``errors`` is a list of ``{"field", "message"}`` records — the HTTP
    layer embeds it verbatim in the 400 payload so a client fixing a
    request sees every problem at once, not one per round trip.
    """

    def __init__(self, errors: list[dict]) -> None:
        self.errors = list(errors)
        super().__init__(
            "; ".join(f"{e['field']}: {e['message']}" for e in self.errors)
            or "invalid query options"
        )


def _validate(opts: "QueryOptions") -> list[dict]:
    """Every field problem of *opts*, as ``{"field", "message"}`` records."""
    errors: list[dict] = []

    def bad(field: str, message: str) -> None:
        errors.append({"field": field, "message": message})

    if opts.pattern is not None and not isinstance(opts.pattern, str):
        bad("pattern", f"must be a string, got {opts.pattern!r}")
    limit = opts.limit
    if limit is not None and (
        isinstance(limit, bool) or not isinstance(limit, int) or limit < 0
    ):
        bad("limit", f"must be a non-negative integer, got {limit!r}")
    if opts.order not in ORDERS:
        bad("order_by", f"must be one of {ORDERS}, got {opts.order!r}")
    min_p = opts.min_probability
    if min_p is not None and (
        isinstance(min_p, bool)
        or not isinstance(min_p, (int, float))
        or not 0.0 <= min_p <= 1.0
    ):
        bad("min_probability", f"must be a number in [0, 1], got {min_p!r}")
    epsilon = opts.epsilon
    if epsilon is not None and (
        isinstance(epsilon, bool)
        or not isinstance(epsilon, (int, float))
        or not 0.0 < epsilon < 1.0
    ):
        bad("epsilon", f"must be a number in (0, 1), got {epsilon!r}")
    deadline = opts.deadline_ms
    if deadline is not None and (
        isinstance(deadline, bool)
        or not isinstance(deadline, int)
        or deadline <= 0
    ):
        bad("deadline_ms", f"must be a positive integer, got {deadline!r}")
    if opts.document is not None and not isinstance(opts.document, str):
        bad("document", f"must be a string, got {opts.document!r}")
    if opts.plan not in PLANS:
        bad("plan", f"must be one of {PLANS}, got {opts.plan!r}")
    return errors


@dataclass(frozen=True)
class QueryOptions:
    """A frozen, layer-independent description of one query execution.

    Fields
    ------
    pattern:
        The TPWJ pattern text (optional in-process, where the compiled
        pattern travels separately; required on the wire).
    limit:
        At most this many rows, pushed into the backtracking join.
    order:
        ``"document"`` (the engine's deterministic match order) or
        ``"probability"`` (decreasing probability, executed as
        branch-and-bound top-k when a limit is set).
    min_probability:
        Drop rows below this probability; the bound is pushed into the
        join so sub-threshold branches are pruned, never enumerated.
    epsilon:
        Target half-width of the Monte-Carlo confidence interval; its
        presence selects the anytime estimate path.
    deadline_ms:
        Budget for the anytime estimator: sampling stops at the
        deadline and returns the interval reached by then.
    document:
        Collection shard key to restrict the query to (collections
        only).
    plan:
        ``"auto"`` (the planner) or ``"fixed"`` (the ablation
        baseline matcher).
    """

    pattern: str | None = None
    limit: int | None = None
    order: str = "document"
    min_probability: float | None = None
    epsilon: float | None = None
    deadline_ms: int | None = None
    document: str | None = None
    plan: str = "auto"

    def __post_init__(self) -> None:
        errors = _validate(self)
        if errors:
            raise QueryOptionsError(errors)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def is_estimate(self) -> bool:
        """True when the anytime Monte-Carlo path was requested."""
        return self.epsilon is not None or self.deadline_ms is not None

    @property
    def use_planner(self) -> bool:
        return self.plan != "fixed"

    def replace(self, **changes) -> "QueryOptions":
        """A copy with *changes* applied (validation re-runs)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Wire form
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        """The compact JSON form: defaults omitted, wire field names.

        ``QueryOptions.from_json(options.to_json(),
        require_pattern=False)`` reconstructs an equal object — the
        round-trip property the cluster wire and the HTTP surface rely
        on.
        """
        out: dict = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if value == field.default:
                continue
            out[_FIELD_TO_JSON.get(field.name, field.name)] = value
        return out

    @classmethod
    def from_json(
        cls,
        payload,
        *,
        require_pattern: bool = True,
        ignore: tuple[str, ...] = (),
    ) -> "QueryOptions":
        """Validate a JSON payload into options, reporting every error.

        Unlike field-at-a-time validation (where the first bad key
        wins), this collects **all** problems — unknown keys, type
        mismatches, out-of-range values, a missing pattern — into one
        :class:`QueryOptionsError`.  *ignore* names transport-level
        keys (``timeout_ms``) that may ride in the same payload without
        being options.
        """
        if not isinstance(payload, dict):
            raise QueryOptionsError(
                [{"field": "", "message": f"payload must be an object, got {payload!r}"}]
            )
        errors: list[dict] = []
        known = {f.name for f in fields(cls)} - set(_FIELD_TO_JSON)
        known |= set(_JSON_ALIASES)
        values: dict = {}
        for key, value in payload.items():
            if key in ignore:
                continue
            if key not in known:
                errors.append(
                    {"field": key, "message": "unknown query option"}
                )
                continue
            values[_JSON_ALIASES.get(key, key)] = value
        if require_pattern and values.get("pattern") is None:
            errors.append(
                {"field": "pattern", "message": "missing required field"}
            )
        probe = object.__new__(cls)
        for field in fields(cls):
            object.__setattr__(
                probe, field.name, values.get(field.name, field.default)
            )
        errors.extend(_validate(probe))
        if errors:
            raise QueryOptionsError(errors)
        return cls(**values)
