"""Event tables: the probability assignment of a fuzzy document.

Slide 12 of the paper shows a fuzzy tree alongside a table ``w1: 0.8,
w2: 0.7``.  :class:`EventTable` is that table: a mapping from event
names to independent probabilities, plus the bookkeeping the update
engine needs (allocation of fresh events for update confidences).
Conditions are priced by :func:`repro.events.dnf.dnf_probability`.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping

from repro.errors import EventError, InvalidProbabilityError, UnknownEventError
from repro.events.condition import Condition
from repro.events.literal import check_event_name

__all__ = ["EventTable"]

#: Process-global allocator of probability-assignment generations.
#: Every :class:`EventTable` instance draws a unique stamp at creation
#: and draws a fresh one whenever an *existing* event's probability can
#: change (removal — the only mutation that can invalidate a previously
#: computed probability; re-declaring after a removal changes the value
#: behind the same name).  Probability caches key their entries by this
#: stamp, so a stale entry can never be served after such a change.
_GENERATIONS = itertools.count(1)


class EventTable:
    """A registry of independent probabilistic events.

    The table preserves insertion order (deterministic iteration keeps
    benchmarks and serialized documents stable across runs).
    """

    __slots__ = ("_probabilities", "_fresh_counter", "_generation")

    def __init__(self, probabilities: Mapping[str, float] | None = None) -> None:
        self._probabilities: dict[str, float] = {}
        self._fresh_counter = 0
        self._generation = next(_GENERATIONS)
        if probabilities:
            for name, probability in probabilities.items():
                self.declare(name, probability)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def declare(self, name: str, probability: float) -> str:
        """Register event *name* with the given probability.

        Re-declaring an event with the same probability is a no-op;
        changing the probability of an existing event raises
        :class:`~repro.errors.EventError` (event identities are global
        to a document and must not silently drift).
        """
        check_event_name(name)
        probability = _check_probability(probability)
        existing = self._probabilities.get(name)
        if existing is not None and not math.isclose(
            existing, probability, rel_tol=0.0, abs_tol=1e-12
        ):
            raise EventError(
                f"event {name!r} already declared with probability {existing}, "
                f"cannot redeclare with {probability}"
            )
        self._probabilities[name] = probability
        return name

    def fresh(self, probability: float, prefix: str = "w") -> str:
        """Allocate a new event name not yet in the table and declare it.

        Update application calls this to materialise an update's
        confidence as a new independent event (slide 15's ``w3``).
        """
        probability = _check_probability(probability)
        while True:
            self._fresh_counter += 1
            name = f"{prefix}{self._fresh_counter}"
            if name not in self._probabilities:
                self._probabilities[name] = probability
                return name

    def remove(self, name: str) -> None:
        """Drop an event (used by simplification's unused-event GC).

        Bumps :attr:`generation`: once a name is free it can be
        re-declared with a *different* probability, so every cached
        probability computed against this table must stop being served.
        """
        if name not in self._probabilities:
            raise UnknownEventError(name)
        del self._probabilities[name]
        self._generation = next(_GENERATIONS)

    @property
    def generation(self) -> int:
        """Version stamp of the probability assignment.

        Unique per table instance and refreshed whenever an existing
        event's probability may have changed (see :meth:`remove`).
        Declaring a *new* event keeps the stamp: it cannot alter the
        probability of any condition previously computable against this
        table (such a condition could not have mentioned the event).
        Probability caches (:class:`~repro.events.dnf.ShannonCache`)
        key entries by this stamp.
        """
        return self._generation

    @property
    def fresh_counter(self) -> int:
        """The state of the fresh-name allocator (persisted by the warehouse).

        Removing an event (simplification GC) does not rewind the
        counter, so the set of declared names alone does not determine
        the next :meth:`fresh` name.  Durable stores record the counter
        alongside the document so that replaying logged updates mints
        exactly the names the original session minted.
        """
        return self._fresh_counter

    def advance_fresh_counter(self, value: int) -> None:
        """Fast-forward the fresh-name allocator to at least *value*."""
        if not isinstance(value, int) or value < 0:
            raise EventError(f"fresh counter must be a non-negative int, got {value!r}")
        if value > self._fresh_counter:
            self._fresh_counter = value

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def probability(self, name: str) -> float:
        try:
            return self._probabilities[name]
        except KeyError:
            raise UnknownEventError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._probabilities

    def __len__(self) -> int:
        return len(self._probabilities)

    def __iter__(self) -> Iterator[str]:
        return iter(self._probabilities)

    def names(self) -> tuple[str, ...]:
        return tuple(self._probabilities)

    def items(self) -> Iterator[tuple[str, float]]:
        return iter(self._probabilities.items())

    def check_condition(self, condition: Condition) -> None:
        """Raise :class:`UnknownEventError` if a literal uses an unknown event."""
        for event in condition.events():
            if event not in self._probabilities:
                raise UnknownEventError(event)

    # ------------------------------------------------------------------
    # Copies and views
    # ------------------------------------------------------------------

    def copy(self) -> "EventTable":
        """An independent copy carrying the *same* generation stamp.

        The copy assigns every event the same probability, so any
        cached probability keyed by this table's generation is equally
        valid against the copy — preserving the stamp keeps shared
        probability memos warm across the warehouse's copy-on-write
        document clones.  A later :meth:`remove` on either table draws
        a fresh stamp from the process-global allocator, so the two
        tables can never alias after diverging.
        """
        clone = EventTable()
        clone._probabilities = dict(self._probabilities)
        clone._fresh_counter = self._fresh_counter
        clone._generation = self._generation
        return clone

    def as_dict(self) -> dict[str, float]:
        return dict(self._probabilities)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventTable):
            return NotImplemented
        return self._probabilities == other._probabilities

    def __repr__(self) -> str:
        body = ", ".join(f"{name}: {p}" for name, p in self._probabilities.items())
        return f"EventTable({{{body}}})"


def _check_probability(value: float) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidProbabilityError(value)
    value = float(value)
    if not 0.0 <= value <= 1.0 or math.isnan(value):
        raise InvalidProbabilityError(value)
    return value
