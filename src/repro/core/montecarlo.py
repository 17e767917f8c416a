"""Monte-Carlo query estimation on fuzzy trees.

Exact possible-worlds evaluation enumerates ``2^n`` assignments; the
fuzzy evaluator is exact but its answer-combination step is exponential
in the events of an answer's DNF in the worst case.  Sampling gives a
third point on the cost/accuracy trade-off curve (benchmark E6): draw
assignments from the event table's product distribution, materialise
each sampled world, run the query, and count how often each answer
appears.

Estimates come with a standard error (binomial), so benchmarks can
report confidence intervals alongside the exact probabilities.

Two samplers live here.  :func:`estimate_query` is the benchmark-grade
*world* sampler: it materialises each sampled world and re-runs the
query (E6).  :func:`estimate_answers` is the serving-grade *anytime*
estimator behind ``ResultSet.estimate``: the match enumeration has
already produced each answer's DNF, so a sample only draws the
mentioned events and evaluates the DNFs directly — no tree
materialisation, no re-matching — and sampling stops as soon as every
answer's confidence interval is within ±ε, the deadline expires, or
the sample budget runs out.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from time import monotonic

from repro.core.fuzzy_tree import FuzzyTree
from repro.events.assignment import sample_assignment
from repro.tpwj.match import DEFAULT_CONFIG, MatchConfig, find_matches
from repro.tpwj.pattern import Pattern
from repro.tpwj.result import distinct_answers
from repro.trees.node import Node

__all__ = ["AnswerEstimate", "estimate_answers", "estimate_query"]


@dataclass(slots=True)
class AnswerEstimate:
    """A sampled answer: tree, estimated probability and standard error;
    ``document`` is the collection shard's key (``None`` on a session)."""

    tree: Node
    probability: float
    stderr: float
    occurrences: int
    samples: int
    document: str | None = None


def estimate_query(
    fuzzy: FuzzyTree,
    pattern: Pattern,
    samples: int = 1000,
    rng: random.Random | None = None,
    config: MatchConfig = DEFAULT_CONFIG,
) -> list[AnswerEstimate]:
    """Estimate the query-answer probabilities by world sampling.

    Returns estimates sorted by decreasing probability (ties broken by
    the answer's canonical form).  Answers never observed in a sample
    do not appear — callers comparing against exact results should
    treat missing answers as probability 0.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = rng if rng is not None else random.Random(0)
    used = sorted(fuzzy.used_events())

    counts: dict[str, int] = {}
    trees: dict[str, Node] = {}
    for _ in range(samples):
        assignment = sample_assignment(fuzzy.events, rng, events=used)
        world = fuzzy.world(assignment)
        matches = find_matches(pattern, world, config)
        for key, answer in distinct_answers(world, matches).items():
            counts[key] = counts.get(key, 0) + 1
            trees.setdefault(key, answer)

    estimates: list[AnswerEstimate] = []
    for key, count in counts.items():
        p = count / samples
        stderr = math.sqrt(p * (1.0 - p) / samples)
        estimates.append(AnswerEstimate(trees[key], p, stderr, count, samples))
    estimates.sort(key=lambda e: (-e.probability, e.tree.canonical()))
    return estimates


def estimate_answers(
    groups,
    events,
    *,
    epsilon: float | None = None,
    deadline: float | None = None,
    rng: random.Random | None = None,
    confidence: float = 3.0,
    batch: int = 256,
    max_samples: int = 1_000_000,
) -> list[AnswerEstimate]:
    """Anytime Monte-Carlo pricing of already-enumerated answer groups.

    *groups* is a sequence of ``(tree, dnf)`` pairs — one per answer,
    as produced by grouping the match enumeration; *events* is the
    document's event table.  Each sample draws one assignment over the
    union of the DNFs' mentioned events and evaluates every group's DNF
    against it, so the per-sample cost is linear in the DNF sizes —
    independent of the Shannon expansion's blow-up, which is exactly
    the regime this estimator exists for.

    Sampling stops at the first of: every group's interval is tight
    (``confidence * stderr <= epsilon``, checked per batch), the
    *deadline* (seconds of sampling budget) expires, or *max_samples*
    is reached.  At least one batch always runs, so every estimate has
    a defined probability and standard error.  With neither *epsilon*
    nor *deadline* given, ``epsilon=0.05`` is assumed.

    The default ``rng`` is ``random.Random(0)``: every layer pricing
    the same groups with the same options draws the same samples —
    the cross-layer byte-parity contract extends to estimates.

    Returns one :class:`AnswerEstimate` per group (including
    never-observed ones, at probability 0), sorted by decreasing
    probability, ties by canonical form.
    """
    groups = list(groups)
    if not groups:
        return []
    rng = rng if rng is not None else random.Random(0)
    dnfs = [dnf for _, dnf in groups]
    mentioned: set = set()
    for dnf in dnfs:
        mentioned |= dnf.events()
    drawn = sorted(mentioned)
    target = 0.05 if epsilon is None and deadline is None else epsilon
    stop_at = None if deadline is None else monotonic() + deadline
    counts = [0] * len(groups)
    samples = 0
    while True:
        step = min(batch, max_samples - samples)
        if step <= 0:
            break
        for _ in range(step):
            assignment = sample_assignment(events, rng, events=drawn)
            for position, dnf in enumerate(dnfs):
                if dnf.satisfied_by(assignment):
                    counts[position] += 1
        samples += step
        if target is not None and all(
            confidence
            * math.sqrt((c / samples) * (1.0 - c / samples) / samples)
            <= target
            for c in counts
        ):
            break
        if stop_at is not None and monotonic() >= stop_at:
            break

    estimates: list[AnswerEstimate] = []
    for (tree, _), count in zip(groups, counts):
        p = count / samples
        stderr = math.sqrt(p * (1.0 - p) / samples)
        estimates.append(AnswerEstimate(tree, p, stderr, count, samples))
    estimates.sort(key=lambda e: (-e.probability, e.tree.canonical()))
    return estimates
