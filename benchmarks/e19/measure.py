"""The untraced pass: one workload, end-to-end metrics, correctness gate.

Order of one run (all counts fixed by ``--seconds``, none by a clock):

1. ``Plan.setup_repeats`` fresh builds — documents, store, entry point,
   first successful op — the last of which the run keeps;
2. correctness gate, one discarded warm-up round, the timed rounds,
   correctness gate again;
3. ``Plan.recovery_repeats`` × (fold the WAL, apply ``RECOVERY_BATCH``
   updates, close, timed reopen to the first successful op, check that
   the state that was acknowledged is the state that came back);
4. the store read back against a plain in-memory replay of every
   acknowledged update.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.api.builders import compile_pattern
from repro.core.query import iter_query_rows, query_fuzzy_tree
from repro.core.semantics import to_possible_worlds
from repro.core.update import apply_update
from repro.pworlds import query_possible_worlds
from repro.serve.http import encode_row

import estimator
from inputs import (
    DIRECTORY_QUERY,
    LIMIT,
    Op,
    OpStream,
    directory_document,
    make_documents,
)
from workloads import WORKLOAD_CLASSES, EmbeddedProbability, encode_answers

#: WAL records every timed reopen replays (spread over the documents).
RECOVERY_BATCH = 32
_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Plan:
    """How much one pass measures.  Every field is a count: a run's
    length follows from ``--seconds`` only through ``rounds`` (a round
    is about a second of work on the reference machine)."""

    rounds: int
    #: Discarded rounds before the timed ones.  Caches fill in the
    #: first; the others outlasted a step in served p50 two seconds
    #: into sustained load before passes were pinned to one CPU, and
    #: stay as insurance.
    warmup_rounds: int = 3
    setup_repeats: int = 5
    #: A workload with a costly reopen asks for fewer (see
    #: ``ClusterMixed.recovery_repeats``).
    recovery_repeats: int = 15
    round_divisor: int = 1
    ladder_samples: int = 200


#: ``--quick``: a smoke run, too short to hold any bound.
QUICK = Plan(
    rounds=4, warmup_rounds=1, setup_repeats=1, recovery_repeats=1,
    round_divisor=4, ladder_samples=8,
)  # fmt: skip


class Reference:
    """The oracle: in-memory documents advanced by ``apply_update`` and
    queried through the fixed-strategy matcher (``planner=False``)."""

    def __init__(self, workload: str, documents) -> None:
        self._workload = workload
        self.documents = {key: doc.clone() for key, doc in documents.items()}
        self.sequences = {key: 1 for key in documents}

    def apply(self, ops) -> None:
        for op in ops:
            if op.is_update:
                apply_update(self.documents[op.key], op.transaction)
                self.sequences[op.key] += 1

    def rows(self, key, pattern) -> list[dict]:
        compiled = compile_pattern(pattern)
        if self._workload == "embedded_probability":
            return encode_answers(query_fuzzy_tree(self.documents[key], compiled))
        keys = sorted(self.documents) if key is None else [key]
        tagged = self._workload in ("http_point", "cluster_mixed")
        rows = []
        for k in keys:
            for row in iter_query_rows(self.documents[k], compiled):
                record = encode_row(row)
                if tagged:
                    record["document"] = k
                rows.append(record)
        return rows

    def state(self, key) -> tuple:
        document = self.documents[key]
        return (
            document.root.canonical(),
            tuple(sorted(document.events.items())),
            self.sequences[key],
        )


def _row_key(row: dict):
    return (
        row.get("document", ""),
        row["tree"],
        sorted((row.get("bindings") or {}).items()),
        round(row["probability"], 9),
    )


def same_rows(got: list[dict], want: list[dict]) -> bool:
    """Equal as multisets, probabilities within 1e-12 (the planned and
    the fixed matcher multiply a row's literals in different orders)."""
    if len(got) != len(want):
        return False
    for a, b in zip(sorted(got, key=_row_key), sorted(want, key=_row_key)):
        if abs(a["probability"] - b["probability"]) > _TOLERANCE:
            return False
        if {**a, "probability": 0} != {**b, "probability": 0}:
            return False
    return True


def gate(workload, reference: Reference, queries) -> list[str]:
    """Every distinct query, through the entry point, against the
    oracle.  Returns one message per mismatch."""
    problems = []
    for key, pattern in queries:
        want = reference.rows(key, pattern)
        full = workload.rows(key, pattern, None)
        limited = workload.rows(key, pattern, LIMIT)
        fixed = workload.rows(key, pattern, None, planner=False)
        answers = isinstance(workload, EmbeddedProbability)
        if not want:
            problems.append(f"{pattern!r}: oracle has no rows (vacuous check)")
        if not same_rows(full, want):
            problems.append(f"{pattern!r} on {key}: rows differ from the oracle")
        if limited != (full if answers else full[:LIMIT]):
            problems.append(f"{pattern!r} on {key}: limited rows are not a prefix")
        if fixed is not None and not same_rows(fixed, want):
            problems.append(f"{pattern!r} on {key}: planner=False rows differ")
        if not workload.byte_parity(key, pattern):
            problems.append(f"{pattern!r} on {key}: body differs from in-process rows")
    return problems


def possible_worlds_check(path: Path, seed: int) -> list[str]:
    """``answers()`` against world enumeration on a 7-event directory."""
    rng = random.Random(f"e19:reduced:{seed}")
    document = directory_document(rng, persons=3, emails=2, hot=1)
    stream = OpStream(
        "embedded_probability", seed, {"doc": document}, [("doc", DIRECTORY_QUERY)]
    )
    with repro.connect(path, create=True, document=document) as session:
        for op in stream.updates(2):
            session.update(op.transaction)
        answers = session.query(DIRECTORY_QUERY).answers()
        worlds = to_possible_worlds(session.document)
        n_events = len(session.document.events)
    if n_events > 10 or not answers:
        return ["reduced instance is not a <= 10-event instance with answers"]
    oracle = query_possible_worlds(worlds, compile_pattern(DIRECTORY_QUERY))
    want = {world.tree.canonical(): world.probability for world in oracle}
    got = {answer.tree.canonical(): answer.probability for answer in answers}
    if got.keys() != want.keys() or any(
        abs(got[tree] - want[tree]) > 1e-9 for tree in got
    ):
        return ["answers() disagrees with possible-worlds enumeration"]
    return []


class Run:
    """A built workload plus everything the passes share."""

    def __init__(self, name: str, seed: int, plan: Plan, work_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.plan = plan
        self.work_dir = work_dir
        self.workload = None
        self.documents = None
        self.queries = None
        self.first = None
        self.setups = estimator.Series()
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []

    def _build(self, index: int) -> None:
        path = self.work_dir / f"{self.name}-{index}"
        shutil.rmtree(path, ignore_errors=True)
        self.documents, self.queries = make_documents(self.name, self.seed)
        self.workload = WORKLOAD_CLASSES[self.name](path)
        self.workload.create(self.documents)
        self.workload.open()
        self.first = Op(*self.queries[0])
        self.workload.prepare(self.first)
        self.execute(self.first)

    def stream(self) -> OpStream:
        """The run's op stream from its start (documents as built)."""
        return OpStream(
            self.name, self.seed, self.documents, self.queries, self.plan.round_divisor
        )

    def setup(self, repeats: int) -> None:
        for index in range(repeats):
            if self.workload is not None:
                self.close()
                shutil.rmtree(self.workload.path, ignore_errors=True)
            self.setups.time(lambda: self._build(index))

    def execute(self, op) -> bool:
        self.attempted += 1
        ok = self.workload.execute(op)
        if not ok:
            self.failed += 1
        return ok

    def close(self) -> None:
        if self.workload is not None:
            self.workload.close()

    def check(self, problems: list[str]) -> None:
        self.problems += problems
        self.failed += len(problems)
        self.attempted += len(problems)


def run_untraced(name: str, seed: int, plan: Plan, work_dir: Path) -> dict:
    """End-to-end metrics of one workload (see the module docstring)."""
    run = Run(name, seed, plan, work_dir)
    try:
        run.setup(plan.setup_repeats)
        return _measure(run)
    finally:
        run.close()


def _measure(run: Run) -> dict:
    workload, plan = run.workload, run.plan
    reference = Reference(run.name, run.documents)
    stream = run.stream()
    warmup = [stream.round() for _ in range(plan.warmup_rounds)]
    rounds = [stream.round() for _ in range(plan.rounds)]
    repeats = min(plan.recovery_repeats, workload.recovery_repeats)
    batches = [stream.updates(RECOVERY_BATCH) for _ in range(repeats)]
    for ops in [*warmup, *rounds, *batches]:
        for op in ops:
            workload.prepare(op)

    run.check(gate(workload, reference, run.queries))
    if run.name == "embedded_probability":
        run.check(possible_worlds_check(run.work_dir / "reduced", run.seed))
    estimator.run_rounds(warmup, run.execute)
    for ops in warmup:
        reference.apply(ops)

    disk_before = estimator.tree_bytes(workload.path)
    cpu_before = estimator.cpu_seconds(workload.worker_pids())
    records = estimator.run_rounds(rounds, run.execute)
    cpu_after = estimator.cpu_seconds(workload.worker_pids())
    disk_after = estimator.tree_bytes(workload.path)
    for ops in rounds:
        reference.apply(ops)
    run.check(gate(workload, reference, run.queries))

    metrics = estimator.summarize(records)
    n_ops = metrics["samples.query"] + metrics["samples.update"]
    metrics["disk_bytes_per_update"] = (disk_after - disk_before) / metrics[
        "samples.update"
    ]
    metrics["proc.cpu_ms_per_op"] = (cpu_after - cpu_before) * 1e3 / n_ops
    metrics["peak_rss_mb"] = estimator.peak_rss_mb(workload.worker_pids())

    reopens = estimator.Series()
    for batch in batches:
        workload.compact()
        for op in batch:
            run.execute(op)
        reference.apply(batch)
        before = workload.states()
        workload.close()
        reopens.time(lambda: (workload.open(), run.execute(run.first)))
        metrics["peak_rss_mb"] = max(
            metrics["peak_rss_mb"], estimator.peak_rss_mb(workload.worker_pids())
        )
        if workload.states() != before:
            run.check([f"{run.name}: state after reopen differs from before close"])
    run.check(gate(workload, reference, run.queries))
    run.check(_stored_state_problems(run, reference))

    metrics["raw.setup_s"], metrics["setup_s"] = run.setups.medians()
    raw, calibrated = reopens.medians()
    metrics["raw.recovery_ms"], metrics["recovery_ms"] = raw * 1e3, calibrated * 1e3
    return {
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
    }


def _stored_state_problems(run: Run, reference: Reference) -> list[str]:
    """Every acknowledged update is in the store: its documents equal
    the plain replay of the same update stream."""
    workload = run.workload
    if run.name == "cluster_mixed":
        expected = {key: reference.state(key)[2] for key in reference.documents}
        problems = []
        if workload.states() != expected:
            problems.append("cluster commit sequences differ from the replay")
        workload.close()
        for copy, state in workload.stored_states().items():
            if state != reference.state(Path(copy).name):
                problems.append(f"cluster copy {copy} differs from the replay")
        return problems
    states = workload.states()
    return [
        f"{run.name}: document {key} differs from the replay"
        for key in reference.documents
        if states.get(key) != reference.state(key)
    ]
