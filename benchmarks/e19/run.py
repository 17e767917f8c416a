"""E19 — the layered benchmark of the probabilistic XML warehouse.

Two ways in, one code path::

    python3 benchmarks/e19/run.py [--seed N] [--quick] [--only WORKLOAD]
    python3 benchmarks/e19/run.py --self-check
    python3 benchmarks/e19/run.py --workload W --seed N --seconds S --trace 0|1

The first runs every workload in its own child interpreter (fresh
heap, honest peak RSS), untraced then traced, and prints every metric
as ``name value unit``.  The last is what each child — and the
benchmark driver — runs: one workload, one pass, the result as one JSON
object on the last line of standard output.  README.md explains the
workloads, the estimator and how the layers map onto the metrics.

No process outlives the command: every child carries an ``E19_RUN_ID``
marker in its environment, and the runner sweeps ``/proc`` for it on
exit, on SIGTERM/SIGINT and from ``atexit``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import signal
import subprocess
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MARKER = "E19_RUN_ID"
CHILD_TIMEOUT_S = 170


def _import_library() -> None:
    """Put ``src/`` on the path; the benchmark runs from a bare checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"e19: the library is not at {src}; nothing to measure")
    for entry in (str(src), str(HERE)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _workloads(manifest: dict, only: str | None) -> list[str]:
    names = [w["name"] for w in manifest["workloads"]]
    if only is None:
        return names
    if only not in names:
        sys.exit(f"e19: unknown workload {only!r} (have {', '.join(names)})")
    return [only]


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------


def _marked_processes(run_id: str) -> list[int]:
    """Pids (other than ours) whose environment carries our marker."""
    needle = f"{MARKER}={run_id}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                environ = handle.read()
        except OSError:
            continue  # gone, or not ours to read
        if any(item.startswith(needle) for item in environ.split(b"\0")):
            found.append(int(entry))
    return found


class Hygiene:
    """Marks this process's descendants and reaps whatever outlives it."""

    def __init__(self) -> None:
        # Nested under the parent's id, so an outer runner's sweep (a
        # prefix match) also covers the workers of a child it spawned.
        parent = os.environ.get(MARKER)
        self.run_id = f"{parent}/{uuid.uuid4().hex[:8]}" if parent else uuid.uuid4().hex
        os.environ[MARKER] = self.run_id
        atexit.register(self.sweep)
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, self._on_signal)

    def _on_signal(self, signum, _frame) -> None:
        # SystemExit unwinds through every ``finally`` (servers stopped,
        # collections closed); atexit then sweeps what is left.
        raise SystemExit(128 + signum)

    def sweep(self) -> int:
        """SIGKILL every marked survivor; returns how many there were."""
        # multiprocessing's resource tracker is a helper of ours that
        # would only exit once we have: stop it first, so anything the
        # sweep still finds is a real leak.
        tracker = sys.modules.get("multiprocessing.resource_tracker")
        if tracker is not None:
            tracker._resource_tracker._stop()
        survivors = _marked_processes(self.run_id)
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in survivors:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # a grandchild: init reaps it
        # A child killed outright leaves its stores behind.
        for stale in (ROOT / ".e19_work").glob(self.run_id.replace("/", "-") + "-*"):
            shutil.rmtree(stale, ignore_errors=True)
        return len(survivors)


# ----------------------------------------------------------------------
# One workload, one pass (what the driver and the runner's children run)
# ----------------------------------------------------------------------


def _pin_to_one_cpu() -> None:
    """Run the pass — caller, server threads, worker processes — on one
    CPU.  The host packs this guest's two vCPUs onto one core after
    idleness and spreads them under load; spread, thread hand-offs cost
    a quarter more and parallel workers run 40 % faster, so the same
    code read 1.45 or 1.9 ms (HTTP) and 8 or 4.8 ms (cluster fan-out)
    depending on the minutes before the run.  On one CPU neither moves.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:
        pass  # not ours to set here: measure anyway, just noisier


def run_pass(args, hygiene: Hygiene) -> int:
    _import_library()
    import layers
    import measure

    manifest = _manifest()
    _workloads(manifest, args.workload)
    _pin_to_one_cpu()
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in manifest[section]}
    work_dir = ROOT / ".e19_work" / hygiene.run_id.replace("/", "-")
    work_dir.mkdir(parents=True, exist_ok=True)
    # One round is about a second of work on the reference machine.
    plan = measure.QUICK if args.quick else measure.Plan(rounds=max(4, args.seconds))
    try:
        if args.trace:
            result = layers.run_traced(
                args.workload, args.seed, plan, work_dir, args.trace_out
            )
        else:
            result = measure.run_untraced(args.workload, args.seed, plan, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()  # unless another pass is using it
        except OSError:
            pass
    leaked = hygiene.sweep()
    metrics = result["metrics"]
    for name in sorted(metrics):
        print(f"{name} {metrics[name]!r} {declared.get(name, '-')}")
    for problem in result["problems"]:
        print(f"MISMATCH {problem}")
    print(f"leaked_processes {leaked} count")
    correct = not result["problems"] and result["failed"] == 0 and leaked == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()
                },
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The whole benchmark: every workload in a child interpreter
# ----------------------------------------------------------------------


def _child(workload: str, args, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    if args.trace_out and trace:
        command += ["--trace-out", f"{args.trace_out}.{workload}.jsonl"]
    # Same process group as the runner (no new session): a harness
    # that kills the group reaps the child and its workers with it.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # Timeout or a signal to the runner: let the child close its
        # servers and workers itself before anything is killed.
        child.terminate()
        try:
            child.wait(15)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise
    lines = stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "log": []}
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result["log"] = lines[:-1]
    result["correct"] = result["correct"] and child.returncode == 0
    return result


def run_all(args, hygiene: Hygiene) -> int:
    manifest = _manifest()
    bounds = {m["name"]: m for m in manifest["end_to_end"]}
    print(
        f"# e19 seed={args.seed} seconds={args.seconds} quick={args.quick} "
        f"cpu_count={os.cpu_count()}"
    )
    ok = True
    for workload in _workloads(manifest, args.only):
        for trace in (0, 1):
            result = _child(workload, args, trace)
            ok = ok and result["correct"]
            label = "per-layer" if trace else "end-to-end"
            print(
                f"## {workload} {label}: attempted={result['attempted']} "
                f"failed={result['failed']} correct={result['correct']}"
            )
            for line in result["log"]:
                name = line.split(" ", 1)[0]
                if name in bounds:
                    spec = bounds[name]
                    line += f"  ({spec['better']} is better, bound {spec['bound']})"
                print(f"{workload}.{line}")
    leaked = hygiene.sweep()
    print(f"leaked_processes {leaked} count")
    return 0 if ok and leaked == 0 else 1


def self_check(args, hygiene: Hygiene) -> int:
    """Two back-to-back sets of runs of the same tree: every end-to-end
    metric's gap against its bound, and the exact counts' equality."""
    manifest = _manifest()
    exact = ("warehouse.wal_bytes_per_update", "engine.matches_per_query",
             "core.rows_per_query", "warehouse.fsyncs_per_update")  # fmt: skip
    ok = True
    print("| workload | metric | first | second | gap | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    for workload in _workloads(manifest, args.only):
        first, second = (
            {trace: _child(workload, args, trace) for trace in (0, 1)}
            for _ in range(2)
        )
        if not all(r["correct"] for r in (*first.values(), *second.values())):
            print(f"| {workload} | a pass failed or was incorrect | | | | | FAILED |")
            ok = False
            continue
        for spec in manifest["end_to_end"]:
            a = first[0]["metrics"][spec["name"]]["value"]
            b = second[0]["metrics"][spec["name"]]["value"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            # ``--quick`` runs too few rounds to hold the bounds.
            ok = ok and (worse <= spec["bound"] or args.quick)
            print(
                f"| {workload} | {spec['name']} | {a:.6g} | {b:.6g} | "
                f"{worse:+.2%} | {spec['bound']:.0%} | "
                f"{'ok' if worse <= spec['bound'] else 'OUTSIDE'} |"
            )
        for name in exact:
            a = first[1]["metrics"][name]["value"]
            b = second[1]["metrics"][name]["value"]
            ok = ok and a == b
            print(
                f"| {workload} | {name} | {a:.6g} | {b:.6g} | exact | 0 | "
                f"{'ok' if a == b else 'DIFFERS'} |"
            )
        drift = [r[1]["metrics"]["calib.drift_ratio"]["value"] for r in (first, second)]
        print(f"| {workload} | calib.drift_ratio | {drift[0]:.4g} | {drift[1]:.4g} | | | |")
    leaked = hygiene.sweep()
    print(f"\nleaked_processes {leaked} count")
    return 0 if ok and leaked == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one pass of this workload")
    parser.add_argument("--seed", type=int, default=19)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the traced pass's spans here")
    parser.add_argument("--quick", action="store_true", help="4 rounds, smoke only")
    parser.add_argument("--only", help="restrict the full run to one workload")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit("e19: BENCHMARK.json is not at the checkout root")
    if args.seconds is None:
        args.seconds = _manifest()["run_seconds"]
    hygiene = Hygiene()
    if args.workload:
        return run_pass(args, hygiene)
    _import_library()  # fail early, before any child is spawned
    if args.self_check:
        return self_check(args, hygiene)
    return run_all(args, hygiene)


if __name__ == "__main__":
    sys.exit(main())
