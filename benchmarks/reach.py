"""Reach census: which ``src/repro`` functions do the entry points run?

Runs every entry point (E19 ``--quick``, the E1–E8 reproductions, the
E9–E18 ``--quick`` scripts, every example, the CLI tests and the
robustness tests) with a ``sitecustomize`` hook on ``PYTHONPATH``.  The
hook profiles every thread of every process, spawned cluster workers
included, and appends each first-seen code object under ``src/repro``
to a per-pid file.  Every ``def`` (found with ``ast``) that no process
entered, and that ``reach_allowlist.txt`` does not name, is printed and
fails the run; so does, before anything runs, an allowlist line that
names no ``def``.  Quick modes rewrite ``benchmarks/out``: run it in a
scratch copy of the tree.

    python benchmarks/reach.py
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
PY = sys.executable
PYTEST = [PY, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
BENCHES = {
    int(p.name.split("_")[1][1:]): str(p.relative_to(ROOT)) for p in ROOT.glob("benchmarks/bench_e*.py")
}
ENTRY_POINTS = [
    [PY, "benchmarks/e19/run.py", "--quick"],
    [*PYTEST, "-o", "python_files=bench_*.py", "--benchmark-disable",
     *(path for number, path in sorted(BENCHES.items()) if number <= 8)],
    *([PY, path, "--quick"] for number, path in sorted(BENCHES.items()) if number >= 9),
    *([PY, str(p.relative_to(ROOT))] for p in sorted(ROOT.glob("examples/*.py"))),
    [*PYTEST, "tests/test_cli.py", "tests/test_errors.py", "tests/test_failure_injection.py",
     "tests/test_recovery.py", "tests/test_cluster_faults.py"],
]  # fmt: skip
HOOK = """import os, sys, threading
_seen, _out = set(), [None, None]
def _hook(frame, event, arg):
    if event == "call" and frame.f_code not in _seen:
        code = frame.f_code
        _seen.add(code)
        if code.co_filename.startswith(%(src)r):
            if _out[0] != os.getpid():
                _out[:] = [os.getpid(), open(f"%(out)s/{os.getpid()}.hits", "a", buffering=1)]
            _out[1].write(f"{code.co_filename}:{code.co_firstlineno}\\n")
sys.setprofile(_hook)
threading.setprofile(_hook)
"""


def definitions():
    """``(path, first line) -> "repro/x.py::Qual.name"`` for every def."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}{child.name}."
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    where = path.relative_to(SRC.parent)
                    found[(str(path), first)] = f"{where}::{name[:-1]}"
                visit(child, name)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def main() -> int:
    allowed = {
        line.split("#")[0].strip() for line in (ROOT / "benchmarks" / "reach_allowlist.txt").open()
    } - {""}
    defs = definitions()
    stale = sorted(allowed - set(defs.values()))
    for name in stale:
        print("allowlisted, but no such def:", name)
    if stale:
        return 1
    with tempfile.TemporaryDirectory() as hits:
        Path(hits, "sitecustomize.py").write_text(HOOK % {"src": str(SRC), "out": hits})
        env_path = f"{hits}:{ROOT / 'src'}"
        for command in ENTRY_POINTS:
            print("reach:", " ".join(command[1:4]), "...", flush=True)
            env = {**os.environ, "PYTHONPATH": env_path}
            code = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode
            if code:
                print(f"reach: exit {code} (the census still counts what ran)")
        reached = {
            (path, int(line))
            for hit in Path(hits).glob("*.hits")
            for path, line in (entry.rsplit(":", 1) for entry in hit.read_text().split())
        }
    unreached = sorted(name for key, name in defs.items() if key not in reached)
    missing = [name for name in unreached if name not in allowed]
    print(f"reach: {len(defs) - len(unreached)} of {len(defs)} functions reached, "
          f"{len(unreached) - len(missing)} unreached on the allowlist")  # fmt: skip
    for name in missing:
        print("unreached:", name)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
