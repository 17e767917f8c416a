"""Tests for the warehouse CLI (repro.cli)."""

import pytest

import repro
from repro.cli import main
from repro.xmlio import fuzzy_to_string, transaction_to_string
from repro import (
    Condition,
    DeleteOperation,
    EventTable,
    FuzzyNode,
    FuzzyTree,
    InsertOperation,
    UpdateTransaction,
)
from repro.tpwj.parser import parse_pattern
from repro.trees import tree


@pytest.fixture
def store(tmp_path, slide12_doc):
    """A warehouse directory initialised from the slide-12 document."""
    doc_file = tmp_path / "doc.xml"
    doc_file.write_text(fuzzy_to_string(slide12_doc))
    path = tmp_path / "wh"
    assert main(["init", str(path), "--document", str(doc_file)]) == 0
    return path


class TestInit:
    def test_init_with_root_label(self, tmp_path, capsys):
        assert main(["init", str(tmp_path / "w"), "--root", "directory"]) == 0
        out = capsys.readouterr().out
        assert "created warehouse" in out and "1 nodes" in out

    def test_init_from_document(self, store, capsys):
        main(["stats", str(store)])
        assert "nodes: 4" in capsys.readouterr().out

    def test_init_twice_fails(self, store, capsys):
        assert main(["init", str(store), "--root", "x"]) == 2
        assert "error:" in capsys.readouterr().err


class TestQuery:
    def test_query_canonical_output(self, store, capsys):
        assert main(["query", str(store), "//D"]) == 0
        out = capsys.readouterr().out
        assert "0.700000" in out and "A(C(D))" in out

    def test_query_xml_output(self, store, capsys):
        assert main(["query", str(store), "//D", "--xml"]) == 0
        out = capsys.readouterr().out
        assert "<A>" in out and "P = 0.700000" in out

    def test_query_no_answers(self, store, capsys):
        assert main(["query", str(store), "//Z"]) == 0
        assert "(no answers)" in capsys.readouterr().out

    def test_query_limit(self, store, capsys):
        assert main(["query", str(store), "*", "--limit", "2"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2

    def test_bad_pattern_is_an_error(self, store, capsys):
        # Pattern syntax has its own exit code (3), distinct from the
        # generic model-error code (2).
        assert main(["query", str(store), "A {"]) == 3
        err = capsys.readouterr().err
        assert "error:" in err
        # The shared parser helper names the offending argument.
        assert "invalid pattern 'A {'" in err

    def test_query_stream_mode(self, store, capsys):
        # Row mode: lazy match order, --limit pushed into the engine.
        assert main(["query", str(store), "//D", "--stream"]) == 0
        out = capsys.readouterr().out
        assert "0.700000" in out and "A(C(D))" in out
        assert main(["query", str(store), "*", "--stream", "--limit", "2"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2
        assert main(["query", str(store), "//Z", "--stream"]) == 0
        assert "(no answers)" in capsys.readouterr().out

    def test_query_without_planner(self, store, capsys):
        assert main(["query", str(store), "//D", "--no-planner"]) == 0
        out = capsys.readouterr().out
        assert "0.700000" in out and "A(C(D))" in out


@pytest.fixture
def two_b_store(tmp_path):
    """``A`` with two ``B`` children under independent 0.5 events: the
    answer ``A(B)`` has probability 0.75, either match alone 0.5."""
    events = EventTable({"w1": 0.5, "w2": 0.5})
    children = [FuzzyNode("B", condition=Condition.of(e)) for e in events]
    path = tmp_path / "two-b"
    repro.connect(
        path, create=True, document=FuzzyTree(FuzzyNode("A", children=children), events)
    ).close()
    return str(path)


class TestRefinedQuery:
    """``--top-k`` and ``--min-probability`` refine answers, each priced
    over all its matches; ``--stream`` alone switches to per-match rows."""

    def test_min_probability_keeps_answers_above_it(self, two_b_store, capsys):
        flags = ["--min-probability", "0.6"]
        assert main(["query", two_b_store, "/A { B }", *flags]) == 0
        assert capsys.readouterr().out == "0.750000  A(B)\n"

    def test_top_k_ranks_answers(self, two_b_store, capsys):
        assert main(["query", two_b_store, "/A { B }", "--top-k", "1"]) == 0
        assert capsys.readouterr().out == "0.750000  A(B)\n"

    def test_stream_refines_rows(self, two_b_store, capsys):
        flags = ["--stream", "--top-k", "1"]
        assert main(["query", two_b_store, "/A { B }", *flags]) == 0
        assert capsys.readouterr().out == "0.500000  A(B)\n"
        flags = ["--stream", "--min-probability", "0.6"]
        assert main(["query", two_b_store, "/A { B }", *flags]) == 0
        assert capsys.readouterr().out == "(no answers)\n"


class TestExplain:
    def test_explain_prints_plan_and_stats(self, store, capsys):
        assert main(["explain", str(store), "/A { //D }"]) == 0
        out = capsys.readouterr().out
        assert "visit order:" in out
        assert "candidates=1" in out
        assert "stats version" not in out and "est." not in out

    def test_explain_shares_parse_errors_with_query(self, store, capsys):
        assert main(["explain", str(store), "A {"]) == 3
        err = capsys.readouterr().err
        assert "error:" in err and "invalid pattern 'A {'" in err

    def test_explain_missing_warehouse_is_an_error(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "nope"), "//D"]) == 2
        assert "error:" in capsys.readouterr().err


class TestUpdate:
    def test_update_from_file(self, store, tmp_path, capsys):
        tx = UpdateTransaction(
            parse_pattern("C[$c]"), [InsertOperation("c", tree("N"))], 0.5
        )
        tx_file = tmp_path / "tx.xml"
        tx_file.write_text(transaction_to_string(tx))
        assert main(["update", str(store), "--xupdate", str(tx_file)]) == 0
        out = capsys.readouterr().out
        assert "applied: True" in out and "matches: 1" in out

    def test_confidence_override(self, store, tmp_path, capsys):
        tx = UpdateTransaction(
            parse_pattern("B[$b]"), [DeleteOperation("b")], 1.0
        )
        tx_file = tmp_path / "tx.xml"
        tx_file.write_text(transaction_to_string(tx))
        assert main(
            ["update", str(store), "--xupdate", str(tx_file), "--confidence", "0.4"]
        ) == 0
        assert "event: w3" in capsys.readouterr().out


class TestMaintenance:
    def test_stats(self, store, capsys):
        assert main(["stats", str(store)]) == 0
        out = capsys.readouterr().out
        assert "nodes: 4" in out and "sequence: 1" in out

    def test_simplify(self, store, capsys):
        assert main(["simplify", str(store)]) == 0
        assert "nodes: 4 -> 4" in capsys.readouterr().out

    def test_history_and_tail(self, store, tmp_path, capsys):
        assert main(["history", str(store)]) == 0
        assert "#1  create" in capsys.readouterr().out
        assert main(["history", str(store), "--tail", "0"]) == 0

    def test_worlds(self, store, capsys):
        assert main(["worlds", str(store)]) == 0
        out = capsys.readouterr().out
        assert "A(C(D))" in out and "0.700000" in out

    def test_estimate(self, store, capsys):
        assert main(["estimate", str(store), "//D", "--samples", "500"]) == 0
        out = capsys.readouterr().out
        assert "±" in out and "A(C(D))" in out

    def test_export_roundtrips(self, store, capsys):
        from repro.xmlio import fuzzy_from_string

        assert main(["export", str(store)]) == 0
        document = fuzzy_from_string(capsys.readouterr().out)
        assert document.size() == 4

    def test_missing_warehouse_is_an_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err


class TestModuleEntry:
    def test_python_dash_m(self, store):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "stats", str(store)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "nodes: 4" in result.stdout


class TestBatchUpdate:
    def test_batch_file_commits_once(self, store, tmp_path, capsys):
        from repro import TransactionBatch
        from repro.xmlio import batch_to_string

        tx = UpdateTransaction(
            parse_pattern("C[$c]"), [InsertOperation("c", tree("N"))], 0.5
        )
        batch_file = tmp_path / "batch.xml"
        batch_file.write_text(batch_to_string(TransactionBatch([tx, tx])))
        assert main(["update", str(store), "--xupdate", str(batch_file)]) == 0
        out = capsys.readouterr().out
        assert "batch of 2" in out and "applied: 2" in out
        main(["history", str(store)])
        history = capsys.readouterr().out
        assert "#2  batch" in history
        assert "#3" not in history  # one commit, not two


class TestCompact:
    def test_compact_folds_wal(self, store, capsys):
        # The CLI update commits via the WAL and compacts on close, so
        # drive a pending WAL through the library with a no-compact
        # policy first.
        from repro.api import connect

        tx = UpdateTransaction(
            parse_pattern("C[$c]"), [InsertOperation("c", tree("N"))], 1.0
        )
        with connect(store, snapshot_every=100, compact_on_close=False) as session:
            session.update(tx)
        assert main(["compact", str(store)]) == 0
        out = capsys.readouterr().out
        assert "folded 1 WAL records" in out
        main(["stats", str(store)])
        stats_out = capsys.readouterr().out
        assert "wal_depth: 0" in stats_out

    def test_stats_show_wal_depth(self, store, capsys):
        assert main(["stats", str(store)]) == 0
        out = capsys.readouterr().out
        assert "wal_depth:" in out and "snapshot_sequence:" in out


class TestPipeAndInterrupt:
    """Regression: `repro query --stream | head -1` must exit 141 quietly
    (and Ctrl-C 130), releasing the stream's snapshot pin either way."""

    @staticmethod
    def _spy_connect(monkeypatch, record):
        """Wrap repro.cli.connect so the test can observe the session's
        read_sessions gauge at the moment the CLI closes it."""
        import repro.cli as cli

        real_connect = cli.connect

        class SpySession:
            def __init__(self, session):
                self._session = session

            def __getattr__(self, name):
                return getattr(self._session, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                record["read_sessions_at_close"] = self._session.stats()[
                    "read_sessions"
                ]
                return self._session.__exit__(*exc_info)

        monkeypatch.setattr(
            cli, "connect", lambda path, **kw: SpySession(real_connect(path, **kw))
        )

    class _FailingStdout:
        """Raises after the first full row, like a vanished `head -1`."""

        def __init__(self, exc_type):
            self.exc_type = exc_type
            self.writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes > 2:  # print() = one write for text, one for \n
                raise self.exc_type()
            return len(text)

        def flush(self):
            pass

    def test_broken_pipe_exits_141_and_releases_pin(self, store, monkeypatch):
        import sys as _sys

        record = {}
        self._spy_connect(monkeypatch, record)
        monkeypatch.setattr(
            _sys, "stdout", self._FailingStdout(BrokenPipeError)
        )
        assert main(["query", str(store), "*", "--stream"]) == 141
        assert record["read_sessions_at_close"] == 0

    def test_keyboard_interrupt_exits_130_and_releases_pin(
        self, store, monkeypatch
    ):
        import sys as _sys

        record = {}
        self._spy_connect(monkeypatch, record)
        monkeypatch.setattr(
            _sys, "stdout", self._FailingStdout(KeyboardInterrupt)
        )
        assert main(["query", str(store), "*", "--stream"]) == 130
        assert record["read_sessions_at_close"] == 0

    def test_broken_pipe_on_flush_is_quiet(self, store, monkeypatch):
        import sys as _sys

        class FlushBomb:
            def write(self, text):
                return len(text)

            def flush(self):
                raise BrokenPipeError()

        record = {}
        self._spy_connect(monkeypatch, record)
        monkeypatch.setattr(_sys, "stdout", FlushBomb())
        monkeypatch.setattr(
            "repro.cli.print",
            lambda *a, **k: __import__("builtins").print(*a, **k)
            or _sys.stdout.flush(),
            raising=False,
        )
        assert main(["query", str(store), "*", "--stream"]) == 141
        assert record["read_sessions_at_close"] == 0

    def test_real_pipe_to_head(self, store):
        """End to end through a real shell pipe: no traceback, exit 141."""
        import subprocess
        import sys as _sys

        script = (
            "import sys; from repro.cli import main; "
            "sys.exit(main(sys.argv[1:]))"
        )
        # Enough rows to overflow the pipe buffer needs a bigger store;
        # head closing early after one line is the behaviour under test,
        # so emit each row unbuffered (-u) to force the EPIPE.
        proc = subprocess.run(
            f'"{_sys.executable}" -u -c \'{script}\' query "{store}" "*" '
            "--stream | head -1; echo ${PIPESTATUS[0]}",
            shell=True,
            executable="/bin/bash",
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        exit_code = int(lines[-1])
        assert exit_code in (0, 141)  # 0 iff every row fit the pipe buffer
        assert "Traceback" not in proc.stderr
