"""Tests for the observability layer (repro.obs) and its wiring.

Covers the pieces in isolation — histogram bucket math, span
nesting/merging and ring eviction, the slow-log threshold boundary,
the Prometheus/JSON renderers — and the integration surface: a session
with a private panel populates the query metrics and traces, a
``observability=None`` session runs with nothing attached, and a
disabled panel records nothing (the noise guard behind benchmark E14's
disabled-overhead contract).  The process registry — the one the
engine's hot-path counters and the default panel share — is pinned by
its catalogue, its concurrent readers and E19's ``counters`` façade.
"""

import ast
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.obs import (
    METRIC_CATALOG,
    Histogram,
    MetricsRegistry,
    Observability,
    SlowQueryLog,
    Tracer,
    default_observability,
    prometheus_name,
    render_json,
    render_prometheus,
    render_trace,
)
from repro.obs.metrics import process_registry
from repro.obs.trace import MAX_CHILDREN
from repro.tpwj.parser import parse_pattern


# ----------------------------------------------------------------------
# Histogram bucket math
# ----------------------------------------------------------------------


class TestHistogram:
    def test_observation_lands_in_inclusive_upper_bound_bucket(self):
        h = Histogram("t", boundaries=(0.001, 0.01, 0.1))
        h.observe(0.0005)  # below the first bound
        h.observe(0.001)  # exactly on a bound: inclusive
        h.observe(0.05)
        assert h._counts == [2, 0, 1, 0]

    def test_overflow_bucket_catches_beyond_last_bound(self):
        h = Histogram("t", boundaries=(0.001, 0.01))
        h.observe(5.0)
        assert h._counts == [0, 0, 1]
        assert h.count == 1
        assert h.sum == 5.0

    def test_quantile_empty_histogram_is_zero(self):
        h = Histogram("t", boundaries=(0.001, 0.01))
        assert h.quantile(0.5) == 0.0
        assert h.snapshot()["p99"] == 0.0

    def test_quantile_interpolates_inside_bucket(self):
        h = Histogram("t", boundaries=(0.0, 1.0))
        for _ in range(4):
            h.observe(0.5)  # all four in the (0, 1] bucket
        # target rank falls mid-bucket; linear interpolation from 0 to 1
        assert h.quantile(0.5) == pytest.approx(0.5)
        assert h.quantile(1.0) == pytest.approx(1.0)

    def test_quantile_overflow_reports_last_finite_bound(self):
        h = Histogram("t", boundaries=(0.001, 0.01))
        for _ in range(10):
            h.observe(99.0)
        assert h.quantile(0.5) == 0.01
        assert h.quantile(0.99) == 0.01

    def test_quantile_validates_range(self):
        h = Histogram("t")
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_needs_at_least_one_boundary(self):
        with pytest.raises(ValueError):
            Histogram("t", boundaries=())

    def test_snapshot_buckets_are_cumulative(self):
        h = Histogram("t", boundaries=(0.001, 0.01, 0.1))
        h.observe(0.0005)
        h.observe(0.005)
        h.observe(0.005)
        h.observe(50.0)  # overflow
        snap = h.snapshot()
        assert snap["buckets"] == [(0.001, 1), (0.01, 3), (0.1, 3)]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(50.0105)

    def test_snapshot_quantiles_read_the_same_counts_as_count(self):
        # Observations landing after snapshot() copied the counts must
        # not move its p50/p95/p99 away from its own count and buckets.
        h = Histogram("t", boundaries=(0.001, 1.0))
        for _ in range(10):
            h.observe(0.0005)
        real = h._lock
        injected = []

        class InjectAfterFirstRelease:
            def __enter__(self):
                real.acquire()

            def __exit__(self, *exc_info):
                real.release()
                if not injected:
                    injected.append(True)
                    for _ in range(100):
                        h.observe(5.0)

        h._lock = InjectAfterFirstRelease()
        snap = h.snapshot()
        assert injected and h.count == 110
        assert snap["count"] == 10
        assert snap["p50"] <= 0.001
        assert snap["p99"] <= 0.001


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        r = MetricsRegistry(preregister=False)
        r.incr("a", 2)
        r.incr("a")
        r.set_gauge("g", 7.5)
        r.observe("h", 0.002)
        assert r.counter("a") == 3
        assert r.gauge("g") == 7.5
        assert r.histogram("h").count == 1

    def test_preregistered_catalog_is_visible_at_zero(self):
        r = MetricsRegistry()
        snap = r.snapshot()
        for name, kind, _help in METRIC_CATALOG:
            if kind == "counter":
                assert snap["counters"][name] == 0.0
            elif kind == "gauge":
                assert snap["gauges"][name] == 0.0
            else:
                assert snap["histograms"][name]["count"] == 0
            assert r.help_text(name)

    def test_describe_rejects_unknown_kind(self):
        r = MetricsRegistry(preregister=False)
        with pytest.raises(ValueError):
            r.describe("x", "summary", "nope")

    def test_disabled_registry_records_nothing(self):
        # The noise guard behind E14's disabled contract: every
        # recording entry point returns before touching any state.
        r = MetricsRegistry(preregister=False)
        r.disable()
        r.incr("a")
        r.set_gauge("g", 1.0)
        r.observe("h", 0.5)
        snap = r.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}
        r.enable()
        r.incr("a")
        assert r.counter("a") == 1


# ----------------------------------------------------------------------
# Tracer: nesting, merge, ring eviction
# ----------------------------------------------------------------------


class TestTracer:
    def test_spans_nest_under_the_open_parent(self):
        tracer = Tracer()
        root = tracer.start("query")
        child = tracer.start("view_build")
        tracer.emit("index_patch", 0.001)
        tracer.finish(child)
        tracer.finish(root)
        assert [c.name for c in root.children] == ["view_build"]
        assert [c.name for c in child.children] == ["index_patch"]
        # Only the root carries a timestamp and enters the ring.
        assert root.timestamp is not None
        assert child.timestamp is None
        assert tracer.recent() == [root]

    def test_emit_without_open_span_is_a_noop(self):
        tracer = Tracer()
        tracer.emit("orphan", 0.5)
        assert tracer.recent() == []

    def test_consecutive_attributeless_emits_merge(self):
        tracer = Tracer()
        with tracer.span("query") as root:
            for _ in range(5):
                tracer.emit("probability_evaluation", 0.01)
        assert len(root.children) == 1
        merged = root.children[0]
        assert merged.count == 5
        assert merged.duration == pytest.approx(0.05)

    def test_attributes_and_interleaving_prevent_merging(self):
        tracer = Tracer()
        with tracer.span("query") as root:
            tracer.emit("shard", 0.01, document="a")
            tracer.emit("shard", 0.01, document="b")
            tracer.emit("pull", 0.01)
            tracer.emit("shard", 0.01, document="c")
        assert len(root.children) == 4

    def test_child_bound_drops_and_counts(self):
        tracer = Tracer()
        with tracer.span("query") as root:
            for index in range(MAX_CHILDREN + 10):
                # Distinct attributes defeat merging, forcing appends.
                tracer.emit("phase", 0.001, index=index)
        assert len(root.children) == MAX_CHILDREN
        assert root.dropped == 10
        assert root.as_dict()["dropped_children"] == 10

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            with tracer.span("query", index=index):
                pass
        recent = tracer.recent()
        assert len(recent) == 3
        assert [span.attributes["index"] for span in recent] == [2, 3, 4]
        assert [span.attributes["index"] for span in tracer.recent(2)] == [3, 4]

    def test_out_of_order_finish_does_not_orphan_the_stack(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        tracer.finish(outer)  # closed before its child
        assert tracer.current() is inner
        tracer.finish(inner)
        assert tracer.current() is None
        assert [span.name for span in tracer.recent()] == ["outer"]

    def test_phase_seconds_folds_by_name(self):
        tracer = Tracer()
        with tracer.span("query") as root:
            tracer.emit("a", 0.1)
            tracer.emit("b", 0.2, tag=1)
            tracer.emit("b", 0.3, tag=2)
        phases = root.phase_seconds()
        assert phases["a"] == pytest.approx(0.1)
        assert phases["b"] == pytest.approx(0.5)

    def test_as_dict_stringifies_non_scalar_attributes(self):
        # Hot paths attach live objects (e.g. the Pattern); rendering
        # stringifies them only when a human reads the trace.
        tracer = Tracer()
        with tracer.span("query", pattern=object(), rows=3) as root:
            pass
        rendered = root.as_dict()["attributes"]
        assert isinstance(rendered["pattern"], str)
        assert rendered["rows"] == 3
        assert "query" in render_trace(root)

    def test_clear_empties_the_ring(self):
        tracer = Tracer()
        with tracer.span("query"):
            pass
        tracer.clear()
        assert tracer.recent() == []


# ----------------------------------------------------------------------
# Slow-query log threshold boundary
# ----------------------------------------------------------------------


class TestSlowQueryLog:
    def test_threshold_is_inclusive(self):
        log = SlowQueryLog(threshold=0.25)
        assert log.should_record(0.25) is True
        assert not log.should_record(0.2499999)
        assert log.record("//a", 0.25, rows=1) is not None
        assert log.record("//b", 0.24, rows=1) is None
        assert [entry.pattern for entry in log.entries()] == ["//a"]

    def test_zero_threshold_logs_everything(self):
        log = SlowQueryLog(threshold=0.0)
        log.record("//a", 0.0, rows=0)
        assert len(log) == 1

    def test_capacity_bounds_the_log(self):
        log = SlowQueryLog(threshold=0.0, capacity=2)
        for index in range(4):
            log.record(f"//p{index}", 1.0, rows=0)
        assert [entry.pattern for entry in log.entries()] == ["//p2", "//p3"]

    def test_entry_as_dict_units(self):
        log = SlowQueryLog(threshold=0.0)
        entry = log.record(
            "//a", 0.5, rows=3,
            phases={"match_enumeration": 0.2}, plan="scan",
        )
        payload = entry.as_dict()
        assert payload["duration_ms"] == 500.0
        assert payload["phases_ms"]["match_enumeration"] == 200.0
        assert payload["plan"] == "scan"
        assert payload["rows"] == 3

    def test_clear(self):
        log = SlowQueryLog(threshold=0.0)
        log.record("//a", 1.0, rows=0)
        log.clear()
        assert log.entries() == []


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class TestExport:
    def test_prometheus_name_mangling(self):
        assert prometheus_name("engine.plan-cache.hits") == (
            "repro_engine_plan_cache_hits"
        )
        assert prometheus_name("api.queries", counter=True) == (
            "repro_api_queries_total"
        )

    def test_prometheus_exposition_is_well_formed(self):
        r = MetricsRegistry()
        r.incr("api.queries", 3)
        r.set_gauge("warehouse.nodes", 42)
        r.observe("api.query_seconds", 0.004)
        text = render_prometheus(r)
        assert text.endswith("\n")
        for line in text.rstrip("\n").splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                series, value = line.rsplit(" ", 1)
                float(value)  # every sample value parses
                assert series.startswith("repro_")
        assert "repro_api_queries_total 3" in text
        assert "repro_warehouse_nodes 42" in text

    def test_prometheus_histogram_series_are_consistent(self):
        r = MetricsRegistry(preregister=False)
        r.describe("api.query_seconds", "histogram", "Query latency")
        r.observe("api.query_seconds", 0.004)
        r.observe("api.query_seconds", 99.0)  # overflow
        text = render_prometheus(r)
        cumulative = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith('repro_api_query_seconds_bucket{le="')
            and '+Inf' not in line
        ]
        assert cumulative == sorted(cumulative)  # monotone buckets
        assert 'repro_api_query_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_api_query_seconds_count 2" in text

    def test_render_json_includes_slowlog_and_traces(self):
        panel = Observability()
        panel.metrics.incr("api.queries")
        panel.slowlog.threshold = 0.0
        panel.slowlog.record("//a", 0.2, rows=1)
        with panel.tracer.span("query"):
            pass
        payload = json.loads(render_json(panel.metrics, panel))
        assert payload["counters"]["api.queries"] == 1
        assert payload["slow_queries"][0]["pattern"] == "//a"
        assert payload["traces"][0]["name"] == "query"
        # Without the panel the snapshot stands alone.
        bare = json.loads(render_json(panel.metrics))
        assert "slow_queries" not in bare


# ----------------------------------------------------------------------
# Session wiring
# ----------------------------------------------------------------------


def _insert_person():
    return (
        repro.update(repro.pattern("directory", variable="d", anchored=True))
        .insert("d", repro.tree("person", repro.tree("name", "Alice")))
        .confidence(0.9)
    )


def _populated_session(path, panel):
    session = repro.connect(
        path, create=True, root="directory", observability=panel
    )
    session.update(_insert_person())
    return session


class TestSessionWiring:
    def test_private_panel_collects_query_metrics_and_traces(self, tmp_path):
        panel = Observability()
        with _populated_session(tmp_path / "wh", panel) as session:
            assert session.metrics() is panel.metrics
            assert session.observability is panel
            rows = list(session.query("//person"))
            assert rows and rows[0].probability > 0
        registry = panel.metrics
        assert registry.counter("api.queries") == 1
        assert registry.counter("api.rows_streamed") == len(rows)
        assert registry.histogram("api.query_seconds").count == 1
        assert registry.histogram("api.first_row_seconds").count == 1
        assert registry.histogram("query.probability_seconds").count >= 1
        assert registry.counter("warehouse.commits") >= 1
        assert registry.histogram("warehouse.commit_seconds").count >= 1
        trace = panel.tracer.recent()[-1]
        assert trace.name == "query"
        assert trace.attributes["rows"] == len(rows)
        assert "match_enumeration" in trace.phase_seconds()

    def test_slowlog_captures_query_with_phases(self, tmp_path):
        panel = Observability()
        panel.slowlog.threshold = 0.0  # log every query
        with _populated_session(tmp_path / "wh", panel) as session:
            list(session.query("//person"))
        assert panel.metrics.counter("api.slow_queries") == 1
        entry = panel.slowlog.entries()[0]
        assert "person" in entry.pattern
        assert entry.rows == 1
        assert entry.phases  # per-phase seconds from the trace layer

    def test_observability_none_attaches_nothing(self, tmp_path):
        with _populated_session(tmp_path / "wh", None) as session:
            assert session.observability is None
            assert session.metrics() is None
            assert len(list(session.query("//person"))) == 1

    def test_disabled_panel_records_nothing(self, tmp_path):
        panel = Observability()
        panel.disable()
        with _populated_session(tmp_path / "wh", panel) as session:
            rows = list(session.query("//person"))
            assert len(rows) == 1 and rows[0].probability > 0
        snap = panel.metrics.snapshot()
        assert all(value == 0 for value in snap["counters"].values())
        assert all(
            summary["count"] == 0 for summary in snap["histograms"].values()
        )
        assert panel.tracer.recent() == []
        assert len(panel.slowlog) == 0

    @pytest.mark.parametrize("target", ["session", "collection"])
    def test_estimate_reaches_the_panel_like_answers(self, tmp_path, target):
        # One estimate() counts one query and leaves one ``query`` trace
        # carrying what an answers() trace carries.
        panel = Observability()
        if target == "session":
            opened = _populated_session(tmp_path / "wh", panel)
        else:
            opened = repro.connect_collection(
                tmp_path / "coll", create=True, observability=panel
            )
            opened.create_document("d1", root="directory")
            opened.update("d1", _insert_person())

        def query_traces():
            return [t for t in panel.tracer.recent() if t.name == "query"]

        with opened:
            opened.query("//person").answers()
            answered = query_traces()[-1]
            before = panel.metrics.counter("api.queries")
            traced = len(query_traces())
            estimates = opened.query("//person").estimate(seed=3)
        assert len(estimates) == 1
        assert panel.metrics.counter("api.queries") == before + 1
        assert len(query_traces()) == traced + 1
        estimated = query_traces()[-1]
        assert estimated.as_dict()["attributes"] == answered.as_dict()["attributes"]
        assert estimated.attributes["rows"] == 1

    def test_stats_refreshes_document_gauges(self, tmp_path):
        panel = Observability()
        with _populated_session(tmp_path / "wh", panel) as session:
            info = session.stats()
        assert panel.metrics.gauge("warehouse.nodes") == info["nodes"]
        assert panel.metrics.gauge("warehouse.sequence") == info["sequence"]


# ----------------------------------------------------------------------
# The process registry's readers under concurrent writers (regression)
# ----------------------------------------------------------------------


def _prefixed(prefix):
    """A sorted prefixed view of the process registry's counters."""
    counters = process_registry.snapshot()["counters"]
    return {name: value for name, value in counters.items() if name.startswith(prefix)}


class TestCountersThreaded:
    def test_prefixed_while_writers_insert_new_keys(self):
        # A reader iterating the live dict while a writer inserts a new
        # key raises "dictionary changed size during iteration"; every
        # read must copy under the registry's lock instead.
        stop = threading.Event()
        errors = []

        def writer(worker):
            index = 0
            while not stop.is_set():
                process_registry.incr(f"stress.w{worker}.k{index}")
                index += 1

        def reader():
            try:
                while not stop.is_set():
                    _prefixed("stress.")
                    render_prometheus(process_registry)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(worker,))
            for worker in range(4)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            stop_timer = threading.Timer(0.5, stop.set)
            stop_timer.start()
            for thread in threads:
                thread.join(timeout=30)
            stop_timer.cancel()
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            view = _prefixed("stress.w0")
            assert view and all(name.startswith("stress.w0") for name in view)
            assert list(view) == sorted(view)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            # Leave the process registry holding catalogued names only.
            with process_registry._lock:
                for name in list(process_registry._counters):
                    if name.startswith("stress."):
                        del process_registry._counters[name]


# ----------------------------------------------------------------------
# The process registry: one catalogue, one flag, E19's façade
# ----------------------------------------------------------------------


def _people_session(path):
    """A default-panel session over people of falling confidence, so a
    top-1 query's bound prunes everyone after the first."""
    session = repro.connect(path, create=True, root="directory")
    directory = repro.pattern("directory", variable="d", anchored=True)
    for i, confidence in enumerate([0.97, 0.85, 0.7, 0.55, 0.4, 0.25]):
        session.update(
            repro.update(directory).insert(
                "d", repro.tree("person", repro.tree("name", f"p{i}"))
            ),
            confidence=confidence,
        )
    return session


class TestProcessRegistry:
    def test_default_panel_is_the_process_registry(self):
        assert default_observability().metrics is process_registry

    def test_every_counter_is_catalogued(self, tmp_path):
        process_registry.reset()
        with _people_session(tmp_path / "wh") as session:
            session.query("//person { name }").limit(2).all()
            list(session.query("//person").order_by_probability().limit(1))
            session.query('//person { !name[="p1"] }').all()
            session.update(repro.update('//person[$p] { name[="p5"] }').delete("p"))
            worlds = repro.to_possible_worlds(session.warehouse.document)
            # Worlds are plain trees: negation prunes structurally there.
            negated = parse_pattern('//person { !name[="p0"] }')
            repro.query_possible_worlds(worlds, negated)
            repro.update_possible_worlds(
                worlds,
                repro.update("//person[$p]").delete("p").confidence(0.5).build(),
            )
        counters = process_registry.snapshot()["counters"]
        for name in (
            "match.assignments",
            "match.bound_pruned",
            "match.negation_pruned",
            "engine.plans_built",
            "semantics.world_classes",
            "pworlds.query.worlds",
            "pworlds.update.selected",
        ):
            assert counters[name] > 0, name
        assert [name for name in counters if not process_registry.help_text(name)] == []

    def test_every_catalogued_metric_is_emitted(self):
        """The reverse check: each catalogue name is spelled in some
        ``src/`` module other than the catalogue's own, as a string
        literal or an f-string family (``warehouse.commits.{kind}``), so
        no exported family reads zero for want of an emitter."""
        src = Path(repro.__file__).parent
        literals: set[str] = set()
        families: list[re.Pattern] = []
        for path in src.rglob("*.py"):
            if path == src / "obs" / "metrics.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    literals.add(node.value)
                elif isinstance(node, ast.JoinedStr) and isinstance(node.values[0], ast.Constant):
                    # A family names its metric prefix literally: "x.y.{z}".
                    parts = [
                        re.escape(part.value) if isinstance(part, ast.Constant) else r"\w+"
                        for part in node.values
                    ]
                    families.append(re.compile("".join(parts)))
        silent = [
            name
            for name, _kind, _help in METRIC_CATALOG
            if name not in literals and not any(f.fullmatch(name) for f in families)
        ]
        assert silent == []

    def test_default_panel_reset_and_disable_cover_hot_path_counters(self, tmp_path):
        panel = default_observability()
        with _people_session(tmp_path / "wh") as session:
            session.query("//person").all()
            assert panel.metrics.counter("match.found") > 0
            panel.metrics.reset()
            assert panel.metrics.counter("match.found") == 0
            assert panel.metrics.histogram("api.query_seconds").count == 0
            panel.disable()
            try:
                session.query("//person").all()
            finally:
                panel.enable()
        assert panel.metrics.counter("match.found") == 0
        assert panel.metrics.counter("api.queries") == 0

    def test_e19_facade_replay_keeps_the_panel_recording(self, tmp_path):
        # benchmarks/e19/layers.py's branch-and-bound block, verbatim.
        from repro.analysis.instrumentation import counters

        out = {}
        LIMIT = 1
        with _people_session(tmp_path / "wh") as session:
            sessions = [session]
            queries = [("people", "//person { name }")]
            n = len(sessions)
            counters.reset()
            counters.enable()
            try:
                for i in range(n):
                    list(sessions[i].query(queries[i][1]).order_by_probability().limit(LIMIT))
                out["core.bound_pruned_per_query"] = counters.get("match.bound_pruned") / n
            finally:
                counters.disable()
                counters.reset()
            assert out["core.bound_pruned_per_query"] > 0
            # disable() is a no-op: the panel E19 times next still records.
            session.query("//person").all()
        panel = default_observability()
        assert panel.metrics.counter("api.queries") == 1
        assert panel.metrics.counter("match.found") > 0
        assert counters.registry is panel.metrics

    def test_serving_imports_leave_the_facade_unloaded(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys, repro, repro.cli, repro.serve.http, "
            "repro.serve.cluster.worker\n"
            "print('repro.analysis.instrumentation' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert result.stdout.strip() == "False"


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


@pytest.fixture
def obs_store(tmp_path):
    path = tmp_path / "wh"
    with _populated_session(path, repro.obs.default_observability()):
        pass
    return path


class TestCli:
    def test_metrics_prometheus(self, obs_store, capsys):
        assert main(["metrics", str(obs_store)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_api_queries_total counter" in out
        assert "# TYPE repro_warehouse_commit_seconds histogram" in out
        # Opening the store refreshed the document gauges.
        assert "repro_warehouse_nodes 3" in out

    def test_metrics_json(self, obs_store, capsys):
        assert main(["metrics", str(obs_store), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "api.query_seconds" in payload["histograms"]
        assert payload["gauges"]["warehouse.nodes"] == 3
        assert "traces" in payload and "slow_queries" in payload

    def test_trace_runs_a_query_and_prints_spans(self, obs_store, capsys):
        assert main(["trace", str(obs_store), "//person"]) == 0
        out = capsys.readouterr().out
        assert "query" in out and "us" in out

    def test_trace_without_traces(self, obs_store, capsys):
        repro.obs.default_observability().tracer.clear()
        assert main(["trace", str(obs_store)]) == 0
        assert "(no traces)" in capsys.readouterr().out

    def test_stats_json(self, obs_store, capsys):
        assert main(["stats", str(obs_store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == 3

    def test_serve_stats_json_single_warehouse(self, obs_store, capsys):
        assert main(["serve-stats", str(obs_store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == 3
        assert "wal_depth" in payload
