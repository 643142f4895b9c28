"""Tests for the interprocedural concurrency analyzer: the call graph
(lint/callgraph.py), the lock-set dataflow (lint/locks.py), and rules
RL009/RL010/RL011.

Snippet tests use ``lint_source`` (one in-memory file); the on-disk
fixtures under tests/lint/fixtures/ pin the end-to-end CLI behavior,
including that each seeded bug is caught by exactly its rule with a
full witness path.
"""

import json
import subprocess
import sys

import pytest

from repro.lint.cli import main
from repro.lint.engine import (
    FileContext,
    Project,
    find_project_root,
    lint_paths,
    lint_source,
)
from repro.lint.rules import get_rules

ROOT = find_project_root()
FIXTURES = "tests/lint/fixtures"
SNIPPET = "src/repro/_snippet.py"


def run(rule_id, source):
    return lint_source(source, rules=get_rules(select=[rule_id]), root=ROOT)


def assert_clean(rule_id, source):
    report = run(rule_id, source)
    assert report.ok, report.to_text()


def assert_flags(rule_id, source, count=None):
    report = run(rule_id, source)
    assert not report.ok, f"{rule_id} found nothing"
    assert all(f.rule == rule_id for f in report.findings)
    if count is not None:
        assert len(report.findings) == count, report.to_text()
    return report.findings


def _snippet_project(source):
    ctx = FileContext(SNIPPET, source)
    return Project(ROOT, [ctx])


# ---------------------------------------------------------------------------
# call graph


class TestCallGraph:
    def _graph(self, source):
        from repro.lint.callgraph import build_call_graph

        return build_call_graph(_snippet_project(source))

    def test_resolves_self_method_and_module_function(self):
        g = self._graph(
            """
def helper():
    pass

class C:
    def top(self):
        self.other()
        helper()

    def other(self):
        pass
"""
        )
        callees = {s.callee for s in g.calls["repro._snippet.C.top"]}
        assert callees == {
            "repro._snippet.C.other",
            "repro._snippet.helper",
        }

    def test_resolves_attribute_through_constructor_assignment(self):
        g = self._graph(
            """
class Inner:
    def work(self):
        pass

class Outer:
    def __init__(self):
        self.inner = Inner()

    def go(self):
        self.inner.work()
"""
        )
        callees = {s.callee for s in g.calls["repro._snippet.Outer.go"]}
        assert "repro._snippet.Inner.work" in callees

    def test_resolves_classmethod_constructor_heuristic(self):
        g = self._graph(
            """
class Model:
    @classmethod
    def from_path(cls, p):
        return cls()

    def predict(self):
        pass

def load(p):
    m = Model.from_path(p)
    m.predict()
"""
        )
        callees = {s.callee for s in g.calls["repro._snippet.load"]}
        assert "repro._snippet.Model.predict" in callees

    def test_thread_entry_with_name_label(self):
        g = self._graph(
            """
import threading

def work():
    pass

def start():
    threading.Thread(target=work, name="bg-worker").start()
"""
        )
        entries = {e.label: e.target for e in g.entries}
        assert entries == {"Thread(bg-worker)": "repro._snippet.work"}

    def test_thread_entry_bound_method_target(self):
        g = self._graph(
            """
import threading

class Svc:
    def loop(self):
        pass

    def start(self):
        threading.Thread(target=self.loop).start()
"""
        )
        assert [e.target for e in g.entries] == ["repro._snippet.Svc.loop"]

    def test_nested_def_is_its_own_function_and_fork_target(self):
        g = self._graph(
            """
from repro.core.parallel import fork_workers

def run(n):
    def worker():
        inner_helper()
    fork_workers(n, worker)

def inner_helper():
    pass
"""
        )
        assert "repro._snippet.run.worker" in g.functions
        assert [e.target for e in g.entries] == ["repro._snippet.run.worker"]
        callees = {s.callee for s in g.calls["repro._snippet.run.worker"]}
        assert callees == {"repro._snippet.inner_helper"}

    def test_handler_do_get_is_an_entry(self):
        g = self._graph(
            """
from http.server import BaseHTTPRequestHandler

class H(BaseHTTPRequestHandler):
    def do_GET(self):
        pass
"""
        )
        assert [e.kind for e in g.entries] == ["handler"]

    def test_entries_reaching_walks_call_chain(self):
        g = self._graph(
            """
import threading

def leaf():
    pass

def mid():
    leaf()

def start():
    threading.Thread(target=mid).start()
"""
        )
        labels = [e.label for e in g.entries_reaching("repro._snippet.leaf")]
        assert labels == ["Thread(mid)"]

    def test_call_path_is_shortest_chain(self):
        g = self._graph(
            """
def a():
    b()

def b():
    c()

def c():
    pass
"""
        )
        path = g.call_path("repro._snippet.a", "repro._snippet.c")
        assert [s.callee for s in path] == [
            "repro._snippet.b",
            "repro._snippet.c",
        ]
        assert g.call_path("repro._snippet.c", "repro._snippet.a") is None


# ---------------------------------------------------------------------------
# lock-set dataflow


class TestLockSets:
    def _model(self, source):
        from repro.lint.locks import ConcurrencyModel

        return ConcurrencyModel.for_project(_snippet_project(source))

    def test_with_block_sets_held(self):
        import ast

        model = self._model(
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()

    def m(self):
        self.before()
        with self._lock:
            self.inside()
        self.after()

    def before(self):
        pass

    def inside(self):
        pass

    def after(self):
        pass
"""
        )
        facts = model.facts["repro._snippet.C.m"]
        held_by_callee = {}
        for site in model.graph.calls["repro._snippet.C.m"]:
            held_by_callee[site.callee.rsplit(".", 1)[-1]] = facts.held(
                site.node
            )
        assert not held_by_callee["before"]
        assert len(held_by_callee["inside"]) == 1
        assert not held_by_callee["after"]

    def test_acquire_release_track_rest_of_block(self):
        model = self._model(
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()

    def m(self):
        self._lock.acquire()
        self.locked()
        self._lock.release()
        self.unlocked()

    def locked(self):
        pass

    def unlocked(self):
        pass
"""
        )
        facts = model.facts["repro._snippet.C.m"]
        for site in model.graph.calls["repro._snippet.C.m"]:
            name = site.callee.rsplit(".", 1)[-1]
            if name == "locked":
                assert facts.held(site.node)
            elif name == "unlocked":
                assert not facts.held(site.node)

    def test_acquire_in_if_test_holds_in_body_only(self):
        model = self._model(
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.idle = True

    def m(self):
        if self.idle and self._lock.acquire(blocking=False):
            try:
                self.locked()
            finally:
                self._lock.release()
        else:
            self.fallback()
        self.after()

    def locked(self):
        pass

    def fallback(self):
        pass

    def after(self):
        pass
"""
        )
        facts = model.facts["repro._snippet.C.m"]
        held = {
            site.callee.rsplit(".", 1)[-1]: facts.held(site.node)
            for site in model.graph.calls["repro._snippet.C.m"]
        }
        assert len(held["locked"]) == 1
        assert not held["fallback"]
        assert not held["after"]
        assert len(facts.acquires) == 1

    def test_must_held_is_intersection_over_paths(self):
        model = self._model(
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()

    def entry(self):
        with self._lock:
            self.shared()
        self.shared()

    def shared(self):
        pass
"""
        )
        must = model.must_held("repro._snippet.C.entry")
        # one guarded path and one bare path -> nothing held on EVERY path
        assert must["repro._snippet.C.shared"] == frozenset()

    def test_must_held_propagates_through_always_locked_chain(self):
        model = self._model(
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()

    def entry(self):
        with self._lock:
            self.mid()

    def mid(self):
        self.leaf()

    def leaf(self):
        pass
"""
        )
        must = model.must_held("repro._snippet.C.entry")
        assert len(must["repro._snippet.C.leaf"]) == 1

    def test_order_edges_capture_nesting(self):
        model = self._model(
            """
import threading

_a = threading.Lock()
_b = threading.Lock()

def nested():
    with _a:
        with _b:
            pass
"""
        )
        pairs = {
            (a.attr, b.attr) for (a, b) in model.order_edges()
        }
        assert pairs == {("_a", "_b")}

    def test_rlock_reacquire_produces_no_self_edge(self):
        model = self._model(
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.RLock()

    def outer(self):
        with self._lock:
            self.inner()

    def inner(self):
        with self._lock:
            pass
"""
        )
        assert model.order_cycles() == []


# ---------------------------------------------------------------------------
# RL009 — inferred races


RACY = """
import threading

class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # reprolint: lock-guarded

    def safe(self):
        with self._lock:
            self.count += 1

    def unsafe(self):
        self.count += 1  # reprolint: disable=RL005

def start():
    w = Worker()
    threading.Thread(target=w.safe).start()
    threading.Thread(target=w.unsafe).start()
"""


class TestRL009:
    def test_unguarded_path_from_second_thread_flagged(self):
        findings = assert_flags("RL009", RACY, count=1)
        assert "self.count" in findings[0].message
        assert findings[0].witness
        assert "thread entry" in findings[0].witness[0]

    def test_single_thread_use_is_not_concurrent(self):
        # same unguarded access, but only ever called from one thread
        assert_clean(
            "RL009",
            RACY.replace(
                "    threading.Thread(target=w.unsafe).start()\n", ""
            ).replace("def unsafe", "def _unused_unsafe"),
        )

    def test_all_paths_guarded_is_clean(self):
        assert_clean(
            "RL009",
            RACY.replace(
                "        self.count += 1  # reprolint: disable=RL005",
                "        with self._lock:\n            self.count += 1",
            ),
        )

    def test_interprocedural_guard_through_caller_discharges(self):
        assert_clean(
            "RL009",
            """
import threading

class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # reprolint: lock-guarded

    def entry_a(self):
        with self._lock:
            self._bump()

    def entry_b(self):
        with self._lock:
            self._bump()

    def _bump(self):  # reprolint: holds-lock
        self.count += 1

def start():
    w = Worker()
    threading.Thread(target=w.entry_a).start()
    threading.Thread(target=w.entry_b).start()
""",
        )

    def test_non_blocking_acquire_in_if_test_discharges(self):
        assert_clean(
            "RL009",
            """
import threading

class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # reprolint: lock-guarded

    def entry_a(self):
        with self._lock:
            self._bump()

    def entry_b(self):
        if self._lock.acquire(blocking=False):
            try:
                self._bump()
            finally:
                self._lock.release()

    def _bump(self):  # reprolint: holds-lock
        self.count += 1

def start():
    w = Worker()
    threading.Thread(target=w.entry_a).start()
    threading.Thread(target=w.entry_b).start()
""",
        )

    def test_holds_lock_claim_with_bare_caller_flagged(self):
        findings = assert_flags(
            "RL009",
            """
import threading

class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # reprolint: lock-guarded

    def entry_a(self):
        with self._lock:
            self._bump()

    def entry_b(self):
        self._bump()  # no lock!

    def _bump(self):  # reprolint: holds-lock
        self.count += 1

def start():
    w = Worker()
    threading.Thread(target=w.entry_a).start()
    threading.Thread(target=w.entry_b).start()
""",
        )
        assert any("holds-lock" in f.message for f in findings)

    def test_holds_lock_claim_with_no_resolved_callers_flagged(self):
        findings = assert_flags(
            "RL009",
            """
import threading

class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # reprolint: lock-guarded

    def orphan(self):  # reprolint: holds-lock
        self.count += 1
""",
            count=1,
        )
        assert "no resolved caller" in findings[0].message

    def test_init_access_exempt(self):
        assert_clean(
            "RL009",
            """
import threading

class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # reprolint: lock-guarded
        self.count += 1  # construction happens-before publication

    def safe(self):
        with self._lock:
            self.count += 1

def start():
    w = Worker()
    threading.Thread(target=w.safe).start()
    threading.Thread(target=w.safe).start()
""",
        )


# ---------------------------------------------------------------------------
# RL010 — lock-order cycles


CYCLE = """
import threading

_a = threading.Lock()
_b = threading.Lock()

def one():
    with _a:
        with _b:
            pass

def two():
    with _b:
        with _a:
            pass
"""


class TestRL010:
    def test_ab_ba_cycle_flagged_once(self):
        findings = assert_flags("RL010", CYCLE, count=1)
        assert "lock-order cycle" in findings[0].message
        assert len(findings[0].witness) == 2

    def test_consistent_order_is_clean(self):
        assert_clean(
            "RL010",
            CYCLE.replace(
                "def two():\n    with _b:\n        with _a:",
                "def two():\n    with _a:\n        with _b:",
            ),
        )

    def test_interprocedural_cycle_detected(self):
        # neither function nests two with-blocks; the cycle only exists
        # across the call edge
        findings = assert_flags(
            "RL010",
            """
import threading

_a = threading.Lock()
_b = threading.Lock()

def one():
    with _a:
        helper_b()

def helper_b():
    with _b:
        pass

def two():
    with _b:
        helper_a()

def helper_a():
    with _a:
        pass
""",
            count=1,
        )
        assert "cycle" in findings[0].message

    def test_plain_lock_reacquire_is_self_deadlock(self):
        findings = assert_flags(
            "RL010",
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()

    def outer(self):
        with self._lock:
            self.inner()

    def inner(self):
        with self._lock:
            pass
""",
            count=1,
        )
        assert "self-deadlock" in findings[0].message


# ---------------------------------------------------------------------------
# RL011 — blocking under a hot lock


HOT = """
import threading
from http.server import BaseHTTPRequestHandler

class State:
    def __init__(self):
        self._lock = threading.Lock()
        self.worker = threading.Thread(target=self._spin)

    def slow(self):
        with self._lock:
            self.worker.join()

    def _spin(self):
        pass

class Handler(BaseHTTPRequestHandler):
    state: "State"

    def do_GET(self):
        st = self.state
        with st._lock:
            pass
"""


class TestRL011:
    def test_join_under_handler_contended_lock_flagged(self):
        findings = assert_flags("RL011", HOT, count=1)
        assert "joins a thread" in findings[0].message
        assert any("handler" in line for line in findings[0].witness)

    def test_join_outside_lock_is_clean(self):
        assert_clean(
            "RL011",
            HOT.replace(
                "        with self._lock:\n            self.worker.join()",
                "        self.worker.join()",
            ),
        )

    def test_join_under_if_acquired_lock_flagged(self):
        findings = assert_flags(
            "RL011",
            HOT.replace(
                "        with self._lock:\n            self.worker.join()",
                "        if self._lock.acquire(blocking=False):\n"
                "            self.worker.join()\n"
                "            self._lock.release()",
            ),
            count=1,
        )
        assert "joins a thread" in findings[0].message

    def test_lock_not_touched_by_handlers_is_cold(self):
        # same blocking-under-lock shape, but no handler ever takes the
        # lock -> not hot, no finding
        assert_clean(
            "RL011",
            HOT.replace(
                "        st = self.state\n        with st._lock:\n            pass",
                "        pass",
            ),
        )

    def test_string_join_and_path_join_not_blocking(self):
        assert_clean(
            "RL011",
            HOT.replace(
                "self.worker.join()",
                "','.join(['a']); os.path.join('a', 'b')",
            ).replace("import threading", "import os\nimport threading"),
        )

    def test_interprocedural_block_under_lock(self):
        # the lock and the blocking call are two call-hops apart
        findings = assert_flags(
            "RL011",
            """
import threading
from http.server import BaseHTTPRequestHandler

class State:
    def __init__(self):
        self._lock = threading.Lock()
        self.worker = threading.Thread(target=self._spin)

    def slow(self):
        with self._lock:
            self._drain()

    def _drain(self):
        self.worker.join()

    def _spin(self):
        pass

class Handler(BaseHTTPRequestHandler):
    state: "State"

    def do_GET(self):
        st = self.state
        st.slow()
        with st._lock:
            pass
""",
            count=1,
        )
        assert findings[0].witness


# ---------------------------------------------------------------------------
# seeded fixtures: each caught by exactly its rule, end to end


class TestSeededFixtures:
    def _lint(self, name):
        return lint_paths([f"{FIXTURES}/{name}"], root=ROOT)

    def test_deadlock_fixture_caught_by_exactly_rl010(self):
        report = self._lint("bad_deadlock.py")
        assert {f.rule for f in report.findings} == {"RL010"}

    def test_race_fixture_caught_by_exactly_rl009(self):
        report = self._lint("bad_cross_thread_race.py")
        assert {f.rule for f in report.findings} == {"RL009"}

    def test_good_threaded_fixture_clean(self):
        report = self._lint("good_threaded.py")
        assert report.ok, report.to_text()

    def test_explain_prints_full_witness_path(self, capsys):
        rc = main(
            [f"{FIXTURES}/bad_cross_thread_race.py", "--explain", "RL009",
             "--root", str(ROOT)]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "thread entry: Thread(flusher)" in out
        assert "unguarded access: self.total" in out

    def test_explain_deadlock_witness_names_both_sites(self, capsys):
        rc = main(
            [f"{FIXTURES}/bad_deadlock.py", "--explain", "RL010",
             "--root", str(ROOT)]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "transfer_out" in out and "transfer_in" in out


# ---------------------------------------------------------------------------
# regression: the serve/stream surfaces stay analyzable


class TestRealTreeResolution:
    """The annotation fix on _Handler._stream_ingest (typed parameter)
    must keep the handler -> observe -> drift chain visible; if these
    break, RL009 silently loses its reach into the streaming surface."""

    @pytest.fixture(scope="class")
    def model(self):
        from repro.lint.engine import collect_files, _rel_to
        from repro.lint.locks import ConcurrencyModel

        files = collect_files(["src"], ROOT)
        ctxs = [
            FileContext(_rel_to(p, ROOT), p.read_text(), p) for p in files
        ]
        return ConcurrencyModel.for_project(Project(ROOT, ctxs))

    def test_expected_thread_entries_present(self, model):
        labels = {e.label for e in model.graph.entries}
        assert "Thread(repro-serve-batcher)" in labels
        assert "Thread(repro-stream-refit)" in labels
        assert "http-handler _Handler.do_GET" in labels
        assert "http-handler _Handler.do_POST" in labels
        assert "fork_workers(worker)" in labels

    def test_handler_reaches_streaming_detector(self, model):
        entries = model.graph.entries_reaching(
            "repro.stream.StreamingDetector.observe"
        )
        assert any(e.kind == "handler" for e in entries)

    def test_holds_lock_claims_discharged_on_tree(self, model):
        # _drift_statistic is holds-lock annotated; every resolved
        # caller must enter with the RLock held
        graph = model.graph
        sites = graph.callers["repro.stream.StreamingDetector._drift_statistic"]
        assert sites, "annotation now unverifiable"
        for site in sites:
            assert model.site_held(site), (
                f"{site.caller} calls _drift_statistic without the lock"
            )

    def test_serving_locks_are_hot(self, model):
        hot = {lock.render() for lock in model.hot_locks()}
        assert "OnlineScorer._lock" in hot
        assert "_ModelHTTPServer._state_lock" in hot
        assert "ScoreBatcher._score_lock" in hot

    def test_inline_score_runs_under_the_scoring_lock(self, model):
        # The handler's inline score takes the lock with a non-blocking
        # acquire in an if test; the analyzer must see it held there.
        sites = model.graph.callers["repro.serve.ScoreBatcher._score_inline"]
        assert sites, "annotation now unverifiable"
        for site in sites:
            assert {lock.render() for lock in model.site_held(site)} == {
                "ScoreBatcher._score_lock"
            }


# ---------------------------------------------------------------------------
# suppression edge cases (satellite)


class TestSuppressionEdgeCases:
    def test_multi_rule_disable_on_one_line(self):
        # RL009-racy access that is also an RL005 violation: one
        # comment suppresses both
        source = RACY.replace(
            "        self.count += 1  # reprolint: disable=RL005",
            "        self.count += 1  # reprolint: disable=RL005,RL009",
        )
        report = lint_source(
            source, rules=get_rules(select=["RL005", "RL009"]), root=ROOT
        )
        assert report.ok, report.to_text()
        assert report.suppressed == 2

    def test_disable_file_suppresses_project_level_findings(self):
        source = "# reprolint: disable-file=RL009\n" + RACY
        report = lint_source(source, rules=get_rules(select=["RL009"]), root=ROOT)
        assert report.ok
        assert report.suppressed == 1

    def test_suppressed_count_in_json_output(self):
        source = RACY.replace(
            "        self.count += 1  # reprolint: disable=RL005",
            "        self.count += 1  # reprolint: disable=RL005,RL009",
        )
        report = lint_source(
            source, rules=get_rules(select=["RL005", "RL009"]), root=ROOT
        )
        payload = json.loads(report.to_json())
        assert payload["suppressed"] == 2
        assert payload["ok"] is True

    def test_witness_survives_json_round_trip(self):
        report = lint_source(RACY, rules=get_rules(select=["RL009"]), root=ROOT)
        payload = json.loads(report.to_json())
        assert payload["findings"][0]["witness"]


# ---------------------------------------------------------------------------
# SARIF output (satellite)


class TestSarif:
    def test_sarif_document_shape(self, capsys):
        rc = main(
            [f"{FIXTURES}/bad_cross_thread_race.py", "--format", "sarif",
             "--root", str(ROOT)]
        )
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run_ = doc["runs"][0]
        assert run_["tool"]["driver"]["name"] == "repro.lint"
        rule_ids = {r["id"] for r in run_["tool"]["driver"]["rules"]}
        assert "RL009" in rule_ids and "RL011" in rule_ids
        result = run_["results"][0]
        assert result["ruleId"] == "RL009"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith(
            "bad_cross_thread_race.py"
        )
        assert loc["region"]["startLine"] > 0
        assert loc["region"]["startColumn"] > 0  # SARIF columns are 1-based

    def test_sarif_clean_run_has_no_results(self, capsys):
        rc = main(
            [f"{FIXTURES}/good_threaded.py", "--format", "sarif",
             "--root", str(ROOT)]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# --changed (satellite)


class TestChangedScope:
    def test_restrict_limits_file_rules_but_not_project_rules(self):
        # lint the whole src tree but restrict per-file rules to one
        # file: per-file findings elsewhere vanish, project-level rules
        # still see everything (here: the self-check stays clean, and
        # files_checked reflects the restriction)
        report = lint_paths(
            ["src"], root=ROOT, restrict={"src/repro/serve.py"}
        )
        assert report.files_checked == 1
        assert report.ok, report.to_text()

    def test_changed_cli_flag_runs(self, capsys):
        rc = main(["src", "--changed", "--root", str(ROOT)])
        out = capsys.readouterr().out
        assert rc in (0, 1)
        assert "repro.lint:" in out

    def test_changed_files_parses_git_output(self):
        from repro.lint.cli import changed_files

        changed = changed_files(ROOT)
        # this repo is a git checkout, so the helper must return a set
        # (possibly empty), never fall back to None
        assert changed is not None
        assert all(p.endswith(".py") for p in changed)
