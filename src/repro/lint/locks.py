"""Lock-set dataflow for repro.lint's concurrency rules (RL009-RL011).

Two layers:

**Local (per function).** A block-structured walk of each function body
computes, for every ``Call``/``Attribute`` node, the set of locks held
at that point — ``with self._lock:`` adds for the nested block,
``x.acquire()`` adds for the rest of the enclosing block,
``x.release()`` removes. Branches are analyzed at their entry set;
effects inside a branch do not leak out (a may/must compromise that is
exact for the ``with``-dominated style this codebase enforces via
RL005). Acquire events additionally record what was held at the moment
of acquisition — the raw material of the lock-order graph.

**Interprocedural.** On top of :mod:`repro.lint.callgraph`:

* ``must_held(entry)`` — for every function reachable from a thread
  entry, the set of locks held on *every* call path from that entry
  (intersection fixpoint, TOP-initialized). A guard lock missing from
  ``must_held`` at an access means some path reaches the access with
  the lock free — the RL009 race condition.
* ``may_held()`` — the union closure over *all* callers; used to build
  the acquired-while-holding graph conservatively (RL010) and the
  hot-lock set (RL011).

Lock identity is ``(owner, attr, kind)``: class-owned ``self._lock``
style locks key on the defining class' qualname (resolved through
linted base classes), module-level locks on the module name. ``kind``
distinguishes ``Lock`` from ``RLock`` — re-acquiring an RLock you
already hold is legal and produces no order edge; doing so with a plain
``Lock`` is a guaranteed self-deadlock.

Known unsoundness (mirrors the call graph, documented in
docs/static-analysis.md): locks reached through ``getattr``, stored in
containers, or aliased through untyped locals are invisible;
conditional ``acquire(timeout=...)`` returns are treated as successful
acquisition.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from .callgraph import CallGraph, CallSite, FunctionInfo, ThreadEntry
from .engine import Project

__all__ = [
    "LockId",
    "AcquireEvent",
    "FunctionFacts",
    "ConcurrencyModel",
    "blocking_call_reason",
]


class LockId(NamedTuple):
    """One lock object, as precisely as static analysis can name it."""

    owner: str  # class qualname for self.X locks, module name otherwise
    attr: str   # attribute / variable name, e.g. "_lock"
    kind: str   # "lock" | "rlock" | "implicit"

    def render(self) -> str:
        owner = self.owner.rsplit(".", 1)[-1] if "." in self.owner else self.owner
        return f"{owner}.{self.attr}"


class AcquireEvent(NamedTuple):
    """``lock`` acquired at ``node`` while ``held_before`` were held
    locally (interprocedural holders are added by the model)."""

    lock: LockId
    node: ast.AST
    held_before: FrozenSet[LockId]


class FunctionFacts:
    """Local lock facts for one function."""

    __slots__ = ("info", "held_at", "acquires")

    def __init__(self, info: FunctionInfo):
        self.info = info
        #: id(node) -> frozenset of locks held when node evaluates
        self.held_at: Dict[int, FrozenSet[LockId]] = {}
        self.acquires: List[AcquireEvent] = []

    def held(self, node: ast.AST) -> FrozenSet[LockId]:
        return self.held_at.get(id(node), frozenset())


# ---------------------------------------------------------------------------
# blocking-call heuristics (RL011 queries these)

#: method names that block unconditionally on another thread/process
_BLOCKING_METHODS = {
    "join": "joins a thread/process",
    "wait": "waits on an event/condition",
    "sendall": "blocks on a socket send",
    "recv": "blocks on a socket receive",
    "accept": "blocks accepting a connection",
    "result": "waits on a future",
    "waitpid": "waits on a child process",
}

#: queue verbs — blocking only when the receiver looks like a queue
_QUEUE_METHODS = {"get", "put"}

#: module-level callables that block
_BLOCKING_FUNCS = {
    ("time", "sleep"): "sleeps",
    ("subprocess", "run"): "runs a subprocess to completion",
    ("subprocess", "check_call"): "runs a subprocess to completion",
    ("subprocess", "check_output"): "runs a subprocess to completion",
    ("subprocess", "call"): "runs a subprocess to completion",
    ("subprocess", "Popen"): "spawns a subprocess",
    ("select", "select"): "blocks in select()",
    ("os", "waitpid"): "waits on a child process",
}


def blocking_call_reason(call: ast.Call) -> Optional[str]:
    """Why ``call`` is considered blocking, or None when it is not.

    Deliberately conservative about ``join`` (string ``sep.join`` and
    ``os.path.join`` are the common false positives) and about queue
    verbs (``get`` is ubiquitous on dicts: only flagged when the
    receiver's name smells like a queue)."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    base = func.value
    if isinstance(base, ast.Name) and isinstance(func.attr, str):
        key = (base.id, func.attr)
        if key in _BLOCKING_FUNCS:
            return _BLOCKING_FUNCS[key]
    name = func.attr
    if name == "join":
        # "sep".join(...), os.path.join(...), Path joins
        if isinstance(base, ast.Constant):
            return None
        if isinstance(base, ast.Attribute) and base.attr == "path":
            return None
        base_name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else ""
        )
        if "path" in base_name.lower() or "sep" in base_name.lower():
            return None
        return _BLOCKING_METHODS["join"]
    if name in _QUEUE_METHODS:
        base_name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else ""
        )
        low = base_name.lower()
        if "queue" in low or low in ("q", "inbox", "outbox", "jobs", "work"):
            return f"blocks on queue.{name}()"
        return None
    if name in _BLOCKING_METHODS:
        return _BLOCKING_METHODS[name]
    return None


# ---------------------------------------------------------------------------
# lock registry


def _lock_ctor_kind(value) -> Optional[str]:
    """'lock' / 'rlock' when ``value`` constructs a threading lock."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if name == "Lock":
        return "lock"
    if name == "RLock":
        return "rlock"
    return None


class _LockRegistry:
    """Every lock object declared in the linted tree."""

    def __init__(self):
        #: (owner, attr) -> LockId
        self.by_key: Dict[Tuple[str, str], LockId] = {}

    def add(self, owner: str, attr: str, kind: str) -> LockId:
        lock = LockId(owner, attr, kind)
        self.by_key[(owner, attr)] = lock
        return lock

    def collect(self, graph: CallGraph, project: Project) -> None:
        from .callgraph import _pseudo_module

        for ctx in project.contexts:
            if ctx.tree is None:
                continue
            module = ctx.module or _pseudo_module(ctx.rel)
            for node in ctx.tree.body:
                if isinstance(node, ast.Assign):
                    kind = _lock_ctor_kind(node.value)
                    if kind:
                        for t in node.targets:
                            if isinstance(t, ast.Name):
                                self.add(module, t.id, kind)
                elif isinstance(node, ast.ClassDef):
                    cls_qual = f"{module}.{node.name}"
                    for sub in ast.walk(node):
                        if not isinstance(sub, ast.Assign):
                            continue
                        kind = _lock_ctor_kind(sub.value)
                        if not kind:
                            continue
                        for t in sub.targets:
                            if (
                                isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"
                            ):
                                self.add(cls_qual, t.attr, kind)

    def lookup_class(
        self, graph: CallGraph, cls_qual: str, attr: str
    ) -> Optional[LockId]:
        """(cls, attr) resolved through linted base classes."""
        seen: Set[str] = set()
        stack = [cls_qual]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            hit = self.by_key.get((cur, attr))
            if hit:
                return hit
            mod = cur.rsplit(".", 1)[0]
            for base in graph.class_bases.get(cur, ()):
                base_qual = graph.module_classes.get((mod, base))
                if base_qual:
                    stack.append(base_qual)
        return None

    def class_locks(self, graph: CallGraph, cls_qual: str) -> List[LockId]:
        """All locks owned by ``cls_qual`` or its linted bases."""
        out: List[LockId] = []
        seen: Set[str] = set()
        stack = [cls_qual]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            out.extend(
                lock for (owner, _), lock in self.by_key.items() if owner == cur
            )
            mod = cur.rsplit(".", 1)[0]
            for base in graph.class_bases.get(cur, ()):
                base_qual = graph.module_classes.get((mod, base))
                if base_qual:
                    stack.append(base_qual)
        return out


# ---------------------------------------------------------------------------
# local analysis


def _acquire_in_test(test) -> Optional[ast.Call]:
    """The ``x.acquire(...)`` call an ``if`` test must pass for its body
    to run: the whole test, or one operand of an ``and`` chain."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        operands = test.values
    else:
        operands = [test]
    for operand in operands:
        if (
            isinstance(operand, ast.Call)
            and isinstance(operand.func, ast.Attribute)
            and operand.func.attr == "acquire"
        ):
            return operand
    return None


class _LocalAnalyzer:
    """Block-structured walk producing :class:`FunctionFacts`."""

    def __init__(self, model: "ConcurrencyModel", info: FunctionInfo):
        self.model = model
        self.info = info
        self.facts = FunctionFacts(info)

    def run(self) -> FunctionFacts:
        self._walk_block(self.info.node.body, frozenset())
        return self.facts

    # the walk --------------------------------------------------------------

    def _walk_block(self, stmts, held_in: FrozenSet[LockId]) -> None:
        held: Set[LockId] = set(held_in)
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested defs analyzed as their own functions
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                entered: List[LockId] = []
                for item in stmt.items:
                    self._record(item.context_expr, frozenset(held) | set(entered))
                    lock = self._resolve_lock(item.context_expr)
                    if lock is not None:
                        self.facts.acquires.append(
                            AcquireEvent(lock, item.context_expr,
                                         frozenset(held) | set(entered))
                        )
                        entered.append(lock)
                self._walk_block(stmt.body, frozenset(held) | set(entered))
                continue
            if isinstance(stmt, ast.If):
                call = _acquire_in_test(stmt.test)
                lock = None if call is None else self._resolve_lock(call)
                if lock is not None:
                    # The body runs only once the acquire succeeded.
                    self._record(stmt.test, frozenset(held))
                    self.facts.acquires.append(
                        AcquireEvent(lock, call, frozenset(held))
                    )
                    self._walk_block(stmt.body, frozenset(held) | {lock})
                    if stmt.orelse:
                        self._walk_block(stmt.orelse, frozenset(held))
                    continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                call = stmt.value
                func = call.func
                if isinstance(func, ast.Attribute) and func.attr in (
                    "acquire", "release"
                ):
                    lock = self._resolve_lock(func.value)
                    if lock is not None:
                        self._record(call, frozenset(held))
                        if func.attr == "acquire":
                            self.facts.acquires.append(
                                AcquireEvent(lock, call, frozenset(held))
                            )
                            held.add(lock)
                        else:
                            held.discard(lock)
                        continue
            blocks = self._sub_blocks(stmt)
            if blocks:
                self._record_header(stmt, blocks, frozenset(held))
                for block in blocks:
                    self._walk_block(block, frozenset(held))
            else:
                self._record(stmt, frozenset(held))

    @staticmethod
    def _sub_blocks(stmt) -> List[list]:
        blocks = []
        for field in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, field, None)
            if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                blocks.append(sub)
        for handler in getattr(stmt, "handlers", ()) or ():
            if handler.body:
                blocks.append(handler.body)
        return blocks

    def _record_header(self, stmt, blocks, held: FrozenSet[LockId]) -> None:
        """Record expressions in a compound statement's header (test,
        iterable, ...) — everything that is not one of its blocks."""
        skip = {id(s) for block in blocks for s in block}
        for child in ast.iter_child_nodes(stmt):
            if id(child) in skip or isinstance(child, ast.stmt):
                continue
            self._record(child, held)

    def _record(self, node, held: FrozenSet[LockId]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(sub, (ast.Call, ast.Attribute, ast.Name)):
                self.facts.held_at[id(sub)] = held

    # lock naming -----------------------------------------------------------

    def _resolve_lock(self, expr) -> Optional[LockId]:
        registry = self.model.registry
        graph = self.model.graph
        # with self._lock.acquire()? — normalize a trailing .acquire call
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute) \
                and expr.func.attr == "acquire":
            expr = expr.func.value
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            base = expr.value.id
            if base in ("self", "cls") and self.info.cls is not None:
                cls_qual = f"{self.info.module}.{self.info.cls}"
                lock = registry.lookup_class(graph, cls_qual, expr.attr)
                if lock is not None:
                    return lock
                if "lock" in expr.attr.lower():
                    # with self._lock: on an attr we never saw constructed
                    return registry.add(cls_qual, expr.attr, "implicit")
                return None
            # mod._lock through an import alias is rare; only resolve
            # same-module class attributes beyond self/cls via types
            base_cls = self._typed_local(base)
            if base_cls is not None:
                return registry.lookup_class(graph, base_cls, expr.attr)
            return None
        if isinstance(expr, ast.Name):
            return registry.by_key.get((self.info.module, expr.id))
        return None

    def _typed_local(self, name: str) -> Optional[str]:
        # function_locals needs the module index; the model keeps one
        # per module for exactly this call.
        idx = self.model.indexes.get(self.info.ctx.rel)
        if idx is None:
            return None
        types = self.model.graph.types
        cls_qual = (
            f"{self.info.module}.{self.info.cls}" if self.info.cls else None
        )
        locals_t = types.function_locals(idx, self.info.node, cls_qual)
        return locals_t.get(name)


# ---------------------------------------------------------------------------
# the interprocedural model


class ConcurrencyModel:
    """Call graph + lock registry + per-function facts + fixpoints.

    Built once per lint run (see ``Project.cached``) and shared by
    RL009/RL010/RL011.
    """

    def __init__(self, project: Project, graph: CallGraph):
        self.project = project
        self.graph = graph
        self.registry = _LockRegistry()
        self.registry.collect(graph, project)
        # module indexes built during graph construction, for typed-local
        # lookups inside _LocalAnalyzer
        self.indexes = graph.indexes
        self.facts: Dict[str, FunctionFacts] = {}
        for qual, info in graph.functions.items():
            self.facts[qual] = _LocalAnalyzer(self, info).run()
        self._must_cache: Dict[str, Dict[str, Optional[FrozenSet[LockId]]]] = {}
        self._may_cache: Optional[Dict[str, FrozenSet[LockId]]] = None

    @classmethod
    def for_project(cls, project: Project) -> "ConcurrencyModel":
        from .callgraph import build_call_graph

        def build():
            return cls(project, build_call_graph(project))

        return project.cached("concurrency_model", build)

    # -- must-held ----------------------------------------------------------

    def must_held(self, entry_target: str) -> Dict[str, FrozenSet[LockId]]:
        """For each function reachable from ``entry_target``, the locks
        held on EVERY call path from that entry (the entry starts with
        none). TOP-initialized intersection fixpoint."""
        cached = self._must_cache.get(entry_target)
        if cached is None:
            cached = self._compute_must(entry_target)
            self._must_cache[entry_target] = cached
        return {
            qual: (held if held is not None else frozenset())
            for qual, held in cached.items()
        }

    def _compute_must(self, entry_target: str):
        reach = self.graph.reachable_from(entry_target)
        held: Dict[str, Optional[FrozenSet[LockId]]] = {
            q: None for q in reach  # None = TOP (unvisited)
        }
        held[entry_target] = frozenset()
        changed = True
        rounds = 0
        while changed and rounds <= len(reach) + 2:
            changed = False
            rounds += 1
            for qual in reach:
                incoming: Optional[FrozenSet[LockId]] = None
                if qual == entry_target:
                    incoming = frozenset()
                for site in self.graph.callers.get(qual, ()):
                    if site.caller not in reach:
                        continue
                    caller_held = held.get(site.caller)
                    if caller_held is None:
                        continue  # TOP contributes nothing yet
                    at_site = caller_held | self.site_held(site)
                    incoming = (
                        at_site if incoming is None else incoming & at_site
                    )
                # must-sets only shrink: TOP-initialized intersection of
                # constant per-site contributions is monotone decreasing
                if incoming is not None and incoming != held[qual]:
                    held[qual] = incoming
                    changed = True
        return held

    def site_held(self, site: CallSite) -> FrozenSet[LockId]:
        facts = self.facts.get(site.caller)
        if facts is None:
            return frozenset()
        return facts.held(site.node)

    # -- may-held -----------------------------------------------------------

    def may_held(self) -> Dict[str, FrozenSet[LockId]]:
        """Locks possibly already held when each function is entered,
        over all callers (union fixpoint from the empty set)."""
        if self._may_cache is not None:
            return self._may_cache
        held: Dict[str, Set[LockId]] = {q: set() for q in self.graph.functions}
        changed = True
        rounds = 0
        while changed and rounds <= len(held) + 2:
            changed = False
            rounds += 1
            for qual in self.graph.functions:
                for site in self.graph.callers.get(qual, ()):
                    inherit = held.get(site.caller, set()) | self.site_held(site)
                    if not inherit <= held[qual]:
                        held[qual] |= inherit
                        changed = True
        self._may_cache = {q: frozenset(s) for q, s in held.items()}
        return self._may_cache

    # -- lock-order graph ---------------------------------------------------

    def order_edges(self):
        """``(held_lock, acquired_lock) -> (fn_qual, node)`` witness for
        every acquired-while-holding pair, plus plain-Lock self-acquires
        as ``(lock, lock)`` edges (self-deadlock)."""
        may = self.may_held()
        edges: Dict[Tuple[LockId, LockId], Tuple[str, ast.AST]] = {}
        for qual, facts in self.facts.items():
            ambient = may.get(qual, frozenset())
            for event in facts.acquires:
                holding = event.held_before | ambient
                for prior in holding:
                    if prior == event.lock:
                        if event.lock.kind == "rlock":
                            continue  # re-entrant: legal, no edge
                        edges.setdefault(
                            (prior, event.lock), (qual, event.node)
                        )
                        continue
                    edges.setdefault((prior, event.lock), (qual, event.node))
        return edges

    def order_cycles(self):
        """Cycles in the acquired-while-holding graph, canonicalized so
        each cycle is reported once. Returns a list of lists of
        ``(lock, next_lock, fn_qual, node)`` steps."""
        edges = self.order_edges()
        adj: Dict[LockId, List[LockId]] = {}
        for (a, b) in edges:
            if a != b:  # self-deadlocks are reported separately below
                adj.setdefault(a, []).append(b)
        cycles = []
        seen_keys = set()

        def dfs(start: LockId, cur: LockId, path: List[LockId], on_path: Set[LockId]):
            for nxt in adj.get(cur, ()):
                if nxt == start and len(path) >= 1:
                    cycle = path[:]
                    key = frozenset(cycle)
                    if key not in seen_keys:
                        seen_keys.add(key)
                        steps = []
                        ordered = cycle + [cycle[0]]
                        for i in range(len(cycle)):
                            a, b = ordered[i], ordered[i + 1]
                            fn, node = edges[(a, b)]
                            steps.append((a, b, fn, node))
                        cycles.append(steps)
                elif nxt not in on_path and nxt > start:
                    # only walk "greater" nodes so each cycle is found
                    # from its smallest lock exactly once
                    dfs(start, nxt, path + [nxt], on_path | {nxt})

        for (a, b) in list(edges):
            if a == b:  # plain-Lock self-deadlock: a one-step cycle
                fn, node = edges[(a, b)]
                cycles.append([(a, b, fn, node)])
        for start in sorted(adj):
            dfs(start, start, [start], {start})
        return cycles

    # -- hot path (RL011) ---------------------------------------------------

    def hot_entries(self) -> List[ThreadEntry]:
        """Entries on the serving hot path: HTTP request handlers."""
        return [e for e in self.graph.entries if e.kind == "handler"]

    def hot_locks(self) -> FrozenSet[LockId]:
        """Locks held anywhere on a handler-reachable path: blocking
        while holding one of these stalls live request threads."""
        hot: Set[LockId] = set()
        for entry in self.hot_entries():
            for qual in self.graph.reachable_from(entry.target):
                facts = self.facts.get(qual)
                if facts is None:
                    continue
                for event in facts.acquires:
                    hot.add(event.lock)
        return frozenset(hot)

    # -- witnesses ----------------------------------------------------------

    def lock_free_path(
        self, entry_target: str, dst: str, lock: LockId
    ) -> Optional[List[CallSite]]:
        """A call chain entry -> dst along which ``lock`` is never held
        at any call site (BFS, shortest). None when every path holds
        the lock somewhere — i.e. the access is actually protected."""
        from collections import deque

        if entry_target == dst:
            return []
        prev: Dict[str, CallSite] = {}
        seen = {entry_target}
        q = deque([entry_target])
        while q:
            cur = q.popleft()
            for site in self.graph.calls.get(cur, ()):
                if site.callee in seen:
                    continue
                if lock in self.site_held(site):
                    continue
                prev[site.callee] = site
                if site.callee == dst:
                    chain: List[CallSite] = []
                    node = dst
                    while node != entry_target:
                        site = prev[node]
                        chain.append(site)
                        node = site.caller
                    chain.reverse()
                    return chain
                seen.add(site.callee)
                q.append(site.callee)
        return None

    def render_chain(self, entry: ThreadEntry, chain: List[CallSite]) -> List[str]:
        """Human-readable witness lines: entry, then each hop."""
        lines = [f"thread entry: {entry.label} -> {entry.target}"]
        for site in chain:
            line = getattr(site.node, "lineno", "?")
            rel = self.rel_of(site.caller)
            lines.append(f"  {site.caller} calls {site.callee} ({rel}:{line})")
        return lines

    def rel_of(self, qual: str) -> str:
        info = self.graph.functions.get(qual)
        return info.ctx.rel if info is not None else "?"
