"""Project-wide call graph + thread-entry inference for repro.lint.

The concurrency rules (RL009-RL011) reason *interprocedurally*: whether
``StreamingDetector._drift_statistic`` runs with the lock held depends
on who calls it, and whether an attribute is racy depends on which
threads can reach the function touching it. This module builds the
static approximation both analyses share:

* a :class:`FunctionInfo` per function/method in the linted tree, keyed
  by qualified name ``<module>.<Class>.<method>`` / ``<module>.<func>``;
* call edges, resolved for the call shapes this codebase actually uses:

  - ``self.x()``         -> a method of the same class (or a base class
                            defined in the linted tree);
  - ``cls.x()`` / ``Klass.x()`` -> same, for classmethod-style calls;
  - ``f()``              -> a module-level function of the same module,
                            or one imported via ``from .mod import f``;
  - ``mod.f()``          -> through an ``import .. as mod`` alias;
  - ``obj.m()``          -> when ``obj`` is an attribute assigned from a
                            class constructor in the linted tree
                            (``self.batcher = ScoreBatcher(...)`` makes
                            ``self.batcher.close()`` resolve to
                            ``ScoreBatcher.close``);

* inferred **thread entry points** — the places a new thread of control
  starts executing project code:

  - ``threading.Thread(target=f)`` (and ``target=self.m``);
  - ``fork_workers(n, worker)`` — each forked child runs ``worker``;
  - ``do_GET`` / ``do_POST`` (and the stdlib hook methods ``handle``,
    ``finish_request``) of classes derived from
    ``BaseHTTPRequestHandler`` — a ``ThreadingHTTPServer`` runs each
    request handler on its own thread;
  - the *main* thread: public module-level functions of surface modules
    are not entries by themselves (that would make everything
    bi-threaded); instead the rules treat "main" as the entry for any
    function callers outside the graph can reach — see
    :meth:`CallGraph.entries_reaching`.

Known unsoundness (documented in docs/static-analysis.md): dynamic
dispatch through ``getattr``/dicts, callables passed through data
structures, and monkey-patching are invisible; the graph is a
best-effort over-approximation of *reachability* and an
under-approximation of *call targets*, tuned so the three rules stay
high-signal on this tree.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .engine import FileContext, Project

__all__ = ["FunctionInfo", "ThreadEntry", "CallSite", "CallGraph", "build_call_graph"]

#: Methods of a BaseHTTPRequestHandler subclass that the stdlib server
#: invokes on a fresh per-request thread (ThreadingHTTPServer).
_HANDLER_ENTRY_METHODS = ("do_GET", "do_POST", "do_PUT", "do_DELETE", "handle")

#: Base-class names that mark a request handler / threaded server.
_HANDLER_BASES = ("BaseHTTPRequestHandler", "ThreadingHTTPServer")

#: Fan-out helpers whose callable argument (at the given position) runs
#: on worker processes (repro.core.parallel).
_POOL_FANOUT = {"fork_workers": 1}


class FunctionInfo:
    """One function or method in the linted tree."""

    __slots__ = (
        "qualname", "module", "cls", "name", "node", "ctx", "is_method",
    )

    def __init__(self, qualname, module, cls, name, node, ctx):
        self.qualname = qualname          # repro.serve.OnlineScorer.score_new
        self.module = module              # repro.serve
        self.cls = cls                    # OnlineScorer or None
        self.name = name                  # score_new
        self.node = node                  # the ast.FunctionDef
        self.ctx = ctx                    # FileContext it lives in

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<FunctionInfo {self.qualname}>"


class ThreadEntry:
    """An inferred start of a thread of control."""

    __slots__ = ("kind", "label", "target", "node", "ctx")

    def __init__(self, kind, label, target, node, ctx):
        self.kind = kind      # 'thread' | 'fork' | 'handler'
        self.label = label    # human name, e.g. "Thread(repro-serve-batcher)"
        self.target = target  # qualname of the entry function
        self.node = node      # AST node that creates the thread
        self.ctx = ctx

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<ThreadEntry {self.label} -> {self.target}>"


class CallSite:
    """One resolved call edge ``caller -> callee``."""

    __slots__ = ("caller", "callee", "node")

    def __init__(self, caller: str, callee: str, node: ast.AST):
        self.caller = caller
        self.callee = callee
        self.node = node


class CallGraph:
    """Functions, resolved call edges, and inferred thread entries."""

    def __init__(self):
        self.functions: Dict[str, FunctionInfo] = {}
        #: caller qualname -> [CallSite, ...]
        self.calls: Dict[str, List[CallSite]] = {}
        #: callee qualname -> [CallSite, ...] (the reverse index)
        self.callers: Dict[str, List[CallSite]] = {}
        self.entries: List[ThreadEntry] = []
        #: class qualname (module.Class) -> base class qualnames/names
        self.class_bases: Dict[str, List[str]] = {}

    # -- construction helpers (used by the builder) -----------------------

    def add_function(self, info: FunctionInfo) -> None:
        self.functions[info.qualname] = info

    def add_call(self, caller: str, callee: str, node: ast.AST) -> None:
        site = CallSite(caller, callee, node)
        self.calls.setdefault(caller, []).append(site)
        self.callers.setdefault(callee, []).append(site)

    # -- queries -----------------------------------------------------------

    def reachable_from(self, qualname: str) -> Set[str]:
        """Every function reachable from ``qualname`` along call edges."""
        seen: Set[str] = set()
        stack = [qualname]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for site in self.calls.get(cur, ()):
                if site.callee not in seen:
                    stack.append(site.callee)
        return seen

    def entries_reaching(self, qualname: str) -> List[ThreadEntry]:
        """The thread entries from which ``qualname`` is reachable."""
        out = []
        for entry in self.entries:
            if entry.target in self.functions:
                if qualname in self.reachable_from(entry.target):
                    out.append(entry)
        return out

    def call_path(self, src: str, dst: str) -> Optional[List[CallSite]]:
        """A shortest call-site chain ``src -> ... -> dst`` (BFS), or
        None when dst is unreachable. Empty list when src == dst."""
        if src == dst:
            return []
        from collections import deque

        prev: Dict[str, CallSite] = {}
        q = deque([src])
        seen = {src}
        while q:
            cur = q.popleft()
            for site in self.calls.get(cur, ()):
                if site.callee in seen:
                    continue
                prev[site.callee] = site
                if site.callee == dst:
                    chain: List[CallSite] = []
                    node = dst
                    while node != src:
                        site = prev[node]
                        chain.append(site)
                        node = site.caller
                    chain.reverse()
                    return chain
                seen.add(site.callee)
                q.append(site.callee)
        return None


# ---------------------------------------------------------------------------
# builder


class _ModuleIndex:
    """Per-module name resolution state."""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.module = ctx.module or _pseudo_module(ctx.rel)
        #: local name -> qualname of an imported function/class
        self.imported: Dict[str, str] = {}
        #: local alias -> imported module dotted name
        self.module_aliases: Dict[str, str] = {}
        #: class name defined here -> class qualname
        self.classes: Dict[str, str] = {}
        #: module-level function name -> qualname
        self.functions: Dict[str, str] = {}


def _pseudo_module(rel: str) -> str:
    """A module key for files outside ``src/`` (tests, fixtures): the
    posix path with ``/`` -> ``.`` and no ``.py`` — unique per file, so
    cross-file resolution simply never matches for them."""
    out = rel[:-3] if rel.endswith(".py") else rel
    return out.replace("/", ".")


def _resolve_import_base(ctx: FileContext, node: ast.ImportFrom) -> str:
    module = ctx.module or _pseudo_module(ctx.rel)
    if node.level == 0:
        return node.module or ""
    is_pkg = ctx.rel.endswith("__init__.py")
    parts = module.split(".")
    drop = node.level - 1 if is_pkg else node.level
    base = ".".join(parts[: max(len(parts) - drop, 0)])
    if node.module:
        base = f"{base}.{node.module}" if base else node.module
    return base


def build_call_graph(project: Project) -> CallGraph:
    """Two passes: index every function/class, then resolve call sites
    and thread-creation sites against the index."""
    graph = CallGraph()
    indexes: List[_ModuleIndex] = []

    # -- pass 1: declarations ---------------------------------------------
    for ctx in project.contexts:
        if ctx.tree is None:
            continue
        idx = _ModuleIndex(ctx)
        indexes.append(idx)
        for node in ctx.tree.body:
            _index_toplevel(graph, idx, node)
    by_qual = graph.functions

    # a global (module, name) index for `from X import f` resolution
    module_funcs: Dict[Tuple[str, str], str] = {}
    module_classes: Dict[Tuple[str, str], str] = {}
    for idx in indexes:
        for name, qual in idx.functions.items():
            module_funcs[(idx.module, name)] = qual
        for name, qual in idx.classes.items():
            module_classes[(idx.module, name)] = qual

    for idx in indexes:
        for node in ast.walk(idx.ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    idx.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_import_base(idx.ctx, node)
                for alias in node.names:
                    local = alias.asname or alias.name
                    target = f"{base}.{alias.name}" if base else alias.name
                    if (base, alias.name) in module_funcs:
                        idx.imported[local] = module_funcs[(base, alias.name)]
                    elif (base, alias.name) in module_classes:
                        idx.imported[local] = module_classes[(base, alias.name)]
                    else:
                        # might be a module import: `from repro import obs`
                        idx.module_aliases.setdefault(local, target)

    # -- pass 2: type facts (attribute + return types), to a fixpoint -----
    # ``self.scorer.score_new()`` only resolves once we know
    # ``_ModelHTTPServer.scorer`` holds an ``OnlineScorer`` — which we
    # learn from ``new_scorer = OnlineScorer.from_path(...)`` followed by
    # ``self.scorer = new_scorer``. Attribute types feed local types and
    # vice versa, so iterate the cheap collection to a fixpoint.
    types = _TypeFacts(graph, module_funcs, module_classes)
    for _ in range(4):
        if not types.collect_round(indexes):
            break

    # -- pass 3: call edges + thread entries ------------------------------
    builder = _EdgeBuilder(graph, module_funcs, module_classes, types)
    for idx in indexes:
        builder.run(idx)
    graph.types = types          # downstream analyses reuse the facts
    graph.module_classes = module_classes
    graph.indexes = {idx.ctx.rel: idx for idx in indexes}
    return graph


class _TypeFacts:
    """Flow-insensitive class-valued type facts.

    ``attr_types[(cls_qual, attr)] -> cls_qual`` and
    ``return_types[fn_qual] -> cls_qual`` for the assignment shapes the
    codebase uses: direct construction, classmethod constructors
    (``Klass.from_x(...)`` is assumed to build a ``Klass``), annotated
    class attributes, and simple local-variable forwarding.
    """

    def __init__(self, graph, module_funcs, module_classes):
        self.graph = graph
        self.module_funcs = module_funcs
        self.module_classes = module_classes
        self.attr_types: Dict[Tuple[str, str], str] = {}
        self.return_types: Dict[str, str] = {}

    def collect_round(self, indexes: Sequence[_ModuleIndex]) -> bool:
        before = (len(self.attr_types), len(self.return_types))
        for idx in indexes:
            for node in idx.ctx.tree.body:
                if isinstance(node, ast.ClassDef):
                    cls_qual = f"{idx.module}.{node.name}"
                    self._collect_class(idx, node, cls_qual)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._collect_function(idx, node, None,
                                           f"{idx.module}.{node.name}")
        return (len(self.attr_types), len(self.return_types)) != before

    def _collect_class(self, idx, cls: ast.ClassDef, cls_qual: str) -> None:
        for sub in cls.body:
            if isinstance(sub, ast.AnnAssign) and isinstance(
                sub.target, ast.Name
            ):
                ann_cls = self._annotation_class(idx, sub.annotation)
                if ann_cls:
                    self.attr_types[(cls_qual, sub.target.id)] = ann_cls
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(idx, sub, cls_qual,
                                       f"{cls_qual}.{sub.name}")

    def _collect_function(self, idx, fn, cls_qual, fn_qual) -> None:
        locals_t: Dict[str, str] = {}
        if cls_qual:
            locals_t["self"] = cls_qual
            locals_t["cls"] = cls_qual
        for arg in list(fn.args.args) + list(fn.args.kwonlyargs):
            if arg.annotation is not None:
                ann = self._annotation_class(idx, arg.annotation)
                if ann:
                    locals_t[arg.arg] = ann
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                t = node.targets[0]
                val_cls = self.expr_class(idx, node.value, locals_t)
                if val_cls is None:
                    continue
                if isinstance(t, ast.Name):
                    locals_t[t.id] = val_cls
                elif isinstance(t, ast.Attribute):
                    base_cls = self.expr_class(idx, t.value, locals_t)
                    if base_cls:
                        self.attr_types[(base_cls, t.attr)] = val_cls
            elif isinstance(node, ast.Return) and node.value is not None:
                val_cls = self.expr_class(idx, node.value, locals_t)
                if val_cls:
                    self.return_types.setdefault(fn_qual, val_cls)

    def _annotation_class(self, idx, node) -> Optional[str]:
        # Plain names and strings only ("OnlineScorer", _ModelHTTPServer);
        # Optional[...] / quoted forward refs in the simple form.
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = _tail_name(node)
        if name is None:
            return None
        if name in idx.classes:
            return idx.classes[name]
        imported = idx.imported.get(name)
        if imported in self.graph.class_bases:
            return imported
        return None

    def expr_class(self, idx, node, locals_t: Dict[str, str]) -> Optional[str]:
        """The class an expression evaluates to, when inferable."""
        if isinstance(node, ast.Name):
            return locals_t.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.expr_class(idx, node.value, locals_t)
            if base is None:
                return None
            return self.lookup_attr(base, node.attr)
        if isinstance(node, ast.Call):
            func = node.func
            name = _tail_name(func)
            if name is None:
                return None
            # direct construction: Klass(...)
            if name in idx.classes:
                return idx.classes[name]
            imported = idx.imported.get(name)
            if imported in self.graph.class_bases:
                return imported
            if isinstance(func, ast.Attribute):
                # classmethod-constructor heuristic: Klass.cm(...) -> Klass
                owner = None
                if isinstance(func.value, ast.Name):
                    owner = (
                        idx.classes.get(func.value.id)
                        or idx.imported.get(func.value.id)
                    )
                if owner in self.graph.class_bases:
                    return owner
            # a call to a function with an inferred return type
            if isinstance(func, ast.Name):
                qual = idx.functions.get(func.id) or idx.imported.get(func.id)
                if qual:
                    return self.return_types.get(qual)
        return None

    def function_locals(self, idx, fn, cls_qual) -> Dict[str, str]:
        """Class-valued local-variable types inside ``fn`` (including
        ``self``/``cls`` and annotated parameters). Two rounds so a
        later assignment can feed an earlier alias flow-insensitively."""
        locals_t: Dict[str, str] = {}
        if cls_qual:
            locals_t["self"] = cls_qual
            locals_t["cls"] = cls_qual
        for arg in list(fn.args.args) + list(fn.args.kwonlyargs):
            if arg.annotation is not None:
                ann = self._annotation_class(idx, arg.annotation)
                if ann:
                    locals_t[arg.arg] = ann
        for _ in range(2):
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    t = node.targets[0]
                    if isinstance(t, ast.Name):
                        val_cls = self.expr_class(idx, node.value, locals_t)
                        if val_cls:
                            locals_t[t.id] = val_cls
        return locals_t

    def lookup_attr(self, cls_qual: str, attr: str) -> Optional[str]:
        """attr type on cls_qual, walking linted base classes."""
        seen: Set[str] = set()
        stack = [cls_qual]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            hit = self.attr_types.get((cur, attr))
            if hit:
                return hit
            mod = cur.rsplit(".", 1)[0]
            for base in self.graph.class_bases.get(cur, ()):
                base_qual = self.module_classes.get((mod, base))
                if base_qual:
                    stack.append(base_qual)
        return None


def _index_toplevel(graph: CallGraph, idx: _ModuleIndex, node: ast.AST) -> None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        qual = f"{idx.module}.{node.name}"
        idx.functions[node.name] = qual
        graph.add_function(
            FunctionInfo(qual, idx.module, None, node.name, node, idx.ctx)
        )
    elif isinstance(node, ast.ClassDef):
        cls_qual = f"{idx.module}.{node.name}"
        idx.classes[node.name] = cls_qual
        bases = []
        for base in node.bases:
            name = _tail_name(base)
            if name:
                bases.append(name)
        graph.class_bases[cls_qual] = bases
        for sub in node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{cls_qual}.{sub.name}"
                graph.add_function(
                    FunctionInfo(qual, idx.module, node.name, sub.name, sub, idx.ctx)
                )


def _local_nodes(fn) -> Iterable[ast.AST]:
    """Every node lexically inside ``fn`` *excluding* bodies of nested
    function definitions (those are walked as their own functions).
    Lambda bodies stay included — they run in the enclosing scope's
    lock context often enough (callbacks fired inline) that attributing
    them outward is the safer approximation."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _tail_name(node) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class _EdgeBuilder:
    """Resolves calls and thread entries for one module at a time."""

    def __init__(self, graph, module_funcs, module_classes, types: _TypeFacts):
        self.graph = graph
        self.module_funcs = module_funcs
        self.module_classes = module_classes
        self.types = types

    # -- entry -------------------------------------------------------------

    def run(self, idx: _ModuleIndex) -> None:
        self.idx = idx
        ctx = idx.ctx
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{idx.module}.{node.name}"
                self._walk_function(qual, None, node)
            elif isinstance(node, ast.ClassDef):
                cls_qual = f"{idx.module}.{node.name}"
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._walk_function(
                            f"{cls_qual}.{sub.name}", cls_qual, sub
                        )
                self._maybe_handler_entries(node, cls_qual)

    def _maybe_handler_entries(self, cls: ast.ClassDef, cls_qual: str) -> None:
        """HTTP request handlers: every ``do_*`` of a handler subclass
        runs on its own server thread."""
        if not self._derives_from_handler(cls_qual):
            return
        for sub in cls.body:
            if (
                isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and sub.name in _HANDLER_ENTRY_METHODS
            ):
                self.graph.entries.append(
                    ThreadEntry(
                        "handler",
                        f"http-handler {cls.name}.{sub.name}",
                        f"{cls_qual}.{sub.name}",
                        sub,
                        self.idx.ctx,
                    )
                )

    def _derives_from_handler(self, cls_qual: str) -> bool:
        seen: Set[str] = set()
        stack = [cls_qual]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for base in self.graph.class_bases.get(cur, ()):
                if base in _HANDLER_BASES:
                    return True
                # follow bases defined in the linted tree (by bare name
                # within the same module, or resolved qualname)
                mod = cur.rsplit(".", 1)[0]
                qual = self.module_classes.get((mod, base))
                if qual:
                    stack.append(qual)
        return False

    # -- function bodies ---------------------------------------------------

    def _walk_function(self, qual, cls_qual, fn, outer_funcs=None) -> None:
        locals_t = self.types.function_locals(self.idx, fn, cls_qual)
        # nested defs (`def worker(): ...` inside run_fleet) are functions
        # in their own right: fork/Thread targets resolve to them, and
        # their bodies are attributed to *them*, not the enclosing scope.
        local_funcs = dict(outer_funcs or {})
        nested: List[ast.AST] = []
        for node in _local_nodes(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nq = f"{qual}.{node.name}"
                local_funcs[node.name] = nq
                self.graph.add_function(
                    FunctionInfo(nq, self.idx.module, None, node.name, node,
                                 self.idx.ctx)
                )
                nested.append(node)
        self._local_funcs = local_funcs
        for node in _local_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            self._maybe_thread_entry(node, cls_qual, locals_t)
            callee = self._resolve_call(node, cls_qual, locals_t)
            if callee is not None:
                self.graph.add_call(qual, callee, node)
        for node in nested:
            self._walk_function(f"{qual}.{node.name}", cls_qual, node,
                                local_funcs)
        self._local_funcs = outer_funcs or {}

    def _resolve_call(self, call: ast.Call, cls_qual, locals_t) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in getattr(self, "_local_funcs", {}):
                return self._local_funcs[name]
            if name in self.idx.functions:
                return self.idx.functions[name]
            if name in self.idx.imported:
                target = self.idx.imported[name]
                # a class constructor edge resolves to __init__ when we
                # have it (so "held while constructing" propagates)
                if target in self.graph.class_bases:
                    init = target + ".__init__"
                    return init if init in self.graph.functions else None
                return target if target in self.graph.functions else None
            if name in self.idx.classes:
                init = self.idx.classes[name] + ".__init__"
                return init if init in self.graph.functions else None
            return None
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if isinstance(base, ast.Name):
            # mod.f() via an import alias
            mod = self.idx.module_aliases.get(base.id)
            if mod is not None:
                qual = self.module_funcs.get((mod, func.attr))
                if qual:
                    return qual
            # Klass.m() on a class defined/imported here
            target_cls = (
                self.idx.classes.get(base.id) or self.idx.imported.get(base.id)
            )
            if target_cls and target_cls in self.graph.class_bases:
                return self._resolve_method(target_cls, func.attr)
        # anything with an inferable class: self.m(), self.attr.m(),
        # typed locals (scorer = self.server.scorer; scorer.score_new()),
        # chained attributes (self.server.scorer.score_new()).
        base_cls = self.types.expr_class(self.idx, base, locals_t)
        if base_cls:
            return self._resolve_method(base_cls, func.attr)
        return None

    def _resolve_method(self, cls_qual: str, method: str) -> Optional[str]:
        """Look up ``method`` on ``cls_qual``, walking linted base classes."""
        seen: Set[str] = set()
        stack = [cls_qual]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            qual = f"{cur}.{method}"
            if qual in self.graph.functions:
                return qual
            mod = cur.rsplit(".", 1)[0]
            for base in self.graph.class_bases.get(cur, ()):
                base_qual = self.module_classes.get((mod, base))
                if base_qual:
                    stack.append(base_qual)
        return None

    # -- thread entries ----------------------------------------------------

    def _maybe_thread_entry(self, call: ast.Call, cls_qual, locals_t) -> None:
        name = _tail_name(call.func)
        if name == "Thread":
            target = self._kwarg(call, "target")
            if target is None:
                return
            qual = self._resolve_callable_ref(target, cls_qual, locals_t)
            if qual is None:
                return
            label = self._kwarg_str(call, "name") or qual.rsplit(".", 1)[-1]
            self.graph.entries.append(
                ThreadEntry("thread", f"Thread({label})", qual, call, self.idx.ctx)
            )
        elif name in _POOL_FANOUT:
            pos = _POOL_FANOUT[name]
            arg = None
            if len(call.args) > pos:
                arg = call.args[pos]
            else:
                arg = self._kwarg(call, "target") or self._kwarg(call, "fn")
            if arg is None:
                return
            qual = self._resolve_callable_ref(arg, cls_qual, locals_t)
            if qual is None:
                return
            self.graph.entries.append(
                ThreadEntry("fork", f"{name}({qual.rsplit('.', 1)[-1]})", qual,
                            call, self.idx.ctx)
            )

    def _resolve_callable_ref(self, node, cls_qual, locals_t) -> Optional[str]:
        """A callable *reference* (not a call): ``f``, ``self.m``,
        ``mod.f``. Lambdas resolve to the function they call when the
        body is a single call (the ``lambda: self.scorer`` idiom)."""
        if isinstance(node, ast.Lambda) and isinstance(node.body, ast.Call):
            return self._resolve_call(node.body, cls_qual, locals_t)
        if isinstance(node, ast.Name):
            name = node.id
            if name in getattr(self, "_local_funcs", {}):
                return self._local_funcs[name]
            if name in self.idx.functions:
                return self.idx.functions[name]
            target = self.idx.imported.get(name)
            if target in self.graph.functions:
                return target
            return None
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name):
                mod = self.idx.module_aliases.get(base.id)
                if mod is not None:
                    qual = self.module_funcs.get((mod, node.attr))
                    if qual:
                        return qual
            base_cls = self.types.expr_class(self.idx, base, locals_t)
            if base_cls:
                return self._resolve_method(base_cls, node.attr)
        return None

    @staticmethod
    def _kwarg(call: ast.Call, name: str):
        for kw in call.keywords:
            if kw.arg == name:
                return kw.value
        return None

    @staticmethod
    def _kwarg_str(call: ast.Call, name: str) -> Optional[str]:
        node = _EdgeBuilder._kwarg(call, name)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None
