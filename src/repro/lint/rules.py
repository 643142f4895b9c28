"""The rule catalog. Stable IDs; see ``docs/static-analysis.md``.

========  ===================================================================
RL001     one-kernel: scoring arithmetic only in core/scoring.py and the
          registered scorer modules of repro.scorers
RL002     import-layering: index → graph → kernel → surfaces, no upward edges
RL003     obs-registry: every literal counter/span name is declared
RL004     exception-taxonomy: store/serve raise only repro.exceptions types
RL005     lock-discipline: lock-guarded attributes touched only under lock
RL006     wall-clock: no time.time/perf_counter in tests (monotonic: slow-only)
RL007     unseeded-rng: no unseeded/global np.random in src/
RL008     float-equality: no ``==`` on score-like arrays (use the helpers)
RL009     inferred-race: lock-guarded attribute reachable from concurrent
          thread entries with an empty held-set on some path; holds-lock
          annotations are verified against every resolved caller
RL010     lock-order-cycle: acquired-while-holding cycles (deadlock)
RL011     blocking-under-hot-lock: join/wait/subprocess while holding a
          lock the HTTP serving path contends on
========  ===================================================================

Each rule is a :class:`~repro.lint.engine.Rule` subclass; the module
registry ``RULES`` maps IDs to singleton instances, and
:func:`get_rules` filters it for ``--select`` / ``--ignore``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .engine import FileContext, Finding, Project, Rule, enclosing_function
from . import obsreg

__all__ = ["RULES", "get_rules"]


# ---------------------------------------------------------------------------
# shared AST helpers


def terminal_name(node) -> Optional[str]:
    """Identifier at the tip of a Name/Attribute/Subscript chain."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def dotted_name(node) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_targets(ctx: FileContext) -> List[Tuple[ast.AST, str]]:
    """Every import in a ``src/`` module as (node, absolute dotted name).

    Relative imports resolve against the module's package; each
    ``from X import y`` alias yields ``X.y`` (prefix matching downstream
    handles whether ``y`` is a submodule or an attribute).
    """
    if ctx.module is None or ctx.tree is None:
        return []
    is_pkg = ctx.rel.endswith("__init__.py")
    parts = ctx.module.split(".")
    out: List[Tuple[ast.AST, str]] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((node, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                drop = node.level - 1 if is_pkg else node.level
                base = ".".join(parts[: max(len(parts) - drop, 0)])
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            for alias in node.names:
                out.append((node, f"{base}.{alias.name}" if base else alias.name))
    return out


# ---------------------------------------------------------------------------
# RL001 — one scoring kernel


class OneKernelRule(Rule):
    id = "RL001"
    name = "one-kernel"
    summary = (
        "scoring arithmetic lives only in core/scoring.py and the "
        "registered scorer modules of repro.scorers "
        "(core/reference.py exempt as the differential oracle)"
    )

    KERNEL = "repro.core.scoring"
    #: Only the kernel (and the naive oracle) may host the reduceat
    #: row-sum primitive; scorer modules must route row reductions
    #: through scoring.row_sums/row_means.
    EXEMPT = ("repro.core.scoring", "repro.core.reference")
    #: Score-ratio divisions are additionally allowed inside the scorer
    #: registry — that is where per-detector arithmetic is *supposed* to
    #: live now — but nowhere else (serve/store/baselines must call in).
    SCORER_PACKAGE = "repro.scorers"
    #: repro.scorers submodules that are infrastructure, not detectors:
    #: the package __init__ and the registry/base-class module. Every
    #: other submodule must register a scorer (see check_project).
    SCORER_INFRA = ("repro.scorers", "repro.scorers.base")

    def _in_scorer_package(self, module: str) -> bool:
        return module == self.SCORER_PACKAGE or module.startswith(
            self.SCORER_PACKAGE + "."
        )

    def check_file(self, ctx: FileContext, project: Project) -> Iterable[Finding]:
        if ctx.module is None or ctx.tree is None:
            return
        reduceat_ok = ctx.module in self.EXEMPT
        ratio_ok = reduceat_ok or self._in_scorer_package(ctx.module)
        if reduceat_ok and ratio_ok:
            return
        for node in ast.walk(ctx.tree):
            if (
                not reduceat_ok
                and isinstance(node, ast.Attribute)
                and self._is_reduceat(node)
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    "np.add.reduceat row-sum kernel outside the scoring "
                    "kernel; route through repro.core.scoring",
                )
            elif (
                not ratio_ok
                and isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Div)
            ):
                label = self._ratio_label(node)
                if label:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"{label} reimplements scorer math outside the "
                        "kernel and the repro.scorers registry; call "
                        "repro.core.scoring or a registered scorer",
                    )

    @staticmethod
    def _is_reduceat(node: ast.Attribute) -> bool:
        return (
            node.attr == "reduceat"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "add"
            and terminal_name(node.value.value) in ("np", "numpy")
        )

    @staticmethod
    def _ratio_label(node: ast.BinOp) -> Optional[str]:
        left = terminal_name(node.left)
        right = terminal_name(node.right)
        if left and right and "lrd" in left.lower() and "lrd" in right.lower():
            return "lrd/lrd ratio"
        if left and right and "pdist" in left.lower() and "pdist" in right.lower():
            return "pdist/pdist PLOF ratio"
        if left and right and "dbar" in left.lower() and (
            "dbar" in right.lower() or "inner" in right.lower()
        ):
            return "dbar/inner LDOF ratio"
        if left == "counts" and right == "sums":
            return "counts/sums lrd division"
        if (
            isinstance(node.left, ast.Call)
            and terminal_name(node.left.func) == "len"
            and node.left.args
            and (terminal_name(node.left.args[0]) or "").lower().startswith("reach")
        ):
            return "len(reach)/sum lrd division"
        return None

    def check_project(self, project: Project) -> Iterable[Finding]:
        # Guard the guard: if scoring.py loses the reduceat row sums the
        # containment checks above pass vacuously.
        ctx = project.module(self.KERNEL)
        if ctx is not None and ctx.tree is not None and not any(
            isinstance(node, ast.Attribute) and self._is_reduceat(node)
            for node in ast.walk(ctx.tree)
        ):
            yield Finding(
                self.id,
                ctx.rel,
                1,
                0,
                "core/scoring.py no longer contains the np.add.reduceat row-sum "
                "kernel — the one-kernel containment rule would pass vacuously",
            )
        # Guard the ratio exemption too: a repro.scorers submodule gets
        # a free pass on ratio math *because* it is a registered
        # detector. A submodule that never calls register() is scoring
        # arithmetic hiding inside the exempt namespace.
        for sctx in project.contexts:
            if sctx.module is None or sctx.tree is None:
                continue
            if not self._in_scorer_package(sctx.module):
                continue
            if sctx.module in self.SCORER_INFRA:
                continue
            if any(
                isinstance(node, ast.Call)
                and terminal_name(node.func) == "register"
                for node in ast.walk(sctx.tree)
            ):
                continue
            yield Finding(
                self.id,
                sctx.rel,
                1,
                0,
                f"{sctx.module} lives in the ratio-exempt repro.scorers "
                "namespace but never calls register(...) — scorer modules "
                "must register their detector or move the math elsewhere",
            )


# ---------------------------------------------------------------------------
# RL002 — import layering


# Most-specific prefix first. Infrastructure (obs, exceptions,
# validation, the fork-worker helper, the generated registry) sits below
# everything; the lint package itself is a surface.
_LAYER_PREFIXES: List[Tuple[str, int]] = [
    ("repro.core.scoring", 3),
    ("repro.core.graph", 2),
    ("repro.core.parallel", 0),
    ("repro.obs_registry", 0),
    ("repro.obs", 0),
    ("repro.exceptions", 0),
    ("repro._validation", 0),
    ("repro.index", 1),
]

_LAYER_NAMES = {0: "infra", 1: "index", 2: "graph", 3: "kernel", 4: "surfaces"}


def layer_of(name: str) -> Optional[int]:
    for prefix, layer in _LAYER_PREFIXES:
        if name == prefix or name.startswith(prefix + "."):
            return layer
    if name == "repro" or name.startswith("repro."):
        return 4
    return None


class ImportLayeringRule(Rule):
    id = "RL002"
    name = "import-layering"
    summary = (
        "index → graph → kernel → surfaces: no module imports a layer "
        "above its own, and repro.core never imports analysis/datasets"
    )

    UPPER_FORBIDDEN_FOR_CORE = ("repro.analysis", "repro.datasets")

    def check_file(self, ctx: FileContext, project: Project) -> Iterable[Finding]:
        if ctx.module is None:
            return
        own_layer = layer_of(ctx.module)
        if own_layer is None:
            return
        for node, name in import_targets(ctx):
            target_layer = layer_of(name)
            if target_layer is None:
                continue
            if target_layer > own_layer:
                yield ctx.finding(
                    self.id,
                    node,
                    f"{ctx.module} ({_LAYER_NAMES[own_layer]} layer) imports "
                    f"{name} ({_LAYER_NAMES[target_layer]} layer) — upward "
                    "imports break index → graph → kernel → surfaces "
                    "(docs/architecture.md)",
                )
            elif ctx.module.startswith("repro.core") and name.startswith(
                self.UPPER_FORBIDDEN_FOR_CORE
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    f"{ctx.module} imports {name}: repro.core must not depend "
                    "on repro.analysis or repro.datasets "
                    "(docs/architecture.md)",
                )


# ---------------------------------------------------------------------------
# RL003 — obs-counter registry


class ObsRegistryRule(Rule):
    id = "RL003"
    name = "obs-registry"
    summary = (
        "every literal obs counter/span name is declared in "
        "repro/obs_registry.py (regenerate: --write-obs-registry)"
    )

    def check_file(self, ctx: FileContext, project: Project) -> Iterable[Finding]:
        if ctx.tree is None or not (ctx.in_src() or ctx.in_tests()):
            return
        declared = obsreg.declared_names(project)
        if declared is None:
            return  # project-level staleness check reports this
        counters, spans = declared
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                hit = obsreg.obs_call_name(node)
                if hit is None or hit[1] is None:
                    continue
                method, name = hit
                if method == "span":
                    if name not in spans:
                        yield ctx.finding(
                            self.id,
                            node,
                            f"span name {name!r} is not declared in the obs "
                            "registry (typo, or regenerate with "
                            "--write-obs-registry)",
                        )
                elif name not in counters:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"counter name {name!r} is not declared in the obs "
                        "registry — a typo here records or reads nothing "
                        "(regenerate with --write-obs-registry)",
                    )
            elif isinstance(node, ast.Subscript):
                sub = obsreg.snapshot_subscript_name(node)
                if sub is None:
                    continue
                kind, name = sub
                pool = counters if kind == "counters" else spans
                if name not in pool:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"snapshot lookup [{kind!r}][{name!r}] names an "
                        "undeclared obs entry — a typo here silently reads "
                        "a missing key",
                    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        # Staleness only makes sense when the whole src tree was
        # scanned; repro/obs.py being present is the proxy for that.
        obs_ctx = project.module("repro.obs")
        if obs_ctx is None:
            return
        declared = obsreg.declared_names(project)
        anchor = project.rel(obsreg.REGISTRY_REL)
        anchor_rel = anchor.rel if anchor is not None else obs_ctx.rel
        if declared is None:
            yield Finding(
                self.id,
                anchor_rel,
                1,
                0,
                "obs registry module src/repro/obs_registry.py is missing — "
                "generate it with python -m repro.lint --write-obs-registry",
            )
            return
        scanned = obsreg.scan_producers(project.contexts)
        for kind, have, want in (
            ("counter", declared[0], scanned[0]),
            ("span", declared[1], scanned[1]),
        ):
            missing = sorted(want - have)
            stale = sorted(have - want)
            if missing:
                yield Finding(
                    self.id,
                    anchor_rel,
                    1,
                    0,
                    f"obs registry is stale: produced {kind} name(s) "
                    f"{missing} not declared — regenerate with "
                    "--write-obs-registry",
                )
            if stale:
                yield Finding(
                    self.id,
                    anchor_rel,
                    1,
                    0,
                    f"obs registry is stale: declared {kind} name(s) "
                    f"{stale} have no producer in src/ — regenerate with "
                    "--write-obs-registry",
                )


# ---------------------------------------------------------------------------
# RL004 — exception taxonomy at the store/serve trust boundary


_BUILTIN_EXCEPTIONS = {
    "Exception",
    "BaseException",
    "ValueError",
    "TypeError",
    "RuntimeError",
    "KeyError",
    "IndexError",
    "AttributeError",
    "OSError",
    "IOError",
    "LookupError",
    "ArithmeticError",
    "ZeroDivisionError",
    "StopIteration",
    "NotImplementedError",
    "AssertionError",
    "SystemError",
}


class ExceptionTaxonomyRule(Rule):
    id = "RL004"
    name = "exception-taxonomy"
    summary = (
        "repro.store / repro.serve raise only types imported from "
        "repro.exceptions (the StoreError hierarchy and documented errors)"
    )

    SCOPED_MODULES = ("repro.store", "repro.serve")

    def check_file(self, ctx: FileContext, project: Project) -> Iterable[Finding]:
        if ctx.module not in self.SCOPED_MODULES or ctx.tree is None:
            return
        allowed = {
            name.rsplit(".", 1)[-1]
            for _, name in import_targets(ctx)
            if name.startswith("repro.exceptions.")
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            raised: Optional[str] = None
            if isinstance(exc, ast.Call):
                raised = terminal_name(exc.func)
                is_constructed = True
            else:
                raised = terminal_name(exc)
                is_constructed = False
            if raised is None:
                continue
            if raised in allowed:
                continue
            if raised in _BUILTIN_EXCEPTIONS:
                yield ctx.finding(
                    self.id,
                    node,
                    f"{ctx.module} raises builtin {raised}; the store/serve "
                    "boundary must raise the typed repro.exceptions "
                    "hierarchy (StoreError subclasses, ValidationError, ...)",
                )
            elif is_constructed:
                yield ctx.finding(
                    self.id,
                    node,
                    f"{ctx.module} raises {raised}, which is not imported "
                    "from repro.exceptions — callers rely on the typed "
                    "taxonomy for exit codes and retries",
                )
            # A bare non-builtin name (``raise exc``) is a re-raise of a
            # caught variable; its type was checked where it was raised.


# ---------------------------------------------------------------------------
# RL005 — lock discipline


class LockDisciplineRule(Rule):
    id = "RL005"
    name = "lock-discipline"
    summary = (
        "attributes annotated '# reprolint: lock-guarded' are only touched "
        "inside 'with self.<lock>:' (or methods marked holds-lock)"
    )

    GUARD_MARK = "reprolint: lock-guarded"
    HOLDS_MARK = "reprolint: holds-lock"

    def check_file(self, ctx: FileContext, project: Project) -> Iterable[Finding]:
        if ctx.tree is None:
            return
        for cls in ast.walk(ctx.tree):
            if isinstance(cls, ast.ClassDef):
                yield from self._check_class(ctx, cls)

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef):
        guarded: Set[str] = set()
        locks: Set[str] = set()
        for node in ast.walk(cls):
            target = self._self_assign_target(node)
            if target is None:
                continue
            if self.GUARD_MARK in ctx.comment_on(node.lineno):
                guarded.add(target)
            if self._is_lock_ctor(node.value):
                locks.add(target)
        if not guarded:
            return
        if not locks:
            yield ctx.finding(
                self.id,
                cls,
                f"class {cls.name} declares lock-guarded attributes "
                f"{sorted(guarded)} but assigns no threading.Lock/RLock",
            )
            return
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name == "__init__":
                continue  # construction happens-before publication
            if self._marked_holds_lock(ctx, fn):
                continue
            for stmt in fn.body:
                yield from self._walk(ctx, stmt, guarded, locks, False)

    @staticmethod
    def _self_assign_target(node) -> Optional[str]:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            return None
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for t in targets:
            if (
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            ):
                return t.attr
        return None

    @staticmethod
    def _is_lock_ctor(value) -> bool:
        return (
            isinstance(value, ast.Call)
            and terminal_name(value.func) in ("Lock", "RLock")
        )

    def _marked_holds_lock(self, ctx: FileContext, fn) -> bool:
        first_body_line = fn.body[0].lineno if fn.body else fn.lineno
        return any(
            self.HOLDS_MARK in ctx.comment_on(line)
            for line in range(fn.lineno, first_body_line + 1)
        )

    def _walk(self, ctx, node, guarded: Set[str], locks: Set[str], held: bool):
        if isinstance(node, ast.With) and not held:
            takes_lock = any(
                isinstance(item.context_expr, ast.Attribute)
                and isinstance(item.context_expr.value, ast.Name)
                and item.context_expr.value.id == "self"
                and item.context_expr.attr in locks
                for item in node.items
            )
            for child in node.body:
                yield from self._walk(ctx, child, guarded, locks, takes_lock)
            return
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in guarded
            and not held
        ):
            yield ctx.finding(
                self.id,
                node,
                f"self.{node.attr} is lock-guarded but accessed outside "
                "'with self.<lock>:' — wrap the access or mark the method "
                "'# reprolint: holds-lock' if every caller holds it",
            )
        for child in ast.iter_child_nodes(node):
            yield from self._walk(ctx, child, guarded, locks, held)


# ---------------------------------------------------------------------------
# RL006 — no wall clock in tests


_WALL_CLOCK = {"time", "perf_counter", "perf_counter_ns", "process_time",
               "process_time_ns"}
_MONOTONIC = {"monotonic", "monotonic_ns"}


class WallClockRule(Rule):
    id = "RL006"
    name = "wall-clock"
    summary = (
        "tests never read time.time/perf_counter; time.monotonic only "
        "inside @pytest.mark.slow opt-in tests (perf asserts use obs "
        "counters — docs/observability.md)"
    )

    def check_file(self, ctx: FileContext, project: Project) -> Iterable[Finding]:
        if not ctx.in_tests() or ctx.tree is None:
            return
        from_time = self._names_imported_from_time(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = self._time_function(node, from_time)
            if fn is None:
                continue
            if fn in _WALL_CLOCK:
                yield ctx.finding(
                    self.id,
                    node,
                    f"time.{fn} in tests — perf assertions must be "
                    "repro.obs counter-based (deterministic); see "
                    "docs/observability.md",
                )
            elif fn in _MONOTONIC and not self._in_slow_test(node):
                yield ctx.finding(
                    self.id,
                    node,
                    f"time.{fn} outside an @pytest.mark.slow test — timing "
                    "is jitter on shared CI; gate it behind the opt-in "
                    "slow marker",
                )

    @staticmethod
    def _names_imported_from_time(ctx: FileContext) -> Dict[str, str]:
        out: Dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    out[alias.asname or alias.name] = alias.name
        return out

    @staticmethod
    def _time_function(node: ast.Call, from_time: Dict[str, str]) -> Optional[str]:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            return func.attr
        if isinstance(func, ast.Name) and func.id in from_time:
            return from_time[func.id]
        return None

    @staticmethod
    def _in_slow_test(node: ast.AST) -> bool:
        fn = enclosing_function(node)
        while fn is not None:
            for dec in fn.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if dotted_name(target) in ("pytest.mark.slow", "mark.slow"):
                    return True
            fn = enclosing_function(fn)
        return False


# ---------------------------------------------------------------------------
# RL007 — unseeded / global RNG in src


_LEGACY_NP_RANDOM = {
    "rand", "randn", "randint", "random", "random_sample", "sample",
    "ranf", "normal", "uniform", "shuffle", "permutation", "choice",
    "seed", "standard_normal", "exponential", "poisson", "binomial",
    "multivariate_normal", "beta", "gamma",
}


class UnseededRngRule(Rule):
    id = "RL007"
    name = "unseeded-rng"
    summary = (
        "src/ never draws from the global np.random state or an unseeded "
        "Generator — reproduction results must be replayable"
    )

    def check_file(self, ctx: FileContext, project: Project) -> Iterable[Finding]:
        if not ctx.in_src() or ctx.tree is None:
            return
        bare_ctors = self._bare_rng_imports(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                base = dotted_name(func.value)
                if base in ("np.random", "numpy.random"):
                    if func.attr in _LEGACY_NP_RANDOM:
                        yield ctx.finding(
                            self.id,
                            node,
                            f"np.random.{func.attr} uses the global RNG "
                            "state — pass a seeded np.random.default_rng "
                            "(see repro._validation.check_seed)",
                        )
                    elif func.attr in ("default_rng", "RandomState") and (
                        not node.args and not node.keywords
                    ):
                        yield ctx.finding(
                            self.id,
                            node,
                            f"np.random.{func.attr}() without a seed is "
                            "nondeterministic — thread an explicit seed "
                            "through (check_seed)",
                        )
            elif (
                isinstance(func, ast.Name)
                and func.id in bare_ctors
                and not node.args
                and not node.keywords
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    f"{func.id}() without a seed is nondeterministic — "
                    "thread an explicit seed through (check_seed)",
                )

    @staticmethod
    def _bare_rng_imports(ctx: FileContext) -> Set[str]:
        out: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "numpy.random",
            ):
                for alias in node.names:
                    if alias.name in ("default_rng", "RandomState"):
                        out.add(alias.asname or alias.name)
        return out


# ---------------------------------------------------------------------------
# RL008 — float equality on score arrays


_SCORE_NAME = re.compile(r"(?i)^(?:(?:lof|lrd|reach)(?:s?$|_.*)|scores?_?$)")

_APPROX_COMPARATORS = {"approx", "isclose", "allclose"}


class FloatEqualityRule(Rule):
    id = "RL008"
    name = "float-equality"
    summary = (
        "no ==/!= on score-like values (lof/lrd/reach/score names); use "
        "np.array_equal / testing.assert_array_equal for bit-identity or "
        "pytest.approx for tolerance"
    )

    def check_file(self, ctx: FileContext, project: Project) -> Iterable[Finding]:
        if not (ctx.in_src() or ctx.in_tests()) or ctx.tree is None:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._is_approx(o) for o in operands):
                continue
            # ``scores == {}`` / ``== []`` is container emptiness, not
            # float equality.
            if any(self._is_empty_container(o) for o in operands):
                continue
            for operand in operands:
                name = terminal_name(operand)
                if name and _SCORE_NAME.match(name):
                    yield ctx.finding(
                        self.id,
                        node,
                        f"float == on score-like value {name!r} — use "
                        "np.array_equal (bit-identity) or pytest.approx "
                        "(tolerance) instead of the == operator",
                    )
                    break

    @staticmethod
    def _is_approx(node) -> bool:
        return (
            isinstance(node, ast.Call)
            and terminal_name(node.func) in _APPROX_COMPARATORS
        )

    @staticmethod
    def _is_empty_container(node) -> bool:
        if isinstance(node, ast.Dict):
            return not node.keys
        if isinstance(node, (ast.List, ast.Set)):
            return not node.elts
        return False


# ---------------------------------------------------------------------------
# RL009-RL011 — interprocedural concurrency rules
#
# All three share one ConcurrencyModel (call graph + lock-set dataflow,
# built once per run via Project.cached). See lint/callgraph.py and
# lint/locks.py for the model, docs/static-analysis.md for the catalog
# entries and the unsoundness limits.


def _concurrency_model(project: Project):
    from .locks import ConcurrencyModel

    return ConcurrencyModel.for_project(project)


def _top_level_classes(ctx: FileContext):
    if ctx.tree is None:
        return
    for node in ctx.tree.body:
        if isinstance(node, ast.ClassDef):
            yield node


def _class_qualname(ctx: FileContext, cls: ast.ClassDef) -> str:
    from .callgraph import _pseudo_module

    module = ctx.module or _pseudo_module(ctx.rel)
    return f"{module}.{cls.name}"


class InferredRaceRule(Rule):
    id = "RL009"
    name = "inferred-race"
    summary = (
        "lock-guarded attribute reachable from concurrent thread entries "
        "with no guard lock held on some call path; holds-lock claims are "
        "verified against every resolved caller"
    )

    #: entry kinds that imply >1 concurrent thread by themselves (a
    #: ThreadingHTTPServer handler / forked fleet worker runs
    #: many instances of the same entry at once)
    _SELF_CONCURRENT = ("handler", "fork")

    def check_project(self, project: Project) -> Iterable[Finding]:
        model = _concurrency_model(project)
        for ctx in project.contexts:
            for cls in _top_level_classes(ctx):
                cls_qual = _class_qualname(ctx, cls)
                guarded = self._guarded_attrs(ctx, cls)
                if not guarded:
                    continue
                guard_locks = frozenset(
                    model.registry.class_locks(model.graph, cls_qual)
                )
                if not guard_locks:
                    continue  # RL005 flags the missing lock
                yield from self._check_access_paths(
                    model, cls_qual, guarded, guard_locks
                )
                yield from self._check_holds_lock_claims(
                    model, ctx, cls, cls_qual, guard_locks
                )

    # -- annotation collection (same markers RL005 trusts locally) ---------

    def _guarded_attrs(self, ctx: FileContext, cls: ast.ClassDef) -> Set[str]:
        guarded: Set[str] = set()
        for node in ast.walk(cls):
            target = LockDisciplineRule._self_assign_target(node)
            if target is None:
                continue
            if LockDisciplineRule.GUARD_MARK in ctx.comment_on(node.lineno):
                guarded.add(target)
        return guarded

    # -- unguarded-path detection ------------------------------------------

    def _check_access_paths(self, model, cls_qual, guarded, guard_locks):
        from .callgraph import _local_nodes

        graph = model.graph
        # every `self.<guarded>` access in methods (and their nested
        # defs) of the class, with the locally-held set at the access
        accesses = []  # (FunctionInfo, Attribute node)
        prefix = cls_qual + "."
        for qual, info in graph.functions.items():
            if not qual.startswith(prefix):
                continue
            if qual == prefix + "__init__":
                continue  # construction happens-before publication
            for node in _local_nodes(info.node):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in guarded
                ):
                    accesses.append((info, node))
        if not accesses:
            return
        # concurrency precondition: the guarded state is touched by >1
        # thread — two distinct entries, or one self-concurrent entry
        reaching = {}
        for info, _ in accesses:
            for entry in graph.entries_reaching(info.qualname):
                reaching[(entry.kind, entry.target)] = entry
        concurrent = len(reaching) >= 2 or any(
            e.kind in self._SELF_CONCURRENT for e in reaching.values()
        )
        if not concurrent:
            return
        reported: Set[Tuple[str, str]] = set()
        for info, node in accesses:
            facts = model.facts[info.qualname]
            local = facts.held(node)
            if local & guard_locks:
                continue  # syntactically under the lock
            key = (info.qualname, node.attr)
            if key in reported:
                continue
            for entry in graph.entries_reaching(info.qualname):
                must = model.must_held(entry.target).get(
                    info.qualname, frozenset()
                )
                if (must | local) & guard_locks:
                    continue  # this entry always holds a guard lock here
                witness = self._witness(model, entry, info, node, guard_locks)
                if witness is None:
                    continue  # per-site analysis shows the path is guarded
                reported.add(key)
                yield info.ctx.finding(
                    self.id,
                    node,
                    f"self.{node.attr} is lock-guarded but "
                    f"{info.qualname} can be reached from "
                    f"{entry.label} with no guard lock held "
                    "(run with --explain RL009 for the witness path)",
                    witness,
                )
                break

    def _witness(self, model, entry, info, node, guard_locks):
        for lock in sorted(guard_locks):
            chain = model.lock_free_path(entry.target, info.qualname, lock)
            if chain is not None:
                lines = model.render_chain(entry, chain)
                lines.append(
                    f"  unguarded access: self.{node.attr} "
                    f"({info.ctx.rel}:{node.lineno}) — "
                    f"{lock.render()} not held"
                )
                return tuple(lines)
        return None

    # -- holds-lock claim verification -------------------------------------

    def _check_holds_lock_claims(self, model, ctx, cls, cls_qual, guard_locks):
        graph = model.graph
        discipline = RULES_BY_CLASS["LockDisciplineRule"]
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not discipline._marked_holds_lock(ctx, fn):
                continue
            qual = f"{cls_qual}.{fn.name}"
            sites = graph.callers.get(qual, [])
            if not sites:
                yield ctx.finding(
                    self.id,
                    fn,
                    f"{qual} claims '# reprolint: holds-lock' but no "
                    "resolved caller can discharge the claim — either the "
                    "callers are invisible to the call graph (document "
                    "with a suppression) or the annotation is stale",
                )
                continue
            for site in sites:
                if model.site_held(site) & guard_locks:
                    continue
                if site.caller == cls_qual + ".__init__":
                    continue  # construction happens-before publication
                caller_info = graph.functions.get(site.caller)
                if caller_info is not None and discipline._marked_holds_lock(
                    caller_info.ctx, caller_info.node
                ):
                    continue  # claim propagates up the annotated chain
                yield ctx.finding(
                    self.id,
                    site.node,
                    f"{site.caller} calls {qual} (annotated holds-lock) "
                    "without holding "
                    f"{', '.join(l.render() for l in sorted(guard_locks))}",
                )


class LockOrderCycleRule(Rule):
    id = "RL010"
    name = "lock-order-cycle"
    summary = (
        "cycle in the acquired-while-holding graph (potential deadlock); "
        "re-acquiring a non-reentrant Lock is a guaranteed self-deadlock"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        model = _concurrency_model(project)
        for steps in model.order_cycles():
            first_lock, _, fn0, node0 = steps[0]
            rel = model.rel_of(fn0)
            witness = tuple(
                f"{fn} acquires {b.render()} while holding {a.render()} "
                f"({model.rel_of(fn)}:{getattr(node, 'lineno', '?')})"
                for a, b, fn, node in steps
            )
            if len(steps) == 1 and steps[0][0] == steps[0][1]:
                message = (
                    f"non-reentrant lock {first_lock.render()} acquired "
                    f"while already held in {fn0} — guaranteed "
                    "self-deadlock (use RLock or restructure)"
                )
            else:
                order = " -> ".join(a.render() for a, _, _, _ in steps)
                order += f" -> {first_lock.render()}"
                message = (
                    f"lock-order cycle {order}: two threads taking these "
                    "locks in opposite order deadlock"
                )
            yield Finding(
                self.id,
                rel,
                getattr(node0, "lineno", 1),
                getattr(node0, "col_offset", 0),
                message,
                witness,
            )


class BlockingUnderHotLockRule(Rule):
    id = "RL011"
    name = "blocking-under-hot-lock"
    summary = (
        "blocking call (join/wait/queue/socket/subprocess) while holding "
        "a lock that HTTP request handlers contend on"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        from .callgraph import _local_nodes
        from .locks import blocking_call_reason

        model = _concurrency_model(project)
        hot = model.hot_locks()
        if not hot:
            return
        hot_label = {e.target: e.label for e in model.hot_entries()}
        for qual, facts in model.facts.items():
            info = facts.info
            for node in _local_nodes(info.node):
                if not isinstance(node, ast.Call):
                    continue
                reason = blocking_call_reason(node)
                if reason is None:
                    continue
                local = facts.held(node)
                finding = self._check_site(
                    model, hot, hot_label, info, node, reason, local
                )
                if finding is not None:
                    yield finding

    def _check_site(self, model, hot, hot_label, info, node, reason, local):
        held_hot = local & hot
        entry = None
        if not held_hot:
            for candidate in model.graph.entries_reaching(info.qualname):
                must = model.must_held(candidate.target).get(
                    info.qualname, frozenset()
                )
                held_hot = (must | local) & hot
                if held_hot:
                    entry = candidate
                    break
        if not held_hot:
            return None
        locks = ", ".join(l.render() for l in sorted(held_hot))
        witness = []
        if entry is not None:
            chain = model.graph.call_path(entry.target, info.qualname) or []
            witness.extend(model.render_chain(entry, chain))
        witness.append(
            f"  blocking call ({reason}) at {info.ctx.rel}:{node.lineno} "
            f"while holding {locks}"
        )
        witness.append(
            "  handler threads contending on that lock stall: "
            + ", ".join(sorted(hot_label.values()))
        )
        return info.ctx.finding(
            self.id,
            node,
            f"blocking call in {info.qualname} ({reason}) while holding "
            f"{locks}, which the serve hot path contends on",
            tuple(witness),
        )


# ---------------------------------------------------------------------------
# registry


RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        OneKernelRule(),
        ImportLayeringRule(),
        ObsRegistryRule(),
        ExceptionTaxonomyRule(),
        LockDisciplineRule(),
        WallClockRule(),
        UnseededRngRule(),
        FloatEqualityRule(),
        InferredRaceRule(),
        LockOrderCycleRule(),
        BlockingUnderHotLockRule(),
    )
}

#: class-name lookup for rules that share helpers (RL009 reuses RL005's
#: annotation parsing so the two can never drift apart)
RULES_BY_CLASS: Dict[str, Rule] = {
    type(rule).__name__: rule for rule in RULES.values()
}


def get_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """The rule set for a run, in stable ID order.

    ``select`` keeps only the named IDs; ``ignore`` drops IDs from
    whatever ``select`` produced. Unknown IDs raise ValueError so typos
    in CI configs fail loudly.
    """
    known = set(RULES)
    for blob in (select or []), (ignore or []):
        unknown = set(blob) - known
        if unknown:
            raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
    ids = list(select) if select else sorted(RULES)
    if ignore:
        ids = [i for i in ids if i not in set(ignore)]
    return [RULES[i] for i in sorted(set(ids))]
