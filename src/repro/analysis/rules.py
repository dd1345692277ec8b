"""The repo-specific rule battery: RL001–RL006.

Each rule statically enforces a contract the runtime test suites can
only probe:

* **RL001 determinism** — no wall-clock reads, no stdlib ``random``, no
  global-state ``numpy.random`` calls outside allowlisted modules; all
  randomness must flow through the named streams of
  :class:`repro.sim.rng.RandomStreams` (and the per-fault streams of
  ``repro.faults.plan``).
* **RL002 wire-boundary** — every ``SVC_RET_*``/``PWR_RET_*`` string
  literal is declared in an error-code enum and every declared code is
  referenced somewhere; no ``raise`` can escape a dispatch entry point;
  no bare ``except:``.
* **RL003 hot-path purity** — functions tagged ``# repro-lint: hot``
  (and their project-resolvable callees, transitively) must not read
  ``@property`` descriptors on ``self``, allocate comprehensions inside
  loops, or re-dereference the same attribute chain repeatedly in one
  loop body.
* **RL004 fork-safety** — no module-level mutable globals, ``global``
  rebinding, or post-import mutation of module containers outside the
  sanctioned registries; anything else desynchronises process-pool
  workers from the parent.
* **RL005 serialization** — expressions entering journal/wire sinks
  (``DatabaseJournal.append_record``, ``json.dumps``, the wire
  encoder ``encode_wire``, ``Response.success``) must be statically
  plain-JSON-safe.
* **RL006 dead code** — every function, method and class is named
  somewhere outside its own ``def``/``class`` line: in the linted files
  or in the caller roots (``perfbench/``, ``examples/``,
  ``benchmarks/``).  Dunders, decorator-registered definitions and the
  ``_cmd_*`` service handlers are exempt.  Every name a module-level
  import binds is used by its module, outside ``__init__.py``: a
  ``__future__`` import or a name listed in ``__all__`` (a re-export)
  is exempt.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    FunctionInfo,
    ProjectIndex,
    build_alias_map,
    dotted_path,
    raw_path,
)
from repro.analysis.engine import (
    LintContext,
    Rule,
    SourceFile,
    Violation,
    iter_python_files,
)

__all__ = [
    "DeterminismRule",
    "WireBoundaryRule",
    "HotPathRule",
    "ForkSafetyRule",
    "SerializationRule",
    "DeadCodeRule",
    "default_rules",
]


def default_rules() -> List[Rule]:
    """Fresh instances of the whole battery (no module-global registry)."""
    return [
        DeterminismRule(),
        WireBoundaryRule(),
        HotPathRule(),
        ForkSafetyRule(),
        SerializationRule(),
        DeadCodeRule(),
    ]


# ---------------------------------------------------------------------------
# RL001 — determinism
# ---------------------------------------------------------------------------

_WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.clock_gettime_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: numpy.random functions that touch the hidden module-global RandomState.
#: (``default_rng``/``SeedSequence``/``Generator`` are the sanctioned,
#: explicitly-seeded machinery and are deliberately absent.)
_NP_GLOBAL_RNG = {
    "seed", "random", "rand", "randn", "randint", "random_integers",
    "random_sample", "ranf", "sample", "choice", "bytes", "shuffle",
    "permutation", "uniform", "normal", "standard_normal", "beta",
    "binomial", "chisquare", "exponential", "f", "gamma", "geometric",
    "gumbel", "hypergeometric", "laplace", "logistic", "lognormal",
    "logseries", "multinomial", "multivariate_normal",
    "negative_binomial", "noncentral_chisquare", "noncentral_f",
    "pareto", "poisson", "power", "rayleigh", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_t",
    "triangular", "vonmises", "wald", "weibull", "zipf",
    "get_state", "set_state",
}


class DeterminismRule(Rule):
    rule_id = "RL001"
    name = "determinism"
    summary = (
        "no wall-clock reads or global RNG outside allowlisted modules; "
        "randomness flows through sim.rng named streams"
    )

    def check_file(self, source: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        config = ctx.config
        allow_clock = config.wallclock_allowed(source.module)
        allow_random = config.global_random_allowed(source.module)
        if allow_clock and allow_random:
            return
        aliases = build_alias_map(source.tree, source.module)
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not allow_random:
                yield from self._check_import(source, node)
            elif isinstance(node, ast.Call):
                path = dotted_path(node.func, aliases)
                if path is None:
                    continue
                if not allow_clock and path in _WALLCLOCK_CALLS:
                    yield self.violation(
                        source,
                        node,
                        f"wall-clock read {path}() breaks replay determinism; "
                        f"take timestamps from the sim engine, or pragma-suppress "
                        f"for pure timing metadata",
                    )
                elif not allow_random and path.split(".", 1)[0] == "random":
                    yield self.violation(
                        source,
                        node,
                        f"stdlib global RNG call {path}(); draw from a named "
                        f"stream (sim.rng.RandomStreams) instead",
                    )
                elif (
                    not allow_random
                    and path.startswith("numpy.random.")
                    and path.rsplit(".", 1)[1] in _NP_GLOBAL_RNG
                ):
                    yield self.violation(
                        source,
                        node,
                        f"{path}() samples numpy's hidden global RandomState; "
                        f"use a named stream (sim.rng.RandomStreams) or an "
                        f"explicit numpy.random.Generator",
                    )

    def _check_import(self, source: SourceFile, node: ast.AST) -> Iterator[Violation]:
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.name == "random" or name.name.startswith("random."):
                    yield self.violation(
                        source,
                        node,
                        "import of stdlib 'random' (process-global RNG state); "
                        "use sim.rng.RandomStreams named streams",
                    )
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "random":
                yield self.violation(
                    source,
                    node,
                    "from-import of stdlib 'random' (process-global RNG state); "
                    "use sim.rng.RandomStreams named streams",
                )
            elif node.module == "numpy.random":
                risky = sorted(
                    alias.name for alias in node.names if alias.name in _NP_GLOBAL_RNG
                )
                if risky:
                    yield self.violation(
                        source,
                        node,
                        f"from-import of numpy global-RNG function(s) {risky}; "
                        f"use explicit Generator streams",
                    )


# ---------------------------------------------------------------------------
# RL002 — wire boundary
# ---------------------------------------------------------------------------

_ENUM_BASES = {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"}
_CATCHALL_EXCEPTIONS = {"Exception", "BaseException"}


def _docstring_nodes(tree: ast.AST) -> Set[int]:
    """ids() of Constant nodes that are module/class/function docstrings."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


class WireBoundaryRule(Rule):
    rule_id = "RL002"
    name = "wire-boundary"
    summary = (
        "RET codes declared <-> used; no raise escaping dispatch; no bare except"
    )

    # -- per-file: bare except + dispatch raise containment ----------------
    def check_file(self, source: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        dispatch_names = set(ctx.config.dispatch_functions)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    source,
                    node,
                    "bare 'except:' swallows KeyboardInterrupt/SystemExit and "
                    "hides the error code; catch Exception (or narrower)",
                )
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in dispatch_names
            ):
                for raise_node in _escaping_raises(node):
                    yield self.violation(
                        source,
                        raise_node,
                        f"raise can escape dispatch entry point {node.name}(); "
                        f"wire failures must become structured error responses "
                        f"(wrap in try/except Exception)",
                    )

    # -- cross-file: RET-code registry consistency -------------------------
    def check_project(self, ctx: LintContext) -> Iterator[Violation]:
        pattern = ctx.config.compiled_wire_pattern()
        declared: Dict[str, Tuple[SourceFile, int, str, str]] = {}
        declaration_nodes: Set[int] = set()
        enum_class_names: Set[str] = set()

        # Pass A: find error-code enums and their declared codes.
        for source in ctx.files:
            if source.tree is None:
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                base_names = {
                    (raw_path(base) or "").split(".")[-1] for base in node.bases
                }
                if not (base_names & _ENUM_BASES):
                    continue
                members: List[Tuple[str, ast.Constant]] = []
                for item in node.body:
                    if (
                        isinstance(item, ast.Assign)
                        and len(item.targets) == 1
                        and isinstance(item.targets[0], ast.Name)
                        and isinstance(item.value, ast.Constant)
                        and isinstance(item.value.value, str)
                        and pattern.fullmatch(item.value.value)
                    ):
                        members.append((item.targets[0].id, item.value))
                if members:
                    enum_class_names.add(node.name)
                    for member_name, constant in members:
                        declaration_nodes.add(id(constant))
                        declared.setdefault(
                            constant.value,
                            (source, constant.lineno, member_name, node.name),
                        )

        # Pass B: collect usages (string tokens + EnumClass.MEMBER reads).
        used_codes: Set[str] = set()
        used_members: Set[str] = set()
        undeclared: List[Tuple[SourceFile, ast.Constant, str]] = []
        for source in ctx.files:
            if source.tree is None:
                continue
            docstrings = _docstring_nodes(source.tree)
            aliases = build_alias_map(source.tree, source.module)
            enum_local_names = set(enum_class_names)
            enum_local_names.update(
                local
                for local, target in aliases.items()
                if target.split(".")[-1] in enum_class_names
            )
            for node in ast.walk(source.tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in docstrings
                    and id(node) not in declaration_nodes
                ):
                    for match in pattern.finditer(node.value):
                        token = match.group(0)
                        used_codes.add(token)
                        if token not in declared:
                            undeclared.append((source, node, token))
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in enum_local_names
                ):
                    used_members.add(node.attr)

        for source, node, token in undeclared:
            yield self.violation(
                source,
                node,
                f"wire code {token!r} is not declared in any error-code enum; "
                f"register it in the envelope registry before putting it on "
                f"the wire",
            )
        for code, (source, line, member, class_name) in sorted(declared.items()):
            if code not in used_codes and member not in used_members:
                yield self.violation(
                    source,
                    line,
                    f"wire code {code!r} ({class_name}.{member}) is declared "
                    f"but never used; dead codes rot the wire contract",
                )


def _escaping_raises(fn: ast.AST) -> List[ast.Raise]:
    """Raise statements not lexically protected by a catch-all try."""
    out: List[ast.Raise] = []

    def walk(node: ast.AST, protected: bool) -> None:
        if isinstance(node, ast.Raise):
            if not protected:
                out.append(node)
            return
        if isinstance(node, ast.Try):
            catchall = any(
                handler.type is None
                or (raw_path(handler.type) or "").split(".")[-1]
                in _CATCHALL_EXCEPTIONS
                for handler in node.handlers
            )
            for stmt in node.body:
                walk(stmt, protected or catchall)
            # Handler bodies, else and finally only enjoy *outer* protection.
            for handler in node.handlers:
                for stmt in handler.body:
                    walk(stmt, protected)
            for stmt in node.orelse + node.finalbody:
                walk(stmt, protected)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and (
            node is not fn
        ):
            return  # nested definitions are separate call contexts
        for child in ast.iter_child_nodes(node):
            walk(child, protected)

    walk(fn, False)
    out.sort(key=lambda n: (n.lineno, n.col_offset))
    return out


# ---------------------------------------------------------------------------
# RL003 — hot-path purity
# ---------------------------------------------------------------------------


class HotPathRule(Rule):
    rule_id = "RL003"
    name = "hot-path"
    summary = (
        "hot-tagged functions (transitively) avoid @property reads, "
        "in-loop comprehensions and repeated attribute chains"
    )

    def check_project(self, ctx: LintContext) -> Iterator[Violation]:
        index = ProjectIndex.build(ctx.files)
        by_path = {source.path: source for source in ctx.files}
        roots: List[Tuple[FunctionInfo, str]] = []
        for source in ctx.files:
            mod = index.modules.get(source.module)
            if mod is None:
                continue
            hot_nodes = {id(fn) for fn in source.hot_functions()}
            if not hot_nodes:
                continue
            all_infos = list(mod.functions.values()) + [
                method
                for info in mod.classes.values()
                for method in info.methods.values()
            ]
            for info in all_infos:
                if id(info.node) in hot_nodes:
                    roots.append((info, f"{source.module}.{info.qualname}"))
        roots.sort(key=lambda pair: pair[1])

        emitted: Set[Tuple[str, int, str]] = set()
        for fn, hot_root, depth in index.reachable_from(
            roots, max_depth=ctx.config.hot_call_depth
        ):
            source = by_path.get(fn.path)
            if source is None:
                continue
            origin = "" if depth == 0 else f" (reached from hot '{hot_root}')"
            for violation in self._check_function(
                source, fn, index, ctx.config.hot_rederef_threshold, origin
            ):
                key = (violation.path, violation.line, violation.message)
                if key not in emitted:
                    emitted.add(key)
                    yield violation

    def _check_function(
        self,
        source: SourceFile,
        fn: FunctionInfo,
        index: ProjectIndex,
        rederef_threshold: int,
        origin: str,
    ) -> Iterator[Violation]:
        # (a) @property reads on self.
        properties: Set[str] = set()
        if fn.owner:
            info = index.resolve_class(fn.module, fn.owner)
            if info is not None:
                properties = index.class_properties(info)
        if properties:
            for node in ast.walk(fn.node):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in properties
                ):
                    yield self.violation(
                        source,
                        node,
                        f"hot path reads @property 'self.{node.attr}'{origin}; "
                        f"a descriptor call per access — cache it in a local "
                        f"or make it a plain attribute",
                    )
        # (b)+(c) loop-body checks.
        for loop in _loops_of(fn.node):
            yield from self._check_loop(source, loop, rederef_threshold, origin)

    def _check_loop(
        self,
        source: SourceFile,
        loop: ast.AST,
        rederef_threshold: int,
        origin: str,
    ) -> Iterator[Violation]:
        body = list(getattr(loop, "body", [])) + list(getattr(loop, "orelse", []))
        chains: Dict[str, List[ast.Attribute]] = {}
        stored_names: Set[str] = set()
        stored_chains: Set[str] = set()

        def collect(node: ast.AST) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                return
            if isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                comp_kind = type(node).__name__
                comp_violations.append(
                    self.violation(
                        source,
                        node,
                        f"{comp_kind} allocated inside a loop on a hot "
                        f"path{origin}; hoist it or use a preallocated buffer",
                    )
                )
                # still collect attribute loads inside it
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
                stored_names.add(node.id)
            if isinstance(node, ast.Attribute):
                path = raw_path(node)
                if path is not None:
                    if isinstance(node.ctx, (ast.Store, ast.Del)):
                        stored_chains.add(path)
                    return  # count only the outermost chain node, below
            for child in ast.iter_child_nodes(node):
                collect(child)

        def count(node: ast.AST, parent_is_attr: bool, parent_call_func: bool) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                return
            if isinstance(node, ast.Attribute) and not parent_is_attr:
                path = raw_path(node)
                if path is not None and isinstance(node.ctx, ast.Load):
                    # For method calls, the re-dereferenced chain is the
                    # receiver (``self._fh`` in ``self._fh.write(x)``).
                    counted = path.rsplit(".", 1)[0] if parent_call_func else path
                    # Credit every dotted prefix, so ``self.cfg.limit`` and
                    # ``self.cfg.cap`` both count a ``self.cfg`` deref.
                    parts = counted.split(".")
                    for end in range(2, len(parts) + 1):
                        chains.setdefault(".".join(parts[:end]), []).append(node)
                for child in ast.iter_child_nodes(node):
                    count(child, isinstance(node, ast.Attribute), False)
                return
            if isinstance(node, ast.Call):
                count(node.func, False, isinstance(node.func, ast.Attribute))
                for arg in node.args:
                    count(arg, False, False)
                for kw in node.keywords:
                    count(kw.value, False, False)
                return
            for child in ast.iter_child_nodes(node):
                count(child, False, False)

        comp_violations: List[Violation] = []
        for stmt in body:
            collect(stmt)
            count(stmt, False, False)
        yield from comp_violations
        flagged = []
        for path, nodes in sorted(chains.items()):
            if len(nodes) < rederef_threshold:
                continue
            root = path.split(".")[0]
            if root in stored_names:
                continue
            if any(path == s or path.startswith(s + ".") for s in stored_chains):
                continue
            flagged.append(path)
        # Report only maximal chains: hoisting 'self.cfg.limit' subsumes
        # the 'self.cfg' deref it rides on.
        for path in flagged:
            if any(other.startswith(path + ".") for other in flagged):
                continue
            nodes = chains[path]
            first = min(nodes, key=lambda n: (n.lineno, n.col_offset))
            yield self.violation(
                source,
                first,
                f"attribute chain '{path}' dereferenced {len(nodes)}x inside "
                f"one loop on a hot path{origin}; hoist it into a local "
                f"before the loop",
            )


def _loops_of(fn: ast.AST) -> List[ast.AST]:
    out: List[ast.AST] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(child, (ast.For, ast.While, ast.AsyncFor)):
                out.append(child)
            walk(child)

    walk(fn)
    return out


# ---------------------------------------------------------------------------
# RL004 — fork safety
# ---------------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = {
    "list", "dict", "set", "bytearray",
    "defaultdict", "deque", "Counter", "OrderedDict", "ChainMap",
}
_MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse",
    "appendleft", "extendleft",
}
_CONSTANT_NAME = re.compile(r"^_{0,2}[A-Z][A-Z0-9_]*$")


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        name = (raw_path(node.func) or "").split(".")[-1]
        return name in _MUTABLE_CONSTRUCTORS
    return False


class ForkSafetyRule(Rule):
    rule_id = "RL004"
    name = "fork-safety"
    summary = (
        "no mutable module globals / global rebinding / post-import registry "
        "mutation outside sanctioned registries"
    )

    def check_file(self, source: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        config = ctx.config
        module = source.module

        # Module-level container names (for the post-import mutation check).
        containers: Dict[str, int] = {}
        for node in source.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not _is_mutable_value(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name) or target.id == "__all__":
                    continue
                containers[target.id] = node.lineno
                if _CONSTANT_NAME.match(target.id):
                    continue  # constant-table convention; mutation still checked
                if config.is_registry(module, target.id):
                    continue
                yield self.violation(
                    source,
                    node,
                    f"module-level mutable global '{target.id}' desynchronises "
                    f"process-pool workers; make it a constant table "
                    f"(ALL_CAPS, populated at import) or register it in "
                    f"[repro.analysis] registries",
                )

        # global-statement rebinding + post-import container mutation.
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_names = _locally_bound_names(node)
            for inner in ast.walk(node):
                if isinstance(inner, ast.Global):
                    for name in inner.names:
                        if not config.is_registry(module, name):
                            yield self.violation(
                                source,
                                inner,
                                f"'global {name}' rebinds module state at "
                                f"runtime; workers forked before this call "
                                f"never see it — register the slot in "
                                f"[repro.analysis] registries if deliberate",
                            )
                        local_names.add(name)  # avoid double-reporting below
                target_name = _mutated_module_name(inner, containers, local_names)
                if target_name is not None and not config.is_registry(
                    module, target_name
                ):
                    yield self.violation(
                        source,
                        inner,
                        f"post-import mutation of module global "
                        f"'{target_name}'; process-pool workers will not see "
                        f"it — pass state explicitly or register the "
                        f"registry in [repro.analysis]",
                    )


def _locally_bound_names(fn: ast.AST) -> Set[str]:
    names: Set[str] = set()
    args = getattr(fn, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            names.add(arg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _mutated_module_name(
    node: ast.AST, containers: Dict[str, int], local_names: Set[str]
) -> Optional[str]:
    """Name of a module-level container this statement mutates, if any."""

    def module_name(expr: ast.AST) -> Optional[str]:
        if (
            isinstance(expr, ast.Name)
            and expr.id in containers
            and expr.id not in local_names
        ):
            return expr.id
        return None

    if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
        targets = (
            node.targets
            if isinstance(node, ast.Assign)
            else [node.target]
            if isinstance(node, ast.AugAssign)
            else node.targets
        )
        for target in targets:
            if isinstance(target, ast.Subscript):
                found = module_name(target.value)
                if found:
                    return found
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATOR_METHODS:
            return module_name(node.func.value)
    return None


# ---------------------------------------------------------------------------
# RL005 — serialization
# ---------------------------------------------------------------------------

_NUMPY_ARRAY_BUILDERS = {
    "array", "asarray", "asanyarray", "zeros", "ones", "empty", "full",
    "arange", "linspace", "concatenate", "stack",
}
_UNSAFE_CONSTRUCTORS = {
    "set": "a set is not JSON-serialisable",
    "frozenset": "a frozenset is not JSON-serialisable",
    "bytes": "bytes are not JSON-serialisable",
    "bytearray": "a bytearray is not JSON-serialisable",
    "complex": "a complex number is not JSON-serialisable",
    "memoryview": "a memoryview is not JSON-serialisable",
    "object": "a plain object() is not JSON-serialisable",
}


class SerializationRule(Rule):
    rule_id = "RL005"
    name = "serialization"
    summary = "journal/wire sink arguments must be statically plain-JSON-safe"

    def check_file(self, source: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        sinks = ctx.config.sink_specs()
        aliases = build_alias_map(source.tree, source.module)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            call_raw = raw_path(node.func) or (
                node.func.attr if isinstance(node.func, ast.Attribute) else None
            )
            call_expanded = dotted_path(node.func, aliases)
            for sink in sinks:
                if not _suffix_match(sink.name, call_raw, call_expanded):
                    continue
                arg = self._sink_argument(node, sink)
                if arg is None:
                    continue
                for offender, reason in _json_unsafe(arg, sink.strict, aliases):
                    yield self.violation(
                        source,
                        offender,
                        f"argument entering wire/journal sink "
                        f"'{sink.name}' is not plain-JSON-safe: {reason}",
                    )
                break  # one sink spec per call is enough

    @staticmethod
    def _sink_argument(node: ast.Call, sink) -> Optional[ast.expr]:
        for keyword in node.keywords:
            if keyword.arg == sink.keyword:
                return keyword.value
        index = sink.arg_index
        # Method calls spend no slot on self: append_record(shard, seq,
        # record, key) is written ``journal.append_record(...)`` with the
        # record at the same positional index as in the signature minus
        # nothing — specs are written for the *call site* argument list.
        if 0 <= index < len(node.args):
            return node.args[index]
        return None


def _suffix_match(
    sink_name: str, call_raw: Optional[str], call_expanded: Optional[str]
) -> bool:
    want = sink_name.split(".")
    for candidate in (call_raw, call_expanded):
        if candidate is None:
            continue
        have = candidate.split(".")
        if len(have) >= len(want) and have[-len(want):] == want:
            return True
    return False


def _json_unsafe(
    node: ast.expr, strict: bool, aliases: Dict[str, str]
) -> List[Tuple[ast.expr, str]]:
    """Statically-detectable JSON hazards in an expression, recursively."""
    out: List[Tuple[ast.expr, str]] = []
    if isinstance(node, (ast.Set, ast.SetComp)):
        out.append((node, "a set is not JSON-serialisable"))
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, bytes):
            out.append((node, "bytes are not JSON-serialisable"))
        elif isinstance(node.value, complex):
            out.append((node, "a complex number is not JSON-serialisable"))
    elif isinstance(node, ast.Call):
        name = (raw_path(node.func) or "").split(".")[-1]
        expanded = dotted_path(node.func, aliases) or ""
        if name in _UNSAFE_CONSTRUCTORS:
            out.append((node, _UNSAFE_CONSTRUCTORS[name]))
        elif strict and expanded.startswith("numpy.") and (
            expanded.rsplit(".", 1)[1] in _NUMPY_ARRAY_BUILDERS
        ):
            out.append(
                (
                    node,
                    "a numpy array does not survive json.dumps; convert with "
                    ".tolist() (or send it through envelopes.encode_wire)",
                )
            )
        elif expanded.startswith("datetime."):
            out.append((node, "datetime objects are not JSON-serialisable"))
    elif isinstance(node, ast.Tuple) and strict:
        out.append(
            (node, "a tuple decodes back as a list (JSON round-trip type drift)")
        )
    elif isinstance(node, ast.List):
        for element in node.elts:
            out.extend(_json_unsafe(element, strict, aliases))
    elif isinstance(node, ast.Dict):
        for key, value in zip(node.keys, node.values):
            if key is None:  # **spread — unresolvable
                continue
            if (
                strict
                and isinstance(key, ast.Constant)
                and not isinstance(key.value, str)
            ):
                out.append(
                    (
                        key,
                        f"non-string key {key.value!r} is silently coerced to a "
                        f"string by JSON (round-trip identity breaks)",
                    )
                )
            out.extend(_json_unsafe(key, strict, aliases) if key is not None else [])
            out.extend(_json_unsafe(value, strict, aliases))
    return out


# ---------------------------------------------------------------------------
# RL006 — dead code
# ---------------------------------------------------------------------------

#: Code outside the linted files that calls into them: the repo benchmark
#: (which wraps methods by name), the examples and the paper benchmarks.
#: Resolved against the working directory, like ``paths`` and ``baseline``.
_CALLER_ROOTS = ("perfbench", "examples", "benchmarks")
#: Decorators that only change how a definition binds; any other
#: decorator registers the definition somewhere, which counts as a use.
_BINDING_DECORATORS = {"property", "staticmethod", "classmethod", "setter"}
#: ``StackService._derive_commands`` finds the command handlers by prefix.
_HANDLER_PREFIX = "_cmd_"


class DeadCodeRule(Rule):
    rule_id = "RL006"
    name = "dead-code"
    summary = (
        "every function, method and class is named by the linted files or "
        "by perfbench/, examples/ or benchmarks/, and every module-level "
        "import is used by its module"
    )

    def check_file(self, source: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        if os.path.basename(source.path) == "__init__.py":
            return
        tree = source.tree
        used = _module_all(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _annotation_names(node.value)
        for node in _module_imports(tree.body):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and bound not in used:
                    yield self.violation(
                        source,
                        node,
                        f"import of '{bound}' is never used in its module; delete "
                        f"it, or list the name in __all__ if it is a re-export",
                    )

    def check_project(self, ctx: LintContext) -> Iterator[Violation]:
        used: Set[str] = set()
        for source in ctx.files:
            if source.tree is not None:
                used |= _used_names(source.tree)
        roots = [root for root in _CALLER_ROOTS if os.path.isdir(root)]
        for path in iter_python_files(roots):
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                try:
                    used |= _used_names(ast.parse(fh.read(), filename=path))
                except SyntaxError:
                    continue
        for source in ctx.files:
            if source.tree is None:
                continue
            for node, qualname in _definitions(source.tree.body, ""):
                name = node.name
                if (
                    name in used
                    or (name.startswith("__") and name.endswith("__"))
                    or name.startswith(_HANDLER_PREFIX)
                    or any(
                        _decorator_name(d) not in _BINDING_DECORATORS
                        for d in node.decorator_list
                    )
                ):
                    continue
                yield self.violation(
                    source,
                    node,
                    f"'{qualname}' is never named outside its definition, in "
                    f"the linted files or perfbench/, examples/, benchmarks/; "
                    f"delete it, or keep it with a pragma naming the paper "
                    f"section or check that needs it",
                )


def _definitions(body: List[ast.stmt], owner: str) -> Iterator[Tuple[ast.AST, str]]:
    """Module-level and class-body definitions, with dotted qualnames."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{owner}{node.name}"
            yield node, qualname
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, qualname + ".")
        elif isinstance(node, (ast.If, ast.Try)) and not owner:
            yield from _definitions(node.body, owner)
            for handler in getattr(node, "handlers", ()):
                yield from _definitions(handler.body, owner)
            yield from _definitions(node.orelse, owner)


def _module_imports(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Module-level imports, also under a module-level ``if`` or ``try``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            yield from _module_imports(node.body)
            for handler in getattr(node, "handlers", ()):
                yield from _module_imports(handler.body)
            yield from _module_imports(node.orelse)
            yield from _module_imports(getattr(node, "finalbody", []))


def _module_all(tree: ast.Module) -> Set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)):
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                names.update(
                    e.value
                    for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                )
    return names


def _annotation_names(text: str) -> Set[str]:
    """The names a string read as an expression mentions: what a quoted
    annotation such as ``"Optional[Node]"`` uses.  Prose reads as none."""
    try:
        expr = ast.parse(text.strip(), mode="eval")
    except (SyntaxError, ValueError):
        return set()
    return {node.id for node in ast.walk(expr) if isinstance(node, ast.Name)}


def _used_names(tree: ast.AST) -> Set[str]:
    """Every name, attribute, import alias and identifier string in a tree."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            names.add(node.value)
    return names


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""
