"""Exception-flow facts: raise sites, handlers, escape-set inference.

The call graph answers "who may call whom"; this module answers "which
exception types may escape each function".  It is the substrate for the
EXC10xx rule family and the exception certificate:

* **raise sites** — every ``raise X(...)`` / ``raise X`` / ``raise X from
  Y`` / bare ``raise``, with the enclosing try regions that guard it;
* **handlers** — every ``except`` / ``except*`` clause with its caught
  types (tuple clauses and module-level tuple constants like
  ``_DROPPED_CONNECTION_ERRORS`` are expanded), whether it re-raises,
  raises a replacement, or observes the failure (a log/metric call), and
  whether it silently swallows;
* **escape sets** — a fixed-point propagation over the resolved call
  graph: a function's escape set is its own raises plus every non-
  ``fallback`` callee's escape set, each filtered through the ``except``
  clauses guarding the raise/call site.  Narrowing honours subclass
  hierarchies resolved from program class definitions plus a builtin
  table (``KeyError`` < ``LookupError`` < ``Exception``), so ``except
  LookupError`` removes a raised ``KeyError``.

Deliberate approximations, chosen so the analysis is *useful* rather than
vacuously complete:

* escape sets are seeded from ``raise`` statements only — calls into
  libraries (``open``, ``np.load``) contribute nothing.  Boundary checks
  therefore certify the flow of *program-raised* exceptions; a broad
  handler at the boundary is still the only defence for library errors.
* ``fallback`` call edges (untyped receiver, matched by method name) are
  excluded from escape propagation — they smear unrelated escape sets
  together — but *included* when proving a handler dead (EXC1003), so a
  dynamic call that could raise the caught type keeps the handler alive.
* ``raise error(...)`` of a parameter annotated ``error: type[X]``
  contributes ``X``, the most the annotation promises;
* a raise of an unresolvable expression contributes the ``UNKNOWN``
  sentinel, which only a bare ``except``, ``except BaseException`` or
  ``except Exception`` may catch;
* a bare ``raise`` anywhere in a handler body marks the whole clause as
  re-raising (its caught types keep escaping);
* ``BaseException``-only types (``KeyboardInterrupt``, ``SystemExit``,
  ``asyncio.CancelledError``) propagate but are exempt from boundary
  checks — cancellation is control flow, not failure.

Everything is derived from the shared :class:`ProgramIndex`; nothing here
re-parses source.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from tools.repolint.config import RepolintConfig
from tools.repolint.graphs.calls import (
    CallGraph,
    FunctionInfo,
    ProgramIndex,
    _dotted_name,
    _iter_own_nodes,
)

#: Sentinel for a raise whose type cannot be resolved statically.
UNKNOWN = "<unknown>"

#: ``child -> parent`` for the builtin exception hierarchy (Python 3.10+;
#: ``TimeoutError`` is rooted at ``OSError`` as on 3.11+).
BUILTIN_PARENTS: dict[str, str | None] = {
    "BaseException": None,
    "BaseExceptionGroup": "BaseException",
    "Exception": "BaseException",
    "ExceptionGroup": "Exception",
    "GeneratorExit": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
    "ArithmeticError": "Exception",
    "FloatingPointError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "ZeroDivisionError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "OSError": "Exception",
    "IOError": "OSError",
    "BlockingIOError": "OSError",
    "ChildProcessError": "OSError",
    "ConnectionError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ConnectionAbortedError": "ConnectionError",
    "ConnectionRefusedError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "FileExistsError": "OSError",
    "FileNotFoundError": "OSError",
    "InterruptedError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "PermissionError": "OSError",
    "ProcessLookupError": "OSError",
    "TimeoutError": "OSError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopAsyncIteration": "Exception",
    "StopIteration": "Exception",
    "SyntaxError": "Exception",
    "IndentationError": "SyntaxError",
    "TabError": "IndentationError",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "UnicodeTranslateError": "UnicodeError",
    "Warning": "Exception",
}

#: Dotted stdlib names that are aliases of (or parented under) builtins.
_EXTERNAL_ALIASES = {
    "asyncio.TimeoutError": "TimeoutError",
    "asyncio.exceptions.TimeoutError": "TimeoutError",
    "socket.timeout": "TimeoutError",
    "builtins.TimeoutError": "TimeoutError",
}
_EXTERNAL_PARENTS = {
    "asyncio.CancelledError": "BaseException",
    "asyncio.IncompleteReadError": "EOFError",
    "asyncio.LimitOverrunError": "Exception",
    "asyncio.InvalidStateError": "Exception",
    "asyncio.QueueEmpty": "Exception",
    "asyncio.QueueFull": "Exception",
    "json.JSONDecodeError": "ValueError",
    "json.decoder.JSONDecodeError": "ValueError",
    "numpy.linalg.LinAlgError": "Exception",
    "zlib.error": "Exception",
}

#: Call spellings that count as *observing* a failure inside a handler
#: (so the handler is not a silent swallow) even without configuration.
DEFAULT_OBSERVER_CALLS = ("logging", "logger", "log", "warnings.warn", "print")


@dataclass(frozen=True)
class HandlerClause:
    """One ``except``/``except*`` clause of a try region."""

    types: tuple[str, ...] | None  # canonical names; None = bare ``except:``
    spelling: str  # source text of the clause type, for messages
    is_star: bool
    line: int
    reraises: bool  # a bare ``raise`` occurs in the clause body
    raises_new: bool  # a ``raise <expr>`` occurs in the clause body
    observes: bool  # a log/metric call occurs in the clause body
    binds: str | None  # ``except X as name``

    @property
    def broad(self) -> bool:
        """Catches everything interesting: bare, Exception or BaseException."""
        if self.types is None:
            return True
        return any(t in ("Exception", "BaseException") for t in self.types)

    @property
    def swallows(self) -> bool:
        """Neither re-raises, replaces, nor observes the failure."""
        return not (self.reraises or self.raises_new or self.observes)


@dataclass(frozen=True)
class TryRegion:
    """One ``try`` statement that has handlers (pure try/finally has none)."""

    id: int
    line: int
    clauses: tuple[HandlerClause, ...]


@dataclass(frozen=True)
class RaiseSite:
    """One ``raise`` statement and the try regions guarding it."""

    types: tuple[str, ...]  # canonical names (may contain UNKNOWN); () = bare
    line: int
    guards: tuple[int, ...]  # enclosing TryRegion ids, innermost first
    in_handler: bool
    has_cause: bool  # ``raise X from Y`` (including ``from None``)
    bare: bool
    #: ``raise exc`` of the enclosing handler's bound variable — the same
    #: exception continuing, not a new one.
    reraises_bound: bool = False


@dataclass
class FunctionExceptions:
    """Exception-flow facts for one function body."""

    qualname: str
    module: str
    raises: list[RaiseSite] = field(default_factory=list)
    tries: dict[int, TryRegion] = field(default_factory=dict)
    #: ``call lineno -> guard region ids`` for filtering callee escapes.
    call_guards: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: ``await`` of something that is not a program-function call (a bare
    #: future, ``asyncio.wait_for``, a queue) — an exception channel the
    #: call graph cannot see (``Future.set_exception`` delivers arbitrary
    #: types), recorded as ``(line, guards)`` UNKNOWN sources.
    unknown_awaits: list[tuple[int, tuple[int, ...]]] = field(
        default_factory=list
    )


class ExceptionTypeResolver:
    """Canonical exception names, subclass queries, tuple-constant aliases."""

    def __init__(self, index: ProgramIndex) -> None:
        self.index = index
        #: program class qualname -> resolved parent names (program,
        #: builtin or external dotted; unresolvable bases decay to
        #: ``Exception`` so broad handlers still narrow them).
        self.parents: dict[str, tuple[str, ...]] = {}
        #: module-level ``NAME = (ExcA, ExcB, ...)`` constants, expandable
        #: in except clauses (``except _DROPPED_CONNECTION_ERRORS:``).
        self.tuple_aliases: dict[str, tuple[str, ...]] = {}
        for info in index.classes.values():
            parents: list[str] = []
            for base in info.base_exprs:
                dotted = _dotted_name(base)
                if dotted is None:
                    continue
                resolved = index.resolve_symbol(info.module, dotted)
                if resolved is not None:
                    resolved = self._chase_reexports(resolved)
                if resolved in index.classes:
                    parents.append(resolved)
                else:
                    parents.append(self._canonical_external(resolved or dotted))
            self.parents[info.qualname] = tuple(parents)

    def register_tuple_alias(self, qualname: str, types: tuple[str, ...]) -> None:
        self.tuple_aliases[qualname] = types

    def _chase_reexports(self, name: str) -> str:
        """Follow ``from canonical_home import X as X`` re-export chains.

        ``repro.io.checkpoint.CheckpointError`` is an alias of the class
        defined in ``repro.errors``; escape sets must use the defining
        qualname or subtype checks against the taxonomy silently fail.
        """
        for _ in range(8):  # chain hop limit; cycles terminate here too
            if name in self.index.classes or "." not in name:
                return name
            module, _, attr = name.rpartition(".")
            resolver = self.index.resolvers.get(module)
            if resolver is None:
                return name
            origin = resolver.aliases.get(attr)
            if origin is None or origin == name:
                return name
            name = origin
        return name

    def _canonical_external(self, name: str) -> str:
        if name.startswith("builtins."):
            name = name[len("builtins."):]
        name = _EXTERNAL_ALIASES.get(name, name)
        return name

    def canonical(self, module: str, dotted: str) -> str | None:
        """Canonical exception name for a source spelling, or None.

        Program classes resolve to their qualname; builtins to their bare
        name; known stdlib exceptions to their dotted name.  A name that
        resolves to nothing class-like (a local variable, a non-exception
        binding) yields None — callers decide between UNKNOWN and skipping.
        """
        resolved = self.index.resolve_symbol(module, dotted)
        if resolved is not None:
            resolved = self._chase_reexports(resolved)
        if resolved in self.index.classes:
            return resolved
        name = self._canonical_external(resolved or dotted)
        last = name.rsplit(".", 1)[-1]
        if name in BUILTIN_PARENTS:
            return name
        if name in _EXTERNAL_PARENTS:
            return name
        if last in BUILTIN_PARENTS and resolved is not None:
            # ``from asyncio import IncompleteReadError`` style aliasing of
            # something builtin-named but module-qualified.
            return name
        if resolved is not None and "." in name:
            # Imported from somewhere: trust it as an external exception.
            return name
        return None

    def _direct_parents(self, name: str) -> tuple[str, ...]:
        if name in self.parents:
            return self.parents[name]
        builtin = BUILTIN_PARENTS.get(name)
        if builtin is not None:
            return (builtin,)
        if name in BUILTIN_PARENTS:  # BaseException
            return ()
        external = _EXTERNAL_PARENTS.get(name)
        if external is not None:
            return (external,)
        if name == UNKNOWN:
            return ()
        # Unrecognised external exception: assume a plain Exception.
        return ("Exception",)

    def is_subtype(self, sub: str, sup: str) -> bool:
        """True when an instance of ``sub`` is caught by ``except sup``."""
        if sub == sup:
            return True
        if sub == UNKNOWN or sup == UNKNOWN:
            return False
        seen: set[str] = set()
        stack = [sub]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for parent in self._direct_parents(current):
                if parent == sup:
                    return True
                stack.append(parent)
        return False

    def clause_catches(self, clause: HandlerClause, exc_type: str) -> bool:
        if clause.types is None:
            return True
        if exc_type == UNKNOWN:
            return any(t in ("Exception", "BaseException") for t in clause.types)
        return any(self.is_subtype(exc_type, t) for t in clause.types)

    def is_exception_family(self, exc_type: str) -> bool:
        """True for ``Exception`` descendants (boundary-relevant failures)."""
        return self.is_subtype(exc_type, "Exception")


def _observer_entries(config: RepolintConfig) -> tuple[str, ...]:
    return tuple(config.exception_log_functions) + DEFAULT_OBSERVER_CALLS


def _matches_observer(spelling: str, entries: tuple[str, ...]) -> bool:
    for entry in entries:
        if (
            spelling == entry
            or spelling.startswith(entry + ".")
            or spelling.endswith("." + entry)
        ):
            return True
    return False


_TRY_NODES: tuple[type, ...] = (ast.Try,)
if hasattr(ast, "TryStar"):  # Python 3.11+
    _TRY_NODES = (ast.Try, ast.TryStar)

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class _FunctionScanner:
    """Collect raise sites, try regions and call guards for one function."""

    def __init__(
        self,
        resolver: ExceptionTypeResolver,
        function: FunctionInfo,
        observers: tuple[str, ...],
    ) -> None:
        self.resolver = resolver
        self.function = function
        self.observers = observers
        self.facts = FunctionExceptions(
            qualname=function.qualname, module=function.module
        )
        self._next_region = 0

    def scan(self) -> FunctionExceptions:
        for stmt in self.function.node.body:
            self._visit(stmt, (), None)
        return self.facts

    # -- traversal ------------------------------------------------------
    def _visit(
        self,
        node: ast.AST,
        guards: tuple[int, ...],
        handler: HandlerClause | None,
    ) -> None:
        if isinstance(node, _SCOPE_NODES):
            # Nested defs are separate functions; the ``nested`` call edge
            # at the def line carries their escapes, guarded like a call.
            self.facts.call_guards.setdefault(node.lineno, guards)
            return
        if isinstance(node, _TRY_NODES):
            self._visit_try(node, guards, handler)
            return
        if isinstance(node, ast.Raise):
            self._record_raise(node, guards, handler)
        elif isinstance(node, ast.Call):
            self.facts.call_guards.setdefault(node.lineno, guards)
        elif isinstance(node, ast.Await):
            self._record_await(node, guards)
        for child in ast.iter_child_nodes(node):
            self._visit(child, guards, handler)

    def _record_await(self, node: ast.Await, guards: tuple[int, ...]) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            dotted = _dotted_name(value.func)
            if dotted is not None:
                resolved = self.resolver.index.resolve_symbol(
                    self.function.module, dotted
                )
                if resolved in self.resolver.index.functions:
                    return  # the call edge carries the callee's escapes
                if dotted.startswith("self."):
                    return  # method calls are carried by method/extra edges
        self.facts.unknown_awaits.append((node.lineno, guards))

    def _visit_try(
        self,
        node: ast.AST,
        guards: tuple[int, ...],
        handler: HandlerClause | None,
    ) -> None:
        is_star = hasattr(ast, "TryStar") and isinstance(node, ast.TryStar)
        handlers = getattr(node, "handlers", [])
        clauses = tuple(self._analyze_handler(h, is_star) for h in handlers)
        if clauses:
            self._next_region += 1
            region = TryRegion(
                id=self._next_region, line=node.lineno, clauses=clauses
            )
            self.facts.tries[region.id] = region
            body_guards = (region.id,) + guards
        else:
            body_guards = guards
        for stmt in getattr(node, "body", []):
            self._visit(stmt, body_guards, handler)
        # ``else`` runs after the body completed without raising — its own
        # exceptions are NOT caught by this try's handlers.
        for stmt in getattr(node, "orelse", []):
            self._visit(stmt, guards, handler)
        # An exception raised inside a handler body is not caught by the
        # sibling clauses of the same try; only outer guards apply.
        for raw, clause in zip(handlers, clauses):
            for stmt in raw.body:
                self._visit(stmt, guards, clause)
        for stmt in getattr(node, "finalbody", []):
            self._visit(stmt, guards, handler)

    # -- handlers -------------------------------------------------------
    def _analyze_handler(
        self, handler: ast.ExceptHandler, is_star: bool
    ) -> HandlerClause:
        types = self._handler_types(handler.type)
        spelling = (
            ast.unparse(handler.type) if handler.type is not None else "<bare>"
        )
        reraises = False
        raises_new = False
        observes = False
        for node in _iter_own_nodes_of_body(handler.body):
            if isinstance(node, ast.Raise):
                if node.exc is None:
                    reraises = True
                else:
                    raises_new = True
            elif isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is not None and _matches_observer(
                    dotted, self.observers
                ):
                    observes = True
                elif dotted is not None:
                    resolver = self.resolver.index.resolvers.get(
                        self.function.module
                    )
                    origin = resolver.resolve(node.func) if resolver else None
                    if origin is not None and _matches_observer(
                        origin, self.observers
                    ):
                        observes = True
        return HandlerClause(
            types=types,
            spelling=spelling,
            is_star=is_star,
            line=handler.lineno,
            reraises=reraises,
            raises_new=raises_new,
            observes=observes,
            binds=handler.name,
        )

    def _handler_types(self, expr: ast.expr | None) -> tuple[str, ...] | None:
        if expr is None:
            return None
        elements = expr.elts if isinstance(expr, ast.Tuple) else [expr]
        types: list[str] = []
        for element in elements:
            dotted = _dotted_name(element)
            if dotted is None:
                types.append(UNKNOWN)
                continue
            alias = self._tuple_alias(dotted)
            if alias is not None:
                types.extend(alias)
                continue
            canonical = self.resolver.canonical(self.function.module, dotted)
            # An unresolvable clause type (``except self.retry_on:``) is
            # UNKNOWN: it catches nothing during narrowing (escapes stay
            # conservative) and is never considered broad (EXC1001) nor
            # provably dead (EXC1003).
            types.append(canonical if canonical is not None else UNKNOWN)
        return tuple(dict.fromkeys(types))

    def _tuple_alias(self, dotted: str) -> tuple[str, ...] | None:
        for candidate in (
            f"{self.function.module}.{dotted}",
            self.resolver.index.resolve_symbol(self.function.module, dotted),
        ):
            if candidate is not None and candidate in self.resolver.tuple_aliases:
                return self.resolver.tuple_aliases[candidate]
        return None

    # -- raises ---------------------------------------------------------
    def _record_raise(
        self,
        node: ast.Raise,
        guards: tuple[int, ...],
        handler: HandlerClause | None,
    ) -> None:
        if node.exc is None:
            # Bare re-raise: the handler-clause ``reraises`` flag carries
            # the escape; record the site for completeness.
            self.facts.raises.append(
                RaiseSite(
                    types=(),
                    line=node.lineno,
                    guards=guards,
                    in_handler=handler is not None,
                    has_cause=False,
                    bare=True,
                )
            )
            return
        types, reraises_bound = self._raise_types(node.exc, handler)
        self.facts.raises.append(
            RaiseSite(
                types=types,
                line=node.lineno,
                guards=guards,
                in_handler=handler is not None,
                has_cause=node.cause is not None,
                bare=False,
                reraises_bound=reraises_bound,
            )
        )

    def _raise_types(
        self, exc: ast.expr, handler: HandlerClause | None
    ) -> tuple[tuple[str, ...], bool]:
        module = self.function.module
        target = exc.func if isinstance(exc, ast.Call) else exc
        dotted = _dotted_name(target)
        if dotted is None:
            return (UNKNOWN,), False
        # ``raise exc`` of the handler's bound variable re-raises (a
        # subtype of) the caught types.
        if (
            handler is not None
            and dotted == handler.binds
            and not isinstance(exc, ast.Call)
        ):
            caught = handler.types if handler.types is not None else (UNKNOWN,)
            return caught, True
        passed = self._parameter_class(dotted)
        if passed is not None:
            # ``raise error(...)`` of a parameter ``error: type[X]``: an X.
            return (passed,), False
        resolved = self.resolver.index.resolve_symbol(module, dotted)
        if resolved in self.resolver.index.functions:
            # ``raise make_error(...)``: use the factory's return annotation.
            factory = self.resolver.index.functions[resolved]
            returned = self.resolver.index.annotation_type(
                factory.module, factory.node.returns
            )
            if returned in self.resolver.index.classes:
                return (returned,), False
            return (UNKNOWN,), False
        canonical = self.resolver.canonical(module, dotted)
        return ((canonical,), False) if canonical is not None else (
            (UNKNOWN,),
            False,
        )

    def _parameter_class(self, name: str) -> str | None:
        """The class ``X`` of this function's parameter ``name: type[X]``."""
        arguments = self.function.node.args
        for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs):
            annotation = arg.annotation
            if arg.arg != name or not isinstance(annotation, ast.Subscript):
                continue
            if _dotted_name(annotation.value) not in ("type", "Type", "typing.Type"):
                return None
            passed = self.resolver.index.annotation_type(
                self.function.module, annotation.slice
            )
            return passed if passed in self.resolver.index.classes else None
        return None


def _iter_own_nodes_of_body(body: list[ast.stmt]) -> Iterator[ast.AST]:
    for stmt in body:
        yield stmt
        if isinstance(stmt, _SCOPE_NODES):
            continue
        yield from _iter_own_nodes(stmt)


@dataclass
class ExceptionIndex:
    """Per-function exception facts plus the fixed-point escape sets."""

    functions: dict[str, FunctionExceptions]
    escapes: dict[str, frozenset[str]]
    resolver: ExceptionTypeResolver
    config: RepolintConfig

    def escape_set(self, qualname: str) -> frozenset[str]:
        return self.escapes.get(qualname, frozenset())

    def filter_through_guards(
        self,
        types: frozenset[str] | set[str],
        guards: tuple[int, ...],
        facts: FunctionExceptions,
    ) -> set[str]:
        """Types that survive the except clauses guarding a site."""
        surviving = set(types)
        for region_id in guards:  # innermost first
            region = facts.tries.get(region_id)
            if region is None:
                continue
            still: set[str] = set()
            for exc_type in surviving:
                caught = None
                for clause in region.clauses:
                    if self.resolver.clause_catches(clause, exc_type):
                        caught = clause
                        break
                if caught is None or caught.reraises:
                    still.add(exc_type)
            surviving = still
            if not surviving:
                break
        return surviving

    def possible_in_region(
        self, call_graph: CallGraph, qualname: str, region_id: int
    ) -> set[str]:
        """Types that may arise inside one try region's guarded body.

        Raises directly guarded by the region plus the escape sets of every
        call made under it.  *All* edge kinds count here (including
        ``fallback``): proving a handler dead must survive dynamic calls.
        """
        facts = self.functions.get(qualname)
        if facts is None:
            return set()
        possible: set[str] = set()
        for site in facts.raises:
            if region_id in site.guards:
                # UNKNOWN is kept everywhere here: an untypeable raise, an
                # awaited future, or a callee escaping UNKNOWN could each
                # deliver any type, so no handler over them is provably
                # dead.
                possible.update(site.types)
        for line, guards in facts.unknown_awaits:
            if region_id in guards:
                possible.add(UNKNOWN)
        for edge in call_graph.edges_by_caller.get(qualname, []):
            guards = facts.call_guards.get(edge.line, ())
            if region_id in guards:
                possible.update(self.escapes.get(edge.callee, frozenset()))
        return possible

    def swallow_sites(self) -> Iterator[tuple[str, TryRegion, HandlerClause]]:
        """Every handler clause that swallows, with its function and region."""
        for qualname in sorted(self.functions):
            facts = self.functions[qualname]
            for region in facts.tries.values():
                for clause in region.clauses:
                    if clause.swallows:
                        yield qualname, region, clause


def build_exception_index(
    index: ProgramIndex,
    call_graph: CallGraph,
    config: RepolintConfig,
    module_trees: dict[str, ast.Module] | None = None,
) -> ExceptionIndex:
    """Scan every function and run escape-set inference to a fixed point."""
    resolver = ExceptionTypeResolver(index)
    observers = _observer_entries(config)

    # Module-level exception-tuple constants, resolvable in except clauses.
    if module_trees:
        for module, tree in module_trees.items():
            for node in ast.iter_child_nodes(tree):
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if not isinstance(node.value, ast.Tuple):
                    continue
                types: list[str] = []
                for element in node.value.elts:
                    dotted = _dotted_name(element)
                    canonical = (
                        resolver.canonical(module, dotted)
                        if dotted is not None
                        else None
                    )
                    if canonical is None:
                        types = []
                        break
                    types.append(canonical)
                if types:
                    resolver.register_tuple_alias(
                        f"{module}.{target.id}", tuple(types)
                    )

    functions: dict[str, FunctionExceptions] = {}
    for qualname, function in index.functions.items():
        functions[qualname] = _FunctionScanner(
            resolver, function, observers
        ).scan()

    escapes: dict[str, frozenset[str]] = {q: frozenset() for q in functions}
    exc_index = ExceptionIndex(
        functions=functions, escapes=escapes, resolver=resolver, config=config
    )

    # Fixed point: monotone over a finite lattice (sets of names seen in
    # raise statements), so iteration terminates — recursion and call
    # cycles simply converge.
    changed = True
    while changed:
        changed = False
        for qualname, facts in functions.items():
            new: set[str] = set()
            for site in facts.raises:
                if site.bare:
                    continue
                new |= exc_index.filter_through_guards(
                    set(site.types), site.guards, facts
                )
            for line, await_guards in facts.unknown_awaits:
                new |= exc_index.filter_through_guards(
                    {UNKNOWN}, await_guards, facts
                )
            for edge in call_graph.edges_by_caller.get(qualname, []):
                if edge.kind == "fallback":
                    continue
                callee_escape = escapes.get(edge.callee)
                if not callee_escape:
                    continue
                guards = facts.call_guards.get(edge.line, ())
                new |= exc_index.filter_through_guards(
                    callee_escape, guards, facts
                )
            frozen = frozenset(new)
            if frozen != escapes[qualname]:
                escapes[qualname] = frozen
                changed = True
    exc_index.escapes = escapes
    return exc_index
