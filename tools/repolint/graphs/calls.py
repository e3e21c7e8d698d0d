"""Function-level program index and best-effort call graph.

The repo is fully annotated (mypy --strict), so call resolution leans on
annotations: parameter and attribute types identify method receivers, and
return annotations propagate types through chained calls like
``self.registry.buffer(task_id).add_trajectory(...)``.  Resolution is
deliberately conservative where Python is dynamic:

* a method call on a typed receiver targets that class's method *and* every
  override in known subclasses (runtime polymorphism);
* a method call on an untyped receiver falls back to every program method
  with that name;
* defining a nested function adds a caller→nested edge (closures are
  usually handed off as hooks);
* ``functools.partial(f, ...)`` adds an edge to ``f``;
* hook attributes invoked dynamically (``self.task_sampler(...)``) cannot
  be seen statically — those edges are declared in
  ``[tool.repolint.calls.extra-edges]``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from tools.repolint.config import RepolintConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from tools.repolint.engine import ImportResolver, ProgramFile

#: Pseudo-type for numpy Generators so rng receivers survive resolution.
GENERATOR_TYPE = "numpy.random.Generator"

#: Pseudo-types for lock constructors — the concurrency pass needs to know
#: which ``self`` attributes are locks (and of which flavour) to compute
#: locksets and await-under-lock regions.
SYNC_LOCK_TYPES = frozenset({"threading.Lock", "threading.RLock"})
ASYNC_LOCK_TYPE = "asyncio.Lock"
LOCK_TYPES = SYNC_LOCK_TYPES | {ASYNC_LOCK_TYPE}

#: Method names that belong to builtin containers; never fallback-matched.
_CONTAINER_METHOD_NAMES = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popleft",
    "appendleft",
    "clear",
    "update",
    "setdefault",
    "popitem",
    "add",
    "discard",
    "sort",
    "reverse",
    "move_to_end",
    "get",
    "keys",
    "values",
    "items",
    "count",
    "index",
    "copy",
    "fill",
}

#: Builtin/stdlib constructors whose results are owned by the caller.
_OWNED_CONSTRUCTORS = {
    "list",
    "dict",
    "set",
    "tuple",
    "frozenset",
    "bytearray",
    "collections.deque",
    "collections.OrderedDict",
    "collections.defaultdict",
    "collections.Counter",
}


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method in the analyzed program."""

    qualname: str
    module: str
    cls: str | None
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    parent: str | None  # enclosing function qualname for nested defs
    decorators: tuple[str, ...]


@dataclass
class ClassInfo:
    """One class: methods, resolved bases and annotated attribute types."""

    qualname: str
    module: str
    name: str
    base_exprs: tuple[ast.expr, ...]
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallEdge:
    """``caller`` may invoke ``callee`` at ``line``."""

    caller: str
    callee: str
    line: int
    kind: str  # direct | method | fallback | nested | partial | extra


@dataclass
class Binding:
    """Static knowledge about one local name."""

    type: str | None = None
    owned: bool = False


class ProgramIndex:
    """Symbol tables shared by the call graph and the program passes."""

    def __init__(self, config: RepolintConfig) -> None:
        self.config = config
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.module_globals: dict[str, set[str]] = {}
        self.resolvers: dict[str, "ImportResolver"] = {}
        self.methods_by_name: dict[str, list[str]] = {}
        self.subclasses: dict[str, list[str]] = {}

    # -- symbol resolution --------------------------------------------------

    def resolve_symbol(self, module: str, dotted: str) -> str | None:
        """Map a local (possibly dotted) name to a program qualname."""
        resolver = self.resolvers.get(module)
        head, _, rest = dotted.partition(".")
        origin = resolver.aliases.get(head) if resolver is not None else None
        candidates = []
        if origin is not None:
            candidates.append(f"{origin}.{rest}" if rest else origin)
        candidates.append(f"{module}.{dotted}")
        for candidate in candidates:
            if candidate in self.classes or candidate in self.functions:
                return candidate
        if origin is not None:
            return f"{origin}.{rest}" if rest else origin
        return None

    def annotation_type(self, module: str, ann: ast.expr | None) -> str | None:
        """Class qualname (or GENERATOR_TYPE) named by an annotation."""
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return self.annotation_type(module, ann.left) or self.annotation_type(
                module, ann.right
            )
        if isinstance(ann, ast.Subscript):
            dotted = _dotted_name(ann.value)
            if dotted is not None and dotted.rsplit(".", 1)[-1] == "Optional":
                return self.annotation_type(module, ann.slice)
            return None
        dotted = _dotted_name(ann)
        if dotted is None:
            return None
        resolved = self.resolve_symbol(module, dotted)
        if resolved in self.classes:
            return resolved
        if resolved == GENERATOR_TYPE:
            return GENERATOR_TYPE
        if resolved in LOCK_TYPES:
            return resolved
        return None

    def mro(self, class_qualname: str) -> list[str]:
        """The class plus all known ancestors, breadth-first."""
        order: list[str] = []
        queue = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in order or current not in self.classes:
                continue
            order.append(current)
            queue.extend(self.classes[current].bases)
        return order

    def lookup_method(self, class_qualname: str, method: str) -> list[str]:
        """Resolved targets for ``instance.method()`` on a typed receiver.

        Includes the statically bound method plus every override in known
        subclasses — a ReplayBuffer-typed variable may hold a
        PrioritizedReplayBuffer at runtime.
        """
        targets: list[str] = []
        for ancestor in self.mro(class_qualname):
            info = self.classes[ancestor]
            if method in info.methods:
                targets.append(info.methods[method])
                break
        seen = set(targets)
        queue = list(self.subclasses.get(class_qualname, []))
        while queue:
            sub = queue.pop(0)
            queue.extend(self.subclasses.get(sub, []))
            override = self.classes[sub].methods.get(method)
            if override is not None and override not in seen:
                seen.add(override)
                targets.append(override)
        return targets


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` as a string for Name/Attribute chains, else None."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _iter_own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested def/class.

    Pre-order, in source order — the binding pass relies on an assignment's
    right-hand names having been bound by earlier statements when it runs
    (``a = owned(); b = a[...]`` must see ``a`` before ``b``).
    """
    for node in ast.iter_child_nodes(root):
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield from _iter_own_nodes(node)


def build_program_index(
    files: Iterable["ProgramFile"], config: RepolintConfig
) -> ProgramIndex:
    from tools.repolint.engine import ImportResolver

    index = ProgramIndex(config)
    file_list = list(files)

    # Pass 1: collect classes, functions and module-level names.
    for file in file_list:
        index.resolvers[file.module] = ImportResolver(file.tree)
        top_names: set[str] = set()
        for node in ast.iter_child_nodes(file.tree):
            for target in _assigned_names(node):
                top_names.add(target)
        index.module_globals[file.module] = top_names
        _collect_definitions(index, file.module, file.tree)

    # Pass 2: resolve bases, subclasses and attribute types.
    for info in index.classes.values():
        bases: list[str] = []
        for base in info.base_exprs:
            dotted = _dotted_name(base)
            if dotted is None:
                continue
            resolved = index.resolve_symbol(info.module, dotted)
            if resolved in index.classes:
                bases.append(resolved)
                index.subclasses.setdefault(resolved, []).append(info.qualname)
        info.bases = tuple(bases)
    for info in index.classes.values():
        _collect_attr_types(index, info)
    for qualname, function in index.functions.items():
        if function.cls is not None:
            index.methods_by_name.setdefault(function.name, []).append(qualname)
    return index


def _assigned_names(node: ast.AST) -> list[str]:
    names: list[str] = []
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.append(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                names.extend(
                    el.id for el in target.elts if isinstance(el, ast.Name)
                )
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names.append(node.target.id)
    return names


def _collect_definitions(index: ProgramIndex, module: str, tree: ast.Module) -> None:
    def visit(node: ast.AST, prefix: str, cls: str | None, parent: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = f"{prefix}.{child.name}"
                index.classes[qualname] = ClassInfo(
                    qualname=qualname,
                    module=module,
                    name=child.name,
                    base_exprs=tuple(child.bases),
                )
                visit(child, qualname, qualname, parent)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                decorators = tuple(
                    dotted
                    for dec in child.decorator_list
                    if (dotted := _dotted_name(dec)) is not None
                )
                # A re-decorated name (@x.setter after @property) would
                # collide with the getter's qualname; suffix it for
                # uniqueness while keeping the source name.
                if qualname in index.functions:
                    qualname = f"{qualname}@{child.lineno}"
                index.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=module,
                    cls=cls,
                    name=child.name,
                    node=child,
                    parent=parent,
                    decorators=decorators,
                )
                if cls is not None and cls == prefix:
                    index.classes[cls].methods.setdefault(child.name, qualname)
                visit(child, qualname, None, qualname)
            elif isinstance(child, ast.stmt):
                # Recurse through structural statements (if/try/with/for):
                # a def behind ``if stop_check is not None:`` is still a
                # definition of the enclosing scope, and missing it makes
                # its raises/effects invisible to every whole-program pass.
                visit(child, prefix, cls, parent)

    visit(tree, module, None, None)


def _collect_attr_types(index: ProgramIndex, info: ClassInfo) -> None:
    """``self.attr`` types from annotations and constructor assignments."""
    for method_qualname in info.methods.values():
        function = index.functions[method_qualname]
        params = _param_annotations(index, function)
        for node in _iter_own_nodes(function.node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            annotation: ast.expr | None = None
            if isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, node.annotation
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            if (
                not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            attr_type: str | None = None
            if annotation is not None:
                attr_type = index.annotation_type(function.module, annotation)
            elif isinstance(value, ast.Call):
                dotted = _dotted_name(value.func)
                if dotted is not None:
                    resolved = index.resolve_symbol(function.module, dotted)
                    if resolved in index.classes:
                        attr_type = resolved
                    elif resolved == "numpy.random.default_rng":
                        attr_type = GENERATOR_TYPE
                    elif resolved in LOCK_TYPES:
                        attr_type = resolved
            elif isinstance(value, ast.Name):
                attr_type = params.get(value.id)
            if attr_type is not None:
                info.attr_types.setdefault(target.attr, attr_type)


def _param_annotations(index: ProgramIndex, function: FunctionInfo) -> dict[str, str]:
    annotations: dict[str, str] = {}
    args = function.node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        ann_type = index.annotation_type(function.module, arg.annotation)
        if ann_type is not None:
            annotations[arg.arg] = ann_type
    return annotations


def compute_bindings(index: ProgramIndex, function: FunctionInfo) -> dict[str, Binding]:
    """Single-pass local type/ownership inference for one function."""
    bindings: dict[str, Binding] = {}
    args = function.node.args
    param_names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    if args.vararg is not None:
        param_names.append(args.vararg.arg)
    if args.kwarg is not None:
        param_names.append(args.kwarg.arg)
    annotations = _param_annotations(index, function)
    for name in param_names:
        if name in ("self", "cls"):
            continue
        param_type = annotations.get(name)
        if param_type is None and name in ("rng", "_rng"):
            param_type = GENERATOR_TYPE
        bindings[name] = Binding(type=param_type)
    for node in _iter_own_nodes(function.node):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            declared = index.annotation_type(function.module, node.annotation)
            owned = False
            if node.value is not None:
                inferred = _binding_for_value(index, function, bindings, node.value)
                owned = inferred.owned
                declared = declared or inferred.type
            bindings[node.target.id] = Binding(type=declared, owned=owned)
            continue
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        bindings[target.id] = _binding_for_value(index, function, bindings, node.value)
    return bindings


def _binding_for_value(
    index: ProgramIndex,
    function: FunctionInfo,
    bindings: dict[str, Binding],
    value: ast.expr,
) -> Binding:
    owned_literals = (
        ast.List,
        ast.Dict,
        ast.Set,
        ast.Tuple,
        ast.ListComp,
        ast.DictComp,
        ast.SetComp,
        ast.GeneratorExp,
        ast.Constant,
        ast.JoinedStr,
        ast.BinOp,
        ast.UnaryOp,
        ast.Compare,
    )
    if isinstance(value, owned_literals):
        return Binding(owned=True)
    if isinstance(value, ast.Name):
        if value.id == "self":
            return Binding(type=function.cls)
        if value.id in bindings:
            existing = bindings[value.id]
            return Binding(existing.type, existing.owned)
        return Binding()
    if isinstance(value, ast.Attribute):
        if isinstance(value.value, ast.Name) and value.value.id == "self":
            attr_type = _self_attr_type(index, function, value.attr)
            return Binding(type=attr_type)
        return Binding()
    if isinstance(value, ast.Call):
        call_type, constructed = _call_result_type(index, function, bindings, value)
        return Binding(type=call_type, owned=constructed)
    if isinstance(value, ast.Subscript):
        # A slice/view of an owned container is owned memory too.
        base = _binding_for_value(index, function, bindings, value.value)
        return Binding(owned=base.owned)
    return Binding()


def _self_attr_type(
    index: ProgramIndex, function: FunctionInfo, attr: str
) -> str | None:
    if function.cls is None:
        return None
    for ancestor in index.mro(function.cls):
        attr_type = index.classes[ancestor].attr_types.get(attr)
        if attr_type is not None:
            return attr_type
    if attr in ("rng", "_rng"):
        return GENERATOR_TYPE
    return None


def _call_result_type(
    index: ProgramIndex,
    function: FunctionInfo,
    bindings: dict[str, Binding],
    call: ast.Call,
) -> tuple[str | None, bool]:
    """(result type, is-a-fresh-object) for a call expression."""
    dotted = _dotted_name(call.func)
    if dotted is not None:
        resolved = index.resolve_symbol(function.module, dotted)
        if resolved in index.classes:
            return resolved, True
        if resolved == "numpy.random.default_rng":
            return GENERATOR_TYPE, True
        if resolved in index.functions:
            returns = index.functions[resolved].node.returns
            return index.annotation_type(index.functions[resolved].module, returns), False
        if resolved is not None and not resolved.startswith(index.config.package + "."):
            # External constructor (numpy.zeros, copy.deepcopy, dict, ...):
            # the result is a fresh object the caller owns.
            root = resolved.split(".")[0]
            if resolved in _OWNED_CONSTRUCTORS or root in ("numpy", "copy", "math"):
                return None, True
    # Method call: type the receiver, then use the return annotation.
    if isinstance(call.func, ast.Attribute):
        receiver_type = infer_expr_type(index, function, bindings, call.func.value)
        if receiver_type is not None and receiver_type != GENERATOR_TYPE:
            for target in index.lookup_method(receiver_type, call.func.attr):
                returns = index.functions[target].node.returns
                ann = index.annotation_type(index.functions[target].module, returns)
                if ann is not None:
                    return ann, False
        # ``.copy()`` returns fresh memory whatever the receiver is
        # (ndarray, dict, list, ...) — the caller owns the result.
        if call.func.attr in ("copy", "deepcopy") and receiver_type is None:
            return None, True
    return None, False


def infer_expr_type(
    index: ProgramIndex,
    function: FunctionInfo,
    bindings: dict[str, Binding],
    expr: ast.expr,
) -> str | None:
    """Best-effort static type of an expression, as a program qualname."""
    if isinstance(expr, ast.Name):
        if expr.id in ("self", "cls"):
            return function.cls
        binding = bindings.get(expr.id)
        return binding.type if binding is not None else None
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name) and expr.value.id in ("self", "cls"):
            return _self_attr_type(index, function, expr.attr)
        if expr.attr in ("rng", "_rng"):
            return GENERATOR_TYPE
        return None
    if isinstance(expr, ast.Call):
        return _call_result_type(index, function, bindings, expr)[0]
    return None


@dataclass
class CallGraph:
    """Edges plus the index they were resolved against."""

    index: ProgramIndex
    edges: tuple[CallEdge, ...]
    edges_by_caller: dict[str, list[CallEdge]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for edge in self.edges:
            self.edges_by_caller.setdefault(edge.caller, []).append(edge)

    def to_payload(self) -> dict[str, object]:
        return {
            "edges": [
                {
                    "caller": edge.caller,
                    "callee": edge.callee,
                    "line": edge.line,
                    "kind": edge.kind,
                }
                for edge in self.edges
            ]
        }


def build_call_graph(index: ProgramIndex) -> CallGraph:
    edges: list[CallEdge] = []
    seen: set[tuple[str, str]] = set()

    def add(caller: str, callee: str, line: int, kind: str) -> None:
        key = (caller, callee)
        if key in seen or callee not in index.functions:
            return
        seen.add(key)
        edges.append(CallEdge(caller, callee, line, kind))

    for qualname, function in index.functions.items():
        bindings = compute_bindings(index, function)
        for node in _iter_own_nodes(function.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not isinstance(node, ast.Call):
                continue
            _resolve_call_edges(index, function, bindings, node, add)
        # Defining a nested function is treated as a potential call: nested
        # defs in this codebase are hooks handed to other components.
        for child in ast.walk(function.node):
            if (
                isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child is not function.node
            ):
                nested = index.functions.get(f"{qualname}.{child.name}")
                if nested is not None and nested.parent == qualname:
                    add(qualname, nested.qualname, child.lineno, "nested")
    for source, targets in index.config.extra_edges.items():
        for target in targets:
            add(source, target, 0, "extra")
    return CallGraph(index=index, edges=tuple(edges))


def _resolve_call_edges(
    index: ProgramIndex,
    function: FunctionInfo,
    bindings: dict[str, Binding],
    call: ast.Call,
    add: Callable[[str, str, int, str], None],
) -> None:
    qualname = function.qualname
    dotted = _dotted_name(call.func)
    resolved = (
        index.resolve_symbol(function.module, dotted) if dotted is not None else None
    )
    if resolved == "functools.partial" and call.args:
        target_node = call.args[0]
        target_dotted = _dotted_name(target_node)
        target = (
            index.resolve_symbol(function.module, target_dotted)
            if target_dotted is not None
            else None
        )
        if target in index.functions:
            add(qualname, target, call.lineno, "partial")
        elif target in index.classes:
            init = index.classes[target].methods.get("__init__")
            if init:
                add(qualname, init, call.lineno, "partial")
        elif isinstance(target_node, ast.Attribute):
            # Bound method: partial(self._hook) / partial(obj.method).
            receiver_type = infer_expr_type(index, function, bindings, target_node.value)
            if receiver_type is not None and receiver_type in index.classes:
                for bound in index.lookup_method(receiver_type, target_node.attr):
                    add(qualname, bound, call.lineno, "partial")
        return
    if resolved in index.functions:
        add(qualname, resolved, call.lineno, "direct")
        return
    if resolved in index.classes:
        init = index.classes[resolved].methods.get("__init__")
        if init:
            add(qualname, init, call.lineno, "direct")
        return
    if not isinstance(call.func, ast.Attribute):
        return
    method = call.func.attr
    receiver = call.func.value
    receiver_type = infer_expr_type(index, function, bindings, receiver)
    if receiver_type is not None and receiver_type in index.classes:
        for target in index.lookup_method(receiver_type, method):
            add(qualname, target, call.lineno, "method")
        return
    if receiver_type == GENERATOR_TYPE:
        return  # numpy Generator methods: no program code runs
    # Unknown receiver: conservatively fan out to every same-named method —
    # except for builtin-container method names (append, update, ...): an
    # untyped receiver with one of those is almost always a list/dict/set,
    # and typed program receivers resolve above.
    if method in _CONTAINER_METHOD_NAMES:
        return
    for target in index.methods_by_name.get(method, []):
        add(qualname, target, call.lineno, "fallback")
