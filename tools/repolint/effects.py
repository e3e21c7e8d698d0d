"""Module-state writes: the sites where a function changes process-global state.

A function's body (nested defs excluded — they are scanned on their own)
is searched for stores and in-place mutations whose receiver is state that
outlives the call:

* a name declared ``global`` (rebound, or written through);
* a module-level name written through, or mutated in place with one of
  :data:`MUTATING_METHODS`, when the function does not bind it locally;
* a class attribute (``cls.x = ...``, ``Klass.x = ...``).

Writes through ``self``, locals, parameters and closure-captured names
change state the caller owns or can see, so they are not reported here.
"""

from __future__ import annotations

import ast

from tools.repolint.graphs.calls import FunctionInfo, ProgramIndex, _iter_own_nodes

#: Methods that mutate their receiver in-place (list/set/dict/deque/array).
MUTATING_METHODS = {
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
    "fill",
    "add_trajectory",
}


def _root_name(expr: ast.expr) -> ast.Name | None:
    current = expr
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    return current if isinstance(current, ast.Name) else None


def _bound_local_names(function: FunctionInfo) -> set[str]:
    """Names the function binds itself (params, assignments, loops, withs)."""
    args = function.node.args
    bound = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    if args.vararg is not None:
        bound.add(args.vararg.arg)
    if args.kwarg is not None:
        bound.add(args.kwarg.arg)
    for node in _iter_own_nodes(function.node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
    return bound


def _enclosing_locals(index: ProgramIndex, function: FunctionInfo) -> set[str]:
    """Names bound by enclosing functions (closure-visible state)."""
    names: set[str] = set()
    parent = function.parent
    while parent is not None:
        parent_info = index.functions.get(parent)
        if parent_info is None:
            break
        names |= _bound_local_names(parent_info)
        parent = parent_info.parent
    return names


def _names_a_class(index: ProgramIndex, function: FunctionInfo, name: str) -> bool:
    """True when a bare name refers to a program class (class-attr write)."""
    resolved = index.resolve_symbol(function.module, name)
    return resolved is not None and resolved in index.classes


def module_state_writes(
    index: ProgramIndex, function: FunctionInfo
) -> list[tuple[int, str]]:
    """``(line, detail)`` for every global or class-attribute write, in order.

    A module-level name counts only where the function does not bind it
    itself and, for a store, does not capture it from an enclosing
    function either.  Writes through ``self`` are never reported.
    """
    module_names = index.module_globals.get(function.module, set())
    local_names = _bound_local_names(function)
    closure_names = _enclosing_locals(index, function) - local_names
    global_decls: set[str] = set()
    for node in _iter_own_nodes(function.node):
        if isinstance(node, ast.Global):
            global_decls.update(node.names)

    writes: list[tuple[int, str]] = []

    def classify_write(target: ast.expr, line: int, op: str) -> None:
        """Attribute/subscript stores and name rebinds that escape."""
        if isinstance(target, ast.Name):
            if target.id in global_decls:
                writes.append((line, f"{op} global {target.id}"))
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                classify_write(element, line, op)
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        root = _root_name(target)
        if root is None or root.id == "self":
            return
        if (
            root.id == "cls"
            or _names_a_class(index, function, root.id)
            or root.id in global_decls
            or (root.id in module_names and root.id not in local_names | closure_names)
        ):
            writes.append((line, f"{op} {ast.unparse(target)}"))

    def classify_mutating_call(call: ast.Call, line: int) -> None:
        """In-place container mutation of a module-level receiver."""
        if not isinstance(call.func, ast.Attribute):
            return
        if call.func.attr not in MUTATING_METHODS:
            return
        root = _root_name(call.func.value)
        if (
            root is not None
            and root.id not in ("self", "cls")
            and root.id in module_names
            and root.id not in local_names
        ):
            writes.append((line, f"calls {ast.unparse(call.func)}(...)"))

    for node in _iter_own_nodes(function.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                classify_write(target, node.lineno, "assigns")
        elif isinstance(node, ast.AugAssign):
            classify_write(node.target, node.lineno, "updates")
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            classify_write(node.target, node.lineno, "assigns")
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                classify_write(target, node.lineno, "deletes")
        elif isinstance(node, ast.Call):
            classify_mutating_call(node, node.lineno)
    return list(dict.fromkeys(writes))
