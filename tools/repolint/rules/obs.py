"""OBS11xx: observability discipline — logs through logging, one clock.

Components log through stdlib ``logging.getLogger(__name__)``, and the
repo has one sanctioned monotonic-clock read.  These rules keep the rest
of the tree honest about it:

* OBS1101 bans bare ``print(...)`` inside the package.  Diagnostics that
  bypass ``logging`` carry no level or logger name, are invisible to
  handlers and interleave badly under the threaded serve stack.  The CLI
  boundary (user-facing output) is allowlisted via
  ``[tool.repolint.obs] allow-print``, as are functions literally named
  ``main`` and statements under ``if __name__ == "__main__":`` guards.
* OBS1102 bans direct ``time.monotonic`` / ``time.perf_counter`` reads
  (and their ``_ns`` variants) in the packages listed under
  ``clock-packages``.  Those packages must go through the single boundary
  module (``clock-boundary``, here :mod:`repro.obs.clock`) so tests and
  benchmarks can substitute a fake clock everywhere at once, and so the
  plan-determinism contract has one auditable place where time enters.

Both rules are whole-program rules only because they read the config;
their checks are per-module and purely syntactic.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repolint.engine import (
    Finding,
    ImportResolver,
    ProgramContext,
    ProgramRule,
)

#: Monotonic/process clock reads that must flow through the clock boundary.
#: Wall-clock reads (``time.time`` & friends) are RNG104's jurisdiction.
MONOTONIC_CLOCK_CALLS = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)


def _in_packages(module: str, packages: tuple[str, ...]) -> bool:
    return any(
        module == package or module.startswith(package + ".")
        for package in packages
    )


def _is_main_guard(node: ast.AST) -> bool:
    """True for ``if __name__ == "__main__":`` (either operand order)."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Eq)
        and len(test.comparators) == 1
    ):
        return False
    operands = (test.left, test.comparators[0])
    has_name = any(
        isinstance(op, ast.Name) and op.id == "__name__" for op in operands
    )
    has_literal = any(
        isinstance(op, ast.Constant) and op.value == "__main__"
        for op in operands
    )
    return has_name and has_literal


def _walk_with_ancestors(
    tree: ast.AST,
) -> Iterator[tuple[ast.AST, tuple[ast.AST, ...]]]:
    def visit(
        node: ast.AST, ancestors: tuple[ast.AST, ...]
    ) -> Iterator[tuple[ast.AST, tuple[ast.AST, ...]]]:
        yield node, ancestors
        for child in ast.iter_child_nodes(node):
            yield from visit(child, ancestors + (node,))

    yield from visit(tree, ())


class BarePrintRule(ProgramRule):
    """OBS1101: bare ``print(...)`` outside the sanctioned CLI boundary."""

    code = "OBS1101"
    name = "bare-print"
    hint = (
        "emit through logging.getLogger(__name__) so the message carries "
        "a level and a logger name; user-facing output belongs in a module "
        "listed under [tool.repolint.obs] allow-print"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        allow = program.config.obs_allow_print
        if not allow:
            return  # no allowlist declared -> the contract is not adopted
        package = program.config.package
        for module, file in sorted(program.files.items()):
            if not _in_packages(module, (package,)):
                continue
            if _in_packages(module, tuple(allow)):
                continue
            yield from self._check_module(program, module, file.tree)

    def _check_module(
        self, program: ProgramContext, module: str, tree: ast.Module
    ) -> Iterator[Finding]:
        for node, ancestors in _walk_with_ancestors(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                continue
            if any(
                isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))
                and a.name == "main"
                for a in ancestors
            ):
                continue
            if any(_is_main_guard(a) for a in ancestors):
                continue
            yield self.program_finding(
                program,
                module,
                node.lineno,
                f"bare print() in '{module}' bypasses logging",
            )


class DirectClockRule(ProgramRule):
    """OBS1102: monotonic-clock read outside the obs clock boundary."""

    code = "OBS1102"
    name = "direct-clock"
    hint = (
        "read the clock via the boundary module (repro.obs.clock.monotonic) "
        "or accept an injected clock callable, so tests and benchmarks can "
        "fake time everywhere at once"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        packages = program.config.clock_packages
        boundary = program.config.clock_boundary
        if not packages or not boundary:
            return
        for module, file in sorted(program.files.items()):
            if not _in_packages(module, packages):
                continue
            if _in_packages(module, (boundary,)):
                continue
            resolver = ImportResolver(file.tree)
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.Call):
                    continue
                origin = resolver.resolve(node.func)
                if origin in MONOTONIC_CLOCK_CALLS:
                    yield self.program_finding(
                        program,
                        module,
                        node.lineno,
                        f"direct clock read '{origin}' outside the "
                        f"'{boundary}' boundary",
                    )
