"""repolint core: findings, suppressions, import resolution and the analyzer.

The engine is deliberately self-contained (stdlib only) so it can run in any
environment that can run the repo itself.  Rules come in two shapes:

* per-file :class:`Rule` — the engine parses each file once, hands every
  rule the same :class:`RuleContext`, and filters the merged findings
  through per-line ``# repolint: disable=CODE`` and file-level
  ``# repolint: disable-file=CODE`` suppression comments;
* whole-program :class:`ProgramRule` — the engine additionally parses the
  *entire* configured package (even when only a subset of files was
  requested, so import-layer and call-graph facts are never truncated),
  builds a :class:`ProgramContext`, runs each program rule once, and keeps
  only the findings that land in requested files.

One :class:`SourceCache` is threaded through a whole ``analyze_paths``
run, so a file that is both a per-file target and a member of the
analyzed package is read and parsed exactly once.  Nothing persists
between runs: every invocation re-checks its files against the current
rules and config, so a rule edit takes effect on the next run.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from tools.repolint.config import RepolintConfig, find_pyproject, load_config

SUPPRESS_PATTERN = re.compile(r"#\s*repolint:\s*disable=([A-Za-z0-9_,\s]+)")
FILE_SUPPRESS_PATTERN = re.compile(
    r"#\s*repolint:\s*disable-file=([A-Za-z0-9_,\s]+)"
)

#: Directories never descended into when walking a tree of files.
SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str = ""

    def format(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


class Rule:
    """Base class for repolint rules.

    Subclasses set ``code`` / ``name`` / ``hint`` (the autofix guidance
    printed with every finding) and implement :meth:`check`.
    """

    code: str = ""
    name: str = ""
    hint: str = ""

    def check(self, ctx: "RuleContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: "RuleContext", node: ast.AST, message: str, hint: str | None = None
    ) -> Finding:
        return Finding(
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            hint=self.hint if hint is None else hint,
        )


class ImportResolver:
    """Maps local names to the dotted origin they were imported from.

    ``import numpy as np`` → ``np`` resolves to ``numpy``;
    ``from numpy import random`` → ``random`` resolves to ``numpy.random``;
    ``from numpy.random import SeedSequence as SS`` → ``SS`` resolves to
    ``numpy.random.SeedSequence``.  Relative imports stay unresolved — the
    project rules only target absolute stdlib/numpy origins.
    """

    def __init__(self, tree: ast.AST):
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.aliases[alias.asname] = alias.name
                    else:
                        # ``import numpy.random`` binds the *root* name.
                        root = alias.name.split(".")[0]
                        self.aliases[root] = root
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.aliases[bound] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted origin of a Name/Attribute chain, or None if unresolvable."""
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = self.aliases.get(current.id, current.id)
        parts.append(head)
        return ".".join(reversed(parts))


@dataclass
class RuleContext:
    """Everything a rule needs to analyze one parsed file."""

    path: Path
    module: str | None
    tree: ast.Module
    source_lines: list[str]
    resolver: ImportResolver = field(init=False)

    def __post_init__(self) -> None:
        self.resolver = ImportResolver(self.tree)

    def module_in(self, *prefixes: str) -> bool:
        """True when the file's dotted module sits under one of ``prefixes``."""
        if self.module is None:
            return False
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )

    def walk_scoped(self) -> Iterator[tuple[ast.AST, tuple[ast.AST, ...]]]:
        """Yield ``(node, ancestors)`` pairs in document order."""

        def visit(
            node: ast.AST, ancestors: tuple[ast.AST, ...]
        ) -> Iterator[tuple[ast.AST, tuple[ast.AST, ...]]]:
            yield node, ancestors
            for child in ast.iter_child_nodes(node):
                yield from visit(child, ancestors + (node,))

        yield from visit(self.tree, ())


@dataclass
class ProgramFile:
    """One parsed module of the analyzed program."""

    path: Path
    module: str
    tree: ast.Module
    source_lines: list[str]


class ProgramContext:
    """Whole-program facts: parsed modules plus the graphs derived from them.

    The graphs are cached properties so per-file-only runs never pay for
    them, and every program rule shares one instance.
    """

    def __init__(self, files: Sequence[ProgramFile], config: RepolintConfig):
        self.config = config
        self.files: dict[str, ProgramFile] = {file.module: file for file in files}

    @classmethod
    def from_sources(
        cls, sources: Mapping[str, str], config: RepolintConfig
    ) -> "ProgramContext":
        """Build from ``{dotted_module: source}`` — the test entry point."""
        files = []
        for module, source in sources.items():
            files.append(
                ProgramFile(
                    path=Path(module.replace(".", "/") + ".py"),
                    module=module,
                    tree=ast.parse(source),
                    source_lines=source.splitlines(),
                )
            )
        return cls(files, config)

    @classmethod
    def from_package(
        cls,
        package_dir: Path,
        config: RepolintConfig,
        source_cache: SourceCache | None = None,
    ) -> "ProgramContext":
        """Parse every module under the installed package directory.

        With a ``source_cache`` (one per ``analyze_paths`` run) files that
        per-file rules already parsed are reused instead of re-read.
        """
        files = []
        for path in iter_python_files([package_dir]):
            module = module_for_path(path, package=config.package)
            if module is None:
                continue
            try:
                if source_cache is not None:
                    parsed = source_cache.parse(path)
                    tree, source_lines = parsed.tree, parsed.source_lines
                else:
                    source = path.read_text(encoding="utf-8")
                    tree = ast.parse(source)
                    source_lines = source.splitlines()
            except (OSError, SyntaxError):
                continue  # unreadable/unparsable files carry PARSE001 instead
            display = Path(os.path.relpath(path, Path.cwd()))
            files.append(
                ProgramFile(
                    path=display,
                    module=module,
                    tree=tree,
                    source_lines=source_lines,
                )
            )
        return cls(files, config)

    @cached_property
    def import_graph(self):  # -> ImportGraph
        from tools.repolint.graphs.imports import build_import_graph

        return build_import_graph(self.files.values(), self.config)

    @cached_property
    def index(self):  # -> ProgramIndex
        from tools.repolint.graphs.calls import build_program_index

        return build_program_index(self.files.values(), self.config)

    @cached_property
    def call_graph(self):  # -> CallGraph
        from tools.repolint.graphs.calls import build_call_graph

        return build_call_graph(self.index)

    @cached_property
    def concurrency(self):  # -> ConcurrencyIndex
        from tools.repolint.graphs.concurrency import build_concurrency_index

        return build_concurrency_index(self.index, self.call_graph, self.config)

    @cached_property
    def exceptions(self):  # -> ExceptionIndex
        from tools.repolint.graphs.exceptions import build_exception_index

        return build_exception_index(
            self.index,
            self.call_graph,
            self.config,
            module_trees={m: f.tree for m, f in self.files.items()},
        )

    def file_for(self, module: str) -> ProgramFile | None:
        return self.files.get(module)


class ProgramRule(Rule):
    """Base class for rules that need the whole program."""

    def check(self, ctx: "RuleContext") -> Iterator[Finding]:
        return iter(())

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        raise NotImplementedError

    def program_finding(
        self,
        program: ProgramContext,
        module: str,
        line: int,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        file = program.file_for(module)
        return Finding(
            path=str(file.path) if file is not None else module,
            line=line,
            col=1,
            code=self.code,
            message=message,
            hint=self.hint if hint is None else hint,
        )


def module_for_path(path: Path, package: str = "repro") -> str | None:
    """Infer the dotted module for a file living under a ``package`` tree."""
    parts = list(path.resolve().with_suffix("").parts)
    if package not in parts:
        return None
    index = parts.index(package)
    dotted = ".".join(parts[index:])
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


def suppressed_codes_by_line(source_lines: Sequence[str]) -> dict[int, set[str]]:
    """Per-line suppression sets from ``# repolint: disable=CODE[,CODE...]``."""
    suppressed: dict[int, set[str]] = {}
    for number, line in enumerate(source_lines, start=1):
        match = SUPPRESS_PATTERN.search(line)
        if match is None:
            continue
        codes = {code.strip() for code in match.group(1).split(",") if code.strip()}
        if codes:
            suppressed[number] = codes
    return suppressed


def file_suppressed_codes(source_lines: Sequence[str]) -> set[str]:
    """Whole-file suppressions from ``# repolint: disable-file=CODE[,...]``.

    The comment may sit on any line (module docstring epilogue, next to
    the offending cluster, ...); each named code — or ``all`` — is
    silenced for the entire file.  Other codes keep firing.
    """
    suppressed: set[str] = set()
    for line in source_lines:
        match = FILE_SUPPRESS_PATTERN.search(line)
        if match is None:
            continue
        suppressed.update(
            code.strip() for code in match.group(1).split(",") if code.strip()
        )
    return suppressed


def default_rules() -> list[Rule]:
    from tools.repolint.rules import all_rules

    return all_rules()


def _filter_suppressed(
    findings: Iterable[Finding],
    suppressed: Mapping[int, set[str]],
    file_suppressed: set[str] | None = None,
    used_lines: set[tuple[int, str]] | None = None,
    used_file: set[str] | None = None,
) -> list[Finding]:
    """Drop suppressed findings, optionally recording which pragmas fired.

    ``used_lines`` collects ``(line, code)`` pairs for per-line pragmas
    that actually silenced something and ``used_file`` the file-level
    codes that did — the raw material for the LINT001 stale-suppression
    check.  Only *named* codes are recorded; a blanket ``all`` pragma is
    deliberate and never reported stale.
    """
    file_codes = file_suppressed or set()
    kept: list[Finding] = []
    for finding in findings:
        if finding.code in file_codes or "all" in file_codes:
            if used_file is not None and finding.code in file_codes:
                used_file.add(finding.code)
            continue
        line_codes = suppressed.get(finding.line, set())
        if finding.code in line_codes or "all" in line_codes:
            if used_lines is not None and finding.code in line_codes:
                used_lines.add((finding.line, finding.code))
            continue
        kept.append(finding)
    return kept


#: Codes a stale-suppression check never flags: ``all`` is a deliberate
#: blanket, and flagging LINT001's own pragma would be self-referential.
_NEVER_STALE = frozenset({"all", "LINT001"})


def _file_pragma_lines(source_lines: Sequence[str]) -> dict[str, int]:
    """First line carrying each ``disable-file=CODE`` pragma, per code."""
    lines: dict[str, int] = {}
    for number, line in enumerate(source_lines, start=1):
        match = FILE_SUPPRESS_PATTERN.search(line)
        if match is None:
            continue
        for code in match.group(1).split(","):
            code = code.strip()
            if code and code not in lines:
                lines[code] = number
    return lines


def _unused_suppression_findings(
    path: Path | str,
    source_lines: Sequence[str],
    suppressed: Mapping[int, set[str]],
    file_suppressed: set[str],
    used_lines: set[tuple[int, str]],
    used_file: set[str],
    checkable: set[str],
) -> list[Finding]:
    """LINT001 findings for pragmas that silenced nothing this run.

    A pragma is only provably stale when the rule it names actually ran:
    ``checkable`` is the set of codes checked against this file in the
    current phase, so a ``--select RNG101`` run never flags a dormant
    ``RES801`` pragma, and per-file phases never flag program-rule
    pragmas (those are judged after the program pass).
    """
    findings: list[Finding] = []
    hint = "delete the stale pragma (or un-fix whatever it was hiding)"
    for line in sorted(suppressed):
        for code in sorted(suppressed[line]):
            if code in _NEVER_STALE or code not in checkable:
                continue
            if (line, code) not in used_lines:
                findings.append(
                    Finding(
                        path=str(path),
                        line=line,
                        col=1,
                        code="LINT001",
                        message=(
                            f"unused suppression: no {code} finding is "
                            "silenced on this line"
                        ),
                        hint=hint,
                    )
                )
    if file_suppressed:
        pragma_lines = _file_pragma_lines(source_lines)
        for code in sorted(file_suppressed):
            if code in _NEVER_STALE or code not in checkable:
                continue
            if code not in used_file:
                findings.append(
                    Finding(
                        path=str(path),
                        line=pragma_lines.get(code, 1),
                        col=1,
                        code="LINT001",
                        message=(
                            f"unused suppression: {code} fires nowhere "
                            "in this file"
                        ),
                        hint=hint,
                    )
                )
    return findings


def analyze_source(
    source: str,
    path: Path | str,
    module: str | None = None,
    rules: Sequence[Rule] | None = None,
    config: RepolintConfig | None = None,
    extra_sources: Mapping[str, str] | None = None,
    tree: ast.Module | None = None,
) -> list[Finding]:
    """Run every rule over one source blob and filter suppressions.

    Per-file rules always run.  Program rules run only when an explicit
    ``config`` is given: the blob (plus any ``extra_sources``, a mapping of
    dotted module name to source) then forms the whole program, which keeps
    snippet-level tests hermetic.  A pre-parsed ``tree`` (from the run's
    :class:`SourceCache`) skips the redundant parse.
    """
    path = Path(path)
    if rules is None:
        rules = default_rules()
    if tree is None:
        try:
            tree = ast.parse(source)
        except SyntaxError as error:
            return [
                Finding(
                    path=str(path),
                    line=error.lineno or 1,
                    col=(error.offset or 0) + 1,
                    code="PARSE001",
                    message=f"file does not parse: {error.msg}",
                    hint="repolint needs syntactically valid Python",
                )
            ]
    source_lines = source.splitlines()
    module = module if module is not None else module_for_path(path)
    ctx = RuleContext(
        path=path,
        module=module,
        tree=tree,
        source_lines=source_lines,
    )
    findings: list[Finding] = []
    for rule in rules:
        if not isinstance(rule, ProgramRule):
            findings.extend(rule.check(ctx))
    if config is not None:
        program_rules = [rule for rule in rules if isinstance(rule, ProgramRule)]
        if program_rules:
            sources: dict[str, str] = dict(extra_sources or {})
            sources[module or path.stem] = source
            program = ProgramContext.from_sources(sources, config)
            # Point the blob's ProgramFile at the caller-visible path.
            blob = program.file_for(module or path.stem)
            if blob is not None:
                blob.path = path
            target = {str(path)}
            for rule in program_rules:
                findings.extend(
                    finding
                    for finding in rule.check_program(program)
                    if finding.path in target
                )
    suppressed = suppressed_codes_by_line(source_lines)
    file_suppressed = file_suppressed_codes(source_lines)
    used_lines: set[tuple[int, str]] = set()
    used_file: set[str] = set()
    kept = _filter_suppressed(
        findings, suppressed, file_suppressed, used_lines, used_file
    )
    if any(rule.code == "LINT001" for rule in rules):
        checkable = {
            rule.code for rule in rules if not isinstance(rule, ProgramRule)
        }
        if config is not None:
            # Program rules ran over this blob too, so their pragmas are
            # judged here as well.
            checkable |= {
                rule.code for rule in rules if isinstance(rule, ProgramRule)
            }
        stale = _unused_suppression_findings(
            path,
            source_lines,
            suppressed,
            file_suppressed,
            used_lines,
            used_file,
            checkable,
        )
        # LINT001 findings honour suppressions themselves (disable=LINT001).
        kept.extend(_filter_suppressed(stale, suppressed, file_suppressed))
    return sorted(kept, key=lambda f: (f.path, f.line, f.col, f.code))


def analyze_file(
    path: Path | str,
    rules: Sequence[Rule] | None = None,
    source_cache: SourceCache | None = None,
) -> list[Finding]:
    path = Path(path)
    if source_cache is not None:
        try:
            parsed = source_cache.parse(path)
        except SyntaxError:
            pass  # fall through to analyze_source for the PARSE001 finding
        except OSError as error:
            return [
                Finding(
                    path=str(path),
                    line=1,
                    col=1,
                    code="PARSE001",
                    message=f"file is unreadable: {error}",
                    hint="repolint needs readable source files",
                )
            ]
        else:
            return analyze_source(
                parsed.source, path, rules=rules, tree=parsed.tree
            )
    source = path.read_text(encoding="utf-8")
    return analyze_source(source, path, rules=rules)


def iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Expand files/directories into a deterministic list of ``.py`` files."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in SKIP_DIRS for part in candidate.parts):
                    yield candidate
        elif path.suffix == ".py":
            yield path


def locate_package_dir(
    anchor: Path | str | None = None, config: RepolintConfig | None = None
) -> tuple[Path, RepolintConfig] | None:
    """(package directory, config) for the project owning ``anchor``."""
    anchor_path = Path(anchor) if anchor is not None else Path.cwd()
    if config is None:
        config = load_config(anchor_path)
    pyproject = find_pyproject(anchor_path)
    if pyproject is None:
        return None
    package_dir = pyproject.parent / config.src_root / config.package
    if not package_dir.is_dir():
        return None
    return package_dir, config


def build_program(
    anchor: Path | str | None = None,
    config: RepolintConfig | None = None,
) -> ProgramContext | None:
    """ProgramContext for the package owning ``anchor`` (default: cwd)."""
    located = locate_package_dir(anchor, config)
    if located is None:
        return None
    package_dir, config = located
    return ProgramContext.from_package(package_dir, config)


@dataclass
class ParsedFile:
    """One file, parsed once and shared by every analysis layer."""

    path: Path
    source: str
    tree: ast.Module
    source_lines: list[str]


@dataclass
class SourceCache:
    """Per-run ``path → ParsedFile`` memo (no persistence, no eviction)."""

    _files: dict[Path, ParsedFile] = field(default_factory=dict)
    parses: int = 0  # distinct files actually parsed (for the benchmark)
    hits: int = 0

    def parse(self, path: Path) -> ParsedFile:
        """Parsed form of ``path``; OSError/SyntaxError propagate to the
        caller, which decides between PARSE001 and skipping."""
        resolved = path.resolve()
        cached = self._files.get(resolved)
        if cached is not None:
            self.hits += 1
            return cached
        source = path.read_text(encoding="utf-8")
        parsed = ParsedFile(
            path=path,
            source=source,
            tree=ast.parse(source),
            source_lines=source.splitlines(),
        )
        self._files[resolved] = parsed
        self.parses += 1
        return parsed


def analyze_paths(
    paths: Iterable[Path | str],
    rules: Sequence[Rule] | None = None,
    config: RepolintConfig | None = None,
    source_cache: SourceCache | None = None,
) -> list[Finding]:
    """Per-file rules over every target, plus program rules over the package.

    Program rules always analyze the complete configured package so that
    partial runs (``--changed``, a single file) still see whole-program
    facts; their findings are then restricted to the requested targets.

    One :class:`SourceCache` (created here when not supplied) is shared by
    the per-file loop and the package parse, so every file is read and
    parsed at most once per run.
    """
    if rules is None:
        rules = default_rules()
    if source_cache is None:
        source_cache = SourceCache()
    file_rules = [rule for rule in rules if not isinstance(rule, ProgramRule)]
    program_rules = [rule for rule in rules if isinstance(rule, ProgramRule)]
    findings: list[Finding] = []
    targets = list(iter_python_files(paths))
    for path in targets:
        findings.extend(
            analyze_file(path, rules=file_rules, source_cache=source_cache)
        )

    if program_rules and targets:
        located = locate_package_dir(targets[0], config=config)
        target_set = {path.resolve() for path in targets}
        if located is not None and any(
            path.is_relative_to(located[0].resolve()) for path in target_set
        ):
            program = ProgramContext.from_package(*located, source_cache)
            in_program = {
                str(file.path): file
                for file in program.files.values()
                if file.path.resolve() in target_set
            }
            if in_program:
                program_findings: list[Finding] = []
                for rule in program_rules:
                    program_findings.extend(rule.check_program(program))
                by_path: dict[str, list[Finding]] = {}
                for finding in program_findings:
                    if finding.path in in_program:
                        by_path.setdefault(finding.path, []).append(finding)
                lint_enabled = any(rule.code == "LINT001" for rule in rules)
                program_codes = {rule.code for rule in program_rules}
                for path_str, file in in_program.items():
                    suppressed = suppressed_codes_by_line(file.source_lines)
                    file_suppressed = file_suppressed_codes(file.source_lines)
                    used_lines: set[tuple[int, str]] = set()
                    used_file: set[str] = set()
                    findings.extend(
                        _filter_suppressed(
                            by_path.get(path_str, []),
                            suppressed,
                            file_suppressed,
                            used_lines,
                            used_file,
                        )
                    )
                    if lint_enabled:
                        # Program-rule pragmas can only be judged after the
                        # program pass; per-file codes were judged in the
                        # per-file phase.
                        stale = _unused_suppression_findings(
                            file.path,
                            file.source_lines,
                            suppressed,
                            file_suppressed,
                            used_lines,
                            used_file,
                            program_codes,
                        )
                        findings.extend(
                            _filter_suppressed(stale, suppressed, file_suppressed)
                        )
    return findings
