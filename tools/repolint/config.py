"""Whole-program analysis configuration, loaded from ``pyproject.toml``.

The layer contract, extra call edges and the concurrency, exception and
observability contracts all live under ``[tool.repolint]`` so they version
with the code they constrain.  Python 3.11+ parses the file with
:mod:`tomllib`; on 3.10 (still in the CI matrix) a small TOML-subset parser
handles the constructs this repo's pyproject actually uses — tables,
strings, integers, booleans and (possibly multiline) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

try:  # Python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised on 3.10 only
    tomllib = None  # type: ignore[assignment]


@dataclass(frozen=True)
class RepolintConfig:
    """Parsed ``[tool.repolint]`` contract."""

    package: str = "repro"
    src_root: str = "src"
    layer_ranks: Mapping[str, int] = field(default_factory=dict)
    #: Call edges the AST resolver cannot see (hooks injected at
    #: construction), walked by every call-graph pass.
    extra_edges: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    resilience_packages: tuple[str, ...] = ()
    #: Packages whose classes/coroutines get the attr-level concurrency
    #: analyses (ASYNC902/904); empty means the whole package.
    concurrency_packages: tuple[str, ...] = ()
    #: Functions sanctioned to block the event loop — the whole call
    #: subtree under each entry is exempt from ASYNC901 (startup paths).
    allow_blocking: frozenset[str] = frozenset()
    #: Concurrency sync points: functions (ASYNC904) or ``Class.attr``
    #: state keys (ASYNC902) whose interleavings are documented as safe.
    concurrency_sync_points: frozenset[str] = frozenset()
    #: Packages in scope for the EXC10xx exception-flow rules; empty means
    #: the whole program (convenient for hermetic tests).
    exception_packages: tuple[str, ...] = ()
    #: Error boundaries: function qualname -> exception types sanctioned to
    #: escape it.  An empty list means *nothing* may escape (the function
    #: must convert every failure, e.g. a serve handler mapping errors to
    #: structured HTTP responses).
    exception_boundaries: Mapping[str, tuple[str, ...]] = field(
        default_factory=dict
    )
    #: Call spellings that count as observing a failure inside an except
    #: block (logging/metrics), matched by dotted prefix or final segment.
    exception_log_functions: tuple[str, ...] = ()
    #: Root of the sanctioned error taxonomy (EXC1004 hints, certificate
    #: adoption stats), e.g. ``repro.errors.ReproError``.
    exception_taxonomy_root: str = ""
    #: Modules where bare ``print(...)`` is sanctioned (OBS1101): the CLI
    #: boundary, plus async-signal-safe paths that must not touch logging.
    obs_allow_print: frozenset[str] = frozenset()
    #: Packages whose direct monotonic-clock reads (``time.monotonic`` and
    #: family) must instead go through the obs clock boundary (OBS1102).
    clock_packages: tuple[str, ...] = ()
    #: The one module sanctioned to read the process clock directly.
    clock_boundary: str = ""

    @property
    def top_rank(self) -> int:
        """Rank assigned to the package root (it may import everything)."""
        return max(self.layer_ranks.values(), default=0) + 1

    def rank_for_layer(self, layer: str) -> int | None:
        """Rank of a layer name, or None when undeclared or the root.

        The package root (``repro`` itself plus dunder modules like
        ``repro.__main__``) is a facade that re-exports the public API, so
        it has no rank: it may import everything and everything may
        import it.
        """
        if layer in ("<root>", "__main__", "__init__"):
            return None
        return self.layer_ranks.get(layer)

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "RepolintConfig":
        """Build from the ``[tool.repolint]`` table of a parsed pyproject."""
        layers = data.get("layers", {})
        calls = data.get("calls", {})
        resilience = data.get("resilience", {})
        concurrency = data.get("concurrency", {})
        exceptions = data.get("exceptions", {})
        obs = data.get("obs", {})
        return cls(
            package=str(data.get("package", "repro")),
            src_root=str(data.get("src-root", "src")),
            layer_ranks={
                str(name): int(rank)
                for name, rank in dict(layers.get("ranks", {})).items()
            },
            extra_edges={
                str(src): tuple(str(dst) for dst in dsts)
                for src, dsts in dict(calls.get("extra-edges", {})).items()
            },
            resilience_packages=tuple(
                str(n) for n in resilience.get("packages", [])
            ),
            concurrency_packages=tuple(
                str(n) for n in concurrency.get("packages", [])
            ),
            allow_blocking=frozenset(
                str(n) for n in concurrency.get("allow-blocking", [])
            ),
            concurrency_sync_points=frozenset(
                str(n) for n in concurrency.get("sync-points", [])
            ),
            exception_packages=tuple(
                str(n) for n in exceptions.get("packages", [])
            ),
            exception_boundaries={
                str(boundary): tuple(str(t) for t in types)
                for boundary, types in dict(
                    exceptions.get("boundaries", {})
                ).items()
            },
            exception_log_functions=tuple(
                str(n) for n in exceptions.get("log-functions", [])
            ),
            exception_taxonomy_root=str(exceptions.get("taxonomy-root", "")),
            obs_allow_print=frozenset(
                str(n) for n in obs.get("allow-print", [])
            ),
            clock_packages=tuple(str(n) for n in obs.get("clock-packages", [])),
            clock_boundary=str(obs.get("clock-boundary", "")),
        )


def find_pyproject(start: Path) -> Path | None:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(start: Path | str | None = None) -> RepolintConfig:
    """Config for the project owning ``start`` (default: cwd).

    Missing pyproject or a pyproject without ``[tool.repolint]`` yields an
    empty config — the whole-program rules then have nothing to check, so
    per-file linting keeps working in any tree.
    """
    pyproject = find_pyproject(Path(start) if start is not None else Path.cwd())
    if pyproject is None:
        return RepolintConfig()
    data = parse_toml(pyproject.read_text(encoding="utf-8"))
    tool = data.get("tool", {})
    section = tool.get("repolint", {}) if isinstance(tool, dict) else {}
    if not isinstance(section, dict):
        return RepolintConfig()
    return RepolintConfig.from_mapping(section)


def parse_toml(text: str) -> dict[str, Any]:
    """Parse TOML, via tomllib when available, else the subset parser."""
    if tomllib is not None:
        return tomllib.loads(text)
    return _parse_toml_subset(text)


# --- TOML-subset fallback (Python 3.10) ------------------------------------


def _strip_comment(line: str) -> str:
    """Drop a ``#`` comment that is not inside a double-quoted string."""
    in_string = False
    for index, char in enumerate(line):
        if char == '"':
            in_string = not in_string
        elif char == "#" and not in_string:
            return line[:index]
    return line


def _parse_scalar(token: str) -> Any:
    token = token.strip()
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    if token in ("true", "false"):
        return token == "true"
    try:
        return int(token)
    except ValueError:
        try:
            return float(token)
        except ValueError:
            return token


def _split_array_items(body: str) -> list[str]:
    """Split an array body on commas that sit outside strings/brackets."""
    items: list[str] = []
    depth = 0
    in_string = False
    current: list[str] = []
    for char in body:
        if char == '"':
            in_string = not in_string
            current.append(char)
        elif not in_string and char == "[":
            depth += 1
            current.append(char)
        elif not in_string and char == "]":
            depth -= 1
            current.append(char)
        elif not in_string and depth == 0 and char == ",":
            items.append("".join(current))
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        items.append(tail)
    return [item.strip() for item in items if item.strip()]


def _parse_value(token: str) -> Any:
    token = token.strip()
    if token.startswith("[") and token.endswith("]"):
        return [_parse_value(item) for item in _split_array_items(token[1:-1])]
    return _parse_scalar(token)


def _parse_key(token: str) -> str:
    token = token.strip()
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    return token


def _table_for(root: dict[str, Any], dotted: str) -> dict[str, Any]:
    table = root
    for part in dotted.split("."):
        table = table.setdefault(_parse_key(part), {})
    return table


def _parse_toml_subset(text: str) -> dict[str, Any]:
    """Tables + ``key = value`` pairs with scalar/array values; no inline
    tables, no arrays-of-tables, no escape sequences inside strings."""
    root: dict[str, Any] = {}
    table = root
    pending = ""
    for raw_line in text.splitlines():
        line = _strip_comment(raw_line).strip()
        if pending:
            line = pending + " " + line
            pending = ""
        if not line:
            continue
        if line.startswith("[") and line.endswith("]") and "=" not in line.split("]")[0]:
            table = _table_for(root, line[1:-1].strip())
            continue
        if "=" not in line:
            continue
        key_part, value_part = line.split("=", 1)
        # Multiline arrays: keep accumulating until brackets balance.
        if value_part.count("[") > value_part.count("]"):
            pending = line
            continue
        table[_parse_key(key_part)] = _parse_value(value_part)
    return root
