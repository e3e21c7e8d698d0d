"""Command-line front end: ``python -m tools.repolint [paths...]``.

Exit status is 0 when the scanned tree is clean and 1 when any finding
survives suppression filtering — which is exactly what CI and pre-commit
need to fail a build on a new violation.  ``--format`` switches the output
between human text, JSON and SARIF (for GitHub code-scanning upload), and
the ``report`` subcommand emits the whole-program analysis artifact.
``--changed`` narrows the per-file targets to the ``.py`` files git
reports dirty; the program passes still parse the whole package, and no
verdict is carried over from an earlier run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Sequence

from tools.repolint.engine import (
    Finding,
    analyze_paths,
    build_program,
    iter_python_files,
)
from tools.repolint.rules import all_rules, rule_catalog


def git_toplevel(anchor: Path | None = None) -> Path:
    """Repository root per git itself — correct from any subdirectory."""
    result = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        cwd=anchor or Path.cwd(),
        capture_output=True,
        text=True,
        check=True,
    )
    return Path(result.stdout.strip())


def changed_python_files(repo_root: Path | None = None) -> list[Path]:
    """Tracked-but-modified plus untracked ``.py`` files per ``git status``.

    ``git status --porcelain`` prints paths relative to the repository
    *toplevel*, so they must be resolved against it — resolving against the
    current working directory silently drops every changed file when the
    linter runs from a subdirectory.
    """
    if repo_root is None:
        repo_root = git_toplevel()
    result = subprocess.run(
        ["git", "status", "--porcelain"],
        cwd=repo_root,
        capture_output=True,
        text=True,
        check=True,
    )
    files: list[Path] = []
    for line in result.stdout.splitlines():
        if len(line) < 4:
            continue
        name = line[3:].split(" -> ")[-1].strip().strip('"')
        path = repo_root / name
        if path.suffix == ".py" and path.exists():
            files.append(path)
    return files


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.repolint",
        description=(
            "Project-specific determinism, contract and whole-program "
            "linter: RNG discipline, checkpoint completeness, numerical "
            "safety, API hygiene, import-layer contracts, module-state "
            "writes, and concurrency and exception certificates."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: src/)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="fast path: only scan .py files git reports as modified/untracked",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format for findings (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write findings to FILE instead of stdout",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the summary line (findings only)",
    )
    return parser


def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.repolint report",
        description=(
            "Emit the whole-program analysis artifact: import-layer graph, "
            "call graph and the concurrency and exception certificates, "
            "as JSON."
        ),
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write the JSON artifact to FILE (default: stdout)",
    )
    parser.add_argument(
        "--anchor",
        metavar="PATH",
        default=".",
        help="any path inside the project whose package should be analyzed",
    )
    return parser


def run_report(argv: Sequence[str]) -> int:
    from tools.repolint.report import build_report

    args = build_report_parser().parse_args(argv)
    program = build_program(Path(args.anchor))
    if program is None:
        print(
            "report: no analyzable package found (missing pyproject.toml "
            "or package directory)",
            file=sys.stderr,
        )
        return 2
    payload = json.dumps(build_report(program), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
        print(f"report: wrote {args.out}", file=sys.stderr)
    else:
        print(payload)
    return 0


def render_findings(findings: list[Finding], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            [
                {
                    "path": finding.path,
                    "line": finding.line,
                    "col": finding.col,
                    "code": finding.code,
                    "message": finding.message,
                    "hint": finding.hint,
                }
                for finding in findings
            ],
            indent=2,
        )
    if fmt == "sarif":
        from tools.repolint.sarif import render_sarif

        return render_sarif(findings, rule_catalog())
    return "\n".join(finding.format() for finding in findings)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "report":
        return run_report(argv[1:])
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for code, name, summary in rule_catalog():
            print(f"{code}  {name:<26} {summary}")
        return 0

    rules = all_rules()
    if args.select:
        wanted = {code.strip() for code in args.select.split(",") if code.strip()}
        unknown = wanted - {rule.code for rule in rules}
        if unknown:
            print(f"unknown rule codes: {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        rules = [rule for rule in rules if rule.code in wanted]

    if args.changed:
        try:
            targets: list[Path] = changed_python_files()
        except (OSError, subprocess.CalledProcessError) as error:
            print(f"--changed requires git ({error}); scanning defaults", file=sys.stderr)
            targets = [Path.cwd() / "src"]
        if args.paths:
            # Restrict the changed set to the requested scopes.
            scopes = [Path(p).resolve() for p in args.paths]
            targets = [
                f
                for f in iter_python_files(targets)
                if any(f.resolve().is_relative_to(scope) for scope in scopes)
            ]
    elif args.paths:
        targets = [Path(p) for p in args.paths]
    else:
        targets = [Path("src")]

    findings: list[Finding] = analyze_paths(targets, rules=rules)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    rendered = render_findings(findings, args.format)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    elif rendered:
        print(rendered)
    if not args.quiet and args.format == "text":
        scanned = len(list(iter_python_files(targets)))
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"repolint: {scanned} file(s) scanned — {status}")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
