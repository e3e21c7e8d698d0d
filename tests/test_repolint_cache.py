"""Parse-once source cache, file-level suppression, unused suppressions.

A shared parse must not change any verdict, ``# repolint:
disable-file=CODE`` must silence exactly the named rules — never its
neighbours — and a pragma that silences nothing is itself a finding.
"""

from __future__ import annotations

from pathlib import Path

from tools.repolint.config import RepolintConfig
from tools.repolint.engine import (
    SourceCache,
    analyze_paths,
    analyze_source,
    file_suppressed_codes,
)

DIRTY = "import random\nrandom.seed(0)\n"


def codes(findings) -> list[str]:
    return [f.code for f in findings]


def write_module(tmp_path: Path, name: str, source: str) -> Path:
    target = tmp_path / name
    target.write_text(source, encoding="utf-8")
    return target


# ---------------------------------------------------------------------------
# SourceCache
# ---------------------------------------------------------------------------

def test_source_cache_parses_each_file_once(tmp_path):
    target = write_module(tmp_path, "mod.py", "X = 1\n")
    cache = SourceCache()
    first = cache.parse(target)
    second = cache.parse(target)
    assert first is second
    assert cache.parses == 1
    assert cache.hits == 1


def test_analyze_paths_shares_one_parse_per_file(tmp_path):
    targets = [
        write_module(tmp_path, "a.py", "A = 1\n"),
        write_module(tmp_path, "b.py", "B = 2\n"),
    ]
    cache = SourceCache()
    analyze_paths(targets, source_cache=cache)
    assert cache.parses == 2  # one parse per file, however many rules ran


def test_cached_analysis_matches_uncached(tmp_path):
    target = write_module(tmp_path, "mod.py", DIRTY)
    plain = analyze_paths([target])
    shared = analyze_paths([target], source_cache=SourceCache())
    assert [(f.code, f.line) for f in plain] == [
        (f.code, f.line) for f in shared
    ]
    assert plain  # the snippet is not clean


# ---------------------------------------------------------------------------
# File-level suppression
# ---------------------------------------------------------------------------

def test_file_suppressed_codes_parses_the_pragma():
    lines = [
        "'''docstring'''",
        "# repolint: disable-file=RNG102, PAR602",
        "X = 1",
    ]
    assert file_suppressed_codes(lines) == {"RNG102", "PAR602"}
    assert file_suppressed_codes(["X = 1"]) == set()


def test_disable_file_silences_only_the_named_rule():
    source = (
        "# repolint: disable-file=RNG102\n"
        "import random\n"
        "import numpy as np\n"
        "random.seed(0)\n"
        "def f(x):\n"
        "    return np.exp(x) / np.sum(np.exp(x))\n"
    )
    suppressed = analyze_source(source, Path("pkg/mod.py"))
    assert "RNG102" not in codes(suppressed)
    # The numerically unsafe softmax still fires: disable-file is per-rule.
    assert any(code.startswith("NUM") for code in codes(suppressed))

    unsuppressed = analyze_source(
        source.replace("# repolint: disable-file=RNG102\n", ""),
        Path("pkg/mod.py"),
    )
    assert "RNG102" in codes(unsuppressed)


def test_disable_file_all_silences_everything():
    source = (
        "# repolint: disable-file=all\n"
        "import random\n"
        "random.seed(0)\n"
    )
    assert analyze_source(source, Path("pkg/mod.py")) == []


def test_per_line_disable_does_not_match_disable_file():
    # The old per-line syntax must not accidentally suppress the file.
    source = (
        "import random\n"
        "# repolint: disable=RNG102\n"
        "random.seed(0)\n"
    )
    assert "RNG102" in codes(analyze_source(source, Path("pkg/mod.py")))


# ---------------------------------------------------------------------------
# LINT001: unused suppressions
# ---------------------------------------------------------------------------

def test_stale_per_line_pragma_is_flagged():
    source = "import random\nX = 1  # repolint: disable=RNG102\n"
    findings = analyze_source(source, Path("pkg/mod.py"))
    assert codes(findings) == ["LINT001"]
    assert findings[0].line == 2
    assert "RNG102" in findings[0].message


def test_used_pragma_is_not_flagged():
    source = "import random\nrandom.seed(0)  # repolint: disable=RNG102\n"
    assert analyze_source(source, Path("pkg/mod.py")) == []


def test_blanket_all_pragma_is_never_flagged():
    source = "X = 1  # repolint: disable=all\n"
    assert analyze_source(source, Path("pkg/mod.py")) == []
    assert analyze_source(
        "# repolint: disable-file=all\nX = 1\n", Path("pkg/mod.py")
    ) == []


def test_stale_disable_file_pragma_is_flagged_at_the_pragma_line():
    source = "'''doc'''\n# repolint: disable-file=RNG102\nX = 1\n"
    findings = analyze_source(source, Path("pkg/mod.py"))
    assert codes(findings) == ["LINT001"]
    assert findings[0].line == 2
    assert "fires nowhere" in findings[0].message


def test_pragma_for_a_rule_that_did_not_run_is_not_flagged():
    # --select RNG101 must not claim the RNG102 pragma is stale: the rule
    # it names never ran, so staleness is unprovable.
    from tools.repolint.rules import all_rules

    source = "import random\nrandom.seed(0)  # repolint: disable=RNG102\n"
    subset = [r for r in all_rules() if r.code in {"RNG101", "LINT001"}]
    assert analyze_source(source, Path("pkg/mod.py"), rules=subset) == []


def test_program_rule_pragma_staleness_needs_the_program_pass():
    # A per-file-only pass cannot judge a PAR602 pragma; with a config
    # (program rules running) a stale one is flagged.
    stale = "STATE = {}\n\n\ndef f():  # repolint: disable=PAR602\n    return 1\n"
    assert analyze_source(stale, Path("pkg/mod.py")) == []
    findings = analyze_source(
        stale, Path("pkg/mod.py"), module="pkg.mod", config=RepolintConfig(package="pkg")
    )
    assert "LINT001" in codes(findings)


def test_lint001_is_itself_suppressible():
    source = "import random\nX = 1  # repolint: disable=RNG102,LINT001\n"
    assert analyze_source(source, Path("pkg/mod.py")) == []
