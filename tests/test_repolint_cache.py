"""Parse-once source cache, SHA-keyed result cache, file-level suppression.

The performance satellite's correctness story: a shared parse must not
change any verdict, a stale or corrupt result cache must only ever cost a
recompute, ``# repolint: disable-file=CODE`` must silence exactly the
named rules — never its neighbours — and the config-fingerprint cache
key must not change a single verdict.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from tools.repolint.cache import (
    ResultCache,
    SourceCache,
    config_fingerprint,
    content_sha,
)
from tools.repolint.config import RepolintConfig
from tools.repolint.engine import (
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
    assert first.sha == content_sha("X = 1\n")


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
# ResultCache
# ---------------------------------------------------------------------------

def test_result_cache_replays_findings_on_sha_hit(tmp_path):
    target = write_module(tmp_path, "mod.py", DIRTY)
    cache_path = tmp_path / "cache.json"

    first_cache = ResultCache(cache_path)
    first = analyze_paths([target], result_cache=first_cache)
    assert first_cache.misses == 1 and first_cache.hits == 0
    assert cache_path.exists()

    second_cache = ResultCache(cache_path)
    second = analyze_paths([target], result_cache=second_cache)
    assert second_cache.hits == 1 and second_cache.misses == 0
    assert [(f.code, f.line, f.message) for f in first] == [
        (f.code, f.line, f.message) for f in second
    ]


def test_result_cache_misses_when_content_changes(tmp_path):
    target = write_module(tmp_path, "mod.py", DIRTY)
    cache_path = tmp_path / "cache.json"
    analyze_paths([target], result_cache=ResultCache(cache_path))

    target.write_text(DIRTY + "Y = 1\n", encoding="utf-8")
    cache = ResultCache(cache_path)
    findings = analyze_paths([target], result_cache=cache)
    assert cache.misses == 1 and cache.hits == 0
    assert findings  # recomputed, still dirty


def test_clean_files_cache_their_emptiness(tmp_path):
    target = write_module(tmp_path, "mod.py", "X = 1\n")
    cache_path = tmp_path / "cache.json"
    analyze_paths([target], result_cache=ResultCache(cache_path))

    cache = ResultCache(cache_path)
    findings = analyze_paths([target], result_cache=cache)
    assert cache.hits == 1
    assert findings == []


def test_corrupt_cache_file_is_treated_as_empty(tmp_path):
    target = write_module(tmp_path, "mod.py", DIRTY)
    cache_path = tmp_path / "cache.json"
    cache_path.write_text("{not json", encoding="utf-8")
    cache = ResultCache(cache_path)
    findings = analyze_paths([target], result_cache=cache)
    assert findings
    assert cache.misses == 1
    # And the save overwrote the corruption with a valid cache.
    replay = ResultCache(cache_path)
    assert analyze_paths([target], result_cache=replay)
    assert replay.hits == 1


def test_cached_findings_are_stored_post_suppression(tmp_path):
    target = write_module(
        tmp_path, "mod.py", "import random\nrandom.seed(0)  # repolint: disable=RNG102\n"
    )
    cache_path = tmp_path / "cache.json"
    first = analyze_paths([target], result_cache=ResultCache(cache_path))
    assert "RNG102" not in codes(first)
    cache = ResultCache(cache_path)
    second = analyze_paths([target], result_cache=cache)
    assert cache.hits == 1
    assert "RNG102" not in codes(second)


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
# Config fingerprint (the --changed + ResultCache interaction fix)
# ---------------------------------------------------------------------------

def test_config_fingerprint_is_stable_and_semantic():
    base = RepolintConfig()
    assert config_fingerprint(base) == config_fingerprint(RepolintConfig())
    changed = replace(base, hot_functions=frozenset({"repro.core.env.step"}))
    assert config_fingerprint(changed) != config_fingerprint(base)
    assert config_fingerprint(None) == "no-config"
    assert config_fingerprint(None) != config_fingerprint(base)


def test_config_fingerprint_ignores_toml_ordering():
    # Reordering entries of a mapping/set field must not invalidate the
    # cache — only a semantic change should.
    one = replace(RepolintConfig(), layer_ranks={"data": 0, "core": 4})
    other = replace(RepolintConfig(), layer_ranks={"core": 4, "data": 0})
    assert config_fingerprint(one) == config_fingerprint(other)


def test_result_cache_ignores_entries_from_a_different_config(tmp_path):
    """The --changed fast path must not replay findings computed under an
    older pyproject contract: same file sha, different config → miss."""
    target = write_module(tmp_path, "mod.py", DIRTY)
    cache_path = tmp_path / "cache.json"

    first = ResultCache(cache_path, fingerprint="contract-v1")
    analyze_paths([target], result_cache=first)
    assert first.misses == 1

    same = ResultCache(cache_path, fingerprint="contract-v1")
    analyze_paths([target], result_cache=same)
    assert same.hits == 1 and same.misses == 0

    edited = ResultCache(cache_path, fingerprint="contract-v2")
    findings = analyze_paths([target], result_cache=edited)
    assert edited.hits == 0 and edited.misses == 1
    assert findings  # recomputed under the new contract

    # And the save re-keyed the cache to the new fingerprint.
    rekeyed = ResultCache(cache_path, fingerprint="contract-v2")
    analyze_paths([target], result_cache=rekeyed)
    assert rekeyed.hits == 1


def test_for_repo_keys_cache_to_the_resolved_config(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repolint]\npackage = \"repro\"\n", encoding="utf-8"
    )
    target = write_module(tmp_path, "mod.py", DIRTY)
    analyze_paths([target], result_cache=ResultCache.for_repo(tmp_path))

    warm = ResultCache.for_repo(tmp_path)
    analyze_paths([target], result_cache=warm)
    assert warm.hits == 1

    # A contract edit in pyproject.toml empties the cache wholesale.
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repolint]\npackage = \"repro\"\n"
        "[tool.repolint.hotpath]\nfunctions = [\"repro.core.env.step\"]\n",
        encoding="utf-8",
    )
    cold = ResultCache.for_repo(tmp_path)
    analyze_paths([target], result_cache=cold)
    assert cold.hits == 0 and cold.misses == 1


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
