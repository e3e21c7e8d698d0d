"""Whole-program repolint passes: layers, module state, call graph, config.

Snippet-level tests build hermetic multi-module programs through
``analyze_source(..., config=..., extra_sources=...)`` (program rules only
run when a config is given, so the per-file tests elsewhere stay unaffected)
or :class:`ProgramContext.from_sources` when the test needs the graphs
directly.  The suite ends with call-graph checks against the real
repository.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

from tools.repolint import RepolintConfig, analyze_source, build_program
from tools.repolint.config import _parse_toml_subset, parse_toml
from tools.repolint.engine import ProgramContext
from tools.repolint.sarif import findings_to_sarif

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes(findings) -> list[str]:
    return [f.code for f in findings]


def layered_config(**overrides) -> RepolintConfig:
    defaults = dict(
        package="pkg",
        layer_ranks={"data": 0, "util": 0, "nn": 1, "core": 2, "cli": 3},
    )
    defaults.update(overrides)
    return RepolintConfig(**defaults)


# ---------------------------------------------------------------------------
# ARCH501 — layer contract
# ---------------------------------------------------------------------------

def test_arch501_flags_upward_import():
    findings = analyze_source(
        "import pkg.core.engine\n",
        Path("pkg/data/loader.py"),
        module="pkg.data.loader",
        config=layered_config(),
        extra_sources={"pkg.core.engine": "X = 1\n"},
    )
    assert "ARCH501" in codes(findings)


def test_arch501_allows_downward_and_free_imports():
    # util, like data, is a rank-0 package: both imports point down.
    findings = analyze_source(
        "import pkg.data.loader\nimport pkg.util.helpers\n",
        Path("pkg/core/engine.py"),
        module="pkg.core.engine",
        config=layered_config(),
        extra_sources={
            "pkg.data.loader": "X = 1\n",
            "pkg.util.helpers": "Y = 2\n",
        },
    )
    assert "ARCH501" not in codes(findings)


def test_arch501_flags_rank0_package_importing_higher_layer():
    findings = analyze_source(
        "import pkg.cli.main\n",
        Path("pkg/util/helpers.py"),
        module="pkg.util.helpers",
        config=layered_config(),
        extra_sources={"pkg.cli.main": "Z = 3\n"},
    )
    assert "ARCH501" in codes(findings)


def test_arch501_allows_imports_between_rank0_packages():
    findings = analyze_source(
        "import pkg.data.loader\n",
        Path("pkg/util/helpers.py"),
        module="pkg.util.helpers",
        config=layered_config(),
        extra_sources={
            "pkg.data.loader": "import pkg.util.tools\n",
            "pkg.util.tools": "W = 4\n",
        },
    )
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# ARCH502 — import cycles
# ---------------------------------------------------------------------------

def test_arch502_flags_top_level_cycle():
    findings = analyze_source(
        "import pkg.core.b\n",
        Path("pkg/core/a.py"),
        module="pkg.core.a",
        config=layered_config(),
        extra_sources={"pkg.core.b": "import pkg.core.a\n"},
    )
    assert "ARCH502" in codes(findings)


def test_arch502_deferred_import_breaks_cycle():
    findings = analyze_source(
        "import pkg.core.b\n",
        Path("pkg/core/a.py"),
        module="pkg.core.a",
        config=layered_config(),
        extra_sources={
            "pkg.core.b": "def late():\n    import pkg.core.a\n",
        },
    )
    assert "ARCH502" not in codes(findings)


# ---------------------------------------------------------------------------
# ARCH503 — undeclared layers
# ---------------------------------------------------------------------------

def test_arch503_flags_layer_missing_from_contract():
    findings = analyze_source(
        "X = 1\n",
        Path("pkg/rogue/thing.py"),
        module="pkg.rogue.thing",
        config=layered_config(),
    )
    assert "ARCH503" in codes(findings)


def test_arch503_silent_without_layer_contract():
    findings = analyze_source(
        "X = 1\n",
        Path("pkg/rogue/thing.py"),
        module="pkg.rogue.thing",
        config=RepolintConfig(package="pkg"),
    )
    assert "ARCH503" not in codes(findings)


# ---------------------------------------------------------------------------
# PAR602 — module/class state mutation
# ---------------------------------------------------------------------------

PAR602_PRELUDE = (
    "import collections\n"
    "import numpy as np\n"
    "_G = [0]\n"
    "_CACHE = {}\n"
    "_ITEMS = []\n"
    "_RECENT = collections.deque()\n"
    "_RNG = np.random.default_rng(0)\n"
    "class Klass:\n"
    "    n = 0\n"
)

#: (id, function body source, flagged): each row pins today's verdict.
PAR602_CASES = [
    ("global-rebind", "def f():\n    global _G\n    _G = [1]\n", True),
    ("dict-subscript-store", "def f(k, v):\n    _CACHE[k] = v\n", True),
    ("dict-item-delete", "def f(k):\n    del _CACHE[k]\n", True),
    ("list-append", "def f(x):\n    _ITEMS.append(x)\n", True),
    ("dict-update", "def f(d):\n    _CACHE.update(d)\n", True),
    ("dict-setdefault", "def f(k):\n    _CACHE.setdefault(k, 0)\n", True),
    ("deque-appendleft", "def f(x):\n    _RECENT.appendleft(x)\n", True),
    (
        "cls-augassign",
        "class C:\n    n = 0\n    @classmethod\n    def f(cls):\n        cls.n += 1\n",
        True,
    ),
    ("class-attr-from-function", "def f():\n    Klass.n = 2\n", True),
    (
        "class-attr-from-method",
        "class C:\n    def f(self):\n        Klass.n = 3\n",
        True,
    ),
    ("tuple-target", "def f():\n    _G[0], y = 1, 2\n    return y\n", True),
    ("param-shadows-module-name", "def f(_ITEMS):\n    _ITEMS.append(1)\n", False),
    (
        "local-rebound-then-appended",
        "def f():\n    _ITEMS = []\n    _ITEMS.append(1)\n    return _ITEMS\n",
        False,
    ),
    (
        "closure-captured-append",
        "def outer():\n    seen = []\n    def inner(x):\n        seen.append(x)\n"
        "    return inner\n",
        False,
    ),
    (
        "writes-through-self",
        "class C:\n    def f(self, k):\n        self.n = 1\n        self.d[k] = 2\n"
        "        self.items.append(k)\n",
        False,
    ),
    ("module-generator-draw", "def f():\n    return _RNG.random()\n", False),
]


@pytest.mark.parametrize(
    "body, flagged",
    [case[1:] for case in PAR602_CASES],
    ids=[case[0] for case in PAR602_CASES],
)
def test_par602_verdict(body, flagged):
    findings = analyze_source(
        PAR602_PRELUDE + body,
        Path("pkg/core/state.py"),
        module="pkg.core.state",
        config=layered_config(),
    )
    assert ("PAR602" in codes(findings)) is flagged


def test_par602_flags_module_dict_mutation_without_global():
    src = (
        "_CACHE = {}\n"
        "def put(key, value):\n"
        "    _CACHE[key] = value\n"
    )
    findings = analyze_source(
        src,
        Path("pkg/core/cache.py"),
        module="pkg.core.cache",
        config=layered_config(),
    )
    assert "PAR602" in codes(findings)


def test_par602_allows_instance_state():
    src = (
        "class Cache:\n"
        "    def __init__(self):\n"
        "        self._store = {}\n"
        "    def put(self, key, value):\n"
        "        self._store[key] = value\n"
    )
    findings = analyze_source(
        src,
        Path("pkg/core/cache.py"),
        module="pkg.core.cache",
        config=layered_config(),
    )
    assert "PAR602" not in codes(findings)


# ---------------------------------------------------------------------------
# RES801 — resilience discipline for always-bounded packages
# ---------------------------------------------------------------------------

def res_config():
    return layered_config(
        layer_ranks={"data": 0, "core": 2, "serve": 3},
        resilience_packages=("pkg.serve",),
    )


def test_res801_flags_unbounded_stream_await():
    src = (
        "async def handle(reader):\n"
        "    line = await reader.readline()\n"
        "    return line\n"
    )
    findings = analyze_source(
        src, Path("pkg/serve/server.py"), module="pkg.serve.server",
        config=res_config(),
    )
    res = [f for f in findings if f.code == "RES801"]
    assert res and "readline" in res[0].message


def test_res801_wait_for_wrapped_await_is_compliant():
    src = (
        "import asyncio\n"
        "async def handle(reader, timeout):\n"
        "    return await asyncio.wait_for(reader.readline(), timeout)\n"
    )
    findings = analyze_source(
        src, Path("pkg/serve/server.py"), module="pkg.serve.server",
        config=res_config(),
    )
    assert "RES801" not in codes(findings)


def test_res801_flags_direct_file_io():
    source_open = (
        "def load(path):\n"
        "    with open(path) as handle:\n"
        "        return handle.read()\n"
    )
    findings = analyze_source(
        source_open, Path("pkg/serve/registry.py"), module="pkg.serve.registry",
        config=res_config(),
    )
    assert "RES801" in codes(findings)

    source_pathlib = (
        "def load(path):\n"
        "    return path.read_bytes()\n"
    )
    findings = analyze_source(
        source_pathlib, Path("pkg/serve/registry.py"),
        module="pkg.serve.registry", config=res_config(),
    )
    res = [f for f in findings if f.code == "RES801"]
    assert res and "read_bytes" in res[0].message


def test_res801_only_applies_to_scoped_packages():
    src = (
        "async def handle(reader):\n"
        "    return await reader.readline()\n"
    )
    findings = analyze_source(
        src, Path("pkg/core/pipe.py"), module="pkg.core.pipe",
        config=res_config(),
    )
    assert "RES801" not in codes(findings)
    # And with no resilience contract at all, nothing anywhere is flagged.
    findings = analyze_source(
        src, Path("pkg/serve/server.py"), module="pkg.serve.server",
        config=layered_config(layer_ranks={"data": 0, "serve": 3}),
    )
    assert "RES801" not in codes(findings)


def test_res801_suppression_comment_is_honored():
    src = (
        "async def pump(queue):\n"
        "    return await queue.drain()  # repolint: disable=RES801\n"
    )
    findings = analyze_source(
        src, Path("pkg/serve/server.py"), module="pkg.serve.server",
        config=res_config(),
    )
    assert "RES801" not in codes(findings)


def test_resilience_packages_parse_from_pyproject_section():
    text = (
        "[tool.repolint]\n"
        'package = "pkg"\n'
        "[tool.repolint.resilience]\n"
        'packages = ["pkg.serve", "pkg.cli"]\n'
    )
    config = RepolintConfig.from_mapping(parse_toml(text)["tool"]["repolint"])
    assert config.resilience_packages == ("pkg.serve", "pkg.cli")


def test_res801_clean_on_real_serve_layer():
    """The repo's own serve package satisfies its resilience contract."""
    program = real_program()
    assert program is not None
    from tools.repolint.rules.resilience import UnboundedServeIORule

    findings = list(UnboundedServeIORule().check_program(program))
    # The only raw await is the batcher drain in stop(), suppressed with a
    # rationale at the call site.
    assert [f for f in findings if "serve" in f.path] == findings
    assert len(findings) <= 1


# ---------------------------------------------------------------------------
# Call graph — edge cases
# ---------------------------------------------------------------------------

def test_functools_partial_creates_call_edge():
    src = (
        "import functools\n"
        "class C:\n"
        "    def _bump(self):\n"
        "        self.n += 1\n"
        "    def run(self):\n"
        "        hook = functools.partial(self._bump)\n"
        "        return hook\n"
    )
    program = ProgramContext.from_sources({"pkg.core.mod": src}, layered_config())
    edges = program.call_graph.edges_by_caller.get("pkg.core.mod.C.run", [])
    assert any(e.callee == "pkg.core.mod.C._bump" for e in edges)


# ---------------------------------------------------------------------------
# Config parsing (including the pre-3.11 TOML fallback subset)
# ---------------------------------------------------------------------------

def test_parse_toml_subset_roundtrip():
    text = (
        "[tool.repolint]\n"
        'package = "pkg"\n'
        "[tool.repolint.layers.ranks]\n"
        "data = 0\n"
        "core = 2\n"
        "[tool.repolint.calls.extra-edges]\n"
        '"pkg.core.run.Runner.run" = [\n'
        '    "pkg.core.run.Runner.hook",\n'
        "]\n"
    )
    data = parse_toml(text)
    assert _parse_toml_subset(text) == data
    section = data["tool"]["repolint"]
    config = RepolintConfig.from_mapping(section)
    assert config.package == "pkg"
    assert config.layer_ranks == {"data": 0, "core": 2}
    assert config.extra_edges == {
        "pkg.core.run.Runner.run": ("pkg.core.run.Runner.hook",)
    }


def test_rank_for_layer_treats_root_as_free():
    config = layered_config()
    assert config.rank_for_layer("<root>") is None
    assert config.rank_for_layer("util") == 0
    assert config.rank_for_layer("core") == 2
    assert config.rank_for_layer("unknown") is None


# ---------------------------------------------------------------------------
# SARIF rendering
# ---------------------------------------------------------------------------

def test_findings_to_sarif_shape():
    findings = analyze_source(
        "import random\nx = random.random()\n", Path("bad.py")
    )
    sarif = findings_to_sarif(findings, [("RNG102", "StdlibRandom", "no stdlib random")])
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "repolint"
    results = run["results"]
    assert results and results[0]["ruleId"] == "RNG102"
    assert results[0]["locations"][0]["physicalLocation"]["region"]["startLine"] == 2


# ---------------------------------------------------------------------------
# Call graph of the real repository
# ---------------------------------------------------------------------------

def real_program():
    return build_program(REPO_ROOT / "src")


def reachable(program: ProgramContext, entry: str) -> set[str]:
    """Every function the call graph reaches from ``entry``, itself included."""
    seen = {entry}
    queue = deque([entry])
    while queue:
        for edge in program.call_graph.edges_by_caller.get(queue.popleft(), []):
            if edge.callee not in seen:
                seen.add(edge.callee)
                queue.append(edge.callee)
    return seen


def test_rollout_inference_path_uses_pure_infer():
    """The rollout reaches Agent.act and the env step, and Agent.act reaches
    the pure ``infer`` stack, never a ``forward`` that caches activations on
    the layer objects."""
    program = real_program()
    assert program is not None
    rollout = reachable(program, "repro.core.feat.FEATTrainer.buffer_filling")
    assert "repro.rl.agent.DuelingDQNAgent.act" in rollout
    assert "repro.core.env.FeatureSelectionEnv.step" in rollout
    reached = reachable(program, "repro.rl.agent.DuelingDQNAgent.act")
    forwards = sorted(fn for fn in reached if fn.endswith(".forward"))
    assert forwards == [], f"act reaches forward(s): {forwards}"
    assert any(fn.endswith(".infer") for fn in reached)


def test_import_graph_has_no_cycles_in_real_repo():
    program = real_program()
    assert program is not None
    from tools.repolint.graphs.imports import find_cycles

    assert find_cycles(program.import_graph) == []


def test_every_configured_function_name_resolves():
    """A ``[tool.repolint]`` name that stops resolving fails silently: a
    stale extra-edges source or target drops its call edge, so the
    concurrency and exception passes lose that flow without a finding."""
    program = real_program()
    assert program is not None
    config = program.config
    named = {
        "extra-edges": set(config.extra_edges)
        | {target for targets in config.extra_edges.values() for target in targets},
        "allow-blocking": set(config.allow_blocking),
        "sync-points": set(config.concurrency_sync_points),
        "boundaries": set(config.exception_boundaries),
    }
    assert all(named.values()), named
    functions = program.index.functions
    stale = {
        section: sorted(names - functions.keys())
        for section, names in named.items()
        if names - functions.keys()
    }
    assert stale == {}


# ---------------------------------------------------------------------------
# CLI: formats, report subcommand, --changed from a subdirectory
# ---------------------------------------------------------------------------

def run_cli(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "tools.repolint", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env=env,
    )


def test_cli_format_json(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.random()\n")
    result = run_cli("--format", "json", str(bad))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload[0]["code"] == "RNG102"
    assert payload[0]["line"] == 2


def test_cli_format_sarif(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.random()\n")
    result = run_cli("--format", "sarif", str(bad))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["version"] == "2.1.0"
    assert payload["runs"][0]["results"][0]["ruleId"] == "RNG102"


def test_cli_output_writes_file(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.random()\n")
    out = tmp_path / "findings.sarif"
    result = run_cli("--format", "sarif", "--output", str(out), str(bad))
    assert result.returncode == 1
    assert json.loads(out.read_text())["version"] == "2.1.0"


def test_cli_report_subcommand(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("report", "--anchor", "src", "--out", str(out))
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["package"] == "repro"
    assert report["layers"]["ranks"]["core"] == 4
    assert report["concurrency_certificate"]["clean"]


def test_cli_changed_works_from_subdirectory(tmp_path):
    """Regression: ``--changed`` used to resolve ``git status`` paths against
    the cwd, so running from a subdirectory produced wrong paths.  Paths are
    now anchored at ``git rev-parse --show-toplevel``."""
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    sub = tmp_path / "sub"
    sub.mkdir()
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    subprocess.run(["git", "-C", str(tmp_path), "add", "-A"], check=True)
    subprocess.run(
        ["git", "-C", str(tmp_path), "-c", "user.email=t@t", "-c", "user.name=t",
         "commit", "-qm", "seed"],
        check=True,
    )
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nrandom.seed(0)\n")
    result = run_cli("--changed", cwd=sub)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "bad.py" in result.stdout
    # No verdict is persisted between runs.
    assert not list(tmp_path.rglob(".repolint-cache.json"))
