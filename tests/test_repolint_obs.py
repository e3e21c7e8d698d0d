"""OBS11xx rules: the bare-print ban and the monotonic-clock boundary.

Hermetic programs via :class:`ProgramContext.from_sources`, plus two
repo-level checks that the real tree satisfies both contracts with the
real pyproject config.
"""

from __future__ import annotations

from pathlib import Path

from tools.repolint.config import RepolintConfig, load_config
from tools.repolint.engine import ProgramContext
from tools.repolint.rules.obs import BarePrintRule, DirectClockRule

REPO_ROOT = Path(__file__).resolve().parent.parent


def obs_config(**overrides) -> RepolintConfig:
    defaults = dict(
        package="pkg",
        obs_allow_print=frozenset({"pkg.cli"}),
        clock_packages=("pkg.core",),
        clock_boundary="pkg.obs.clock",
    )
    defaults.update(overrides)
    return RepolintConfig(**defaults)


def run_rule(rule, sources, config=None):
    program = ProgramContext.from_sources(sources, config or obs_config())
    return list(rule.check_program(program))


# ---------------------------------------------------------------------------
# OBS1101 — bare print
# ---------------------------------------------------------------------------

class TestBarePrint:
    def test_flags_print_in_package_module(self):
        findings = run_rule(
            BarePrintRule(),
            {"pkg.core.engine": "def f():\n    print('debug')\n"},
        )
        assert [f.code for f in findings] == ["OBS1101"]
        assert findings[0].line == 2

    def test_allowlisted_module_passes(self):
        findings = run_rule(
            BarePrintRule(), {"pkg.cli": "print('user-facing')\n"}
        )
        assert findings == []

    def test_allowlist_covers_submodules(self):
        findings = run_rule(
            BarePrintRule(),
            {"pkg.cli.render": "print('table')\n"},
            obs_config(obs_allow_print=frozenset({"pkg.cli"})),
        )
        assert findings == []

    def test_main_function_exempt(self):
        findings = run_rule(
            BarePrintRule(),
            {"pkg.tool": "def main():\n    print('entry point output')\n"},
        )
        assert findings == []

    def test_dunder_main_guard_exempt(self):
        source = (
            "def work():\n"
            "    return 1\n"
            "if __name__ == '__main__':\n"
            "    print(work())\n"
        )
        assert run_rule(BarePrintRule(), {"pkg.script": source}) == []

    def test_modules_outside_package_ignored(self):
        findings = run_rule(
            BarePrintRule(), {"other.thing": "print('not ours')\n"}
        )
        assert findings == []

    def test_rule_inert_without_allowlist(self):
        findings = run_rule(
            BarePrintRule(),
            {"pkg.core.engine": "print('x')\n"},
            obs_config(obs_allow_print=frozenset()),
        )
        assert findings == []


# ---------------------------------------------------------------------------
# OBS1102 — clock boundary
# ---------------------------------------------------------------------------

class TestDirectClock:
    def test_flags_time_monotonic_in_scoped_package(self):
        findings = run_rule(
            DirectClockRule(),
            {"pkg.core.loop": "import time\nNOW = time.monotonic()\n"},
        )
        assert [f.code for f in findings] == ["OBS1102"]
        assert "time.monotonic" in findings[0].message
        assert "pkg.obs.clock" in findings[0].message

    def test_resolves_from_import_aliases(self):
        source = "from time import perf_counter as pc\nT = pc()\n"
        findings = run_rule(DirectClockRule(), {"pkg.core.bench": source})
        assert [f.code for f in findings] == ["OBS1102"]

    def test_boundary_module_exempt(self):
        findings = run_rule(
            DirectClockRule(),
            {"pkg.obs.clock": "import time\ndef monotonic():\n    return time.monotonic()\n"},
            obs_config(clock_packages=("pkg.obs", "pkg.core")),
        )
        assert findings == []

    def test_unscoped_package_ignored(self):
        findings = run_rule(
            DirectClockRule(),
            {"pkg.cli": "import time\nT = time.monotonic()\n"},
        )
        assert findings == []

    def test_wall_clock_not_this_rules_business(self):
        # time.time() is RNG104's jurisdiction; OBS1102 stays silent.
        findings = run_rule(
            DirectClockRule(),
            {"pkg.core.loop": "import time\nT = time.time()\n"},
        )
        assert findings == []

    def test_rule_inert_without_boundary(self):
        findings = run_rule(
            DirectClockRule(),
            {"pkg.core.loop": "import time\nT = time.monotonic()\n"},
            obs_config(clock_boundary=""),
        )
        assert findings == []


# ---------------------------------------------------------------------------
# The real repository honours both contracts
# ---------------------------------------------------------------------------

def real_program() -> ProgramContext:
    config = load_config(REPO_ROOT)
    return ProgramContext.from_package(REPO_ROOT / "src" / "repro", config)


def test_repo_config_declares_the_obs_contract():
    config = load_config(REPO_ROOT)
    assert "repro.cli" in config.obs_allow_print
    assert config.clock_boundary == "repro.obs.clock"
    assert config.clock_packages == ("repro",)


def test_repo_is_clean_under_obs_rules():
    program = real_program()
    assert list(BarePrintRule().check_program(program)) == []
    assert list(DirectClockRule().check_program(program)) == []
