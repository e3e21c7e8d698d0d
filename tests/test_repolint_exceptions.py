"""Exception-flow analysis: escape sets, handler semantics, EXC10xx rules.

Escape-set mechanics are tested directly against
:class:`ProgramContext.from_sources` (hermetic multi-module programs, no
filesystem); the five EXC rules through ``analyze_source(..., config=...)``
like every other program rule; and the suite ends with the repo-level gate:
the real package's exception certificate must be clean.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from tools.repolint import RepolintConfig, analyze_source, build_program
from tools.repolint.engine import ProgramContext
from tools.repolint.graphs.exceptions import UNKNOWN
from tools.repolint.report import build_report

REPO_ROOT = Path(__file__).resolve().parent.parent

ERRORS = (
    "class Base(Exception):\n"
    "    pass\n"
    "\n"
    "\n"
    "class Child(Base):\n"
    "    pass\n"
)


def codes(findings) -> list[str]:
    return [f.code for f in findings]


def exc_config(**overrides) -> RepolintConfig:
    defaults = dict(package="pkg", exception_packages=("pkg",))
    defaults.update(overrides)
    return RepolintConfig(**defaults)


def escapes_of(sources: dict[str, str], qualname: str, **config_overrides):
    program = ProgramContext.from_sources(sources, exc_config(**config_overrides))
    return program.exceptions.escape_set(qualname)


def run_rules(source: str, **config_overrides) -> list:
    extra = config_overrides.pop("extra_sources", {})
    return analyze_source(
        source,
        Path("pkg/mod.py"),
        module="pkg.mod",
        config=exc_config(**config_overrides),
        extra_sources=extra,
    )


# ---------------------------------------------------------------------------
# Escape-set inference
# ---------------------------------------------------------------------------

def test_escape_set_seeds_from_raise_statements():
    sources = {"pkg.mod": "def f():\n    raise ValueError('bad')\n"}
    assert escapes_of(sources, "pkg.mod.f") == {"ValueError"}


def test_escapes_propagate_through_callees():
    sources = {
        "pkg.mod": (
            "def g():\n"
            "    raise KeyError('k')\n"
            "\n"
            "\n"
            "def f():\n"
            "    return g()\n"
        )
    }
    assert "KeyError" in escapes_of(sources, "pkg.mod.f")


def test_except_narrows_callee_escape_by_superclass():
    sources = {
        "pkg.mod": (
            "def g():\n"
            "    raise KeyError('k')\n"
            "\n"
            "\n"
            "def f():\n"
            "    try:\n"
            "        return g()\n"
            "    except LookupError:\n"
            "        return None\n"
        )
    }
    assert "KeyError" not in escapes_of(sources, "pkg.mod.f")


def test_except_subclass_does_not_catch_superclass_raise():
    sources = {
        "pkg.mod": (
            "def f():\n"
            "    try:\n"
            "        raise LookupError('l')\n"
            "    except KeyError:\n"
            "        return None\n"
        )
    }
    assert "LookupError" in escapes_of(sources, "pkg.mod.f")


def test_reraising_handler_keeps_the_type_escaping():
    sources = {
        "pkg.mod": (
            "def f():\n"
            "    try:\n"
            "        raise ValueError('v')\n"
            "    except ValueError:\n"
            "        raise\n"
        )
    }
    assert "ValueError" in escapes_of(sources, "pkg.mod.f")


def test_swallowing_handler_removes_the_type():
    sources = {
        "pkg.mod": (
            "def f():\n"
            "    try:\n"
            "        raise ValueError('v')\n"
            "    except ValueError:\n"
            "        return None\n"
        )
    }
    assert escapes_of(sources, "pkg.mod.f") == frozenset()


def test_handler_body_raise_is_not_caught_by_sibling_clauses():
    sources = {
        "pkg.mod": (
            "def f():\n"
            "    try:\n"
            "        raise ValueError('v')\n"
            "    except ValueError as exc:\n"
            "        raise KeyError('k') from exc\n"
            "    except KeyError:\n"
            "        return None\n"
        )
    }
    assert "KeyError" in escapes_of(sources, "pkg.mod.f")


def test_else_body_is_not_guarded_by_the_handlers():
    sources = {
        "pkg.mod": (
            "def f():\n"
            "    try:\n"
            "        x = 1\n"
            "    except ValueError:\n"
            "        return None\n"
            "    else:\n"
            "        raise ValueError('late')\n"
        )
    }
    assert "ValueError" in escapes_of(sources, "pkg.mod.f")


def test_pure_try_finally_does_not_narrow():
    sources = {
        "pkg.mod": (
            "def f():\n"
            "    try:\n"
            "        raise ValueError('v')\n"
            "    finally:\n"
            "        cleanup = True\n"
        )
    }
    assert "ValueError" in escapes_of(sources, "pkg.mod.f")


def test_reraise_survives_an_enclosing_finally():
    sources = {
        "pkg.mod": (
            "def f():\n"
            "    try:\n"
            "        try:\n"
            "            raise ValueError('v')\n"
            "        except ValueError:\n"
            "            raise\n"
            "    finally:\n"
            "        done = True\n"
        )
    }
    assert "ValueError" in escapes_of(sources, "pkg.mod.f")


def test_recursive_call_cycle_converges():
    sources = {
        "pkg.mod": (
            "def f(n):\n"
            "    if n <= 0:\n"
            "        raise ValueError('done')\n"
            "    return g(n - 1)\n"
            "\n"
            "\n"
            "def g(n):\n"
            "    return f(n)\n"
        )
    }
    program = ProgramContext.from_sources(sources, exc_config())
    assert "ValueError" in program.exceptions.escape_set("pkg.mod.f")
    assert "ValueError" in program.exceptions.escape_set("pkg.mod.g")


def test_tuple_except_clause_catches_every_member():
    sources = {
        "pkg.mod": (
            "def f(flag):\n"
            "    try:\n"
            "        if flag:\n"
            "            raise KeyError('k')\n"
            "        raise ValueError('v')\n"
            "    except (KeyError, ValueError):\n"
            "        return None\n"
        )
    }
    assert escapes_of(sources, "pkg.mod.f") == frozenset()


def test_module_level_tuple_constant_expands_in_except():
    sources = {
        "pkg.mod": (
            "_RETRYABLE = (KeyError, ValueError)\n"
            "\n"
            "\n"
            "def f():\n"
            "    try:\n"
            "        raise KeyError('k')\n"
            "    except _RETRYABLE:\n"
            "        return None\n"
        )
    }
    assert escapes_of(sources, "pkg.mod.f") == frozenset()


def test_cross_module_subclass_is_caught_by_imported_base():
    sources = {
        "pkg.errors": ERRORS,
        "pkg.mod": (
            "from pkg.errors import Base, Child\n"
            "\n"
            "\n"
            "def f():\n"
            "    try:\n"
            "        raise Child('c')\n"
            "    except Base:\n"
            "        return None\n"
        ),
    }
    assert escapes_of(sources, "pkg.mod.f") == frozenset()


def test_reexport_chain_canonicalizes_to_the_defining_class():
    sources = {
        "pkg.errors": ERRORS,
        "pkg.shim": "from pkg.errors import Base as Base\n",
        "pkg.mod": (
            "from pkg.shim import Base\n"
            "\n"
            "\n"
            "def f():\n"
            "    raise Base('b')\n"
        ),
    }
    assert escapes_of(sources, "pkg.mod.f") == {"pkg.errors.Base"}


def test_factory_return_annotation_types_the_raise():
    sources = {
        "pkg.errors": ERRORS,
        "pkg.mod": (
            "from pkg.errors import Child\n"
            "\n"
            "\n"
            "def make(detail) -> Child:\n"
            "    return Child(detail)\n"
            "\n"
            "\n"
            "def f():\n"
            "    raise make('boom')\n"
        ),
    }
    assert escapes_of(sources, "pkg.mod.f") == {"pkg.errors.Child"}


def test_type_annotated_parameter_types_the_raise():
    sources = {
        "pkg.errors": ERRORS,
        "pkg.mod": (
            "from pkg.errors import Base\n"
            "\n"
            "\n"
            "def check(error: type[Base]):\n"
            "    raise error('boom')\n"
            "\n"
            "\n"
            "def untyped(error):\n"
            "    raise error('boom')\n"
        ),
    }
    assert escapes_of(sources, "pkg.mod.check") == {"pkg.errors.Base"}
    assert escapes_of(sources, "pkg.mod.untyped") == {UNKNOWN}


def test_bound_variable_reraise_carries_the_caught_types():
    sources = {
        "pkg.mod": (
            "def f():\n"
            "    try:\n"
            "        raise ValueError('v')\n"
            "    except ValueError as exc:\n"
            "        cleanup = True\n"
            "        raise exc\n"
        )
    }
    assert "ValueError" in escapes_of(sources, "pkg.mod.f")


def test_unknown_raise_is_only_caught_by_broad_handlers():
    narrow = {
        "pkg.mod": (
            "def f(errs):\n"
            "    try:\n"
            "        raise errs[0]\n"
            "    except ValueError:\n"
            "        return None\n"
        )
    }
    assert UNKNOWN in escapes_of(narrow, "pkg.mod.f")
    broad = {
        "pkg.mod": (
            "def f(errs):\n"
            "    try:\n"
            "        raise errs[0]\n"
            "    except Exception:\n"
            "        return None\n"
        )
    }
    assert escapes_of(broad, "pkg.mod.f") == frozenset()


def test_awaiting_a_foreign_future_contributes_unknown():
    sources = {
        "pkg.mod": (
            "async def f(fut):\n"
            "    return await fut\n"
        )
    }
    assert UNKNOWN in escapes_of(sources, "pkg.mod.f")


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="except* requires Python 3.11"
)
def test_except_star_clauses_narrow_like_plain_except():
    sources = {
        "pkg.mod": (
            "def f():\n"
            "    try:\n"
            "        raise ValueError('v')\n"
            "    except* ValueError:\n"
            "        return None\n"
        )
    }
    assert escapes_of(sources, "pkg.mod.f") == frozenset()


# ---------------------------------------------------------------------------
# EXC1001 — swallowed exceptions
# ---------------------------------------------------------------------------

def test_exc1001_flags_silent_broad_except():
    findings = run_rules(
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception:\n"
        "        pass\n"
    )
    assert "EXC1001" in codes(findings)


def test_exc1001_spares_logging_reraising_and_replacing_handlers():
    logging_handler = run_rules(
        "import logging\n"
        "logger = logging.getLogger(__name__)\n"
        "\n"
        "\n"
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception:\n"
        "        logger.exception('boom')\n"
    )
    reraising = run_rules(
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception:\n"
        "        raise\n"
    )
    replacing = run_rules(
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception as exc:\n"
        "        raise ValueError('wrapped') from exc\n"
    )
    for findings in (logging_handler, reraising, replacing):
        assert "EXC1001" not in codes(findings)


def test_exc1001_ignores_narrow_handlers():
    findings = run_rules(
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except ValueError:\n"
        "        pass\n"
    )
    assert "EXC1001" not in codes(findings)


def test_exc1001_honours_configured_observer_calls():
    source = (
        "def f(metrics):\n"
        "    try:\n"
        "        work()\n"
        "    except Exception as exc:\n"
        "        metrics.record_failure(exc)\n"
    )
    silent = run_rules(source)
    assert "EXC1001" in codes(silent)
    observed = run_rules(
        source, exception_log_functions=("record_failure",)
    )
    assert "EXC1001" not in codes(observed)


# ---------------------------------------------------------------------------
# EXC1002 — boundary escapes
# ---------------------------------------------------------------------------

def test_exc1002_flags_unsanctioned_escape():
    findings = run_rules(
        "def helper():\n"
        "    raise KeyError('k')\n"
        "\n"
        "\n"
        "def entry():\n"
        "    return helper()\n",
        exception_boundaries={"pkg.mod.entry": ("ValueError",)},
    )
    exc1002 = [f for f in findings if f.code == "EXC1002"]
    assert exc1002 and "KeyError" in exc1002[0].message


def test_exc1002_sanctions_cover_subclasses():
    findings = run_rules(
        "from pkg.errors import Child\n"
        "\n"
        "\n"
        "def entry():\n"
        "    raise Child('c')\n",
        extra_sources={"pkg.errors": ERRORS},
        exception_boundaries={"pkg.mod.entry": ("pkg.errors.Base",)},
    )
    assert "EXC1002" not in codes(findings)


def test_exc1002_exempts_non_exception_control_flow():
    findings = run_rules(
        "def entry():\n"
        "    raise SystemExit(0)\n",
        exception_boundaries={"pkg.mod.entry": ()},
    )
    assert "EXC1002" not in codes(findings)


# ---------------------------------------------------------------------------
# EXC1003 — dead handlers
# ---------------------------------------------------------------------------

def test_exc1003_flags_handler_the_body_cannot_raise():
    findings = run_rules(
        "from pkg.errors import Child\n"
        "\n"
        "\n"
        "def safe():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def f():\n"
        "    try:\n"
        "        return safe()\n"
        "    except Child:\n"
        "        return None\n",
        extra_sources={"pkg.errors": ERRORS},
    )
    assert "EXC1003" in codes(findings)


def test_exc1003_spares_handlers_kept_alive_by_callee_escapes():
    findings = run_rules(
        "from pkg.errors import Child\n"
        "\n"
        "\n"
        "def risky():\n"
        "    raise Child('c')\n"
        "\n"
        "\n"
        "def f():\n"
        "    try:\n"
        "        return risky()\n"
        "    except Child:\n"
        "        return None\n",
        extra_sources={"pkg.errors": ERRORS},
    )
    assert "EXC1003" not in codes(findings)


def test_exc1003_never_claims_builtin_clauses_dead():
    # Any library call may raise any builtin; only program-defined classes
    # are provable.
    findings = run_rules(
        "def f():\n"
        "    try:\n"
        "        return compute()\n"
        "    except KeyError:\n"
        "        return None\n"
    )
    assert "EXC1003" not in codes(findings)


def test_exc1003_skips_regions_with_untypeable_raises():
    findings = run_rules(
        "from pkg.errors import Child\n"
        "\n"
        "\n"
        "def f(errs):\n"
        "    try:\n"
        "        raise errs[0]\n"
        "    except Child:\n"
        "        return None\n",
        extra_sources={"pkg.errors": ERRORS},
    )
    assert "EXC1003" not in codes(findings)


# ---------------------------------------------------------------------------
# EXC1004 — untyped raises
# ---------------------------------------------------------------------------

def test_exc1004_flags_bare_runtime_error_and_names_the_taxonomy():
    findings = run_rules(
        "def f():\n"
        "    raise RuntimeError('oops')\n",
        exception_taxonomy_root="pkg.errors.Base",
        extra_sources={"pkg.errors": ERRORS},
    )
    exc1004 = [f for f in findings if f.code == "EXC1004"]
    assert exc1004
    assert "pkg.errors.Base" in exc1004[0].hint


def test_exc1004_spares_typed_raises_and_out_of_scope_modules():
    typed = run_rules(
        "from pkg.errors import Child\n"
        "\n"
        "\n"
        "def f():\n"
        "    raise Child('c')\n",
        extra_sources={"pkg.errors": ERRORS},
    )
    assert "EXC1004" not in codes(typed)
    out_of_scope = run_rules(
        "def f():\n"
        "    raise RuntimeError('oops')\n",
        exception_packages=("pkg.core",),
    )
    assert "EXC1004" not in codes(out_of_scope)


# ---------------------------------------------------------------------------
# EXC1005 — context loss
# ---------------------------------------------------------------------------

def test_exc1005_flags_from_less_raise_in_handler():
    findings = run_rules(
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except KeyError:\n"
        "        raise ValueError('wrapped')\n"
    )
    assert "EXC1005" in codes(findings)


def test_exc1005_accepts_from_exc_and_from_none():
    chained = run_rules(
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except KeyError as exc:\n"
        "        raise ValueError('wrapped') from exc\n"
    )
    suppressed = run_rules(
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except KeyError:\n"
        "        raise ValueError('wrapped') from None\n"
    )
    for findings in (chained, suppressed):
        assert "EXC1005" not in codes(findings)


def test_exc1005_allows_reraising_the_bound_variable():
    findings = run_rules(
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except KeyError as exc:\n"
        "        cleanup = True\n"
        "        raise exc\n"
    )
    assert "EXC1005" not in codes(findings)


# ---------------------------------------------------------------------------
# The real repository's certificate
# ---------------------------------------------------------------------------

def test_real_repo_exception_certificate_is_clean():
    program = build_program(REPO_ROOT / "src")
    assert program is not None
    certificate = build_report(program)["exception_certificate"]
    assert certificate["clean"] is True
    assert certificate["findings"] == []
    # Every configured boundary is mapped, and every Exception-family
    # escape it leaks is covered by its sanction list.
    boundaries = certificate["boundaries"]
    assert set(boundaries) == set(program.config.exception_boundaries)
    for entry in boundaries.values():
        assert entry["declared"] is True
        for escape in entry["escapes"]:
            if escape["failure"]:
                assert escape["sanctioned"]
    # The taxonomy gate: no raise in the package is untypeable.
    assert certificate["taxonomy"]["raises"]["unknown"] == 0
