"""repro-lint: determinism, contract and whole-program static analysis.

AST-based, project-specific rules over the PA-FEAT reproduction.  Per-file
rules check one parsed module at a time; whole-program rules
(ARCH/PAR/RES/ASYNC/EXC/OBS) parse the entire ``src/repro`` package, build
import and call graphs and check them against the contracts declared under
``[tool.repolint]`` in ``pyproject.toml``:

=======  ==========================  ==================================================
Code     Name                        Catches
=======  ==========================  ==================================================
RNG101   global-numpy-random         legacy ``np.random.*`` global-state draws
RNG102   stdlib-random               stdlib ``random`` module global-state draws
RNG103   inline-seed-sequence        per-call ``SeedSequence`` outside constructors
RNG104   wall-clock                  ``time.time()``/``datetime.now()`` in core/rl/nn
CKPT201  checkpoint-completeness     run-state missing from capture/restore pairs
NUM301   unguarded-exp-log           raw ``np.exp``/``np.log`` on unclamped inputs
NUM302   unguarded-sum-division      normalisation by a possibly-zero ``.sum()``
API401   mutable-default-arg         shared mutable default arguments
API402   all-drift                   ``__all__`` out of sync with bound names
ARCH501  layer-upward-import         imports against the declared layer order
ARCH502  import-cycle                import-time cycles between package modules
ARCH503  undeclared-layer            subpackages missing from the layer contract
PAR602   module-state-mutation       functions mutating module-level state
RES801   unbounded-serve-io          unbounded socket/file I/O in resilience-
                                     scoped packages
ASYNC901 blocking-call-on-event-loop blocking calls reachable from event-loop
                                     coroutines
ASYNC902 unlocked-cross-context-state cross-context attribute access with an
                                     empty lockset
ASYNC903 await-under-sync-lock       await inside a synchronous-lock section
ASYNC904 toctou-across-await         check-then-act races across awaits
ASYNC905 orphaned-task-or-thread     spawned task/thread handles discarded
EXC1001  swallowed-exception         broad except with no re-raise/log/metric
EXC1002  boundary-escape             unsanctioned types escaping a declared
                                     error boundary
EXC1003  dead-handler                except clauses the guarded body cannot raise
EXC1004  untyped-raise               raise of bare Exception/RuntimeError outside
                                     the typed taxonomy
EXC1005  context-loss                new exception raised in an except block
                                     without ``from``
OBS1101  bare-print                  bare ``print(...)`` outside the sanctioned
                                     CLI boundary
OBS1102  direct-clock                monotonic-clock reads outside the obs
                                     clock boundary
LINT001  unused-suppression          ``disable=`` pragmas that no longer
                                     silence any finding
=======  ==========================  ==================================================

Run ``python -m tools.repolint src/`` (or ``--changed`` for a fast path over
the git-modified set), pick an output with ``--format={text,json,sarif}``,
and dump the layer graph, call graph and certificates with
``python -m tools.repolint report``.
Suppress a single line with ``# repolint: disable=CODE`` and add rules in
``tools/repolint/rules/``.
"""

from tools.repolint.config import RepolintConfig, load_config
from tools.repolint.engine import (
    Finding,
    ProgramContext,
    ProgramFile,
    ProgramRule,
    Rule,
    RuleContext,
    analyze_file,
    analyze_paths,
    analyze_source,
    build_program,
    iter_python_files,
    module_for_path,
    suppressed_codes_by_line,
)
from tools.repolint.rules import RULE_CLASSES, all_rules, rule_catalog

__all__ = [
    "Finding",
    "ProgramContext",
    "ProgramFile",
    "ProgramRule",
    "RULE_CLASSES",
    "RepolintConfig",
    "Rule",
    "RuleContext",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "build_program",
    "iter_python_files",
    "load_config",
    "module_for_path",
    "rule_catalog",
    "suppressed_codes_by_line",
]
