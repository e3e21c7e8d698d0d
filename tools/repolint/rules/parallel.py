"""PAR602: module-level state written from a function.

Module-level state is process-global: every caller in the process shares
it, so a function that writes it makes its own results, and everyone
else's, depend on the order in which calls happen.  That breaks the
determinism contract (a run is a function of config and seed) the moment
two callers interleave.  The check is reachability-independent: a write
from *any* function in the package is reported, and each sanctioned one
carries a pragma at its site saying why the state must be global.
"""

from __future__ import annotations

from typing import Iterator

from tools.repolint.effects import module_state_writes
from tools.repolint.engine import Finding, ProgramContext, ProgramRule


class ModuleStateMutationRule(ProgramRule):
    """PAR602: function mutates module-level state."""

    code = "PAR602"
    name = "module-state-mutation"
    hint = (
        "move the state onto an instance that callers construct and own; "
        "process-global state makes results depend on call order"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        index = program.index
        for qualname, function in sorted(index.functions.items()):
            for line, detail in module_state_writes(index, function):
                yield self.program_finding(
                    program,
                    function.module,
                    line,
                    f"'{qualname}' mutates module-level state: {detail}",
                )
