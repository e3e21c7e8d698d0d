"""Rule registry: every repolint rule, instantiable in catalog order."""

from __future__ import annotations

from tools.repolint.engine import ProgramRule, Rule
from tools.repolint.rules.api import AllDriftRule, MutableDefaultRule
from tools.repolint.rules.arch import (
    ImportCycleRule,
    LayerContractRule,
    UndeclaredLayerRule,
)
from tools.repolint.rules.checkpoint import CheckpointCompletenessRule
from tools.repolint.rules.concurrency import (
    AwaitUnderLockRule,
    BlockingInLoopRule,
    OrphanSpawnRule,
    ToctouAcrossAwaitRule,
    UnlockedSharedStateRule,
)
from tools.repolint.rules.exceptions import (
    BoundaryEscapeRule,
    ContextLossRule,
    DeadHandlerRule,
    SwallowedExceptionRule,
    UntypedRaiseRule,
)
from tools.repolint.rules.lint import UnusedSuppressionRule
from tools.repolint.rules.numeric import UnguardedExpLogRule, UnguardedSumDivisionRule
from tools.repolint.rules.obs import BarePrintRule, DirectClockRule
from tools.repolint.rules.parallel import ModuleStateMutationRule
from tools.repolint.rules.resilience import UnboundedServeIORule
from tools.repolint.rules.rng import (
    GlobalNumpyRandomRule,
    InlineSeedSequenceRule,
    StdlibRandomRule,
    WallClockRule,
)

RULE_CLASSES: list[type[Rule]] = [
    GlobalNumpyRandomRule,
    StdlibRandomRule,
    InlineSeedSequenceRule,
    WallClockRule,
    CheckpointCompletenessRule,
    UnguardedExpLogRule,
    UnguardedSumDivisionRule,
    MutableDefaultRule,
    AllDriftRule,
    LayerContractRule,
    ImportCycleRule,
    UndeclaredLayerRule,
    ModuleStateMutationRule,
    UnboundedServeIORule,
    BlockingInLoopRule,
    UnlockedSharedStateRule,
    AwaitUnderLockRule,
    ToctouAcrossAwaitRule,
    OrphanSpawnRule,
    SwallowedExceptionRule,
    BoundaryEscapeRule,
    DeadHandlerRule,
    UntypedRaiseRule,
    ContextLossRule,
    BarePrintRule,
    DirectClockRule,
    UnusedSuppressionRule,
]


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in catalog order."""
    return [rule_class() for rule_class in RULE_CLASSES]


def rule_catalog() -> list[tuple[str, str, str]]:
    """(code, name, one-line summary) for every rule — feeds --list-rules."""
    catalog = []
    for rule_class in RULE_CLASSES:
        doc = (rule_class.__doc__ or "").strip().splitlines()[0]
        summary = doc.split(": ", 1)[1] if ": " in doc else doc
        catalog.append((rule_class.code, rule_class.name, summary))
    return catalog


__all__ = [
    "AllDriftRule",
    "AwaitUnderLockRule",
    "BarePrintRule",
    "BlockingInLoopRule",
    "BoundaryEscapeRule",
    "CheckpointCompletenessRule",
    "ContextLossRule",
    "DeadHandlerRule",
    "DirectClockRule",
    "GlobalNumpyRandomRule",
    "ImportCycleRule",
    "InlineSeedSequenceRule",
    "LayerContractRule",
    "ModuleStateMutationRule",
    "MutableDefaultRule",
    "OrphanSpawnRule",
    "ProgramRule",
    "RULE_CLASSES",
    "Rule",
    "StdlibRandomRule",
    "SwallowedExceptionRule",
    "ToctouAcrossAwaitRule",
    "UnlockedSharedStateRule",
    "UnboundedServeIORule",
    "UndeclaredLayerRule",
    "UnguardedExpLogRule",
    "UnguardedSumDivisionRule",
    "UntypedRaiseRule",
    "UnusedSuppressionRule",
    "WallClockRule",
    "all_rules",
    "rule_catalog",
]
