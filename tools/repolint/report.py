"""``python -m tools.repolint report``: the whole-program analysis artifact.

One JSON document bundling what the ARCH/ASYNC/EXC passes computed:
the import-layer graph with ranks, detected cycles, the call graph, the
concurrency certificate — per execution context (event loop / thread /
executor), every function running there with its blocking operations,
lock regions, spawns and the cross-context shared-state table, plus the
surviving ASYNC9xx findings and a ``clean`` verdict — and the exception
certificate, with the same shape for the EXC10xx passes.  CI archives this
artifact so architecture drift is diffable across commits.
"""

from __future__ import annotations

from typing import Any

from tools.repolint.engine import Finding, ProgramContext
from tools.repolint.graphs.imports import find_cycles


def _finding_payload(finding: Finding) -> dict[str, Any]:
    return {
        "path": finding.path,
        "line": finding.line,
        "code": finding.code,
        "message": finding.message,
    }


def _concurrency_certificate(program: ProgramContext) -> dict[str, Any]:
    """The ASYNC9xx verdict as a diffable artifact.

    Covers every function the context analysis placed in an execution
    context (restricted to ``[tool.repolint.concurrency] packages`` when
    configured): which contexts it runs in, its loop-context provenance,
    the blocking operations / lock regions / spawns observed in its body,
    the cross-context shared-state table with lockset intersections, the
    configured allowlists, and the findings that survive them.  ``clean``
    is True exactly when no ASYNC9xx finding survives — the condition CI
    gates on.
    """
    from tools.repolint.rules.concurrency import (
        AwaitUnderLockRule,
        BlockingInLoopRule,
        OrphanSpawnRule,
        ToctouAcrossAwaitRule,
        UnlockedSharedStateRule,
    )

    config = program.config
    concurrency = program.concurrency
    packages = tuple(sorted(config.concurrency_packages))

    def in_scope(qualname: str) -> bool:
        if not packages:
            return True
        return any(
            qualname == package or qualname.startswith(package + ".")
            for package in packages
        )

    functions: dict[str, Any] = {}
    for qualname in sorted(concurrency.functions):
        if not in_scope(qualname):
            continue
        info = concurrency.functions[qualname]
        contexts = concurrency.context_label(qualname)
        if not contexts and not info.is_async:
            continue  # plain main-thread code cannot race with itself
        functions[qualname] = {
            "async": info.is_async,
            "contexts": contexts,
            "loop_root": concurrency.loop_root.get(qualname),
            "allow_blocking": qualname in config.allow_blocking,
            "sync_point": qualname in config.concurrency_sync_points,
            "awaits": len(info.await_lines),
            "blocking": [
                {"detail": op.detail, "line": op.line} for op in info.blocking
            ],
            "lock_regions": [
                {
                    "lock": region.lock,
                    "kind": region.kind,
                    "line": region.line,
                    "awaits_inside": list(region.await_lines),
                }
                for region in info.lock_regions
            ],
            "spawns": [
                {
                    "kind": spawn.kind,
                    "targets": list(spawn.targets),
                    "line": spawn.line,
                    "retained": spawn.retained,
                }
                for spawn in info.spawns
            ],
        }

    shared_state = []
    for (cls, attr), accesses in sorted(concurrency.shared_state.items()):
        if not in_scope(cls):
            continue
        contexts_seen: set[str] = set()
        for access in accesses:
            contexts_seen.update(concurrency.contexts.get(access.function, set()))
        common = set(accesses[0].locks)
        for access in accesses[1:]:
            common.intersection_update(access.locks)
        shared_state.append(
            {
                "state": f"{cls}.{attr}",
                "contexts": sorted(contexts_seen),
                "writes": sum(1 for access in accesses if access.write),
                "reads": sum(1 for access in accesses if not access.write),
                "common_locks": sorted(common),
                "sync_point": f"{cls}.{attr}"
                in config.concurrency_sync_points,
                "accessors": sorted(
                    {access.function for access in accesses}
                ),
            }
        )

    findings = []
    for rule_cls in (
        BlockingInLoopRule,
        UnlockedSharedStateRule,
        AwaitUnderLockRule,
        ToctouAcrossAwaitRule,
        OrphanSpawnRule,
    ):
        findings.extend(
            _finding_payload(finding)
            for finding in rule_cls().check_program(program)
        )

    return {
        "packages": list(packages),
        "allow_blocking": sorted(config.allow_blocking),
        "sync_points": sorted(config.concurrency_sync_points),
        "functions": functions,
        "shared_state": shared_state,
        "findings": findings,
        "clean": not findings,
    }


def _exception_certificate(program: ProgramContext) -> dict[str, Any]:
    """The EXC10xx verdict as a diffable artifact.

    Per declared boundary: whether it exists, its sanctioned escapes, and
    the full inferred escape set with each type's sanction status (so a
    reviewer sees what a boundary *actually* leaks, not just violations).
    Plus every broad handler in the scoped packages with its disposition
    (re-raises / replaces / observes / swallows), taxonomy-adoption counts
    over all raise sites, and the findings that survive the configured
    sanctions.  ``clean`` is True exactly when no EXC10xx finding
    survives — the condition CI gates on.
    """
    from tools.repolint.graphs.exceptions import UNKNOWN
    from tools.repolint.rules.exceptions import (
        BoundaryEscapeRule,
        ContextLossRule,
        DeadHandlerRule,
        SwallowedExceptionRule,
        UntypedRaiseRule,
    )

    config = program.config
    exceptions = program.exceptions
    resolver = exceptions.resolver
    packages = tuple(sorted(config.exception_packages))

    def in_scope(module: str) -> bool:
        if not packages:
            return True
        return any(
            module == package or module.startswith(package + ".")
            for package in packages
        )

    boundaries: dict[str, Any] = {}
    for boundary, sanctioned in sorted(config.exception_boundaries.items()):
        declared = boundary in program.index.functions
        escapes = []
        for exc_type in sorted(exceptions.escape_set(boundary)):
            is_failure = exc_type != UNKNOWN and resolver.is_exception_family(
                exc_type
            )
            escapes.append(
                {
                    "type": exc_type,
                    "sanctioned": any(
                        resolver.is_subtype(exc_type, s) for s in sanctioned
                    ),
                    # Non-Exception control flow (CancelledError, SystemExit)
                    # and UNKNOWN are reported but never violations.
                    "failure": is_failure,
                }
            )
        boundaries[boundary] = {
            "declared": declared,
            "sanctioned": list(sanctioned),
            "escapes": escapes,
        }

    broad_handlers = []
    for qualname in sorted(exceptions.functions):
        facts = exceptions.functions[qualname]
        if not in_scope(facts.module):
            continue
        for region in facts.tries.values():
            for clause in region.clauses:
                if not clause.broad:
                    continue
                broad_handlers.append(
                    {
                        "function": qualname,
                        "line": clause.line,
                        "catches": clause.spelling,
                        "reraises": clause.reraises,
                        "replaces": clause.raises_new,
                        "observes": clause.observes,
                        "swallows": clause.swallows,
                    }
                )

    root = config.exception_taxonomy_root
    taxonomy: dict[str, Any] = {
        "root": root,
        "classes": sorted(
            qualname
            for qualname in program.index.classes
            if root and resolver.is_subtype(qualname, root)
        ),
    }
    typed = untyped = unknown = 0
    for qualname, facts in exceptions.functions.items():
        if not in_scope(facts.module):
            continue
        for site in facts.raises:
            if site.bare or site.reraises_bound:
                continue
            for exc_type in site.types:
                if exc_type == UNKNOWN:
                    unknown += 1
                elif root and resolver.is_subtype(exc_type, root):
                    typed += 1
                else:
                    untyped += 1
    taxonomy["raises"] = {
        "taxonomy": typed,
        "other": untyped,
        "unknown": unknown,
    }

    findings = []
    for rule_cls in (
        SwallowedExceptionRule,
        BoundaryEscapeRule,
        DeadHandlerRule,
        UntypedRaiseRule,
        ContextLossRule,
    ):
        findings.extend(
            _finding_payload(finding)
            for finding in rule_cls().check_program(program)
        )

    return {
        "packages": list(packages),
        "boundaries": boundaries,
        "broad_handlers": broad_handlers,
        "taxonomy": taxonomy,
        "findings": findings,
        "clean": not findings,
    }


def build_report(program: ProgramContext) -> dict[str, Any]:
    config = program.config
    import_graph = program.import_graph
    return {
        "package": config.package,
        "layers": {
            "ranks": dict(sorted(config.layer_ranks.items())),
            **import_graph.to_payload(),
        },
        "cycles": [list(component) for component in find_cycles(import_graph)],
        "call_graph": program.call_graph.to_payload(),
        "concurrency_certificate": _concurrency_certificate(program),
        "exception_certificate": _exception_certificate(program),
    }
