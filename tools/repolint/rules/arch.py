"""ARCH5xx: import-layer contract over the whole package.

The contract lives in ``[tool.repolint.layers.ranks]``: each top-level
subpackage gets a rank, a module may import only same-or-lower ranks, and
the package root (the public facade) is exempt in both directions.
Violations are reported at the offending import statement so the fix is
one click away.
"""

from __future__ import annotations

from typing import Iterator

from tools.repolint.engine import Finding, ProgramContext, ProgramRule
from tools.repolint.graphs.imports import find_cycles


class LayerContractRule(ProgramRule):
    """ARCH501: upward import — a module imports a higher-ranked layer."""

    code = "ARCH501"
    name = "layer-upward-import"
    hint = (
        "move the shared code down a layer, or the importing code up one, "
        "instead of importing upward"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        graph = program.import_graph
        if not program.config.layer_ranks:
            return
        for edge in graph.edges:
            source_rank = graph.ranks.get(edge.source)
            target_rank = graph.ranks.get(edge.target)
            if source_rank is None or target_rank is None:
                continue  # the root facade; undeclared layers are ARCH503's
            if target_rank > source_rank:
                yield self.program_finding(
                    program,
                    edge.source,
                    edge.line,
                    f"layer '{graph.layers[edge.source]}' (rank {source_rank}) "
                    f"imports '{edge.target}' from layer "
                    f"'{graph.layers[edge.target]}' (rank {target_rank})",
                )


class ImportCycleRule(ProgramRule):
    """ARCH502: import-time cycle among package modules."""

    code = "ARCH502"
    name = "import-cycle"
    hint = (
        "break the cycle: extract the shared piece into a lower module or "
        "defer one import into the function that needs it"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        graph = program.import_graph
        for component in find_cycles(graph):
            members = set(component)
            cycle = " -> ".join(component)
            for module in component:
                line = next(
                    (
                        edge.line
                        for edge in graph.edges_from(module)
                        if edge.top_level and edge.target in members
                    ),
                    1,
                )
                yield self.program_finding(
                    program,
                    module,
                    line,
                    f"module participates in an import cycle: {cycle}",
                )


class UndeclaredLayerRule(ProgramRule):
    """ARCH503: module belongs to no declared layer."""

    code = "ARCH503"
    name = "undeclared-layer"
    hint = (
        "add the subpackage to [tool.repolint.layers.ranks] in "
        "pyproject.toml so the contract covers it"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        graph = program.import_graph
        if not program.config.layer_ranks:
            return
        flagged: set[str] = set()
        for module in graph.modules:
            layer = graph.layers[module]
            if layer == "<root>":
                continue
            if layer in flagged or layer in program.config.layer_ranks:
                continue
            flagged.add(layer)
            yield self.program_finding(
                program,
                module,
                1,
                f"layer '{layer}' is not declared in the layer contract",
            )
