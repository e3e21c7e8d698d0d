"""Run every paper artefact and assemble a single text/markdown report.

``python -m repro.experiments.report --scale smoke`` regenerates all eight
artefacts end-to-end and writes ``report.<scale>.md``; EXPERIMENTS.md's
measured numbers come from this path (at the ``mini`` scale).
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Callable, Iterator

from repro.experiments import fig5, fig6, fig7, fig8, fig9, table1, table2, table3
from repro.obs.clock import monotonic


def _artefacts(
    scale: str, datasets: tuple[str, ...]
) -> Iterator[tuple[str, Callable[[], str]]]:
    """Yield (artefact id, callable returning rendered text)."""
    yield "Table I", lambda: table1.render(table1.run(scale=scale, verify=True))
    yield "Fig. 5", lambda: fig5.render(fig5.run(datasets=datasets, scale=scale))
    yield "Fig. 6", lambda: fig6.render(fig6.run(datasets=datasets, scale=scale))
    yield "Table II", lambda: table2.render(table2.run(datasets=datasets, scale=scale))
    yield "Fig. 7", lambda: fig7.render(fig7.run(datasets=datasets, scale=scale))
    yield "Table III", lambda: table3.render(table3.run(datasets=datasets, scale=scale))
    yield "Fig. 8", lambda: fig8.render(fig8.run(dataset=datasets[0], scale=scale))
    yield "Fig. 9", lambda: fig9.render(fig9.run(dataset=datasets[0], scale=scale))


def build_report(
    scale: str = "smoke",
    datasets: tuple[str, ...] = ("water-quality",),
    output: str | Path | None = None,
) -> str:
    """Run all artefacts and return (and optionally write) the report."""
    sections = [f"# PA-FEAT reproduction report (scale: {scale})", ""]
    for name, runner in _artefacts(scale, datasets):
        start = monotonic()
        rendered = runner()
        elapsed = monotonic() - start
        sections.append(f"## {name}  *({elapsed:.1f}s)*")
        sections.append("")
        sections.append("```")
        sections.append(rendered)
        sections.append("```")
        sections.append("")
    report = "\n".join(sections)
    if output is not None:
        Path(output).write_text(report)
    return report


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - CLI
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="smoke", choices=("smoke", "mini", "full"))
    parser.add_argument("--datasets", nargs="+", default=["water-quality"])
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    output = args.output or f"report.{args.scale}.md"
    build_report(args.scale, tuple(args.datasets), output)
    print(f"report written to {output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
