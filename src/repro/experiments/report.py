"""Markdown report generation for reproduction runs.

Produces the measured-vs-paper record that EXPERIMENTS.md archives: one
section per experiment with the measured table, the paper's numbers, and a
pass/fail verdict on the *shape* criteria (orderings and monotonicities —
the quantities a simulator-based reproduction can honestly claim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.atomic import atomic_write_text

__all__ = ["ExperimentRecord", "ReproductionReport"]


@dataclass
class ExperimentRecord:
    """One table/figure's reproduction outcome."""

    experiment_id: str            # e.g. "Table 7.1"
    title: str
    measured_table: str           # preformatted text table
    paper_summary: str            # one-line quote of the paper's numbers
    shape_criteria: list[tuple[str, bool]] = field(default_factory=list)
    notes: str = ""

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.shape_criteria)

    def to_markdown(self) -> str:
        lines = [f"## {self.experiment_id} — {self.title}", ""]
        lines.append(f"**Paper:** {self.paper_summary}")
        lines.append("")
        lines.append("```")
        lines.append(self.measured_table)
        lines.append("```")
        lines.append("")
        if self.shape_criteria:
            lines.append("Shape criteria:")
            lines.append("")
            for desc, ok in self.shape_criteria:
                mark = "x" if ok else " "
                lines.append(f"- [{mark}] {desc}")
            lines.append("")
        if self.notes:
            lines.append(f"*{self.notes}*")
            lines.append("")
        return "\n".join(lines)


@dataclass
class ReproductionReport:
    """A collection of experiment records rendered as one document."""

    title: str
    preamble: str = ""
    records: list[ExperimentRecord] = field(default_factory=list)

    def add(self, record: ExperimentRecord) -> None:
        self.records.append(record)

    @property
    def n_passed(self) -> int:
        return sum(1 for r in self.records if r.passed)

    def to_markdown(self) -> str:
        lines = [f"# {self.title}", ""]
        if self.preamble:
            lines.append(self.preamble)
            lines.append("")
        lines.append(
            f"**{self.n_passed} / {len(self.records)} experiments "
            f"reproduce their shape criteria.**"
        )
        lines.append("")
        for record in self.records:
            lines.append(record.to_markdown())
        return "\n".join(lines)

    def write(self, path: str | Path) -> None:
        atomic_write_text(path, self.to_markdown())
