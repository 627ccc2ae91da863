"""Shared result containers for the experiment suite.

Every experiment module exposes ``run(...) -> ExperimentResult`` so that
the report, the tests and the examples all consume one shape: labeled
rows of measured values next to the paper's published reference values
(when the paper prints them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class ExperimentRow:
    """One labeled measurement, optionally paired with the paper's value."""

    label: str
    measured: Any
    paper: Optional[Any] = None
    note: str = ""

    def matches_paper(self, rel_tol: float = 0.5) -> Optional[bool]:
        """Loose shape check: within ``rel_tol`` relative of the paper value.

        Returns None when either side is non-numeric or missing.
        """
        if self.paper is None:
            return None
        try:
            measured = float(self.measured)
            paper = float(self.paper)
        except (TypeError, ValueError):
            return None
        if paper == 0:
            return abs(measured) < 1e-9
        return abs(measured - paper) / abs(paper) <= rel_tol


@dataclass
class ExperimentResult:
    """A named experiment with its rows and free-form metadata."""

    experiment_id: str
    title: str
    rows: List[ExperimentRow] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def add(self, label: str, measured: Any, paper: Optional[Any] = None, note: str = "") -> None:
        """Append a row; a label already present raises ``ValueError``,
        since ``row(label)`` and the report's readers key rows by label."""
        if any(row.label == label for row in self.rows):
            raise ValueError(f"{self.experiment_id} already has a row labeled {label!r}")
        self.rows.append(ExperimentRow(label=label, measured=measured, paper=paper, note=note))

    def row(self, label: str) -> ExperimentRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(f"no row labeled {label!r} in {self.experiment_id}")

    def to_table(self) -> str:
        width = max([len(r.label) for r in self.rows] + [12])
        lines = [f"== {self.experiment_id}: {self.title} ==",
                 f"{'case':<{width}}  {'measured':>14}  {'paper':>12}  note"]
        for r in self.rows:
            measured = f"{r.measured:.3f}" if isinstance(r.measured, float) else str(r.measured)
            paper = "" if r.paper is None else (
                f"{r.paper:.3f}" if isinstance(r.paper, float) else str(r.paper)
            )
            lines.append(f"{r.label:<{width}}  {measured:>14}  {paper:>12}  {r.note}")
        return "\n".join(lines)

    def measured_dict(self) -> Dict[str, Any]:
        return {r.label: r.measured for r in self.rows}
