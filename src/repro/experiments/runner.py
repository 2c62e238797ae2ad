"""Experiment report containers and small shared helpers.

Every experiment driver (one per paper artefact, see PAPER.md) returns
an :class:`ExperimentReport`: the rows it measured, the paper's stated
claim, and a verdict.  Benchmarks print the report; EXPERIMENTS.md records
the paper-vs-measured comparison produced from the same objects.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..analysis import format_markdown_table, format_table
from ..exceptions import ExperimentError

__all__ = ["ExperimentReport"]


class ExperimentReport:
    """Outcome of one experiment (one table/figure/theorem of the paper).

    Attributes
    ----------
    experiment_id:
        Short identifier ("E1" ... "E10"), as cited in PAPER.md.
    title:
        Human-readable title.
    paper_claim:
        The quantitative statement of the paper being reproduced.
    rows:
        Measured rows (list of dicts), the unit of comparison.
    summary:
        Aggregate key/value pairs (growth exponents, verdicts, ...).
    passed:
        Overall verdict: True when the measured data is consistent with the
        paper's claim (upper bounds respected, lower-bound witnesses found,
        expected ordering of protocols observed).
    notes:
        Free-text caveats (substitutions, horizons, workload details).
    """

    def __init__(
        self,
        experiment_id: str,
        title: str,
        paper_claim: str,
        rows: Sequence[Mapping[str, object]],
        summary: Optional[Mapping[str, object]] = None,
        passed: bool = True,
        notes: Optional[Sequence[str]] = None,
    ) -> None:
        if not experiment_id:
            raise ExperimentError("experiment_id must be non-empty")
        self.experiment_id = experiment_id
        self.title = title
        self.paper_claim = paper_claim
        self.rows: List[Dict[str, object]] = [dict(row) for row in rows]
        self.summary: Dict[str, object] = dict(summary or {})
        self.passed = passed
        self.notes: List[str] = list(notes or [])

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def table(self, columns: Optional[Sequence[str]] = None) -> str:
        """The measured rows as an aligned text table."""
        return format_table(self.rows, columns=columns, title=None)

    def to_text(self) -> str:
        """A full text report: header, claim, table, summary, verdict."""
        lines = [
            f"[{self.experiment_id}] {self.title}",
            f"paper claim : {self.paper_claim}",
            "",
            self.table(),
            "",
        ]
        for key, value in self.summary.items():
            lines.append(f"{key}: {value}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """A Markdown rendering used to build EXPERIMENTS.md."""
        lines = [
            f"### {self.experiment_id} — {self.title}",
            "",
            f"**Paper claim.** {self.paper_claim}",
            "",
            format_markdown_table(self.rows),
            "",
        ]
        if self.summary:
            lines.append("**Summary.**")
            for key, value in self.summary.items():
                lines.append(f"- {key}: {value}")
            lines.append("")
        if self.notes:
            lines.append("**Notes.**")
            for note in self.notes:
                lines.append(f"- {note}")
            lines.append("")
        lines.append(f"**Verdict:** {'PASS' if self.passed else 'FAIL'}")
        lines.append("")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Serialization (reports as cacheable artifacts)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """The report as plain JSON data.

        ``from_dict(to_dict())`` round-trips exactly (rows keep their key
        order), so reports can be persisted next to the job results they
        aggregate and re-rendered without re-running anything.
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "rows": [dict(row) for row in self.rows],
            "summary": dict(self.summary),
            "passed": self.passed,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentReport":
        """Rebuild a report from :meth:`to_dict` data."""
        try:
            return cls(
                experiment_id=data["experiment_id"],
                title=data["title"],
                paper_claim=data["paper_claim"],
                rows=data["rows"],
                summary=data.get("summary"),
                passed=data.get("passed", True),
                notes=data.get("notes"),
            )
        except KeyError as exc:
            raise ExperimentError(f"report data is missing field {exc}") from None

    def __repr__(self) -> str:
        return (
            f"ExperimentReport({self.experiment_id!r}, rows={len(self.rows)}, "
            f"passed={self.passed})"
        )
