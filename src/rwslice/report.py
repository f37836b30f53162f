"""Slice reports: human-readable text and a stable structured format."""

from __future__ import annotations

from dataclasses import dataclass

from .slicer import TraceSlice
from .terms import pretty

_HEADER = "rwslice-report 1"


def _positions_text(items) -> str:
    ordered = sorted(items)
    return ",".join(str(p) for p in ordered) if ordered else "-"


@dataclass
class SliceReport:
    slice: TraceSlice
    theory_name: str = ""
    seed: int = 0

    def render_structured(self) -> str:
        ts = self.slice
        lines = [
            _HEADER,
            f"theory {self.theory_name or '-'}",
            f"seed {self.seed}",
            f"criterion {_positions_text(ts.criterion)}",
            f"original-size {ts.original_size}",
            f"sliced-size {ts.sliced_size}",
            f"reduction {ts.reduction_percent:.2f}",
            f"terms {len(ts.slices)}",
        ]
        for j, (pset, sl) in enumerate(zip(ts.relevant, ts.slices)):
            lines.append(f"pset {j} {_positions_text(pset)}")
            lines.append(f"slice {j} {pretty(sl)}")
        for s in ts.steps:
            lines.append(
                f"step {s.index} {s.kind} {s.rule_name or '-'} {s.position} "
                f"{pretty(s.before_slice)} {pretty(s.after_slice)}"
            )
        return "\n".join(lines) + "\n"

    def render_pretty(self, full_expansion: bool = False) -> str:
        ts = self.slice
        lines = [f"criterion: {_positions_text(ts.criterion)}"]
        shown = [s for s in ts.steps if full_expansion or s.kind == "rule"]
        if shown:
            lines.append("sliced steps:")
            for s in shown:
                label = s.rule_name or s.kind
                lines.append(f"  {pretty(s.before_slice)} --[{label}]--> {pretty(s.after_slice)}")
        else:
            lines.append(f"sliced trace: {pretty(ts.slices[0]) if ts.slices else '-'}")
        lines.append(f"original size: {ts.original_size}")
        lines.append(f"sliced size: {ts.sliced_size}")
        lines.append(f"reduction: {ts.reduction_percent:.2f}%")
        return "\n".join(lines) + "\n"
