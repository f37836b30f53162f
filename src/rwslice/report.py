"""Slice reports: human-readable text and a stable structured format."""

from __future__ import annotations

from .slicer import TraceSlice
from .terms import Term, _Record, is_bullet

_HEADER = "rwslice-report 1"


def _positions_text(items) -> str:
    ordered = sorted(items)
    return ",".join(str(p) for p in ordered) if ordered else "-"


def _kept_text(s: Term, skip: str) -> str:
    """The positions whose symbols slice s keeps, less the position printed
    `skip`, printed as `_positions_text` prints them: a preorder walk
    visits them in ascending order."""
    out = []
    stack = [] if is_bullet(s) else [("^", s)]
    while stack:
        text, node = stack.pop()
        if text != skip:
            out.append(text)
        prefix = "" if text == "^" else text + "."
        for i in range(len(node.args), 0, -1):
            if not is_bullet(node.args[i - 1]):
                stack.append((prefix + str(i), node.args[i - 1]))
    return ",".join(out) or "-"


class SliceReport(_Record):
    """A trace slice to render; unlike the other records, mutable and unhashable."""

    _fields = ("slice", "theory_name", "seed")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, slice: TraceSlice, theory_name: str = "", seed: int = 0):
        super().__init__(slice, theory_name, seed)

    def render_structured(self) -> str:
        """The report of docs/formats.md. Every pset but the last is printed
        from its slice, as the positions the slice keeps, less the call
        position of a builtin step, once per printed slice and skipped
        position; the last is the criterion."""
        ts = self.slice
        criterion = _positions_text(ts.criterion)
        lines = [
            _HEADER,
            f"theory {self.theory_name or '-'}",
            f"seed {self.seed}",
            f"criterion {criterion}",
            f"original-size {ts.original_size}",
            f"sliced-size {ts.sliced_size}",
            f"reduction {ts.reduction_percent:.2f}",
            f"terms {len(ts.slices)}",
        ]
        texts = ts.texts
        psets: dict[tuple[str, str], str] = {}
        for j, (step, sl) in enumerate(zip(ts.trace.steps, ts.slices)):
            key = (texts[j], str(step.position) if step.kind == "builtin" else "")
            pset = psets.get(key)
            if pset is None:
                pset = psets[key] = _kept_text(sl, key[1])
            lines.append(f"pset {j} {pset}")
            lines.append(f"slice {j} {texts[j]}")
        lines.append(f"pset {len(texts) - 1} {criterion}")
        lines.append(f"slice {len(texts) - 1} {texts[-1]}")
        for s in ts.steps:
            lines.append(
                f"step {s.index} {s.kind} {s.rule_name or '-'} {s.position} "
                f"{texts[s.index]} {texts[s.index + 1]}"
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
                lines.append(f"  {ts.texts[s.index]} --[{label}]--> {ts.texts[s.index + 1]}")
        else:
            lines.append(f"sliced trace: {ts.texts[0] if ts.slices else '-'}")
        lines.append(f"original size: {ts.original_size}")
        lines.append(f"sliced size: {ts.sliced_size}")
        lines.append(f"reduction: {ts.reduction_percent:.2f}%")
        return "\n".join(lines) + "\n"
