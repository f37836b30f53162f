"""Independent checks on rwslice structured reports.

Nothing here imports rwslice: terms are read back from their printed form
(`name` or `name(arg,...)`, no whitespace, `•` for the opaque leaf) by the
small parser below, so a defect in rwslice's own parser or printer cannot
hide a defect in its slices.
"""

from __future__ import annotations

import hashlib

BULLET = "•"
REPORT_HEADER = "rwslice-report 1"
TRACE_HEADER = "rwtrace 1"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_term(text: str):
    """(name, children) tree of a printed term, built without recursion."""
    frames: list[tuple[str, list]] = [("", [])]
    i, n = 0, len(text)
    while True:
        j = i
        while j < n and text[j] not in "(),":
            j += 1
        if j == i:
            raise ValueError(f"expected a symbol at offset {i} of {text[:60]!r}")
        if j < n and text[j] == "(":
            frames.append((text[i:j], []))
            i = j + 1
            continue
        frames[-1][1].append((text[i:j], ()))
        i = j
        while i < n and text[i] == ")":
            if len(frames) == 1:
                raise ValueError(f"unbalanced ')' at offset {i} of {text[:60]!r}")
            name, kids = frames.pop()
            frames[-1][1].append((name, tuple(kids)))
            i += 1
        if i == n:
            break
        if text[i] != ",":
            raise ValueError(f"expected ',' at offset {i} of {text[:60]!r}")
        i += 1
    if len(frames) != 1 or len(frames[0][1]) != 1:
        raise ValueError(f"not a single term: {text[:60]!r}")
    return frames[0][1][0]


def slice_matches(sliced, term) -> bool:
    """True iff the term is an instance of the slice, `•` matching any
    subterm."""
    todo = [(sliced, term)]
    while todo:
        (sname, skids), (tname, tkids) = todo.pop()
        if sname == BULLET and not skids:
            continue
        if sname != tname or len(skids) != len(tkids):
            return False
        todo.extend(zip(skids, tkids))
    return True


def subterm(term, position: str):
    """Subterm at a printed position (`^` or `1.2.3`), or None."""
    node = term
    if position != "^":
        for part in position.split("."):
            i = int(part)
            if not 1 <= i <= len(node[1]):
                return None
            node = node[1][i - 1]
    return node


def trace_terms(trace_text: str) -> list[str]:
    """Printed terms of a trace file: the initial term, then the result of
    every step."""
    lines = [ln for ln in trace_text.splitlines() if ln.strip()]
    if len(lines) < 3 or lines[0] != TRACE_HEADER or not lines[2].startswith("init "):
        raise ValueError("not an rwtrace 1 file")
    terms = [lines[2][len("init "):]]
    for line in lines[3:]:
        fields = line.split()
        if len(fields) != 7 or fields[0] != "step":
            raise ValueError(f"bad step line {line[:60]!r}")
        terms.append(fields[6])
    return terms


def report_term_count(report: str) -> int:
    """Value of the report's `terms` line (elementary steps + 1)."""
    for line in report.splitlines():
        if line.startswith("terms "):
            return int(line.split()[1])
    raise ValueError("report has no terms line")


def check_report(report: str, original: list, criterion: str) -> list[str]:
    """Problems found in a structured report against the original trace
    terms (as parse_term trees) and the requested criterion; empty when the
    report is sound."""
    lines = report.splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        return ["missing report header"]
    header = dict(line.split(" ", 1) for line in lines[1:8] if " " in line)
    wanted = sorted(set(criterion.split(",")))
    got = sorted(header.get("criterion", "").split(","))
    problems = []
    if set(got) != set(wanted):
        problems.append(f"criterion {got} reported for requested {wanted}")
    slices = {}
    for line in lines:
        if line.startswith("slice "):
            _, j, text = line.split(" ", 2)
            slices[int(j)] = text
    if int(header.get("terms", -1)) != len(original) or sorted(slices) != list(range(len(original))):
        return problems + [f"{len(slices)} slices for a trace of {len(original)} terms"]
    last = None
    for j, term in enumerate(original):
        sliced = parse_term(slices[j])
        if not slice_matches(sliced, term):
            problems.append(f"slice {j} is not matched by trace term {j}")
        last = sliced
    for pos in wanted:
        node = subterm(last, pos)
        if node is None:
            problems.append(f"criterion position {pos} is missing from the last slice")
        elif node[0] == BULLET and not node[1]:
            problems.append(f"criterion position {pos} is opaque in the last slice")
    return problems
