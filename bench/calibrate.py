"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts: the same
rwslice request, repeated in one process, took from 0.85 s to 1.55 s within
a minute, and the median request time of ten consecutive 30-second runs
moved by a third. A fixed workload measured next to the requests follows
that drift: it hashes and compares a tree of frozen dataclasses, the kind
of work rwslice does, shares no code with rwslice and allocates next to
nothing, so neither a change to rwslice nor the size of its heap changes
its time. Over 150 s of alternating calibrations and one fixed request,
the request's 15-second medians spread by 22% and their ratio to the
calibration by 2%. Timings are scaled by REFERENCE_S / calibration(), that
is, reported in seconds at the speed at which the calibration takes
REFERENCE_S.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

# Median calibration() time on the 2-core Intel Xeon virtual machine the
# benchmark was written on; a constant, so scaled times stay comparable.
REFERENCE_S = 0.05


@dataclass(frozen=True)
class _Node:
    name: str
    args: tuple


def _tree(depth: int, key: int) -> _Node:
    if depth == 0:
        return _Node(str(key % 10), ())
    return _Node("f", (_tree(depth - 1, 2 * key), _tree(depth - 1, 2 * key + 1)))


# Built once, so that calibration() allocates next to nothing and its time
# does not depend on the state of the caller's heap.
_TREE = _tree(10, 0)
_TWIN = _tree(10, 0)


def calibration() -> float:
    """Seconds taken by the fixed workload: hash every subtree of a
    2047-node tree and compare it with an equal twin, twelve times."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        for _ in range(12):
            total = 0
            todo = [_TREE]
            while todo:
                node = todo.pop()
                total ^= hash(node)
                todo.extend(node.args)
            if _TREE != _TWIN or total != _TOTAL:
                raise AssertionError("calibration workload is not deterministic")
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _hashes(node: _Node) -> int:
    return hash(node) ^ _xor(_hashes(child) for child in node.args)


def _xor(values) -> int:
    out = 0
    for v in values:
        out ^= v
    return out


_TOTAL = _hashes(_TREE)
calibration()  # the first run of the interpreter's code paths is slower


def scale(seconds: float, calibration_s: float) -> float:
    """Wall seconds at the reference speed."""
    return seconds * REFERENCE_S / calibration_s
