"""Request specifications for the rwslice benchmark.

Every workload has a fixed pool of request specifications. A pool is a
list of slots; each slot fixes the input size and the criterion shape,
and has VARIANTS variants that differ in data only (client ids and
payloads, cell values). The variants are generated from a stable hash of
the workload, slot and variant, so the pool, and with it the reference
digests in reference.json, is the same in every process whatever
PYTHONHASHSEED is.

The run's --seed picks one variant per slot and the slot order of every
pass over the pool, through random.Random(seed), which is stable across
processes. Slots, not variants, set the cost of a request, so the mix of
request costs is the same for every seed.

This module does not import rwslice.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("ac_soup", "wide_state", "trace_replay")

# Elementary step budget passed as --max-steps with every request; the
# largest request (trace_replay) has 1201 elementary steps.
MAX_STEPS = 20_000
VARIANTS = 4

# ac_soup: soup width k per slot, k clients and 3k rule steps. The mix puts
# the median among the k=4 requests and keeps more than ten k=5 requests
# above the tail percentile in a run. The criterion is the answer of the
# slot's client (in sorted order); it is fixed per slot because it sets
# the cost of slicing.
AC_WIDTHS = (3, 3, 4, 4, 4, 5, 5, 5)
AC_CRITERION_CLIENTS = (1, 3, 1, 2, 4, 2, 3, 5)

# wide_state: a depth-6 tree of 32 cell pairs (255 symbols). Every pair
# except each fourth one starts switched on, which gives 24 rule steps and
# 24 builtin steps. Each slot observes the left cell value of one pair.
WIDE_DEPTH = 6
WIDE_PAIRS = 2 ** (WIDE_DEPTH - 1)
WIDE_ON = tuple(i for i in range(WIDE_PAIRS) if i % 4 != 3)
WIDE_STEPS = len(WIDE_ON)
WIDE_CRITERION_PAIRS = (0, 5, 9, 13, 17, 21, 26, 30)

# trace_replay: one producer_consumer trace of 200 rule steps (1201
# elementary steps), recorded during set-up; the slots are the positions of
# its final term cfg(cons(100,4950),prod(100),tok).
REPLAY_INIT = "cfg(tok,prod(0),cons(0,0))"
REPLAY_RULE_STEPS = 200
REPLAY_CRITERIA = ("^", "1", "1.1", "1.2", "2", "2.1", "3")
REPLAY_TRACE_NAME = "producer_consumer.rwtrace"

# The golden runs of the acceptance gate, reproduced as check-only requests.
GOLDEN_RUNS = (
    ("producer_consumer.rwt", "producer_consumer.report.txt",
     "cfg(tok,prod(0),cons(0,0))", 6, "1.2"),
    ("client_server.rwt", "client_server.report.txt",
     "net(srv(0),cli(1,3,none),cli(2,4,none))", 6, "1.3"),
)


@dataclass(frozen=True)
class Spec:
    """One rwslice invocation: --theory, --init, --steps or --trace,
    --criterion, always with the structured format and --max-steps."""

    id: str
    theory: str
    init: str
    criterion: str
    steps: int | None = None
    trace: str | None = None

    def argv(self) -> list[str]:
        end = ["--trace", self.trace] if self.trace is not None else ["--steps", str(self.steps)]
        return [
            "--theory", self.theory, "--init", self.init, *end,
            "--criterion", self.criterion, "--format", "structured",
            "--max-steps", str(MAX_STEPS),
        ]


def stable_rng(*parts) -> random.Random:
    """Random stream derived from a SHA-256 of the parts, never from hash()."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def examples_dir(root: Path) -> Path:
    return root / "src" / "rwslice" / "examples"


def _ac_soup(root: Path, slot: int, variant: int) -> Spec:
    k = AC_WIDTHS[slot]
    rng = stable_rng("ac_soup", slot, variant)
    # two-digit ids sort the same as strings and as numbers, so every
    # variant of a slot rewrites the same shapes in the same order
    ids = sorted(rng.sample(range(10, 100), k))
    clients = ",".join(f"cli({c},{rng.randrange(10, 100)},none)" for c in ids)
    server = rng.randrange(10, 100)
    return Spec(
        id=f"ac_soup/{slot}/{variant}",
        theory=str(examples_dir(root) / "client_server.rwt"),
        init=f"net(srv({server}),{clients})",
        criterion=f"{AC_CRITERION_CLIENTS[slot]}.3",
        steps=3 * k,
    )


def _pair_path(pair: int) -> str:
    bits = [str(1 + ((pair >> b) & 1)) for b in reversed(range(WIDE_DEPTH - 1))]
    return ".".join(bits)


def _wide_state(root: Path, slot: int, variant: int) -> Spec:
    rng = stable_rng("wide_state", slot, variant)

    def tree(depth: int, index: int) -> str:
        if depth == 1:
            mark = "on" if index in WIDE_ON else "off"
            return f"node(cell({rng.randrange(10)},{mark}),cell({rng.randrange(10)},off))"
        return f"node({tree(depth - 1, 2 * index)},{tree(depth - 1, 2 * index + 1)})"

    return Spec(
        id=f"wide_state/{slot}/{variant}",
        theory=str(Path(__file__).resolve().parent / "wide_state.rwt"),
        init=tree(WIDE_DEPTH, 0),
        criterion=_pair_path(WIDE_CRITERION_PAIRS[slot]) + ".1.1",
        steps=WIDE_STEPS,
    )


def _trace_replay(root: Path, slot: int, work: Path) -> Spec:
    return Spec(
        id=f"trace_replay/{REPLAY_CRITERIA[slot]}",
        theory=str(examples_dir(root) / "producer_consumer.rwt"),
        init=REPLAY_INIT,
        criterion=REPLAY_CRITERIA[slot],
        trace=str(work / REPLAY_TRACE_NAME),
    )


def pool(workload: str, root: Path, work: Path) -> list[list[Spec]]:
    """Every spec of the workload, as one list of variants per slot."""
    if workload == "ac_soup":
        return [[_ac_soup(root, s, v) for v in range(VARIANTS)] for s in range(len(AC_WIDTHS))]
    if workload == "wide_state":
        return [[_wide_state(root, s, v) for v in range(VARIANTS)] for s in range(len(WIDE_CRITERION_PAIRS))]
    if workload == "trace_replay":
        return [[_trace_replay(root, s, work)] for s in range(len(REPLAY_CRITERIA))]
    raise ValueError(f"unknown workload {workload!r}")


class Stream:
    """The seed's choice of one variant per slot, and the request order:
    passes over those specs, each pass in a fresh seeded order."""

    def __init__(self, workload: str, seed: int, root: Path, work: Path):
        self._rng = random.Random(seed)
        self.specs = [variants[self._rng.randrange(len(variants))] for variants in pool(workload, root, work)]

    def next_pass(self) -> list[Spec]:
        order = list(self.specs)
        self._rng.shuffle(order)
        return order


def golden_specs(root: Path) -> list[tuple[Spec, Path]]:
    return [
        (
            Spec(id=f"golden/{golden}", theory=str(examples_dir(root) / theory),
                 init=init, criterion=crit, steps=steps),
            root / "tests" / "golden" / golden,
        )
        for theory, golden, init, steps, crit in GOLDEN_RUNS
    ]
