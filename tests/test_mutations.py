"""Seeded single-character edits of the bundled theories and of a trace of
each: every edited file either loads and runs to its step count, or is
rejected with an `RwsliceError`, within a time bound per case. Any other
exception is a defect."""

import random
import time
import warnings

import pytest

from rwslice import RwsliceError, bundled_example_path
from rwslice.engine import run
from rwslice.theoryfile import parse_term, parse_theory
from rwslice.tracefile import parse_trace, render_trace

from genutil import BUNDLED_RUNS, category_seed

SEED = category_seed("mutations")
EDITS_PER_FILE = 750  # 3,000 cases over the four files
CASE_LIMIT_S = 1.0
# what an edit writes: the syntax's own characters, letters, digits, and
# blanks and line breaks that only some readers of a line split on
ALPHABET = "()[],.:;=^-_ \t\nXYaz019\u00a0\u2028\u00e9"


def _edits(text: str, rng: random.Random):
    """(description, edited text) of EDITS_PER_FILE single-character edits."""
    for _ in range(EDITS_PER_FILE):
        kind = rng.choice(("replace", "delete", "insert"))
        offset = rng.randrange(len(text) + (kind == "insert"))
        char = "" if kind == "delete" else rng.choice(ALPHABET)
        yield f"{kind} {char!r} at offset {offset}", text[:offset] + char + text[offset + (kind != "insert") :]


def _theory(name, init, rule_steps):
    """The theory's text and a check of an edited copy: it loads, and the
    run from init makes its rule steps."""
    def load_and_run(text):
        th = parse_theory(text, name=name)
        trace = run(parse_term(init, th.signature), th, rule_steps)
        assert sum(s.kind == "rule" for s in trace.steps) == rule_steps
    return bundled_example_path(name).read_text(encoding="utf-8"), load_and_run


def _trace(name, init, rule_steps):
    """The text of the run's trace and a check of an edited copy: it loads
    with the theory, with as many steps."""
    th = parse_theory(bundled_example_path(name).read_text(encoding="utf-8"), name=name)
    trace = run(parse_term(init, th.signature), th, rule_steps)

    def load(text):
        assert len(parse_trace(text, th).steps) == len(trace.steps)
    return render_trace(trace), load


@pytest.mark.parametrize("make", [_theory, _trace], ids=lambda make: make.__name__[1:])
@pytest.mark.parametrize("name, init, rule_steps", BUNDLED_RUNS, ids=[r[0] for r in BUNDLED_RUNS])
def test_edited_inputs_load_or_raise_rwslice_errors(make, name, init, rule_steps):
    text, check = make(name, init, rule_steps)
    rng = random.Random(SEED)
    failures = []
    for edit, edited in _edits(text, rng):
        start = time.perf_counter()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a trace that ends in a non-canonical term loads
                check(edited)
        except RwsliceError:
            pass
        except Exception as exc:
            failures.append(f"seed {SEED}, {make.__name__[1:]} of {name}, {edit}: {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        if seconds > CASE_LIMIT_S:
            failures.append(f"seed {SEED}, {make.__name__[1:]} of {name}, {edit}: {seconds:.2f} s")
    assert not failures, f"{len(failures)} failures:\n" + "\n".join(failures[:10])
