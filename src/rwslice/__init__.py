"""Instrumented term rewriting modulo AC axioms with a backward trace slicer."""

from .terms import (
    BULLET,
    BULLET_TERM,
    EMPTY_SUBST,
    HOLE,
    HOLE_TERM,
    Position,
    PositionOutOfRange,
    ROOT,
    RwsliceError,
    Signature,
    SignatureError,
    Substitution,
    Symbol,
    Term,
    Variable,
    match,
    positions,
    pretty,
    replace_at,
    subterm_at,
)
from .acmatch import flatten, flatten_term, match_modulo_ac
from .builtin_ops import REGISTRY as BUILTINS, BuiltinOp, eval_builtin
from .engine import (
    DEFAULT_STEP_BUDGET,
    InstrumentedTrace,
    MalformedStep,
    NoRuleApplicable,
    RewriteTheory,
    Rule,
    StepBudgetExceeded,
    TheoryError,
    TraceStep,
    normalize,
    rewrite_step_modulo_E,
    run,
    run_until,
)
from .labeling import (
    LabeledStep,
    Labeling,
    LabelSupply,
    initial_labeling,
    label_ac_segment,
    label_rule,
    label_step,
    label_substitution,
    render_labeled,
)
from .slicer import (
    InvalidCriterion,
    ReplayFailure,
    SlicedStep,
    TraceSlice,
    check_soundness,
    concretizes,
    origin_positions,
    relevant_positions,
    slice_term,
    trace_slice,
)
from .theoryfile import parse_term, parse_theory, render_theory
from .tracefile import load_trace, parse_trace, render_trace, save_trace
from .report import SliceReport

__version__ = "0.1.0"


def bundled_example_path(name: str):
    """Path-like handle on one of the example theories shipped with the
    package (producer_consumer.rwt, client_server.rwt)."""
    from importlib.resources import files

    return files(__name__) / "examples" / name
