"""Answer set programming, Sigma1 proof search, and the translations between them."""

from .engine import (
    GroundProgram,
    Model,
    ground,
    has_stable_model,
    interpretation,
    is_stable,
    sms_entails,
    stable_models,
)
from .errors import (
    ArityError,
    AspSigmaError,
    BudgetExceeded,
    CapExceeded,
    CrossCheckError,
    FormulaError,
    ParseError,
)
from .asp_to_logic import translate as translate_program
from .logic_to_asp import decide_by_translation
from .logic_to_asp import translate as translate_formula
from .parsing import parse_formula, parse_ground_atom, parse_program
from .proofs import (
    Environment,
    ProofTerm,
    check,
    fmt_term,
    is_lnf,
    parse_term,
    prove,
    prove_sigma1,
)
from .soups import (
    Disjudgment,
    Soup,
    check_soup,
    find_soup,
    model_from_soup,
    parse_soup,
    questions_at,
    soup_from_model,
    write_soup,
)
from .syntax import (
    Atom,
    AtomF,
    Clause,
    Forall,
    Formula,
    Impl,
    MintsClass,
    Program,
    Term,
    classify,
    const,
    fmt_formula,
    make_program,
    substitute,
    var,
)

__all__ = [name for name in dir() if not name.startswith("_")]
