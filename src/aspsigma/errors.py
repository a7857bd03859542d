"""Exception types shared across the package, and the one deadline check."""

import time


class AspSigmaError(Exception):
    """Base class for all package errors."""


class ParseError(AspSigmaError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class ArityError(AspSigmaError):
    """A predicate was used with two different arities."""


class FormulaError(AspSigmaError):
    """A formula does not have the shape an operation requires."""


class CapExceeded(AspSigmaError):
    """A structural size guard (grounding, enumeration, emission) was hit."""

    def __init__(self, message: str, feasible: int | None = None):
        self.feasible = feasible
        super().__init__(message)


class BudgetExceeded(AspSigmaError):
    """A wall-clock budget ran out before the operation finished."""


def check_deadline(deadline: float | None, stage: str) -> None:
    """Raise ``BudgetExceeded("<stage> budget exhausted")`` once the
    ``time.monotonic()`` reading ``deadline`` has passed; None never expires."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded(f"{stage} budget exhausted")


class CrossCheckError(AspSigmaError):
    """Two routes that must agree disagreed; this signals a bug, not bad input."""
