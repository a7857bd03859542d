"""Parsers for the concrete program and formula syntax.

Program syntax: one clause per line, ``head :- b1, ..., bn.`` or ``head.``;
negative body atoms as ``not p(...)``; ``%`` starts a comment; ``#domain c, d.``
declares extra constants.  Identifiers starting with u..z are clause variables,
all other identifiers in term position are constants.

Formula syntax: ``->`` associates to the right, ``forall x.`` scopes to the end
of the formula or the closing parenthesis; identifiers in argument position are
terms (bound occurrences become variables, free ones constants); any identifier
in formula position is a predicate.

One compiled scanner reads a text into a list of token strings in one
``findall``: identifiers (``\\w+``) and the symbols ``:- -> ( ) , . : \\ #``,
with whitespace and comments skipped.  A token's kind is its text: the
symbols, and ``""`` appended for the end of the input, are the only tokens
that are not identifiers.  The scanner checks that it skipped nothing but
whitespace and comments before any parsing starts, so a character fault wins
over a syntax fault anywhere in the text.  Programs, formulas, ground atoms
and ``proofs.parse_term`` share one descent over that list: each step takes
a token index and returns the index after what it read.  Quantifier prefixes,
implication spines and parentheses in formulas are read in a loop, so no
formula is too deep to parse.  A line and column are worked out from the text
only when a ``ParseError`` is raised.

While it reads, the descent keeps one ``Term`` per name.  A program's domain
comes from those terms through ``syntax.program_domain``; a formula is
rectified only when a binder name repeats or is also a constant, since
otherwise ``rectify`` would give back an equal formula.
"""

from __future__ import annotations

import re

from .errors import FormulaError, ParseError
from .syntax import (
    Atom,
    AtomF,
    Clause,
    Forall,
    Formula,
    Impl,
    Program,
    Term,
    const,
    is_program_variable_name,
    program_domain,
    rectify,
    var,
)

# a comment is matched so its text is not read as tokens, and dropped after
_TOKEN = re.compile(r"\w+|:-|->|[(),.:\\#]|%[^\n]*")
# what the scanner may skip or read; a match stops at the first faulty character
_LEXICON = re.compile(r"(?:\s+|%[^\n]*|\w+|:-|->|[(),.:\\#])*")
# the tokens that are not identifiers; "" marks the end of the input
SYMBOLS = frozenset((":-", "->", "(", ")", ",", ".", ":", "\\", "#", ""))


class Fault(Exception):
    """A syntax fault at token index ``at``, or at no position when None;
    ``parse_tokens`` turns it into a ``ParseError`` with a line and column."""

    def __init__(self, message: str, at: int | None = None):
        super().__init__(message)
        self.message = message
        self.at = at


def _non_space(s: str) -> int:
    return len("".join(s.split()))


def scan(text: str) -> list[str]:
    """The token strings of ``text``, then ``""`` for the end of the input."""
    toks = _TOKEN.findall(text)
    read = sum(map(len, toks))
    if "%" in text:
        comments = "".join(t for t in toks if t[0] == "%")
        read -= len(comments) - _non_space(comments)
        toks = [t for t in toks if t[0] != "%"]
    # findall passes over what it cannot read: that is a fault unless it was
    # whitespace, which no token or comment holds outside a comment
    if read != _non_space(text):
        at = _LEXICON.match(text).end()
        raise ParseError(f"unexpected character {text[at]!r}", *_line_col(text, at))
    toks.append("")
    return toks


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _where(text: str, at: int) -> tuple[int, int]:
    """The line and column of token ``at`` of ``scan(text)``.  The end of the
    input stands where the last line's text ends, before any comment."""
    for m in _TOKEN.finditer(text):
        if text[m.start()] != "%":
            if at == 0:
                return _line_col(text, m.start())
            at -= 1
    last = text.rfind("\n") + 1
    return text.count("\n") + 1, 1 + len(text[last:].split("%", 1)[0])


def parse_tokens(text: str, descend):
    """``descend(scan(text))``, with a ``Fault`` raised as a ``ParseError``."""
    toks = scan(text)
    try:
        return descend(toks)
    except Fault as e:
        if e.at is None:
            raise ParseError(e.message) from None
        raise ParseError(e.message, *_where(text, e.at)) from None


def expect(toks: list[str], i: int, value: str) -> int:
    """The index after the symbol ``value`` at ``toks[i]``."""
    if toks[i] != value:
        raise Fault(f"expected {value!r} but found {toks[i]!r}", i)
    return i + 1


def ident(toks: list[str], i: int, what: str) -> str:
    """The identifier at ``toks[i]``; ``what`` names it in the fault."""
    t = toks[i]
    if t in SYMBOLS:
        raise Fault(f"expected {what} but found {t!r}", i)
    return t


def _uppercase_term(t: str, i: int) -> Fault:
    return Fault(f"uppercase identifier {t!r} cannot appear in term position", i)


def _arity_fault(name: str, old: int, n: int, at: int) -> Fault:
    return Fault(f"predicate {name} used with arities {old} and {n}", at)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def _program_term(toks: list[str], i: int, terms: dict[str, Term]) -> Term:
    t = toks[i]
    term = terms.get(t)
    if term is None:
        ident(toks, i, "term")
        if t[0].isupper():
            raise _uppercase_term(t, i)
        term = terms[t] = var(t) if is_program_variable_name(t) else const(t)
    return term


def _program_atom(
    toks: list[str], i: int, arities: dict[str, int], terms: dict[str, Term]
) -> tuple[Atom, int]:
    negated = toks[i] == "not"
    if negated:
        i += 1
    name = toks[i]
    at = i
    old = arities.get(name)
    if old is None:
        ident(toks, i, "predicate")
        if name[0].isupper():
            raise Fault(f"program predicates are lowercase: {name!r}", i)
    i += 1
    if toks[i] == "(":
        args = [_program_term(toks, i + 1, terms)]
        i += 2
        while toks[i] == ",":
            args.append(_program_term(toks, i + 1, terms))
            i += 2
        i = expect(toks, i, ")")
        args = tuple(args)
    else:
        args = ()
    if old is None:
        arities[name] = len(args)
    elif old != len(args):
        raise _arity_fault(name, old, len(args), at)
    return Atom(name, args, negated), i


def _declared_constant(toks: list[str], i: int) -> str:
    c = ident(toks, i, "constant")
    if is_program_variable_name(c):
        raise Fault(
            f"{c!r} is in the variable lexical space and cannot be declared "
            f"as a constant",
            i,
        )
    return c


def _program(toks: list[str], safe: bool) -> Program:
    clauses: list[Clause] = []
    declared: set[str] = set()
    arities: dict[str, int] = {}
    terms: dict[str, Term] = {}
    i = 0
    while toks[i]:
        if toks[i] == "#":
            d = ident(toks, i + 1, "directive name")
            if d != "domain":
                raise Fault(f"unknown directive #{d}", i + 1)
            declared.add(_declared_constant(toks, i + 2))
            i += 3
            while toks[i] == ",":
                declared.add(_declared_constant(toks, i + 1))
                i += 2
            i = expect(toks, i, ".")
            continue
        head_at = i
        head, i = _program_atom(toks, i, arities, terms)
        if head.negated:
            raise Fault("clause head must be positive", head_at)
        body: list[Atom] = []
        if toks[i] == ":-":
            i += 1
            if toks[i] != ".":
                a, i = _program_atom(toks, i, arities, terms)
                body.append(a)
                while toks[i] == ",":
                    a, i = _program_atom(toks, i + 1, arities, terms)
                    body.append(a)
        i = expect(toks, i, ".")
        if safe:
            body_vars: set[str] = set()
            for a in body:
                body_vars |= a.variables()
            loose = head.variables() - body_vars
            if loose:
                raise Fault(
                    f"unsafe clause: head variables {sorted(loose)} do not occur "
                    f"in the body",
                    head_at,
                )
        clauses.append(Clause(head, tuple(body)))
    has_vars = False
    used = []
    for name, t in terms.items():
        if t.var:
            has_vars = True
        else:
            used.append(name)
    try:
        return Program(tuple(clauses), program_domain(used, declared, has_vars))
    except FormulaError as e:
        raise Fault(str(e)) from None


def parse_program(text: str, safe: bool = False) -> Program:
    """Parse program text; ``safe`` rejects head variables absent from the body."""
    return parse_tokens(text, lambda toks: _program(toks, safe))


def _ground_atom(toks: list[str]) -> Atom:
    atom, i = _program_atom(toks, 0, {}, {})
    if toks[i] == ".":
        i += 1
    if toks[i]:
        raise Fault(f"trailing input after atom: {toks[i]!r}", i)
    if atom.negated or not atom.is_ground():
        raise Fault("expected a positive ground atom")
    return atom


def parse_ground_atom(text: str) -> Atom:
    """Parse a single ground atom, e.g. for entailment queries."""
    return parse_tokens(text, _ground_atom)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


def formula_at(
    toks: list[str],
    i: int,
    bound: dict[str, int],
    arities: dict[str, int],
    consts: dict[str, Term],
    binders: list[str],
    unit: bool = False,
) -> tuple[Formula, int]:
    """Read the formula at ``toks[i]``; return it and the index after it.

    ``bound`` counts the binders in scope per name (the caller's are given
    back as they were), ``consts`` gets one ``Term`` per constant name and
    ``binders`` every quantified name, in order.  With ``unit``, read one
    operand of ``->``: an atom, a parenthesized formula or a quantifier with
    its whole scope.

    A formula is a spine: quantifiers ``forall x.`` and premises ``u ->`` in
    any order, then a last operand, where a premise or the last operand is an
    atom or a parenthesized formula.  The spine being read keeps its items
    (a binder name, or a premise formula) and the names it bound; an open
    parenthesis stacks them and starts a new spine.
    """
    variables: dict[str, Term] = {}
    outer: list[tuple[list, list[str]]] = []
    items: list = []
    scope: list[str] = []
    while True:
        t = toks[i]
        if t == "(":
            outer.append((items, scope))
            items, scope = [], []
            i += 1
            continue
        if t == "forall":
            v = ident(toks, i + 1, "quantified variable")
            if v[0].isupper():
                raise Fault(f"quantified variables are lowercase: {v!r}", i + 1)
            i = expect(toks, i + 2, ".")
            items.append(v)
            scope.append(v)
            bound[v] = bound.get(v, 0) + 1
            binders.append(v)
            continue
        # an atom
        name = ident(toks, i, "predicate")
        at = i
        i += 1
        if toks[i] == "(":
            args = []
            while True:
                i += 1
                a = ident(toks, i, "term")
                if a in bound:
                    term = variables.get(a)
                    if term is None:
                        term = variables[a] = var(a)
                else:
                    term = consts.get(a)
                    if term is None:
                        if a[0].isupper():
                            raise _uppercase_term(a, i)
                        term = consts[a] = const(a)
                args.append(term)
                i += 1
                if toks[i] != ",":
                    break
            i = expect(toks, i, ")")
            args = tuple(args)
        else:
            args = ()
        old = arities.setdefault(name, len(args))
        if old != len(args):
            raise _arity_fault(name, old, len(args), at)
        f: Formula = AtomF(name, args)
        # f is a finished operand: a premise, or the end of its spine
        while True:
            if unit and not outer and not items:
                return f, i
            if toks[i] == "->":
                items.append(f)
                i += 1
                break
            for item in reversed(items):
                f = Forall(item, f) if type(item) is str else Impl(item, f)
            for v in scope:
                bound[v] -= 1
                if not bound[v]:
                    del bound[v]
            if not outer:
                return f, i
            i = expect(toks, i, ")")
            items, scope = outer.pop()


def _whole_formula(toks: list[str]) -> Formula:
    consts: dict[str, Term] = {}
    binders: list[str] = []
    f, i = formula_at(toks, 0, {}, {}, consts, binders)
    if toks[i]:
        raise Fault(f"trailing input after formula: {toks[i]!r}", i)
    names = set(binders)
    # parsed formulas have no free variables, so rectify renames only a
    # binder that repeats or is also a constant's name
    if len(names) < len(binders) or not names.isdisjoint(consts):
        return rectify(f)
    return f


def parse_formula(text: str) -> Formula:
    """Parse and rectify a formula; free identifiers are treated as constants."""
    return parse_tokens(text, _whole_formula)
