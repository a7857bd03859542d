import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from aspsigma.errors import ParseError
from aspsigma.parsing import parse_formula, parse_ground_atom, parse_program
from aspsigma.proofs import OAbs, OApp, PAbs, PApp, PVar, fmt_term, parse_term
from aspsigma.syntax import (
    Atom,
    AtomF,
    Forall,
    Impl,
    Program,
    const,
    fmt_formula,
    var,
)


def test_basic_program():
    p = parse_program("p(c). q(x) :- not p(x).")
    assert len(p.clauses) == 2
    assert p.domain == frozenset({"c"})
    assert p.clauses[1].body[0].negated


def test_arity_conflict():
    with pytest.raises(ParseError):
        parse_program("p(c,d). p(c).")


def test_domain_declaration():
    p = parse_program("#domain c, d. r(x) :- s(x).")
    assert p.domain == frozenset({"c", "d"})
    assert len(p.clauses) == 1


def test_comments_and_blank_lines():
    p = parse_program("% a comment\np.\n\nq :- not p. % trailing\n")
    assert len(p.clauses) == 2


def test_variable_lexical_space():
    p = parse_program("e(x, c) :- f(x).")
    head = p.clauses[0].head
    assert head.args[0].var and not head.args[1].var


def test_safe_mode_rejects_head_only_variables():
    parse_program("p(x, y) :- q(x). #domain c.")  # fine by default
    with pytest.raises(ParseError):
        parse_program("p(x, y) :- q(x). #domain c.", safe=True)


def test_syntax_error_position():
    with pytest.raises(ParseError) as e:
        parse_program("p :- \n q r.")
    assert e.value.line == 2


def test_ground_atom():
    a = parse_ground_atom("p(c,d)")
    assert a == Atom("p", (const("c"), const("d")))
    with pytest.raises(ParseError):
        parse_ground_atom("p(x)")


def test_formula_basic():
    f = parse_formula("forall x. (P(x) -> Q(x))")
    assert isinstance(f, Forall)
    assert f.body == Impl(AtomF("P", (var("x"),)), AtomF("Q", (var("x"),)))


def test_formula_right_associativity():
    f = parse_formula("P -> Q -> R")
    assert f == Impl(AtomF("P"), Impl(AtomF("Q"), AtomF("R")))


def test_forall_scopes_to_end():
    f = parse_formula("forall x. P(x) -> Q(x)")
    assert f == Forall("x", Impl(AtomF("P", (var("x"),)), AtomF("Q", (var("x"),))))


def test_paren_closes_scope():
    f = parse_formula("(forall x. P(x)) -> Q")
    assert isinstance(f, Impl) and isinstance(f.lhs, Forall)


def test_free_identifiers_are_constants():
    f = parse_formula("P(c) -> P(d)")
    assert f == Impl(AtomF("P", (const("c"),)), AtomF("P", (const("d"),)))


def test_rectification_on_parse():
    f = parse_formula("(forall x. P(x)) -> (forall x. P(x))")
    lhs, rhs = f.lhs, f.rhs
    assert lhs.var != rhs.var


def test_formula_arity_conflict():
    with pytest.raises(ParseError):
        parse_formula("P(c) -> P(c,d)")


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

_atoms = st.sampled_from(
    [
        AtomF("P", (var("x"),)),
        AtomF("P", (const("c"),)),
        AtomF("Q", (var("y"), const("d"))),
        AtomF("R"),
    ]
)

_formulas = st.recursive(
    _atoms,
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda t: Impl(*t)),
        st.tuples(st.sampled_from(["x", "y", "z"]), sub).map(
            lambda t: Forall(t[0], t[1])
        ),
    ),
    max_leaves=10,
)


@given(_formulas)
def test_formula_print_parse_round_trip(f):
    from aspsigma.syntax import free_vars, rectify, substitute

    f = rectify(f)
    # the parser reads unbound identifiers as constants, so close the formula
    f = substitute(f, {v: const(v) for v in free_vars(f)})
    assert parse_formula(fmt_formula(f)) == f


_terms = st.sampled_from([var("x"), var("y"), const("c"), const("d")])
_patoms = st.builds(
    Atom,
    st.sampled_from(["p", "q"]),
    st.tuples(_terms),
    st.booleans(),
)


@given(st.lists(st.tuples(_patoms, st.lists(_patoms, max_size=3)), min_size=1, max_size=4))
def test_program_print_parse_round_trip(raw):
    from aspsigma.syntax import Clause, make_program

    clauses = []
    for head, body in raw:
        clauses.append(Clause(head.positive(), tuple(body)))
    try:
        p = make_program(clauses, {"c"})
    except Exception:
        return
    q = parse_program(str(p))
    assert q.domain == p.domain
    assert set(q.clauses) == set(p.clauses)


# ---------------------------------------------------------------------------
# Depth
# ---------------------------------------------------------------------------


def test_long_prefixes_and_spines_parse_without_recursion():
    n = 10_000
    f = parse_formula("".join(f"forall x{k}. " for k in range(n)) + "P(x0, x9999)")
    for k in range(n):
        assert isinstance(f, Forall) and f.var == f"x{k}"
        f = f.body
    assert f == AtomF("P", (var("x0"), var("x9999")))

    f = parse_formula(" -> ".join(f"a{k}" for k in range(n + 1)))
    for k in range(n):
        assert isinstance(f, Impl) and f.lhs == AtomF(f"a{k}")
        f = f.rhs
    assert f == AtomF(f"a{n}")

    # parentheses nest without recursion too
    f = parse_formula("(" * n + "a" + ")" * n + " -> b")
    assert f == Impl(AtomF("a"), AtomF("b"))


# ---------------------------------------------------------------------------
# Faults: message, line and column
# ---------------------------------------------------------------------------

_PARSERS = {
    "program": parse_program,
    "safe program": lambda text: parse_program(text, safe=True),
    "ground atom": parse_ground_atom,
    "formula": parse_formula,
    "proof term": parse_term,
}

FAULTS = [
    ("program", "p :- \n q r.", "expected '.' but found 'r'", 2, 4),
    ("program", "p(X).", "uppercase identifier 'X' cannot appear in term position", 1, 3),
    ("program", "P.", "program predicates are lowercase: 'P'", 1, 1),
    ("program", "p(c) :- q.\nr :- not\n", "expected predicate but found ''", 3, 1),
    ("program", "p :- % no body\n", "expected predicate but found ''", 2, 1),
    # the end of the input stands before a comment on the last line
    ("program", "p :- q % no full stop", "expected '.' but found ''", 1, 8),
    ("program", "#dom c.", "unknown directive #dom", 1, 2),
    (
        "program",
        "#domain c, x.",
        "'x' is in the variable lexical space and cannot be declared as a constant",
        1,
        12,
    ),
    ("program", "p(c,d). p(c).", "predicate p used with arities 2 and 1", 1, 9),
    ("program", "not p.", "clause head must be positive", 1, 1),
    (
        "safe program",
        "p(x) :- q. #domain c.",
        "unsafe clause: head variables ['x'] do not occur in the body",
        1,
        1,
    ),
    (
        "program",
        "p(x).",
        "program has variables but no constants; declare some with #domain",
        None,
        None,
    ),
    ("program", "p :- q.\r\n  r - s.", "unexpected character '-'", 2, 5),
    # a character fault wins over an earlier syntax fault
    ("program", "p q.\nr & s.", "unexpected character '&'", 2, 3),
    # only \n ends a line; other Unicode whitespace is one column wide
    ("program", "p(é) :- q(ü),\u3000r(é)\u2028x.", "expected '.' but found 'x'", 1, 20),
    ("ground atom", "p(x)", "expected a positive ground atom", None, None),
    ("ground atom", "p(c). q", "trailing input after atom: 'q'", 1, 7),
    ("formula", "P -> ", "expected predicate but found ''", 1, 6),
    ("formula", "forall X. P(X)", "quantified variables are lowercase: 'X'", 1, 8),
    ("formula", "(P -> Q", "expected ')' but found ''", 1, 8),
    ("formula", "P(c) -> P(c,d)", "predicate P used with arities 1 and 2", 1, 9),
    ("formula", "forall x P(x)", "expected '.' but found 'P'", 1, 10),
    ("formula", "P Q", "trailing input after formula: 'Q'", 1, 3),
    ("formula", "P(c) ∧ Q", "unexpected character '∧'", 1, 6),
    ("proof term", "\\x:P. x", "proof variables start uppercase", 1, 2),
    ("proof term", "\\X. X", "object variables start lowercase", 1, 2),
    ("proof term", "x", "expected a proof variable, found 'x'", 1, 1),
    ("proof term", "X )", "trailing input after term: ')'", 1, 3),
    ("proof term", "\\X:(P -> Q. X", "expected ')' but found '.'", 1, 11),
]


@pytest.mark.parametrize("kind, text, message, line, col", FAULTS)
def test_faults_are_pinned(kind, text, message, line, col):
    with pytest.raises(ParseError) as e:
        _PARSERS[kind](text)
    if line is not None:
        message += f" (line {line}, column {col})"
    assert (str(e.value), e.value.line, e.value.col) == (message, line, col)


# ---------------------------------------------------------------------------
# The one-pass parsers against the reference parsers
# ---------------------------------------------------------------------------

_REFERENCES = {
    "program": oracle.reference_parse_program,
    "safe program": lambda text: oracle.reference_parse_program(text, safe=True),
    "ground atom": oracle.reference_parse_ground_atom,
    "formula": oracle.reference_parse_formula,
    "proof term": oracle.reference_parse_term,
}


def _outcome(parse, text):
    try:
        return "value", parse(text)
    except ParseError as e:
        return "fault", str(e), e.line, e.col


def _assert_parsed_alike(kind, text):
    assert _outcome(_PARSERS[kind], text) == _outcome(_REFERENCES[kind], text)


# identifiers of every kind the grammar tells apart, Unicode ones included
_NAMES = ["p", "q", "not", "forall", "domain", "x", "y1", "c", "d_2", "P", "Q", "X",
          "é", "Ü", "x̃", "_a", "7", "ⅷ"]
_SPACES = [" ", "  ", "\t", "\n", "\r\n", "\u00a0", "\u2028", " % a comment: -> (\n", "%\n"]
_SYMBOL_TEXTS = [":-", "->", "(", ")", ",", ".", ":", "\\", "#"]
# characters a mutation may insert: symbols, halves of symbols, faults
_MUTANTS = list("().,:\\#-%>\n\r \tX xé∧@!") + ["\u2028", "->", ":-"]

_gap = st.sampled_from(["", " "] + _SPACES)


@st.composite
def _program_texts(draw):
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 5)) == 0:
            names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3))
            parts.append("#domain " + ", ".join(names) + ".")
            continue
        atoms = []
        for _ in range(draw(st.integers(1, 3))):
            name = draw(st.sampled_from(_NAMES))
            args = draw(st.lists(st.sampled_from(_NAMES), max_size=2))
            neg = "not " if atoms and draw(st.booleans()) else ""
            atoms.append(neg + name + (f"({', '.join(args)})" if args else ""))
        head, body = atoms[0], atoms[1:]
        parts.append(head + (" :- " + ", ".join(body) if body else "") + ".")
    return "".join(p + draw(_gap) for p in parts)


def _closed(f):
    from aspsigma.syntax import free_vars, substitute

    # not rectified: a binder may repeat, or share its name with a constant
    return substitute(f, {v: const(v) for v in free_vars(f)})


_texts_of_formulas = _formulas.map(lambda f: fmt_formula(_closed(f)))

_proof_terms = st.recursive(
    st.sampled_from([PVar("X"), PVar("Y1")]),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["X", "H"]), _formulas.map(_closed), sub).map(
            lambda t: PAbs(*t)
        ),
        st.tuples(st.sampled_from(["x", "y", "c"]), sub).map(lambda t: OAbs(*t)),
        st.tuples(sub, sub).map(lambda t: PApp(*t)),
        st.tuples(sub, st.sampled_from([var("x"), const("c")])).map(lambda t: OApp(*t)),
    ),
    max_leaves=6,
)

_token_soups = st.lists(
    st.one_of(st.sampled_from(_NAMES), st.sampled_from(_SYMBOL_TEXTS), st.sampled_from(_SPACES)),
    max_size=12,
).map(" ".join)


@st.composite
def _mutated(draw, texts):
    text = draw(texts)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = draw(st.sampled_from(_MUTANTS)) if op != "delete" else ""
        end = at if op == "insert" else min(len(text), at + 1)
        text = text[:at] + piece + text[end:]
    return text


_KIND_TEXTS = {
    "program": _program_texts(),
    "safe program": _program_texts(),
    "ground atom": st.sampled_from(["p(c)", "p(c, d).", "é(ü)", "q", "not p(c)"]),
    "formula": _texts_of_formulas,
    "proof term": _proof_terms.map(fmt_term),
}


@settings(max_examples=1000)
@given(st.data())
def test_one_pass_parsers_match_the_reference(data):
    kind = data.draw(st.sampled_from(sorted(_KIND_TEXTS)))
    texts = st.one_of(_KIND_TEXTS[kind], _token_soups)
    _assert_parsed_alike(kind, data.draw(_mutated(texts)))


# texts that read, each under at least one parser
VALID = [
    "",
    " % only a comment",
    "\r\n",
    "#domain c, d. p(x) :- q(x), not r(x).\r\n% end",
    "p(c) :- . q. % no body",
    "P(x) -> forall x. Q(x)",
    "(forall x. P(x)) -> Q(x)",
    "forall x. forall x. P(x) -> forall y. Q(x, y)",
    "((P)) -> (forall x. (Q(x) -> R)) -> S",
    "\\X:forall x. P(x) -> Q. \\y. X y",
    "\\x. \\X:(P(x) -> Q). (X) x",
]


@pytest.mark.parametrize("kind", sorted(_PARSERS))
def test_one_pass_parsers_match_the_reference_on_the_tables(kind):
    for text in [t for _, t, *_ in FAULTS] + VALID:
        _assert_parsed_alike(kind, text)
