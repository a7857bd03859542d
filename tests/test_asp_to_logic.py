import itertools

import pytest

from aspsigma.asp_to_logic import model_context, translate
from aspsigma.corpus import fresh_goal_atom
from aspsigma.engine import is_stable, program_base, sms_entails, stable_models
from aspsigma.errors import FormulaError
from aspsigma.parsing import parse_formula, parse_program
from aspsigma.proofs import prove, prove_sigma1
from aspsigma.syntax import (
    Atom,
    AtomF,
    Forall,
    Impl,
    MintsClass,
    classify,
    fmt_formula,
    make_program,
)
from oracle import peel_sigma1

OMEGA = Atom("omega")


def _axioms_by_schema(t, n):
    return [ax for ax in t.axioms if ax.schema == n]


# ---------------------------------------------------------------------------
# Shape of the emitted axioms
# ---------------------------------------------------------------------------


def test_negative_clause_axiom_count_is_eleven():
    t = translate(parse_program("p :- not p."), OMEGA)
    assert len(t.axioms) == 11
    counts = t.axiom_counts()
    assert counts == {1: 1, 2: 3, 3: 1, 4: 1, 5: 1, 6: 1, 10: 1, 11: 1, 12: 1}


def test_clause_simulation_shape():
    # r(x) <= p(x), q(x), not s(x) gives bang-r -> bracketed bang premises
    # -> bar premise -> bullet
    p = parse_program("#domain c. r(x) :- p(x), q(x), not s(x).")
    t = translate(p, OMEGA)
    (ax,) = _axioms_by_schema(t, 5)
    assert (
        fmt_formula(ax.formula)
        == "forall x. bang_r(x) -> (bang_p(x) -> bullet) -> "
        "(bang_q(x) -> bullet) -> bar_s(x) -> bullet"
    )


def test_body_only_variable_chain():
    p = parse_program("#domain c, d. r :- s(x), s(y), s(z). s(c).")
    t = translate(p, OMEGA)
    chain = _axioms_by_schema(t, 9)
    assert len(chain) == 3
    for ax in chain:
        text = fmt_formula(ax.formula)
        # one bracketed premise per domain constant
        assert text.count("-> kbar1_") == 3  # two brackets plus the final target


def test_repeated_head_variable_closers():
    p = parse_program("#domain c, d. r(x, y, x) :- s(y).")
    t = translate(p, OMEGA)
    closers = _axioms_by_schema(t, 8)
    texts = {fmt_formula(ax.formula) for ax in closers}
    assert texts == {
        "forall z1. k1_0(c,z1,d) -> kbar1_0",
        "forall z1. k1_0(d,z1,c) -> kbar1_0",
    }


def test_head_constant_closers():
    p = parse_program("#domain c, d. r(c) :- not s(c).")
    t = translate(p, OMEGA)
    closers = _axioms_by_schema(t, 7)
    assert [fmt_formula(ax.formula) for ax in closers] == ["k1_0(d) -> kbar1_0"]


def test_question_fanout_lists_clauses_in_input_order():
    p = parse_program("p :- not q. p :- q. q.")
    t = translate(p, OMEGA)
    fanouts = {ax.source: fmt_formula(ax.formula) for ax in _axioms_by_schema(t, 6)}
    assert fanouts["pred p"] == (
        "query_p -> (k1_0 -> kbar1_0) -> (k2_0 -> kbar2_0) -> circ"
    )
    assert fanouts["pred q"] == "query_q -> (k3_0 -> kbar3_0) -> circ"


def test_every_axiom_is_pi1_and_every_target_nullary():
    p = parse_program("#domain c, d. p(x) :- q(x, y), not p(y). q(c, d).")
    t = translate(p, OMEGA)
    for ax in t.axioms:
        assert classify(ax.formula) in (MintsClass.PI1, MintsClass.BOTH)
        _assert_easy(ax.formula)
    assert classify(t.formula) in (MintsClass.SIGMA1, MintsClass.BOTH)


def test_a_translation_shares_its_nullary_atoms_and_quantified_variables():
    # a translation repeats a few nullary targets and quantified variables
    # thousands of times; each name is built once.  The program's own
    # variables x and y carry no digits, so every name below with one was
    # made by the translation
    p = parse_program("#domain c, d. p(x) :- q(x, y), not p(y). q(c, d).")
    objects: dict[str, set[int]] = {}
    stack = [translate(p, OMEGA).formula]
    while stack:
        g = stack.pop()
        if isinstance(g, Impl):
            stack += [g.lhs, g.rhs]
        elif isinstance(g, Forall):
            stack.append(g.body)
        elif not g.args:
            objects.setdefault(g.pred, set()).add(id(g))
        else:
            for t in g.args:
                if t.var and t.name[-1].isdigit():
                    objects.setdefault(t.name, set()).add(id(t))
    assert {"lupa", "circ", "z1", "y1", "w1"} <= set(objects)
    assert all(len(ids) == 1 for ids in objects.values())


def _assert_easy(f):
    """Every implication subformula has a nullary target."""
    from aspsigma.syntax import Forall

    if isinstance(f, Impl):
        _, tgt = peel_sigma1(f) if classify(f) in (
            MintsClass.SIGMA1,
            MintsClass.BOTH,
        ) else (None, None)
        stack = [f]
        while stack:
            g = stack.pop()
            if isinstance(g, Impl):
                tail = g
                while isinstance(tail, Impl):
                    stack.append(tail.lhs)
                    tail = tail.rhs
                    if isinstance(tail, Forall):
                        break
                if isinstance(tail, AtomF):
                    assert tail.arity == 0, fmt_formula(g)
                else:
                    stack.append(tail)
            elif isinstance(g, Forall):
                stack.append(g.body)


def _all_names(voc):
    """Every symbol the vocabulary holds, source predicates included."""
    names = [voc.lupa, voc.omega, voc.case_a, voc.case_b, voc.circ, voc.bullet]
    for s in voc.preds.values():
        names.extend([s.plain, s.bar, s.bang, s.query])
    names.extend(voc.pairs.values())
    for k, kbar in voc.clause_syms.values():
        names.extend([k, kbar])
    return names


def test_mangling_is_injective():
    p = parse_program("p :- not q. q :- not p.")
    t = translate(p, OMEGA)
    names = _all_names(t.vocabulary)
    assert len(names) == len(set(names))


def test_mangling_freshens_collisions():
    p = parse_program("lupa :- not caseA. caseA :- not bar_p. p :- not lupa.")
    t = translate(p, OMEGA)
    names = _all_names(t.vocabulary)
    assert len(names) == len(set(names))
    source = set(p.predicates())
    generated = [n for n in names if n not in source]
    # every synthesized symbol is fresh relative to the program's own names
    assert len(generated) == len(names) - len(source)
    assert not set(generated) & source


def test_rejects_non_nullary_goal():
    from aspsigma.syntax import const

    p = parse_program("p.")
    with pytest.raises(FormulaError):
        translate(p, Atom("q", (const("c"),)))
    with pytest.raises(FormulaError):
        translate(p, Atom("q", (), True))


# ---------------------------------------------------------------------------
# Model contexts
# ---------------------------------------------------------------------------


def test_gamma_m_splits_base():
    p = parse_program("p :- not q. q :- not p.")
    ctx = model_context(translate(p, fresh_goal_atom(p)), frozenset({Atom("p")}))
    assert AtomF("p") in ctx.model_atoms
    assert AtomF("bar_q") in ctx.complement_atoms
    assert len(ctx.model_atoms) + len(ctx.complement_atoms) == 2


def test_gamma_m_empty_model():
    p = parse_program("p.")
    ctx = model_context(translate(p, fresh_goal_atom(p)), frozenset())
    assert ctx.model_atoms == ()
    assert ctx.complement_atoms == (AtomF("bar_p"),)


# ---------------------------------------------------------------------------
# Case analysis
# ---------------------------------------------------------------------------


def _case_a(p, m):
    return translate(p, fresh_goal_atom(p)).case_a(m)


def _case_b(p, m):
    return translate(p, fresh_goal_atom(p)).case_b(m)


def test_case_a_examples():
    p = parse_program("p.")
    assert _case_a(p, frozenset()) is True
    assert _case_a(p, frozenset({Atom("p")})) is False
    assert _case_a(make_program([], {"c"}), frozenset()) is False


def test_case_b_examples():
    assert _case_b(parse_program("p."), frozenset({Atom("p")})) is False
    assert _case_b(parse_program("p :- p."), frozenset({Atom("p")})) is True
    empty_with_p = parse_program("p :- p.")  # language contains p, no support
    assert _case_b(empty_with_p, frozenset({Atom("p")})) is True


def test_case_split_matches_stability():
    programs = [
        "p :- not q. q :- not p.",
        "p :- not p.",
        "p. q :- p.",
        "#domain c, d. p(x) :- not q(x). q(c).",
    ]
    for text in programs:
        p = parse_program(text)
        t = translate(p, OMEGA)
        base = sorted(program_base(p))
        for bits in itertools.product([False, True], repeat=len(base)):
            m = frozenset(a for a, b in zip(base, bits) if b)
            a_v, b_v = t.case_a(m), t.case_b(m)
            assert is_stable(p, m) == (not a_v and not b_v)


# ---------------------------------------------------------------------------
# The provability/entailment equivalence
# ---------------------------------------------------------------------------


def test_proposition_examples():
    cases = [
        ("p :- not p.", "omega", True),
        ("p :- not q. q :- not p.", "omega", False),
        ("p :- not q. q :- not p. r :- p. r :- q.", "r", True),
        ("p.", "q", False),
        ("p. q :- p.", "q", True),
    ]
    for text, goal, expected in cases:
        p = parse_program(text)
        om = Atom(goal)
        assert sms_entails(p, om) == expected
        t = translate(p, om)
        assert (prove_sigma1(t.formula) is not None) == expected, text


def test_empty_program_with_goal_only():
    p = make_program([], {"c"})
    t = translate(p, OMEGA)
    # one stable model (the empty one) and omega is not in it
    assert stable_models(p) == (frozenset(),)
    assert prove_sigma1(t.formula) is None
