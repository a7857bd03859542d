import itertools
import sys
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aspsigma import asp_to_logic, logic_to_asp, proofs, syntax
from aspsigma.corpus import CorpusSpec, fresh_goal_atom, gen_formulas, gen_programs
from aspsigma.errors import FormulaError
from aspsigma.parsing import parse_formula
from aspsigma.proofs import _goal_spine
from aspsigma.syntax import (
    Atom,
    AtomF,
    Clause,
    Forall,
    Impl,
    MintsClass,
    alpha_eq,
    alpha_key,
    classify,
    const,
    fmt_formula,
    fmt_key,
    formula_length,
    free_vars,
    impl_spine,
    make_program,
    occurrences,
    pi1_spine,
    rectify,
    substitute,
    survey,
    var,
)
from oracle import (
    binder_names,
    decompose_pi1,
    peel_sigma1,
    reference_alpha_canon,
    reference_alpha_key,
    reference_classify,
    reference_constants,
    reference_fmt_formula,
    reference_fmt_key,
    reference_occurrences,
    reference_rectify,
    reference_substitute,
)

A = AtomF("A")
B = AtomF("B")
Q = AtomF("Q")


def P(t):
    return AtomF("P", (t,))


def Qa(t):
    return AtomF("Q1", (t,))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_atom_is_both():
    assert classify(AtomF("P", (var("x"),))) is MintsClass.BOTH


def test_forall_impl_is_pi1():
    f = Forall("x", Impl(P(var("x")), Qa(var("x"))))
    assert classify(f) is MintsClass.PI1


def test_impl_with_forall_premise_is_sigma1():
    f = Impl(Forall("x", P(var("x"))), Q)
    assert classify(f) is MintsClass.SIGMA1


def test_strict_classes_and_neither():
    strictly_sigma = Impl(Forall("x", P(var("x"))), Q)
    assert classify(strictly_sigma) is MintsClass.SIGMA1
    strictly_pi = Impl(strictly_sigma, Q)
    assert classify(strictly_pi) is MintsClass.PI1
    assert classify(Impl(strictly_pi, Q)) is MintsClass.SIGMA1
    # a quantifier over a strictly-Sigma1 body fits neither grammar
    neither = Forall("y", strictly_sigma)
    assert classify(neither) is MintsClass.NEITHER


# Exhaustive comparison with a generative reference for the two grammars.


def _enumerate_formulas(max_size: int):
    """All formulas up to max_size over two unary predicates and two variables."""
    atoms = [AtomF(p, (var(v),)) for p in ("P", "Q") for v in ("x", "y")]
    by_size: dict[int, list] = {2: list(atoms)}
    for size in range(3, max_size + 1):
        items: list = []
        for lsize in range(2, size - 2):
            rsize = size - 1 - lsize
            if rsize < 2:
                continue
            for l in by_size.get(lsize, []):
                for r in by_size.get(rsize, []):
                    items.append(Impl(l, r))
        for v in ("x", "y"):
            for b in by_size.get(size - 1, []):
                items.append(Forall(v, b))
        by_size[size] = items
    for size, items in sorted(by_size.items()):
        yield from items


def _reference_grammar_sets(max_size: int):
    """Bottom-up closure of the two grammar productions, by size."""
    atoms = [AtomF(p, (var(v),)) for p in ("P", "Q") for v in ("x", "y")]
    sigma: dict[int, set] = {2: set(atoms)}
    pi: dict[int, set] = {2: set(atoms)}
    for size in range(3, max_size + 1):
        s_items: set = set()
        p_items: set = set()
        for lsize in range(2, size - 2):
            rsize = size - 1 - lsize
            for l in pi.get(lsize, set()):
                for r in sigma.get(rsize, set()):
                    s_items.add(Impl(l, r))
            for l in sigma.get(lsize, set()):
                for r in pi.get(rsize, set()):
                    p_items.add(Impl(l, r))
        for v in ("x", "y"):
            for b in pi.get(size - 1, set()):
                p_items.add(Forall(v, b))
        sigma[size] = s_items
        pi[size] = p_items
    return (
        set().union(*sigma.values()),
        set().union(*pi.values()),
    )


def test_classify_matches_grammar_enumeration_up_to_size_12():
    max_size = 12
    sigma_set, pi_set = _reference_grammar_sets(max_size)
    checked = 0
    for f in _enumerate_formulas(max_size):
        expected_s = f in sigma_set
        expected_p = f in pi_set
        got = classify(f)
        assert (got in (MintsClass.SIGMA1, MintsClass.BOTH)) == expected_s, fmt_formula(f)
        assert (got in (MintsClass.PI1, MintsClass.BOTH)) == expected_p, fmt_formula(f)
        checked += 1
    assert checked > 1000


# ---------------------------------------------------------------------------
# Substitution and rectification
# ---------------------------------------------------------------------------


# binders and names that collide with the fresh names x1, x2, ...
_RECTIFY_NAMES = ["x", "x1", "x2", "y"]
_RECTIFY_TERMS = [var(n) for n in _RECTIFY_NAMES] + [const("x1"), const("x3"), const("c")]
_RECTIFY_FORMULAS = st.recursive(
    st.one_of(
        st.just(A),
        st.builds(P, st.sampled_from(_RECTIFY_TERMS)),
        st.builds(
            lambda t, u: AtomF("R", (t, u)),
            st.sampled_from(_RECTIFY_TERMS),
            st.sampled_from(_RECTIFY_TERMS),
        ),
    ),
    lambda sub: st.one_of(
        st.builds(Impl, sub, sub),
        st.builds(Forall, st.sampled_from(_RECTIFY_NAMES), sub),
    ),
    max_leaves=10,
)


def test_substitute_simple():
    assert substitute(P(var("x")), {"x": const("c")}) == P(const("c"))


def test_substitute_under_binder():
    f = Forall("x", AtomF("P", (var("x"), var("y"))))
    got = substitute(f, {"y": const("c")})
    assert got == Forall("x", AtomF("P", (var("x"), const("c"))))


def test_substitute_bound_occurrence_untouched():
    f = Forall("x", P(var("x")))
    assert substitute(f, {"x": const("c")}) == f


def test_substitute_with_an_empty_mapping_makes_no_walk(monkeypatch):
    # a closed member's assignment is empty: analysis substitutes it all the
    # same, and each nested member of a deep formula was rebuilt node by node
    calls = []
    real = syntax._rebuild

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(syntax, "_rebuild", counted)
    f = Forall("x", Impl(P(var("x")), AtomF("Q", (var("y"),))))
    assert substitute(f, {}) is f
    assert not calls
    assert substitute(f, {"y": const("c")}) != f and len(calls) == 1


def test_substitute_capture_avoidance():
    f = Forall("x", AtomF("P", (var("x"), var("y"))))
    got = substitute(f, {"y": var("x")})
    assert isinstance(got, Forall)
    assert got.var != "x"
    assert got.body == AtomF("P", (var(got.var), var("x")))


def test_substitute_renames_a_binder_its_image_would_capture():
    # x1 does not occur in the body, but its image y would be bound by the
    # quantifier; renamed apart, the formula stays what it was
    s, r = AtomF("s", (var("y"),)), AtomF("r", (var("y"),))
    f = Forall("y", Impl(s, r))
    assert alpha_eq(substitute(f, {"x1": var("y")}), f)


def test_substitute_never_replaces_a_renamed_binder():
    # x is renamed to x1, which the mapping also sends to c; the renamed
    # occurrence must stay bound, not become c
    f = Forall("x", AtomF("p", (var("x"), var("z"))))
    got = substitute(f, {"z": var("x"), "x1": const("c")})
    assert alpha_eq(got, Forall("w", AtomF("p", (var("w"), var("x")))))


_SUBSTITUTIONS = st.dictionaries(
    st.sampled_from(_RECTIFY_NAMES), st.sampled_from(_RECTIFY_TERMS), max_size=3
)


@given(_RECTIFY_FORMULAS, _SUBSTITUTIONS)
@example(Forall("y", Impl(P(var("y")), Qa(var("y")))), {"x1": var("y")})
@example(
    Forall("x", AtomF("R", (var("x"), var("y")))), {"y": var("x"), "x1": const("c")}
)
@example(Forall("x", Forall("x1", AtomF("R", (var("x"), var("y"))))), {"y": var("x")})
def test_substitute_free_variable_accounting(f, mapping):
    # unrectified formulas and images that clash with the binders and with
    # the fresh names x1, x2, ...
    fv = free_vars(f)
    got = substitute(f, mapping)
    images = {mapping[v].name for v in fv & mapping.keys() if mapping[v].var}
    assert free_vars(got) == (fv - mapping.keys()) | images
    for v in fv & mapping.keys():
        if not mapping[v].var:
            assert mapping[v].name in reference_constants(got)
    # the same substitution where no binder can capture: with the binders
    # renamed apart first, the reference's capture path never runs
    apart = _rename_binders(f, [f"v{i}" for i in range(len(binder_names(f)))])
    assert alpha_eq(got, reference_substitute(apart, mapping))
    for v in _RECTIFY_NAMES:
        assert alpha_eq(substitute(f, {v: var(v)}), f)


def test_substitute_matches_the_reference_on_the_library_traffic(monkeypatch):
    # every mapping the library substitutes while it proves, checks,
    # analyses and translates the seed-0 corpora (prover instances,
    # question schemas and frozen free variables) maps to constants; on
    # those the walk must give what the reference gives
    calls = []

    def recording(f, mapping):
        calls.append((f, dict(mapping)))
        return substitute(f, mapping)

    monkeypatch.setattr(proofs, "substitute", recording)
    monkeypatch.setattr(logic_to_asp, "substitute", recording)
    for p in gen_programs(CorpusSpec(count=500, seed=0)):
        phi = asp_to_logic.translate(p, fresh_goal_atom(p)).formula
        cert = proofs.prove_sigma1(phi)
        if cert is not None:
            assert proofs.check(proofs.Environment(), cert, phi)
    for phi in gen_formulas(CorpusSpec(count=600, seed=0, formula_max_size=20)):
        an = logic_to_asp.analysis(phi)
        proofs.prove_sigma1(phi)
        logic_to_asp.translate(phi, addr_len=1, an=an)
    assert len(calls) > 10_000
    for f, mapping in calls:
        assert not any(t.var for t in mapping.values())
        assert substitute(f, mapping) == reference_substitute(f, mapping)


def test_rectify_renames_duplicate_binders():
    f = Impl(Forall("x", P(var("x"))), Forall("x", P(var("x"))))
    r = rectify(f)
    # rectified: no name bound twice, no free name also bound
    names = binder_names(r)
    assert len(names) == len(set(names)) and not (set(names) & free_vars(r))
    assert fmt_formula(r) != fmt_formula(f)


def test_rectify_keeps_clean_formulas():
    f = Forall("x", Impl(P(var("x")), Qa(var("x"))))
    assert rectify(f) == f


@given(_RECTIFY_FORMULAS)
@example(Forall("x", Forall("x", Forall("x1", Forall("x", P(var("x")))))))
@example(Impl(Forall("x", P(const("x1"))), Forall("x", Forall("x", P(var("x2"))))))
def test_rectify_matches_the_reference(f):
    assert rectify(f) == reference_rectify(f)


def test_rectify_renames_a_long_binder_prefix():
    # forall x. forall x. ... P(x): every binder after the first is renamed,
    # and the search for a fresh name resumes where the last one stopped
    n = 10**4
    f = parse_formula("forall x. " * n + "P(x)")
    names = []
    while isinstance(f, Forall):
        names.append(f.var)
        f = f.body
    assert names == ["x"] + [f"x{i}" for i in range(1, n)]
    assert f == P(var(f"x{n - 1}"))


def _left_nested(n, bottom, names):
    """((...(forall x. (bottom -> a1(c)) -> a2(x)) ...) -> an(x)) -> b, whose
    quantifiers, outermost first, bind ``names``; each binds the atoms of
    its even level and of the odd level below it."""
    names = reversed(names)
    f = Impl(bottom, AtomF("a1", (const("c"),)))
    for i in range(2, n + 1, 2):
        x = var(next(names))
        if i > 2:
            f = Impl(f, AtomF(f"a{i - 1}", (x,)))
        f = Forall(x.name, Impl(f, AtomF(f"a{i}", (x,))))
    return Impl(f, B)


def test_a_2000_deep_left_nested_quantified_formula_is_rebuilt(default_recursion_limit):
    # nested 2000 premises deep, with x bound on every even level: rectify
    # renames the binders in preorder, outermost first, and substitute walks
    # to the free y at the bottom, neither on Python's stack
    n = 2000
    y, c = AtomF("a0", (var("y"),)), AtomF("a0", (const("c"),))
    f = _left_nested(n, y, ["x"] * (n // 2))
    renamed = ["x"] + [f"x{i}" for i in range(1, n // 2)]
    with default_recursion_limit():
        # == on the dataclasses would recurse; the text names the binders
        # and the key tells variables from constants
        for got, want in [
            (rectify(f), _left_nested(n, y, renamed)),
            (substitute(f, {"y": const("c")}), _left_nested(n, c, ["x"] * (n // 2))),
        ]:
            assert fmt_formula(got) == fmt_formula(want)
            assert alpha_key(got) == alpha_key(want)
        assert substitute(f, {"x": const("d")}) is f


def test_a_variable_image_renames_a_2000_deep_formula_once():
    # the image x is bound by the outermost binder, which is renamed; it takes
    # a name no binder of the formula has, so no binder further in is renamed
    # (a rename walked its whole body and forced a rename of the next binder
    # in, 2.3 s at this depth on a 2-vCPU host)
    n = 2000
    y = AtomF("a0", (var("y"),))
    f = rectify(_left_nested(n, y, ["x"] * (n // 2)))
    start = time.monotonic()
    got = substitute(f, {"y": var("x")})
    assert time.monotonic() - start < 0.5
    apart = _left_nested(n, y, [f"v{i}" for i in range(n // 2)])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 10 * n))  # the reference recurses per premise
    try:
        want = reference_substitute(apart, {"y": var("x")})
    finally:
        sys.setrecursionlimit(old)
    assert alpha_key(got) == alpha_key(want)


# ---------------------------------------------------------------------------
# Alpha-equivalence
# ---------------------------------------------------------------------------

# x and c are each both a variable name and a constant name
_ALPHA_TERMS = [var("x"), var("y"), var("c"), const("c"), const("x")]
_ALPHA_BINDERS = ["x", "y", "c"]
_ALPHA_FORMULAS = st.recursive(
    st.one_of(
        st.just(A),
        st.builds(P, st.sampled_from(_ALPHA_TERMS)),
        st.builds(
            lambda t, u: AtomF("R", (t, u)),
            st.sampled_from(_ALPHA_TERMS),
            st.sampled_from(_ALPHA_TERMS),
        ),
    ),
    lambda sub: st.one_of(
        st.builds(Impl, sub, sub),
        st.builds(Forall, st.sampled_from(_ALPHA_BINDERS), sub),
    ),
    max_leaves=6,
)


def _rename_binders(f, names):
    """``f`` with its binders renamed, in preorder, to ``names``; each
    occurrence follows the binder that bound it, so a renaming can capture."""
    names = iter(names)

    def walk(g, ren):
        if isinstance(g, AtomF):
            return AtomF(
                g.pred,
                tuple(var(ren[t.name]) if t.var and t.name in ren else t for t in g.args),
            )
        if isinstance(g, Impl):
            lhs = walk(g.lhs, ren)
            return Impl(lhs, walk(g.rhs, ren))
        name = next(names)
        return Forall(name, walk(g.body, {**ren, g.var: name}))

    return walk(f, {})


@st.composite
def _alpha_pairs(draw):
    """Two formulas: a binder renaming of one formula, to fresh names (always
    alpha-equal) or to reused ones (which may capture), or two drawn alike."""
    f = draw(_ALPHA_FORMULAS)
    how = draw(st.sampled_from(["fresh", "reused", "drawn"]))
    if how == "drawn":
        return f, draw(_ALPHA_FORMULAS)
    n = len(binder_names(f))
    if how == "fresh":
        names = [f"v{i}" for i in range(n)]
    else:
        names = draw(st.lists(st.sampled_from(_ALPHA_BINDERS), min_size=n, max_size=n))
    return f, _rename_binders(f, names)


_X, _Y = var("x"), var("y")


@given(_alpha_pairs())
# shadowed binders: forall x. (forall x. P(x)) -> P(x)
@example((
    Forall("x", Impl(Forall("x", P(_X)), P(_X))),
    Forall("y", Impl(Forall("x", P(_X)), P(_Y))),
))
@example((
    Forall("x", Impl(Forall("x", P(_X)), P(_X))),
    Forall("y", Impl(Forall("y", P(_X)), P(_Y))),
))
# vacuous binders
@example((Forall("x", A), Forall("y", A)))
@example((Forall("x", A), A))
@example((Forall("x", Forall("x", P(_X))), Forall("y", Forall("x", P(_X)))))
# a free variable named like a constant
@example((P(_X), P(const("x"))))
@example((Forall("y", P(_X)), Forall("x", P(_X))))
def test_alpha_key_agrees_with_alpha_canon(pair):
    f, g = pair
    assert (alpha_key(f) == alpha_key(g)) == (
        reference_alpha_canon(f) == reference_alpha_canon(g)
    )
    assert fmt_key(alpha_key(f)) == fmt_formula(reference_alpha_canon(f))


@given(_ALPHA_FORMULAS)
# a premise nested in a premise, and one under a quantifier
@example(Impl(Impl(Impl(A, B), Forall("x", Impl(P(_X), A))), Q))
def test_the_printers_match_their_recursive_references(f):
    assert fmt_formula(f) == reference_fmt_formula(f)
    key = alpha_key(f)
    assert fmt_key(key) == reference_fmt_key(key)


def test_a_2000_deep_left_nested_formula_prints(default_recursion_limit):
    # ((...((a0 -> a1) -> a2) ...) -> a2000) -> b nests its premises 2000
    # deep; the recursive printers exceed Python's default recursion limit
    f = AtomF("a0")
    for i in range(1, 2001):
        f = Impl(f, AtomF(f"a{i}"))
    f = Impl(f, AtomF("b"))
    text = "(" * 2000 + "a0 -> a1" + "".join(f") -> a{i}" for i in range(2, 2001)) + ") -> b"
    with default_recursion_limit():
        assert fmt_formula(f) == text
        assert fmt_key(alpha_key(f)) == text
        assert alpha_key(parse_formula(text)) == alpha_key(f)


@given(_ALPHA_FORMULAS)
# shadowed binders, with x also free outside them
@example(Impl(Forall("x", Impl(Forall("x", P(_X)), P(_X))), P(_X)))
@example(Forall("x", Forall("x", AtomF("R", (_X, _Y)))))
# a variable and a constant of one name
@example(Impl(P(_X), P(const("x"))))
# not Pi1: a quantified premise; neither class; a quantifier under a premise
@example(Impl(Forall("y", P(_Y)), A))
@example(Impl(Forall("y", P(_Y)), Forall("x", P(_X))))
@example(Forall("x", Impl(Impl(Forall("y", P(_Y)), A), P(_X))))
@example(Impl(Impl(A, Forall("y", P(_Y))), B))
def test_survey_agrees_with_the_single_walkers(f):
    facts = survey(f)
    assert facts.key == reference_alpha_key(f) == alpha_key(f)
    assert facts.constants == reference_constants(f)
    assert facts.free == free_vars(f)
    cls = reference_classify(f)
    assert facts.sigma1 == (cls in (MintsClass.SIGMA1, MintsClass.BOTH))
    assert facts.pi1 == (cls in (MintsClass.PI1, MintsClass.BOTH))
    if facts.pi1:
        assert pi1_spine(f) == decompose_pi1(f)
    if facts.sigma1:
        assert impl_spine(f) == peel_sigma1(f)


@given(_ALPHA_FORMULAS)
# a quantified target, with a variable free under it and one in a premise
@example(Impl(P(_Y), Forall("y", P(_X))))
@example(Impl(Forall("y", P(_Y)), Impl(P(_X), A)))
def test_goal_spine_agrees_with_the_whole_survey(f):
    # the prover surveys a goal's premises one by one and reads its class,
    # constants and free variables off those surveys and the target
    spine = _goal_spine(f)
    facts = survey(f)
    assert (spine.premises, spine.target) == impl_spine(f)
    assert spine.keys == [alpha_key(p) for p in spine.premises]
    assert spine.constants == facts.constants
    assert spine.free == facts.free
    assert spine.sigma1 == facts.sigma1


# ---------------------------------------------------------------------------
# Pi1 decomposition
# ---------------------------------------------------------------------------


def test_decompose_atom():
    s = decompose_pi1(A)
    assert s.top_vars == () and s.steps == () and s.target == A


def test_decompose_nested():
    # forall x (P(x) -> forall y (Q1(y) -> B))
    f = Forall("x", Impl(P(var("x")), Forall("y", Impl(Qa(var("y")), B))))
    s = decompose_pi1(f)
    assert s.top_vars == ("x", "y")
    assert [st_.vars_visible for st_ in s.steps] == [1, 2]
    assert s.target == B
    assert peel_sigma1(s.steps[0].sigma) == ((), P(var("x")))


def test_decompose_trailing_quantifier():
    f = Impl(A, Forall("x", P(var("x"))))
    s = decompose_pi1(f)
    assert s.top_vars == ("x",)
    assert len(s.steps) == 1 and s.steps[0].vars_visible == 0
    assert s.target == P(var("x"))


def test_peel_sigma1():
    prem, tgt = peel_sigma1(Impl(A, Impl(B, Q)))
    assert prem == (A, B) and tgt == Q


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def test_program_rejects_negated_head():
    with pytest.raises(FormulaError):
        Clause(Atom("p", (), True))


def test_make_program_defaults_domain_for_propositional():
    p = make_program([Clause(Atom("p"), (Atom("p", (), True),))])
    assert len(p.domain) == 1


def test_make_program_requires_constants_with_variables():
    with pytest.raises(FormulaError):
        make_program([Clause(Atom("p", (var("x"),)))])


def test_occurrences_indexing():
    f = Impl(A, Forall("x", P(var("x"))))
    occ = occurrences(f)
    assert [o.formula for o in occ] == [f, A, Forall("x", P(var("x"))), P(var("x"))]
    assert formula_length(f) == 1 + 1 + 1 + 2


@given(_ALPHA_FORMULAS)
def test_occurrences_match_the_recursive_walk(f):
    assert occurrences(f) == reference_occurrences(f)


def test_occurrences_match_the_recursive_walk_on_the_corpus():
    for phi in gen_formulas(CorpusSpec(count=600, seed=0, formula_max_size=20)):
        assert occurrences(phi) == reference_occurrences(phi), fmt_formula(phi)
