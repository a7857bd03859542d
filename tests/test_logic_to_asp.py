import dataclasses
import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspsigma import logic_to_asp, syntax
from aspsigma.corpus import CorpusSpec, gen_formulas
from aspsigma.engine import GroundProgram, atom_key, has_stable_model, is_stable
from aspsigma.errors import ArityError, CapExceeded, FormulaError
from aspsigma.logic_to_asp import (
    _answers_first,
    analysis,
    certified_addr_len,
    decide_by_translation,
    reachable_cone,
    translate,
)
from aspsigma.parsing import parse_formula
from aspsigma.proofs import prove_sigma1
from aspsigma.syntax import (
    Atom,
    AtomF,
    Forall,
    Impl,
    Program,
    alpha_key,
    const,
    fmt_formula,
    impl_chain,
    occurrences,
    var,
)
from lemmas import from_clauses
from oracle import (
    reference_clauses,
    reference_signature_facts,
    reference_translate,
    reference_validate_schema,
)


# ---------------------------------------------------------------------------
# the signature of analysis
# ---------------------------------------------------------------------------


def _signature(phi):
    """The signature and the question schemas of its environment occurrences."""
    sig = analysis(phi).sig
    return sig, [sig.schemas[i] for i in sig.env_occs]


def test_analyze_identity_formula():
    sig, schemas = _signature(parse_formula("a -> a"))
    assert sig.target == AtomF("a")
    assert len(sig.premises) == 1
    (schema,) = schemas
    assert schema.top_vars == () and schema.steps == ()
    assert schema.head == AtomF("a")


def test_analyze_nested_quantifier_blocks():
    # adapted from an arity-consistent nesting: head uses the second top
    # variable and a free-variable constant
    phi = parse_formula(
        "(forall y1. R(y1, c2) -> (forall y2. P(y1, c1) -> S(c1, y2, y3))) -> S(c1, c4, y3)"
    )
    sig, schemas = _signature(phi)
    (schema,) = [s for s in schemas if s.top_vars]
    assert len(schema.top_vars) == 2
    assert schema.head.pred == "S"
    assert [s.vars_visible for s in schema.steps] == [1, 2]
    # the head mentions the second top variable and the free constant
    head_args = {t.name for t in schema.head.args}
    assert schema.top_vars[1] in head_args
    assert "y3" in {t.name for t in schema.head.args if not t.var}


def test_analyze_rejects_non_sigma1():
    with pytest.raises(FormulaError):
        analysis(parse_formula("forall x. P(x)"))


# ---------------------------------------------------------------------------
# translate, structurally
# ---------------------------------------------------------------------------


def test_every_question_answered_clause_shape():
    t = translate(parse_formula("b -> a"), addr_len=1)
    shapes = {
        str(c)
        for c in t.program.clauses
        if c.head.pred == "f" and any(a.pred == "q" for a in c.body)
    }
    # F <= not Y(...), Q(...), not F
    for s in shapes:
        assert s.startswith("f :- not y(")
        assert ", q(" in s and s.endswith("not f.")


def test_unique_goal_clauses_are_self_blocking():
    t = translate(parse_formula("((a -> b) -> a) -> a"), addr_len=1)
    rows = [
        c
        for c in t.program.clauses
        if c.head.pred == "f"
        and sum(a.pred.startswith("goal_") for a in c.body) == 2
    ]
    assert rows
    for c in rows:
        assert any(a.negated and a.pred == "f" for a in c.body)


def test_initial_facts_pin_the_first_address():
    t = translate(parse_formula("b -> a"), addr_len=2)
    facts = {str(c) for c in t.program.clauses if not c.body}
    assert "goal_a(0,0)." in facts
    assert any(s.startswith("env(f1,") and s.endswith("0,0).") for s in facts)


def test_initial_environment_follows_instance_keys():
    # the hypothesis a (occurrence 7) and the premise a of a -> c (occurrence
    # 3) share a key, so both start in the environment at the first address
    t = translate(parse_formula("((a -> c) -> b) -> a -> b"), addr_len=1)
    an, b = t.analysis, t.builder
    facts = {atom_key(c.head) for c in t.program.clauses if not c.body}
    assert sum(p.key == alpha_key(AtomF("a")) for p in an.instances) == 2
    for p in an.instances:
        initial = p.key in an.initial_keys
        assert (b.env(p.index, "0") in facts) == initial
        assert (b.nenv(p.index, "0") in facts) == (not initial)
    assert t.counts["05_initial_env"] == 3 and "06_initial_nenv" not in t.counts


def test_full_facts_enumerates_star_positions():
    # with two constants, the irrelevant substitution slot of the head fact
    # ranges over both of them under --full-facts
    phi = parse_formula("(forall x. P(x) -> Q(d)) -> P(c) -> g")
    lazy = translate(phi, addr_len=1, full_facts=False)
    full = translate(phi, addr_len=1, full_facts=True)
    lazy_heads = [c for c in lazy.program.clauses if c.head.pred.startswith("hd_")]
    full_heads = [c for c in full.program.clauses if c.head.pred.startswith("hd_")]
    assert len(full_heads) > len(lazy_heads)
    # both variants decide existence the same way
    lazy_model = has_stable_model(lazy.ground_program, branch_priority=_answers_first)
    full_model = has_stable_model(full.ground_program, branch_priority=_answers_first)
    assert (lazy_model is None) == (full_model is None)


def test_emission_cap_reports_feasible_length(monkeypatch):
    monkeypatch.setattr(logic_to_asp, "EMISSION_CAP", 2000)
    phi = parse_formula("(forall x. P(x) -> Q(x)) -> P(c) -> Q(d)")
    with pytest.raises(CapExceeded) as e:
        translate(phi, addr_len=8)
    assert e.value.feasible is not None and e.value.feasible < 8


def test_emission_cap_bounds_the_rows_exactly(monkeypatch):
    # 837 rows at address length 3: one row over the cap raises, and a cap
    # of exactly the rows lets them all through
    phi = parse_formula("((a -> b -> c -> d) -> e) -> e")
    monkeypatch.setattr(logic_to_asp, "EMISSION_CAP", 836)
    with pytest.raises(CapExceeded) as e:
        translate(phi, addr_len=3)
    assert str(e.value) == "emission of 837 clauses exceeds the cap 836 at address length 3"
    assert e.value.feasible == 2
    monkeypatch.setattr(logic_to_asp, "EMISSION_CAP", 837)
    assert len(translate(phi, addr_len=3).ground_program.heads) == 837


def test_header_records_sizes():
    t = translate(parse_formula("b -> a"), addr_len=1)
    header = t.header()
    assert "n=3" in header and "r=0" in header and "length 1" in header


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------


def test_decide_examples():
    # each verdict is the one direct proof search reaches
    for text, refutable in (("b -> a", True), ("a -> a", False), ("a", True)):
        phi = parse_formula(text)
        assert decide_by_translation(phi).refutable is refutable
        assert (prove_sigma1(phi) is None) is refutable


def test_soundness_at_any_addr_len():
    spec = CorpusSpec(count=25, seed=17, formula_max_size=7)
    for phi in gen_formulas(spec):
        provable = prove_sigma1(phi) is not None
        for l in (1, 2, 3):
            try:
                t = translate(phi, addr_len=l)
            except CapExceeded:
                continue
            witness = has_stable_model(
                t.ground_program, branch_priority=_answers_first
            )
            if witness is not None:
                assert not provable, fmt_formula(phi)
                assert is_stable(t.ground_program, witness)
                # no two goals share an address, and the false atom is absent
                assert Atom("f") not in witness
                keys = {atom_key(a) for a in witness}
                for bits in t.builder.all_addresses():
                    goals = [
                        g
                        for g in t.analysis.goal_universe
                        if t.builder.goal(g, bits) in keys
                    ]
                    assert len(goals) <= 1


def test_descendant_substitutions_mix_member_and_top_variables():
    # the inner premise R(x,y) inherits x from its member's own substitution
    # and y from the question's top-variable instantiation
    phi = parse_formula(
        "(forall x. ((forall y. (R(x, y) -> g) -> g) -> g) -> g) -> R(c, d) -> g"
    )
    an = analysis(phi)
    # the member 'forall y. (R(x,y) -> g) -> g' has instances for x:=c and x:=d
    keyed = {}
    for p in an.instances:
        if dict(p.assign).keys() == {"x"}:
            keyed[dict(p.assign)["x"]] = p
    assert set(keyed) == {"c", "d"}
    for x_val, member in keyed.items():
        for q in an.questions:
            if q.inst != member.index or not q.answers:
                continue
            t_map = dict(q.t_assign)
            (opt,) = q.answers
            (tau_idx,) = opt.taus
            tau = an.instances[tau_idx]
            tau_assign = dict(tau.assign)
            assert tau_assign["x"] == x_val  # inherited from the member
            assert tau_assign["y"] == t_map["y"]  # set by the question


def test_certified_length_covers_cone():
    phi = parse_formula("((a -> b) -> c) -> ((b -> a) -> c) -> c")
    an = analysis(phi)
    cone = reachable_cone(an)
    l = certified_addr_len(an)
    assert 2**l >= len(cone)
    # this formula needs three distinct judgments, so one bit cannot be enough
    assert l >= 2


# ---------------------------------------------------------------------------
# the emitted rows against the clause route
# ---------------------------------------------------------------------------


def _assert_rows_match_the_clause_route(t):
    """The rows ``translate`` emits are the rows the engine's clause route
    interns from ``t.program.clauses``: the same atom table, ``heads``,
    ``pos``, ``neg`` and ``negated``, and the same first witness."""
    g = t.ground_program
    h = from_clauses(t.program.clauses)
    assert list(h.ids) == list(g.ids)
    assert [h.atom(i) for i in h.ids.values()] == [g.atom(i) for i in g.ids.values()]
    assert (h.heads, h.pos, h.neg) == (g.heads, g.pos, g.neg)
    assert h.compiled().negated == g.compiled().negated
    assert has_stable_model(h, branch_priority=_answers_first) == has_stable_model(
        g, branch_priority=_answers_first
    )


_PREMISES = st.sampled_from(
    [
        "a",
        "P(c)",
        "a -> b",
        "(a -> b) -> a",
        "(b -> a) -> P(d)",
        "forall x. P(x) -> Q(x)",
        "forall x. (P(x) -> a) -> Q(x)",
        "forall x. forall y. R(x, y) -> P(y)",
        "forall x. Q(x)",
    ]
)
_TARGETS = st.sampled_from(["a", "b", "P(c)", "Q(d)"])


@settings(max_examples=60, deadline=None)
@given(st.lists(_PREMISES, min_size=1, max_size=3), _TARGETS, st.integers(1, 2))
def test_emitted_rows_match_the_clause_route(premises, target, addr_len):
    text = " -> ".join([f"({p})" for p in premises] + [target])
    _assert_rows_match_the_clause_route(translate(parse_formula(text), addr_len=addr_len))


def test_seed0_rows_match_the_clause_route():
    for phi in gen_formulas(CorpusSpec(count=600, seed=0, formula_max_size=20)):
        an = analysis(phi)
        t = translate(phi, addr_len=certified_addr_len(an), an=an)
        _assert_rows_match_the_clause_route(t)


def _chain_text(n):
    """The chain P(c) -> a0 -> ... -> g of formula length n."""
    return " -> ".join(["P(c)"] + [f"a{i}" for i in range((n - 4) // 2)] + ["g"])


def test_decoded_clauses_match_the_reference():
    # the seed-0 formulas at their certified address length, and chains of
    # length 50 to 500 at address length 2
    for phi in gen_formulas(CorpusSpec(count=600, seed=0, formula_max_size=20)):
        an = analysis(phi)
        g = translate(phi, addr_len=certified_addr_len(an), an=an).ground_program
        assert g.clauses == reference_clauses(g)
    for n in range(50, 501, 50):
        g = translate(parse_formula(_chain_text(n)), addr_len=2).ground_program
        assert g.clauses == reference_clauses(g)


def test_seed0_translation_text_is_pinned():
    # SHA-256 over the header and program text of the 600 seed-0 formulas
    # at their certified address length, computed on the clause-object
    # emitter that the integer rows replaced
    digest = hashlib.sha256()
    for phi in gen_formulas(CorpusSpec(count=600, seed=0, formula_max_size=20)):
        an = analysis(phi)
        t = translate(phi, addr_len=certified_addr_len(an), an=an)
        digest.update((t.header() + "\n" + str(t.program)).encode())
    assert digest.hexdigest()[:16] == "127fbabb6f0d2f0a"


def test_seed0_key_text_is_pinned():
    # SHA-256 over the 1242 alpha-canonical texts of the 600 seed-0 formulas,
    # in key_text order, which sets the scan order of the soup search;
    # computed when the texts were printed from renamed formula trees
    digest = hashlib.sha256()
    count = 0
    for phi in gen_formulas(CorpusSpec(count=600, seed=0, formula_max_size=20)):
        for text in analysis(phi).key_text.values():
            digest.update(text.encode() + b"\n")
            count += 1
    assert count == 1242
    assert digest.hexdigest()[:16] == "bc0b9a7fb2943942"


def test_analysis_builds_a_2000_step_chain(default_recursion_limit):
    # a0 -> (a0 -> a1) -> ... -> (a1999 -> a2000) -> a2000; a recursive
    # occurrence walk ran out of stack from about 1000 steps
    n = 2000
    a = [AtomF(f"a{i}") for i in range(n + 1)]
    phi = impl_chain([a[0]] + [Impl(a[i], a[i + 1]) for i in range(n)], a[n])
    with default_recursion_limit():
        an = analysis(phi)
    assert len(an.sig.occs) == 4 * n + 3
    assert len(an.sig.premises) == n + 1
    assert an.sig.target == a[n]
    assert an.source is phi


# ---------------------------------------------------------------------------
# the id-table emitter and the one-pass signature against their references
# ---------------------------------------------------------------------------


def _assert_emission_matches_the_reference(phi, addr_len, full_facts, an=None):
    """``translate`` numbers and writes the rows the reference emitter, which
    builds and looks up a key per atom occurrence, numbers and writes."""
    t = translate(phi, addr_len=addr_len, full_facts=full_facts, an=an)
    ref = reference_translate(phi, addr_len, full_facts, an=t.analysis)
    g, h = t.ground_program, ref.ground_program
    assert list(g.ids.items()) == list(h.ids.items())
    assert (g.heads, g.pos, g.neg) == (h.heads, h.pos, h.neg)
    assert t.counts == ref.counts
    assert t.syntax_facts == ref.syntax_facts


def test_seed0_emission_matches_the_reference_emitter():
    for phi in gen_formulas(CorpusSpec(count=600, seed=0, formula_max_size=20)):
        an = analysis(phi)
        for addr_len in (1, 2, 3):
            for full_facts in (False, True):
                _assert_emission_matches_the_reference(phi, addr_len, full_facts, an)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_PREMISES, min_size=1, max_size=3),
    _TARGETS,
    st.integers(1, 2),
    st.booleans(),
)
def test_emission_matches_the_reference_emitter(premises, target, addr_len, full_facts):
    text = " -> ".join([f"({p})" for p in premises] + [target])
    _assert_emission_matches_the_reference(parse_formula(text), addr_len, full_facts)


def _facts(walk, phi):
    """What ``walk`` finds in ``phi``, or the text of the ``ArityError`` it
    raises."""
    try:
        return walk(phi)
    except ArityError as e:
        return str(e)


def _one_pass(phi):
    return logic_to_asp._occurrence_facts(occurrences(phi))


# atoms whose predicates clash in arity, with free and bound variables
_ANY_FORMULAS = st.recursive(
    st.sampled_from(
        [
            AtomF("a"),
            AtomF("a", (const("c"),)),
            AtomF("P", (var("x"),)),
            AtomF("P", (const("c"),)),
            AtomF("P", (var("x"), var("y"))),
            AtomF("Q", (var("y"),)),
        ]
    ),
    lambda sub: st.one_of(
        st.builds(Impl, sub, sub), st.builds(Forall, st.sampled_from("xyz"), sub)
    ),
    max_leaves=10,
)


@given(_ANY_FORMULAS)
def test_occurrence_facts_match_the_reference_walks(phi):
    # the length, the arities (or the clash), the binders in preorder and
    # each occurrence's free variables, against a walk and free_vars each
    assert _facts(_one_pass, phi) == _facts(reference_signature_facts, phi)


def test_seed0_occurrence_facts_match_the_reference_walks():
    for phi in gen_formulas(CorpusSpec(count=600, seed=0, formula_max_size=20)):
        assert _one_pass(phi) == reference_signature_facts(phi), fmt_formula(phi)
        # the schemas read off that pass pass the scope check free_vars made
        sig = analysis(phi).sig
        for occ in sig.env_occs:
            reference_validate_schema(sig.occs, sig.schemas[occ])


def test_analysis_of_a_deep_formula_calls_no_free_vars(monkeypatch):
    # ((...((a0 -> a1) -> a2) ...) -> a300) -> b nests its members 300 deep:
    # free_vars walked each nested member again, once for its schema and
    # again for each of the schema's scope assertions
    calls = []
    walk = syntax.free_vars

    def counted(f):
        calls.append(f)
        return walk(f)

    monkeypatch.setattr(syntax, "free_vars", counted)
    monkeypatch.setattr(logic_to_asp, "free_vars", counted, raising=False)
    f = AtomF("a0")
    for i in range(1, 301):
        f = Impl(f, AtomF(f"a{i}"))
    an = analysis(Impl(f, AtomF("b")))
    assert an.sig.target == AtomF("b") and an.sig.n == 603
    assert not calls, f"{len(calls)} free_vars calls"


def test_program_checks_its_domain_per_atom_of_the_table():
    t = translate(parse_formula("(forall x. P(x) -> Q(d)) -> P(c) -> g"), addr_len=1)
    assert t.program == Program(t.program.clauses, t.program.domain)
    # one more atom over a constant the translation never names
    g = t.ground_program
    ids = dict(g.ids)
    ids[("env", "f1", "e", "0")] = len(ids)
    bad = dataclasses.replace(
        t,
        ground_program=GroundProgram(
            ids, g.heads + [len(ids) - 1], g.pos + [()], g.neg + [()]
        ),
    )
    with pytest.raises(FormulaError, match=r"constants outside the domain: \['e'\]"):
        bad.program


@pytest.mark.parametrize(
    "text, addr_len",
    [
        # 2048 addresses: 6144 rows of families 10 and 11 per instance
        ("b -> a", 11),
        # 3000 instances of families 5, 7 and 10
        (" -> ".join(["P(c)"] + [f"a{i}" for i in range(3000)] + ["g"]), 1),
        # one premise with 1500 descendants (families 1, 7 and 8)
        ("((" + " -> ".join(f"b{i}" for i in range(1500)) + " -> a) -> c) -> c", 1),
        # one member with 40 subgoals over 16 addresses (families 7 to 16)
        ("(" + " -> ".join(f"a{i}" for i in range(40)) + " -> b) -> b", 4),
        # answer choice over 128 by 128 address pairs (families 12 and 15)
        ("(b -> a) -> a", 7),
    ],
    ids=["addresses", "instances", "descendants", "subgoals", "pairs"],
)
def test_no_more_than_4096_rows_pass_between_deadline_checks(monkeypatch, text, addr_len):
    rows = []

    def spy(deadline, stage):
        # the rows translate has written when it checks
        rows.append(len(sys._getframe(1).f_locals["heads"]))

    monkeypatch.setattr(logic_to_asp, "check_deadline", spy)
    t = translate(parse_formula(text), addr_len=addr_len)
    marks = [0] + rows + [len(t.ground_program.heads)]
    assert max(b - a for a, b in zip(marks, marks[1:])) <= 4096
    assert len(t.ground_program.heads) > 4096
