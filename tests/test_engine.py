import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspsigma import engine
from aspsigma.engine import (
    atom_key,
    ground,
    has_stable_model,
    interpretation,
    is_stable,
    sms_entails,
    stable_models,
)
from aspsigma.corpus import CorpusSpec, gen_formulas, gen_programs
from aspsigma.errors import ArityError, BudgetExceeded, CapExceeded
from aspsigma.logic_to_asp import (
    _answers_first,
    analysis,
    certified_addr_len,
    translate,
)
from aspsigma.parsing import parse_program
from aspsigma.syntax import Atom, Clause, const, fmt_formula, make_program, var
from lemmas import (
    find_derivation_no_returns,
    find_refutation,
    from_clauses,
    horn_derives,
    overline,
    reduct,
)
from oracle import (
    FALSE,
    TRUE,
    UNKNOWN,
    clauses_by_head,
    naive_ground,
    naive_stable_models,
    propagate,
    reference_clauses,
    reference_search,
    subsets,
)

P_CHOICE = "p :- not q. q :- not p."


def atoms(*names):
    return frozenset(Atom(n) for n in names)


def ga(name, *args):
    return Atom(name, tuple(const(a) for a in args))


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


def test_ground_single_substitution():
    g = ground(parse_program("#domain c. p(x) :- not q(x)."))
    assert g.clauses == (
        Clause(ga("p", "c"), (Atom("q", (const("c"),), True),)),
    )


def test_ground_counts_instances():
    g = ground(parse_program("#domain c, d. p(x, y) :- q(x)."))
    assert len(g.clauses) == 4


def test_ground_empty_program_base():
    g = ground(make_program([], {"c"}))
    assert g.clauses == () and g.base == frozenset()


def test_ground_cap(monkeypatch):
    monkeypatch.setattr(engine, "GROUND_CAP", 1000)
    text = "#domain c1, c2, c3, c4. p(u, v, w, x, y, z) :- q(u)."
    with pytest.raises(CapExceeded):
        ground(parse_program(text))


def test_ground_rejects_a_predicate_of_two_arities():
    p = make_program([Clause(Atom("p"), (ga("p", "c"),))])
    with pytest.raises(ArityError):
        ground(p)


def test_ground_reports_the_first_clash_once_within_the_cap(monkeypatch):
    # two clashes, the first in a clause without variables and the second
    # in one with them: ground names the first, as Program.predicates does
    x = var("x")
    p = make_program([
        Clause(ga("q", "c"), (Atom("p"), Atom("q", (), True))),
        Clause(Atom("p", (x,)), (Atom("r", (x,)), Atom("r"))),
        Clause(Atom("s", (x, var("y"))), (Atom("s", (x,)),)),
    ])
    with pytest.raises(ArityError) as by_program:
        p.predicates()
    with pytest.raises(ArityError) as by_ground:
        ground(p)
    assert str(by_ground.value) == str(by_program.value)
    assert str(by_ground.value) == "predicate q used with arities 1 and 0"
    # a later clause past the cap raises CapExceeded instead
    monkeypatch.setattr(engine, "GROUND_CAP", len(p.domain) ** 2)
    with pytest.raises(CapExceeded):
        ground(p)


def _cap_outcome(grounder, p, cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "GROUND_CAP", cap)
        try:
            grounder(p)
        except CapExceeded as e:
            return str(e)
    return None


def _assert_ground_matches_the_oracle_route(p):
    """``ground`` gives the atom table, rows, clauses and base of the clause
    route (``naive_ground`` and ``from_clauses``), decodes its rows as
    ``reference_clauses`` does, and raises ``CapExceeded`` at the same
    clause: on a cap just below and at each clause's running instance
    count."""
    g = ground(p)
    clauses, base = naive_ground(p)
    h = from_clauses(clauses)
    assert list(g.ids.items()) == list(h.ids.items())
    assert (g.heads, g.pos, g.neg) == (h.heads, h.pos, h.neg)
    assert g.clauses == clauses == reference_clauses(g)
    assert g.base == base
    total = 0
    for c in p.clauses:
        total += len(p.domain) ** len(c.variables())
        for cap in (total - 1, total):
            assert _cap_outcome(ground, p, cap) == _cap_outcome(naive_ground, p, cap)


_ARITY = {"a": 0, "b": 0, "p": 1, "q": 1, "r": 2}
_TERMS = [var("x"), var("y"), const("c"), const("d")]


@st.composite
def _atoms(draw, negated_ok=True):
    pred = draw(st.sampled_from(sorted(_ARITY)))
    n = _ARITY[pred]
    args = draw(st.lists(st.sampled_from(_TERMS), min_size=n, max_size=n))
    return Atom(pred, tuple(args), negated_ok and draw(st.booleans()))


_CLAUSES = st.lists(
    st.builds(
        Clause, _atoms(negated_ok=False), st.lists(_atoms(), max_size=3).map(tuple)
    ),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(_CLAUSES, st.sets(st.sampled_from(["c", "d", "e"])))
def test_ground_matches_the_oracle_route(clauses, extra):
    _assert_ground_matches_the_oracle_route(make_program(clauses, extra | {"c"}))


def _cycle_text(n):
    """p0 :- not p1. ... p<n-1> :- not p0: no stable model when n is odd."""
    return "\n".join(f"p{i} :- not p{(i + 1) % n}." for i in range(n))


def _loops_text(k):
    """k/2 even loops, a :- not b. b :- not a., over k atoms."""
    return "\n".join(
        f"p{2 * i} :- not p{2 * i + 1}. p{2 * i + 1} :- not p{2 * i}."
        for i in range(k // 2)
    )


@pytest.mark.parametrize(
    "text",
    [_cycle_text(n) for n in (1, 2, 3, 100, 101)] + [_loops_text(k) for k in (2, 14)],
    ids=["cycle1", "cycle2", "cycle3", "cycle100", "cycle101", "loops2", "loops14"],
)
def test_negation_cycles_and_loops_ground_as_the_oracle_route(text):
    # variable-free clauses take their rows straight from their atoms' keys
    _assert_ground_matches_the_oracle_route(parse_program(text))


@pytest.mark.parametrize(
    "spec",
    [
        CorpusSpec(count=500, seed=0),
        CorpusSpec(
            count=150, max_arity=2, max_domain=3, max_clauses=5, max_body=3, seed=5
        ),
    ],
    ids=["seed0", "arity2"],
)
def test_corpus_ground_rows_match_the_oracle_route(spec):
    for p in gen_programs(spec):
        _assert_ground_matches_the_oracle_route(p)


# ---------------------------------------------------------------------------
# Reduct / interpretation / stability
# ---------------------------------------------------------------------------


def test_reduct_deletes_negative_literal():
    g = ground(parse_program("p :- not q."))
    r = reduct(g, frozenset())
    assert r.clauses == (Clause(Atom("p")),)


def test_reduct_deletes_clause():
    g = ground(parse_program("p :- not q."))
    assert reduct(g, atoms("q")).clauses == ()


def test_reduct_both_rules():
    g = ground(parse_program(P_CHOICE))
    r = reduct(g, atoms("p"))
    assert r.clauses == (Clause(Atom("p")),)


@given(st.sets(st.sampled_from(["p", "q", "r"])))
def test_reduct_output_negation_free(m):
    g = ground(parse_program("p :- not q, r. q :- not r. r :- not p, not q."))
    r = reduct(g, frozenset(Atom(x) for x in m))
    assert all(not a.negated for c in r.clauses for a in c.body)


def test_interpretation_two_steps():
    p = parse_program("p. q :- p.")
    assert interpretation(p, frozenset()) == atoms("p", "q")


def test_interpretation_empty():
    assert interpretation(make_program([], {"c"}), frozenset()) == frozenset()


def test_interpretation_after_reduct():
    p = parse_program("p :- not q.")
    assert interpretation(p, frozenset()) == atoms("p")


def test_is_stable_examples():
    p = parse_program("p :- not p.")
    assert not is_stable(p, frozenset())
    assert not is_stable(p, atoms("p"))
    choice = parse_program(P_CHOICE)
    assert is_stable(choice, atoms("p"))
    assert is_stable(make_program([], {"c"}), frozenset())


def test_stable_models_choice():
    assert set(stable_models(parse_program(P_CHOICE))) == {atoms("p"), atoms("q")}


def test_stable_models_inconsistent():
    assert stable_models(parse_program("p :- not p.")) == ()


def test_stable_models_fact():
    assert stable_models(parse_program("p.")) == (atoms("p"),)


def test_stable_models_cap():
    text = "#domain c1, c2, c3, c4, c5. p(x, y) :- not q(x, y)."
    with pytest.raises(CapExceeded):
        stable_models(parse_program(text))
    # the cap counts the atoms that occur negated, not the base
    with pytest.raises(CapExceeded):
        stable_models(parse_program(P_CHOICE), cap=1)
    assert stable_models(parse_program("p. q :- p."), cap=0) == (atoms("p", "q"),)


def test_sms_entails_examples():
    p = parse_program("p :- not q. q :- not p. r :- p. r :- q.")
    assert sms_entails(p, Atom("r"))
    assert sms_entails(parse_program("p :- not p."), Atom("omega"))
    assert not sms_entails(parse_program("p."), Atom("q"))


# ---------------------------------------------------------------------------
# Fixpoint properties
# ---------------------------------------------------------------------------


def _tiny_programs():
    """A deterministic batch of small programs over p, q, r(c)."""
    body_pool = [
        (),
        (Atom("p", (), True),),
        (Atom("q"),),
        (Atom("q", (), True), Atom("p")),
    ]
    heads = [Atom("p"), Atom("q")]
    progs = []
    for h1, b1 in itertools.product(heads, body_pool):
        for h2, b2 in itertools.product(heads, body_pool):
            progs.append(make_program([Clause(h1, b1), Clause(h2, b2)]))
    return progs


def test_interpretation_idempotent_and_minimal():
    for p in _tiny_programs():
        g = ground(p)
        for m in subsets(g.base):
            interp = interpretation(g, m)
            # idempotence: one more application of the operator adds nothing
            r = reduct(g, m)
            again = interpretation(GroundLike(r), interp)
            assert interp == interpretation(g, m)
            # minimality: no strict subset is closed under the reduct operator
            for sub in subsets(interp):
                if sub == interp:
                    continue
                assert not _closed_under(r, sub)


def GroundLike(r):
    return r


def _closed_under(g, s):
    for c in g.clauses:
        if all(b in s for b in c.body) and c.head not in s:
            return False
    return True


def test_lemma_one_fresh_omega_entailment():
    for p in _tiny_programs():
        fresh = Atom("omega")
        assert fresh.pred not in p.predicates()
        assert sms_entails(p, fresh) == (not naive_stable_models(p))


# ---------------------------------------------------------------------------
# Overline and Horn derivability
# ---------------------------------------------------------------------------


def test_overline_replaces_negations():
    over = overline(parse_program("p :- not q."))
    (clause,) = over.program.clauses
    assert clause.head == Atom("p")
    assert clause.body == (Atom(over.bar_names["q"]),)
    assert not any(a.negated for a in clause.body)


def test_overline_keeps_positive_programs():
    over = overline(parse_program("p :- q."))
    assert over.program.clauses == (Clause(Atom("p"), (Atom("q"),)),)


def test_overline_complement():
    over = overline(parse_program("p :- not q."))
    mbar = over.complement(frozenset())
    assert mbar == frozenset(
        {Atom(over.bar_names["p"]), Atom(over.bar_names["q"])}
    )


def test_horn_derives_one_step():
    over = overline(parse_program("p :- not q."))
    mbar = over.complement(frozenset())
    assert horn_derives(over.program, mbar, Atom("p"))


def test_horn_derives_nothing():
    g = ground(make_program([], {"c"}))
    assert not horn_derives(g, frozenset(), Atom("p"))


def test_overline_interpretation_identity_small():
    for p in _tiny_programs():
        g = ground(p)
        over = overline(g)
        for m in subsets(g.base):
            facts = over.complement(m)
            derived = {
                a for a in g.base if horn_derives(over.program, facts, a)
            }
            assert derived == interpretation(g, m)


# ---------------------------------------------------------------------------
# has_stable_model agrees with enumeration
# ---------------------------------------------------------------------------


def test_has_stable_model_matches_enumeration():
    for p in _tiny_programs():
        expected = naive_stable_models(p)
        witness = has_stable_model(p)
        assert (witness is not None) == bool(expected), str(p)
        if witness is not None:
            assert witness in expected


def test_has_stable_model_on_programs_with_unary_predicates():
    texts = [
        "#domain c, d. p(x) :- not q(x). q(x) :- not p(x).",
        "#domain c, d. p(c). q(x) :- p(x), not q(d).",
        "#domain c, d. p(x) :- not p(x).",
        "#domain c. p(c) :- not q(c). q(c) :- p(c).",
    ]
    for t in texts:
        p = parse_program(t)
        expected = naive_stable_models(p)
        witness = has_stable_model(p)
        assert (witness is not None) == bool(expected), t
        if witness is not None:
            assert witness in expected


_POOL = [Atom(f"p{i}") for i in range(8)]
_LITERAL = st.builds(
    lambda a, negated: Atom(a.pred, (), negated),
    st.sampled_from(_POOL),
    st.booleans(),
)
_CLAUSE = st.builds(
    lambda head, body: Clause(head, tuple(body)),
    st.sampled_from(_POOL),
    st.lists(_LITERAL, max_size=3),
)


@given(st.lists(_CLAUSE, min_size=1, max_size=8))
def test_search_views_match_oracle(clauses):
    p = make_program(clauses)
    expected = naive_stable_models(p)
    models = stable_models(p)
    assert len(models) == len(expected) and set(models) == expected
    for a in _POOL + [Atom("omega")]:
        assert sms_entails(p, a) == all(a in m for m in expected), a
    witness = has_stable_model(p)
    assert (witness is None) == (not expected)
    assert witness is None or witness in expected


def _programs(n_atoms, max_clauses):
    pool = [Atom(f"p{i}") for i in range(n_atoms)]
    literal = st.builds(
        lambda a, negated: Atom(a.pred, (), negated),
        st.sampled_from(pool),
        st.booleans(),
    )
    clause = st.builds(
        lambda head, body: Clause(head, tuple(body)),
        st.sampled_from(pool),
        st.lists(literal, max_size=4),
    )
    return st.lists(clause, min_size=1, max_size=max_clauses)


@st.composite
def _dense_programs(draw):
    # up to three clauses per atom: heads are excluded before their bodies
    # are certain, and positive recursion deletes and derives again chains
    # of atoms in ``upper``
    n = draw(st.integers(1, 16))
    pool = [Atom(f"p{i}") for i in range(n)]
    clauses = []
    for _ in range(draw(st.integers(1, 3 * n))):
        head = draw(st.sampled_from(pool))
        body = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), max_size=4))
        clauses.append(Clause(head, tuple(Atom(a.pred, (), neg) for a, neg in body)))
    return clauses


_GROUND_PROGRAMS = st.one_of(_programs(6, 10), _programs(16, 40), _dense_programs())


@settings(max_examples=200)
@given(_GROUND_PROGRAMS, st.dictionaries(st.integers(0, 15), st.integers(0, 3)))
def test_search_yields_what_the_reference_yields(clauses, ranks):
    g = ground(make_program(clauses))
    assert [g.atoms_of(m) for m in engine._search(g)] == list(reference_search(g))

    def priority(a):
        return ranks.get(int(a.pred[1:]), 0)

    assert [g.atoms_of(m) for m in engine._search(g, None, priority)] == list(
        reference_search(g, priority)
    )


def _bounds(prop, comp):
    return (
        {a: prop.val[a] for a in comp.negated},
        {a for a in range(comp.n_atoms) if prop.lower[a]},
        {a for a in range(comp.n_atoms) if prop.upper[a]},
    )


@settings(max_examples=300)
@given(_GROUND_PROGRAMS, st.lists(st.tuples(st.integers(0, 2), st.integers(0, 99)), max_size=12))
def test_propagator_matches_the_reference_at_every_node(clauses, moves):
    # a walk down the search tree: at each node every decision is
    # propagated, compared with the reference and undone, and then ``moves``
    # pick one consistent child to go on from after backing up ``up`` nodes;
    # the assignment, lower and upper must be the reference's, and so must
    # a conflict
    comp = ground(make_program(clauses)).compiled()
    by_head = clauses_by_head(comp)
    prop = engine._Propagator(comp)
    assign = {a: UNKNOWN for a in comp.negated}
    bounds = propagate(comp, comp.negated, by_head, assign)
    assert prop.propagate(prop.initial) == (bounds is not None)
    if bounds is None:
        return
    path = [(len(prop.trail), (assign, *bounds))]
    for up, pick in moves:
        del path[max(len(path) - up, 1) :]
        mark, state = path[-1]
        prop.undo(mark)
        assert _bounds(prop, comp) == state
        children = []
        for a in comp.negated:
            if state[0][a] != UNKNOWN:
                continue
            for value in (TRUE, FALSE):
                assign = dict(state[0])
                assign[a] = value
                bounds = propagate(comp, comp.negated, by_head, assign)
                assert prop.propagate([(a, value)]) == (bounds is not None)
                if bounds is not None:
                    assert _bounds(prop, comp) == (assign, *bounds)
                    children.append(((a, value), (assign, *bounds)))
                prop.undo(mark)
        if children:
            decision, state = children[pick % len(children)]
            prop.propagate([decision])
            path.append((len(prop.trail), state))


@pytest.mark.parametrize(
    "text, decided",
    [
        # p0 :- not p1 forces p1 once p0 is false, and p1 then has no support
        ("p1 :- not p0, not p1. p0 :- not p1.", "p0"),
        # p1 false drops p2, so p3 becomes certain and completes the positive
        # body of p1 :- not p0, p3; p0 must then be true, which p0 :- not p0
        # refutes
        ("p1 :- not p0, p3. p2 :- p1. p3 :- not p2, not p1. p0 :- not p0.", "p1"),
    ],
)
def test_a_false_head_forces_its_last_open_literal(text, decided):
    g = ground(parse_program(text))
    comp = g.compiled()
    a = g.ids[atom_key(Atom(decided))]
    prop = engine._Propagator(comp)
    assert prop.propagate(prop.initial)
    assert not prop.propagate([(a, FALSE)])
    assign = {b: UNKNOWN for b in comp.negated}
    assign[a] = FALSE
    assert propagate(comp, comp.negated, clauses_by_head(comp), assign) is None


def test_answers_first_finds_the_reference_witness():
    for phi in gen_formulas(CorpusSpec(count=100, seed=0, formula_max_size=20)):
        an = analysis(phi)
        g = translate(phi, addr_len=certified_addr_len(an), an=an).ground_program
        assert has_stable_model(g, branch_priority=_answers_first) == next(
            reference_search(g, _answers_first), None
        ), fmt_formula(phi)


def _cycle(n):
    """p0 :- not p1. ... p<n-1> :- not p0: two stable models when n is even,
    none when n is odd."""
    return parse_program("\n".join(f"p{i} :- not p{(i + 1) % n}." for i in range(n)))


def _binary(n):
    """Reachability over a chain of n constants plus even negation loops."""
    consts = [f"c{i}" for i in range(n)]
    lines = [f"e({consts[i]}, {consts[i + 1]})." for i in range(n - 1)]
    lines += [
        "r(x, y) :- e(x, z), r(z, y).",
        "r(x, y) :- e(x, y).",
        "a(x, y) :- r(x, y), not b(x, y).",
        "b(x, y) :- r(x, y), not a(x, y).",
        "m(x) :- not n(x).",
        "n(x) :- not m(x).",
        "s(x) :- m(x), not n(x).",
    ]
    return parse_program("\n".join(lines))


def test_expired_deadline_stops_every_search_view():
    g = ground(_cycle(1401))
    past = time.monotonic() - 1
    with pytest.raises(BudgetExceeded):
        has_stable_model(g, deadline=past)
    with pytest.raises(BudgetExceeded):
        stable_models(g, cap=1401, deadline=past)
    with pytest.raises(BudgetExceeded):
        sms_entails(g, Atom("p0"), cap=1401, deadline=past)


def test_search_is_fast_on_long_cycles_and_binary_programs():
    # quadratic in the cycle length while each propagation round re-ran
    # both fixpoints over the whole program
    assert has_stable_model(ground(_cycle(2001))) is None
    binary = ground(_binary(12))
    assert len(binary.clauses) == 2207
    for g in (ground(_cycle(2000)), binary):
        witness = has_stable_model(g)
        assert witness is not None and is_stable(g, witness)


# ---------------------------------------------------------------------------
# Refutations and derivations
# ---------------------------------------------------------------------------


def test_refutation_self_loop():
    p = parse_program("p :- p.")
    tree = find_refutation(p, atoms("p"), Atom("p"))
    assert tree is not None
    root = tree.node(tree.root)
    (child_id,) = root.children
    child = tree.node(child_id)
    assert child.back_edge == tree.root and child.label == Atom("p")


def test_refutation_none_when_derivable():
    p = parse_program("p.")
    assert find_refutation(p, atoms("p"), Atom("p")) is None


def test_refutation_dead_branch():
    p = parse_program("p :- q.")
    tree = find_refutation(p, atoms("p"), Atom("p"))
    root = tree.node(tree.root)
    (child_id,) = root.children
    child = tree.node(child_id)
    assert child.label == Atom("q") and child.children == ()
    assert child.history == frozenset({(Atom("p"), Atom("q"))})


def test_refutation_overlined_leaf():
    p = parse_program("p :- not q. q.")
    tree = find_refutation(p, atoms("q"), Atom("p"))
    root = tree.node(tree.root)
    (child_id,) = root.children
    child = tree.node(child_id)
    assert child.overlined and child.label == Atom("q")


def test_refutation_child_count_matches_clauses():
    p = parse_program("p :- q. p :- r. q. r :- r.")
    m = frozenset()
    tree = find_refutation(p, m, Atom("p"))
    assert tree is None  # p is derivable via q
    tree = find_refutation(p, m, Atom("r"))
    assert len(tree.node(tree.root).children) == 1


def test_derivation_simple():
    p = parse_program("p :- not q.")
    d = find_derivation_no_returns(p, frozenset(), Atom("p"))
    assert d is not None
    root = d.node(d.root)
    assert root.derived == Atom("p")
    (leaf_id,) = root.children
    assert d.node(leaf_id).leaf_atom is not None


def test_derivation_rejects_returns():
    p = parse_program("p :- p.")
    assert find_derivation_no_returns(p, frozenset(), Atom("p")) is None


def test_refutation_derivation_duality_small():
    for p in _tiny_programs():
        g = ground(p)
        for m in subsets(g.base):
            interp = interpretation(g, m)
            for a in sorted(g.base):
                ref = find_refutation(g, m, a)
                der = find_derivation_no_returns(g, m, a)
                assert (ref is None) != (der is None)
                assert (der is not None) == (a in interp)
