"""Every public call that takes ``deadline=`` returns or raises soon after it.

Each call gets an input on which it runs for well over half a second, and is
run with deadlines 0.05 s and 0.5 s ahead.  It must return, or raise
``BudgetExceeded``, within ``SLACK`` of the deadline; at 0.05 s every input
here is still unfinished, so that run must raise.  ``engine.ground``,
``logic_to_asp.analysis``, ``soups.soup_from_model`` and
``soups.model_from_soup`` take no deadline: caps bound the first two
(``GROUND_CAP``, ``INSTANCE_CAP``), and the conversions read a translation
that ``translate`` built under one.
"""

import time

import pytest

from aspsigma import asp_to_logic, engine, logic_to_asp, proofs, soups
from aspsigma.corpus import CorpusSpec, fresh_goal_atom, gen_programs
from aspsigma.errors import BudgetExceeded
from aspsigma.parsing import parse_formula, parse_program
from aspsigma.syntax import Atom, impl_spine

# the longest a call may run past its deadline, wide enough for a loaded
# 2-vCPU machine: on a quiet one, no call here ran more than 0.02 s past
SLACK = 0.25
DEADLINES = (0.05, 0.5)


def _even_loops():
    """11 even loops (2048 stable models, within ``ENUM_CAP``) and a
    5000-clause positive chain that every model's fixpoint walks."""
    lines = [f"a{i} :- not b{i}.\nb{i} :- not a{i}." for i in range(11)]
    lines += ["t.", "c0."] + [f"c{k + 1} :- c{k}, t." for k in range(5000)]
    return engine.ground(parse_program("\n".join(lines)))


def _arity2(i):
    spec = CorpusSpec(count=150, max_arity=2, max_domain=3, max_clauses=5, max_body=3, seed=5)
    p = gen_programs(spec)[i]
    return asp_to_logic.translate(p, fresh_goal_atom(p))


def _six_loops():
    """The translation of six even loops a_i :- not b_i. b_i :- not a_i.
    and q :- a0, ..., a5, which the prover does not decide in 3 s."""
    lines = [f"a{i} :- not b{i}.\nb{i} :- not a{i}." for i in range(6)]
    lines.append("q :- " + ", ".join(f"a{i}" for i in range(6)) + ".")
    p = parse_program("\n".join(lines))
    return asp_to_logic.translate(p, fresh_goal_atom(p))


def _seed0_translation(i):
    p = gen_programs(CorpusSpec(count=500, seed=0))[i]
    return asp_to_logic.translate(p, fresh_goal_atom(p)).formula


# a provable formula whose program takes about a second to show it has no
# stable model (ROADMAP item 7)
_NO_MODEL = "((a -> b) -> c) -> ((a -> c) -> a) -> ((c -> c) -> b) -> b"


def _no_model_program():
    phi = parse_formula(_NO_MODEL)
    an = logic_to_asp.analysis(phi)
    return logic_to_asp.translate(
        phi, addr_len=logic_to_asp.certified_addr_len(an), an=an
    ).ground_program


def _case_b():
    # the case-B query of the model ``has_stable_model`` finds for
    # reachability over six constants with two even loops (the ``binary``
    # program of the scaled families): refuting it takes about 1.5 s.
    # case_a hands its deadline to the same ``_check_case``.
    lines = [f"e(c{i}, c{i + 1})." for i in range(5)]
    lines += [
        "r(x, y) :- e(x, z), r(z, y).",
        "r(x, y) :- e(x, y).",
        "a(x, y) :- r(x, y), not b(x, y).",
        "b(x, y) :- r(x, y), not a(x, y).",
        "m(x) :- not n(x).",
        "n(x) :- not m(x).",
        "s(x) :- m(x), not n(x).",
    ]
    p = parse_program("\n".join(lines))
    t = asp_to_logic.translate(p, fresh_goal_atom(p))
    m = engine.has_stable_model(engine.ground(p))
    return lambda deadline: t.case_b(m, deadline=deadline)


def _large_program():
    """110 643 ground clauses, one even loop and a model of 110 642 atoms,
    not yet compiled."""
    facts = " ".join(f"d(k{i})." for i in range(48))
    return engine.ground(
        parse_program(f"a :- not b. b :- not a. t. {facts}\nc(x,y,z) :- t, d(x), d(y), d(z).")
    )


def _call(name):
    """The call ``name`` on its hard input, as a function of the deadline."""
    if name in ("stable_models", "sms_entails"):
        g = _even_loops()
        if name == "stable_models":
            return lambda deadline: engine.stable_models(g, deadline=deadline)
        return lambda deadline: engine.sms_entails(g, Atom("t"), deadline=deadline)
    if name == "has_stable_model":
        g = _no_model_program()
        return lambda deadline: engine.has_stable_model(
            g, deadline=deadline, branch_priority=logic_to_asp._answers_first
        )
    if name == "has_stable_model_large":
        g = _large_program()
        return lambda deadline: engine.has_stable_model(g, deadline=deadline)
    if name == "find_soup":
        # arity-2 instance 65: the prover refutes it in about 0.01 s, but the
        # reachable cone that bounds the soup's addresses does not finish in 3 s
        phi = _arity2(65).formula
        return lambda deadline: soups.find_soup(phi, deadline=deadline)
    if name in ("prove", "prove_sigma1"):
        phi = _six_loops().formula
        if name == "prove_sigma1":
            return lambda deadline: proofs.prove_sigma1(phi, deadline=deadline)
        premises, target = impl_spine(phi)
        return lambda deadline: proofs.prove(list(premises), target, deadline=deadline)
    if name == "case_b":
        return _case_b()
    if name == "translate":
        phi = _seed0_translation(1)
        an = logic_to_asp.analysis(phi)
        # about 2.8 million clauses
        return lambda deadline: logic_to_asp.translate(
            phi, addr_len=5, deadline=deadline, an=an
        )
    if name in ("reachable_cone", "certified_addr_len"):
        an = logic_to_asp.analysis(_seed0_translation(0))
        fn = getattr(logic_to_asp, name)
        return lambda deadline: fn(an, deadline=deadline)
    assert name == "decide_by_translation"
    phi = parse_formula(_NO_MODEL)
    return lambda deadline: logic_to_asp.decide_by_translation(phi, deadline=deadline)


CALLS = [
    "stable_models",
    "sms_entails",
    "has_stable_model",
    # compiling the rows, setting up the propagator, one propagation round
    # and decoding the model each take long here: they check the deadline
    # as they go
    "has_stable_model_large",
    "prove",
    "prove_sigma1",
    "case_b",
    "translate",
    "reachable_cone",
    "certified_addr_len",
    "find_soup",
    "decide_by_translation",
]


@pytest.mark.parametrize("name", CALLS)
def test_every_deadline_is_honoured_within_the_slack(name):
    call = _call(name)
    for ahead in DEADLINES:
        start = time.monotonic()
        try:
            call(start + ahead)
        except BudgetExceeded:
            pass
        else:
            assert ahead > DEADLINES[0], f"{name} finished before a 0.05-s deadline"
        took = time.monotonic() - start
        assert took < ahead + SLACK, f"{name} ran {took - ahead:.3f} s past {ahead} s"
