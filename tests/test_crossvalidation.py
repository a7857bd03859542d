"""Exhaustive small-instance sweeps across all independent routes.

Random corpora live in the acceptance drive; these enumerat every formula or
program in a tiny space so nothing hides in generator bias.
"""

import itertools

import pytest

from aspsigma.engine import (
    has_stable_model,
    is_stable,
)
from aspsigma.errors import CapExceeded
from aspsigma.logic_to_asp import _answers_first, decide_by_translation
from aspsigma.parsing import parse_program
from aspsigma.proofs import Environment, check, is_lnf, prove_sigma1
from aspsigma.soups import check_soup, find_soup, model_from_soup, soup_from_model
from aspsigma.syntax import (
    Atom,
    AtomF,
    Clause,
    Forall,
    Impl,
    MintsClass,
    classify,
    const,
    fmt_formula,
    make_program,
    var,
)
from oracle import naive_stable_models


def _all_impl_formulas(atoms, max_leaves):
    """Every implication tree over the given atoms with up to max_leaves leaves."""
    by_leaves = {1: list(atoms)}
    for n in range(2, max_leaves + 1):
        items = []
        for k in range(1, n):
            for lhs in by_leaves[k]:
                for rhs in by_leaves[n - k]:
                    items.append(Impl(lhs, rhs))
        by_leaves[n] = items
    for n in range(1, max_leaves + 1):
        yield from by_leaves[n]


def test_exhaustive_propositional_three_way():
    atoms = [AtomF("a"), AtomF("b")]
    checked = 0
    for phi in _all_impl_formulas(atoms, 5):
        if classify(phi) not in (MintsClass.SIGMA1, MintsClass.BOTH):
            continue
        cert = prove_sigma1(phi)
        provable = cert is not None
        if cert is not None:
            env = Environment()
            assert check(env, cert, phi) and is_lnf(env, cert, phi)
        soup = find_soup(phi)
        assert (soup is None) == provable, fmt_formula(phi)
        verdict = decide_by_translation(phi, cross_check=False)
        assert verdict.refutable == (not provable), fmt_formula(phi)
        if soup is not None:
            assert check_soup(soup, phi).ok, fmt_formula(phi)
        checked += 1
    assert checked > 500


def _all_unary_pi1(depth, env):
    """Small Pi1 formulas over one unary predicate, a constant, and binders."""
    leaves = [AtomF("P", (const("c"),))] + [
        AtomF("P", (var(v),)) for v in env
    ]
    yield from leaves
    if depth == 0:
        return
    for body in _all_unary_pi1(depth - 1, env + ["x"] if "x" not in env else env):
        if "x" not in env:
            yield Forall("x", body)
    for lhs in leaves:  # Sigma1 premises kept atomic to bound the space
        for rhs in _all_unary_pi1(depth - 1, env):
            yield Impl(lhs, rhs)


def test_exhaustive_unary_three_way():
    goals = [AtomF("P", (const("c"),)), AtomF("P", (const("d"),))]
    atomic = [AtomF("P", (const("c"),)), AtomF("P", (const("d"),))]
    premises = list(dict.fromkeys(_all_unary_pi1(2, [])))
    candidates = []
    for prem in premises:
        for goal in goals:
            candidates.append(Impl(prem, goal))
    for first in atomic:
        for prem in premises:
            candidates.append(Impl(first, Impl(prem, goals[0])))
    seen = set()
    checked = 0
    for phi in candidates:
        if phi in seen:
            continue
        seen.add(phi)
        if classify(phi) not in (MintsClass.SIGMA1, MintsClass.BOTH):
            continue
        provable = prove_sigma1(phi) is not None
        soup = find_soup(phi)
        assert (soup is None) == provable, fmt_formula(phi)
        verdict = decide_by_translation(phi, cross_check=False)
        assert verdict.refutable == (not provable), fmt_formula(phi)
        if verdict.witness is not None:
            from aspsigma.logic_to_asp import translate

            t = translate(phi, addr_len=verdict.addr_len)
            cooked = soup_from_model(verdict.witness, t)
            assert check_soup(cooked, phi).ok, fmt_formula(phi)
            again = model_from_soup(cooked, phi, translation=t)
            assert is_stable(t.ground_program, again), fmt_formula(phi)
        checked += 1
    assert checked > 40


def _all_tiny_programs():
    """Every program over nullary p,q with bodies from a small literal pool."""
    heads = [Atom("p"), Atom("q")]
    literals = [
        (),
        (Atom("p"),),
        (Atom("q", (), True),),
        (Atom("p", (), True), Atom("q")),
    ]
    clause_pool = [Clause(h, b) for h in heads for b in literals]
    for k in (1, 2):
        for combo in itertools.combinations(clause_pool, k):
            yield make_program(combo)


def test_exhaustive_tiny_programs_existence_routes():
    for p in _all_tiny_programs():
        enumerated = naive_stable_models(p)
        witness = has_stable_model(p)
        assert (witness is not None) == bool(enumerated), str(p)
        if witness is not None:
            assert witness in enumerated


def test_unary_programs_existence_routes():
    texts = [
        "#domain c, d. p(x) :- not q(x). q(x) :- not p(x). r :- p(c), p(d).",
        "#domain c, d. p(c). p(d) :- not q. q :- not p(d).",
        "#domain c, d. p(x) :- p(x).",
        "#domain c, d. p(x) :- not p(x). p(c).",
    ]
    for text in texts:
        p = parse_program(text)
        enumerated = naive_stable_models(p)
        witness = has_stable_model(p, branch_priority=_answers_first)
        assert (witness is not None) == bool(enumerated), text
        if witness is not None:
            assert witness in enumerated
