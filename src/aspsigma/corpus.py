"""Deterministic corpus generation for the cross-validation drives."""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .errors import FormulaError
from .parsing import parse_formula
from .syntax import (
    Atom,
    AtomF,
    Clause,
    Forall,
    Formula,
    Impl,
    MintsClass,
    Program,
    classify,
    const,
    fmt_formula,
    formula_length,
    make_program,
    slot_init,
    var,
)


@slot_init
@dataclass(frozen=True, slots=True)
class CorpusSpec:
    count: int = 500
    max_predicates: int = 2
    max_arity: int = 1
    max_domain: int = 2
    max_clauses: int = 3
    max_body: int = 2
    formula_max_size: int = 8
    seed: int = 0


@functools.lru_cache(maxsize=8)
def _programs_cached(spec: CorpusSpec) -> tuple[Program, ...]:
    rng = random.Random(spec.seed)
    out: list[Program] = []
    while len(out) < spec.count:
        p = _gen_program(rng, spec)
        if p is not None:
            out.append(p)
    return tuple(out)


def gen_programs(spec: CorpusSpec) -> list[Program]:
    return list(_programs_cached(spec))


def _gen_program(rng: random.Random, spec: CorpusSpec) -> Program | None:
    n_preds = rng.randint(1, spec.max_predicates)
    preds = [
        (name, rng.randint(0, spec.max_arity))
        for name in ["p", "q", "r", "s"][:n_preds]
    ]
    dom_size = rng.randint(1, spec.max_domain) if any(a for _, a in preds) else 1
    domain = ["c", "d", "e"][:dom_size]
    variables = ["x", "y"]

    def term() -> str:
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(variables[:1] if rng.random() < 0.7 else variables)
        return rng.choice(domain)

    def atom(negated_ok: bool) -> Atom:
        name, arity = rng.choice(preds)
        args = tuple(
            var(t) if t in variables else const(t)
            for t in (term() for _ in range(arity))
        )
        negated = negated_ok and rng.random() < 0.5
        return Atom(name, args, negated)

    clauses = []
    budget = rng.randint(1, spec.max_clauses)
    if budget >= 2 and rng.random() < 0.3:
        # an even negation loop, so several stable models can coexist
        first, second = atom(False), atom(False)
        clauses.append(Clause(first, (second.negate(),)))
        clauses.append(Clause(second, (first.negate(),)))
        budget -= 2
    for _ in range(budget):
        head = atom(False)
        body = tuple(atom(True) for _ in range(rng.randint(0, spec.max_body)))
        clauses.append(Clause(head, body))
    try:
        return make_program(clauses, domain if _uses_variables(clauses) else ())
    except Exception:
        return None


def _uses_variables(clauses) -> bool:
    return any(c.variables() for c in clauses)


@functools.lru_cache(maxsize=8)
def _formulas_cached(spec: CorpusSpec) -> tuple[Formula, ...]:
    rng = random.Random(spec.seed)
    out: list[Formula] = []
    while len(out) < spec.count:
        f = _gen_formula(rng, spec.formula_max_size)
        if f is not None:
            out.append(f)
    return tuple(out)


def gen_formulas(spec: CorpusSpec) -> list[Formula]:
    """Sigma1 formulas with nullary and unary predicates up to the size cap,
    which must be at least 3, the length of the smallest formula drawn."""
    if spec.formula_max_size < 3:
        raise FormulaError("formula size cap must be at least 3")
    return list(_formulas_cached(spec))


def _gen_formula(rng: random.Random, max_size: int) -> Formula | None:
    preds0 = ["a", "b", "g"]
    preds1 = ["P", "Q"]
    consts = ["c", "d"]

    def atom(env):
        if rng.random() < 0.55:
            return AtomF(rng.choice(preds0))
        t = rng.choice(env + [rng.choice(consts)])
        return AtomF(rng.choice(preds1), ((var(t),) if t in env else (const(t),)))

    def pi1(depth, env):
        roll = rng.random()
        if depth <= 0 or roll < 0.35:
            return atom(env)
        if roll < 0.6:
            v = "x" if "x" not in env else "y" if "y" not in env else None
            if v is None:
                return atom(env)
            return Forall(v, pi1(depth - 1, env + [v]))
        return Impl(sigma1(depth - 1, env), pi1(depth - 1, env))

    def sigma1(depth, env):
        if depth <= 0 or rng.random() < 0.4:
            return atom(env)
        return Impl(pi1(depth - 1, env), sigma1(depth - 1, env))

    for _ in range(200):
        f = sigma1(3, [])
        if 3 <= formula_length(f) <= max_size and classify(f) in (
            MintsClass.SIGMA1,
            MintsClass.BOTH,
        ):
            # round through the printer so free variables become constants
            return parse_formula(fmt_formula(f))
    return None


def fresh_goal_atom(p: Program) -> Atom:
    name = "omega"
    while name in p.predicates():
        name += "_"
    return Atom(name)
