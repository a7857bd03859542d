"""Compile a program and a nullary goal atom into an easy Sigma1 formula whose
provability coincides with entailment under stable model semantics.

The formula is ``psi_1 -> ... -> psi_d -> lupa`` where the axioms ``psi_i``
instantiate twelve schema families: model choice per predicate, the three
top-level openers, the unsoundness game over bang-atoms, and the
incompleteness game over query-atoms with pair-predicate loop detection.
All implication subformulas of the result have nullary targets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Model, interpretation, program_base
from .errors import CrossCheckError, FormulaError
from .proofs import prove
from .syntax import (
    Atom,
    AtomF,
    Clause,
    Formula,
    Impl,
    Program,
    Term,
    const,
    forall_chain,
    impl_chain,
    slot_init,
    var,
)

# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------


@slot_init
@dataclass(frozen=True, slots=True)
class PredSymbols:
    plain: str
    bar: str
    bang: str
    query: str


@slot_init
@dataclass(frozen=True, slots=True)
class Vocabulary:
    preds: dict[str, PredSymbols]
    arities: dict[str, int]
    pairs: dict[tuple[str, str], str]
    clause_syms: dict[tuple[int, int], tuple[str, str]]  # (clause j, i) -> (k, kbar)
    lupa: str
    omega: str
    case_a: str
    case_b: str
    circ: str
    bullet: str


@slot_init
@dataclass(frozen=True, slots=True)
class Axiom:
    formula: Formula
    schema: int
    source: str


@slot_init
@dataclass(frozen=True, slots=True)
class NormalClause:
    """A clause with its head/positive/negative parts and variable vectors."""

    index: int  # 1-based input position
    clause: Clause
    head_vars: tuple[str, ...]  # distinct, in order of occurrence in the head
    body_only_vars: tuple[str, ...]  # distinct, first occurrence scanning the body


@slot_init
@dataclass(frozen=True, slots=True)
class AspTranslation:
    program: Program
    omega: Atom
    vocabulary: Vocabulary
    axioms: tuple[Axiom, ...]
    formula: Formula

    def axiom_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for ax in self.axioms:
            counts[ax.schema] = counts.get(ax.schema, 0) + 1
        return counts

    def case_a(self, m: Model, deadline: float | None = None) -> bool:
        return _check_case(self, m, self.vocabulary.case_a, _unsound, deadline)

    def case_b(self, m: Model, deadline: float | None = None) -> bool:
        return _check_case(self, m, self.vocabulary.case_b, _incomplete, deadline)


@slot_init
@dataclass(frozen=True, slots=True)
class ModelContext:
    """Axioms plus the model facts, usable as a proof context."""

    formulas: tuple[Formula, ...]
    model_atoms: tuple[Formula, ...]
    complement_atoms: tuple[Formula, ...]


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def _source_predicates(p: Program) -> list[tuple[str, int]]:
    """Predicates in first-occurrence order, with arity."""
    table = p.predicates()
    seen: list[tuple[str, int]] = []
    for c in p.clauses:
        for a in c.atoms():
            if all(a.pred != n for n, _ in seen):
                seen.append((a.pred, table[a.pred]))
    return seen


def _normalize_clauses(p: Program) -> list[NormalClause]:
    out = []
    for j, c in enumerate(p.clauses, start=1):
        head_vars: list[str] = []
        for t in c.head.args:
            if t.var and t.name not in head_vars:
                head_vars.append(t.name)
        body_only: list[str] = []
        for a in c.body:
            for t in a.args:
                if t.var and t.name not in head_vars and t.name not in body_only:
                    body_only.append(t.name)
        out.append(NormalClause(j, c, tuple(head_vars), tuple(body_only)))
    return out


def _build_vocabulary(p: Program, omega: Atom) -> Vocabulary:
    taken = set(p.predicates()) | {omega.pred}
    generated: set[str] = set()

    def fresh(name: str) -> str:
        while name in taken or name in generated:
            name += "_"
        generated.add(name)
        return name

    preds_in_order = _source_predicates(p)
    lupa = fresh("lupa")
    case_a = fresh("caseA")
    case_b = fresh("caseB")
    circ = fresh("circ")
    bullet = fresh("bullet")
    preds: dict[str, PredSymbols] = {}
    arities: dict[str, int] = {}
    for name, arity in preds_in_order:
        preds[name] = PredSymbols(
            name, fresh(f"bar_{name}"), fresh(f"bang_{name}"), fresh(f"query_{name}")
        )
        arities[name] = arity
    pairs: dict[tuple[str, str], str] = {}
    for r, _ in preds_in_order:
        for q, _ in preds_in_order:
            pairs[(r, q)] = fresh(f"pair_{r}_{q}")
    clause_syms: dict[tuple[int, int], tuple[str, str]] = {}
    for nc in _normalize_clauses(p):
        for i in range(len(nc.body_only_vars) + 1):
            clause_syms[(nc.index, i)] = (
                fresh(f"k{nc.index}_{i}"),
                fresh(f"kbar{nc.index}_{i}"),
            )
    return Vocabulary(
        preds, arities, pairs, clause_syms, lupa, omega.pred, case_a, case_b, circ, bullet
    )


def _zvars(
    count: int, avoid: set[str], terms: dict[str, Term], prefix: str = "z"
) -> list[Term]:
    """``count`` variables named ``prefix`` and a number, skipping ``avoid``;
    each name's variable is made once and kept in ``terms``."""
    out: list[Term] = []
    i = 1
    while len(out) < count:
        name = f"{prefix}{i}"
        i += 1
        if name in avoid:
            continue
        t = terms.get(name)
        if t is None:
            t = terms[name] = var(name)
        out.append(t)
    return out


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------


def translate(p: Program, omega: Atom) -> AspTranslation:
    """The easy formula whose provability is entailment of ``omega``."""
    if omega.arity != 0 or omega.negated:
        raise FormulaError(f"the goal atom must be a positive nullary atom: {omega}")
    voc = _build_vocabulary(p, omega)
    consts = sorted(p.domain)
    avoid = set(consts)
    clauses = _normalize_clauses(p)
    preds_in_order = _source_predicates(p)
    axioms: list[Axiom] = []
    # one object per nullary atom and per variable name that _zvars makes:
    # a translation repeats a few of each thousands of times
    nullaries: dict[str, AtomF] = {}
    zterms: dict[str, Term] = {}

    def nullary(name: str) -> AtomF:
        f = nullaries.get(name)
        if f is None:
            f = nullaries[name] = AtomF(name)
        return f

    def bracket(premise: Formula, target: str) -> Formula:
        return Impl(premise, nullary(target))

    # schema 1: model choice per predicate
    for name, arity in preds_in_order:
        z = _zvars(arity, avoid, zterms)
        body = Impl(
            bracket(AtomF(name, tuple(z)), voc.lupa),
            Impl(bracket(AtomF(voc.preds[name].bar, tuple(z)), voc.lupa), nullary(voc.lupa)),
        )
        axioms.append(Axiom(forall_chain([t.name for t in z], body), 1, f"pred {name}"))

    # schema 2: the three openers
    axioms.append(Axiom(Impl(nullary(voc.omega), nullary(voc.lupa)), 2, "omega"))
    axioms.append(Axiom(Impl(nullary(voc.case_a), nullary(voc.lupa)), 2, "unsound"))
    axioms.append(Axiom(Impl(nullary(voc.case_b), nullary(voc.lupa)), 2, "incomplete"))

    # schema 3: unsoundness openers
    for name, arity in preds_in_order:
        z = _zvars(arity, avoid, zterms)
        body = Impl(
            AtomF(voc.preds[name].bar, tuple(z)),
            Impl(bracket(AtomF(voc.preds[name].bang, tuple(z)), voc.bullet), nullary(voc.case_a)),
        )
        axioms.append(Axiom(forall_chain([t.name for t in z], body), 3, f"pred {name}"))

    # schema 4: incompleteness openers
    for name, arity in preds_in_order:
        z = _zvars(arity, avoid, zterms)
        body = Impl(
            AtomF(name, tuple(z)),
            Impl(bracket(AtomF(voc.preds[name].query, tuple(z)), voc.circ), nullary(voc.case_b)),
        )
        axioms.append(Axiom(forall_chain([t.name for t in z], body), 4, f"pred {name}"))

    # schema 5: clause simulation under bang
    for nc in clauses:
        c = nc.clause
        premises: list[Formula] = [AtomF(voc.preds[c.head.pred].bang, c.head.args)]
        for a in c.body:
            if not a.negated:
                premises.append(
                    bracket(AtomF(voc.preds[a.pred].bang, a.args), voc.bullet)
                )
        for a in c.body:
            if a.negated:
                premises.append(AtomF(voc.preds[a.pred].bar, a.args))
        body = impl_chain(premises, nullary(voc.bullet))
        qvars = nc.head_vars + nc.body_only_vars
        axioms.append(Axiom(forall_chain(qvars, body), 5, f"clause {nc.index}"))

    # schema 6: question fan-out over the clauses with a matching head
    for name, arity in preds_in_order:
        z = _zvars(arity, avoid, zterms)
        premises = [AtomF(voc.preds[name].query, tuple(z))]
        for nc in clauses:
            if nc.clause.head.pred == name:
                k, kbar = voc.clause_syms[(nc.index, 0)]
                premises.append(bracket(AtomF(k, tuple(z)), kbar))
        body = impl_chain(premises, nullary(voc.circ))
        axioms.append(Axiom(forall_chain([t.name for t in z], body), 6, f"pred {name}"))

    # schema 7: head-constant mismatch closers
    for nc in clauses:
        k, kbar = voc.clause_syms[(nc.index, 0)]
        head_args = nc.clause.head.args
        for pos, t in enumerate(head_args):
            if t.var:
                continue
            for d in consts:
                if d == t.name:
                    continue
                z = _zvars(len(head_args) - 1, avoid, zterms)
                args = list(z[:pos]) + [const(d)] + list(z[pos:])
                body = Impl(AtomF(k, tuple(args)), nullary(kbar))
                axioms.append(
                    Axiom(
                        forall_chain([v.name for v in z], body),
                        7,
                        f"clause {nc.index} position {pos + 1} constant {t.name}",
                    )
                )

    # schema 8: repeated-head-variable mismatch closers
    for nc in clauses:
        k, kbar = voc.clause_syms[(nc.index, 0)]
        head_args = nc.clause.head.args
        for p1 in range(len(head_args)):
            for p2 in range(p1 + 1, len(head_args)):
                t1, t2 = head_args[p1], head_args[p2]
                if not (t1.var and t2.var and t1.name == t2.name):
                    continue
                for c1 in consts:
                    for c2 in consts:
                        if c1 == c2:
                            continue
                        z = _zvars(len(head_args) - 2, avoid, zterms)
                        args: list[Term] = []
                        zi = iter(z)
                        for pos in range(len(head_args)):
                            if pos == p1:
                                args.append(const(c1))
                            elif pos == p2:
                                args.append(const(c2))
                            else:
                                args.append(next(zi))
                        body = Impl(AtomF(k, tuple(args)), nullary(kbar))
                        axioms.append(
                            Axiom(
                                forall_chain([v.name for v in z], body),
                                8,
                                f"clause {nc.index} positions {p1 + 1},{p2 + 1}",
                            )
                        )

    # schema 9: body-only variable expansion chain
    for nc in clauses:
        l = nc.clause.head.arity
        for i in range(len(nc.body_only_vars)):
            k_i, kbar_i = voc.clause_syms[(nc.index, i)]
            k_n, kbar_n = voc.clause_syms[(nc.index, i + 1)]
            z = _zvars(l + i, avoid, zterms)
            premises = [AtomF(k_i, tuple(z))]
            for d in consts:
                premises.append(bracket(AtomF(k_n, tuple(z) + (const(d),)), kbar_n))
            body = impl_chain(premises, nullary(kbar_i))
            axioms.append(
                Axiom(
                    forall_chain([v.name for v in z], body),
                    9,
                    f"clause {nc.index} step {i}",
                )
            )

    # schema 10: per body atom, subgoal transitions and negative closers
    for nc in clauses:
        c = nc.clause
        m = len(nc.body_only_vars)
        k_m, kbar_m = voc.clause_syms[(nc.index, m)]
        head_terms = c.head.args + tuple(var(v) for v in nc.body_only_vars)
        qvars = nc.head_vars + nc.body_only_vars
        for a in c.body:
            if not a.negated:
                inner = Impl(
                    AtomF(voc.preds[a.pred].query, a.args),
                    Impl(
                        AtomF(voc.pairs[(c.head.pred, a.pred)], c.head.args + a.args),
                        nullary(voc.circ),
                    ),
                )
                body = Impl(AtomF(k_m, head_terms), Impl(inner, nullary(kbar_m)))
                axioms.append(
                    Axiom(forall_chain(qvars, body), 10, f"clause {nc.index} goal {a.pred}")
                )
            else:
                body = Impl(
                    AtomF(k_m, head_terms),
                    Impl(AtomF(a.pred, a.args), nullary(kbar_m)),
                )
                axioms.append(
                    Axiom(forall_chain(qvars, body), 10, f"clause {nc.index} not {a.pred}")
                )

    # schema 11: transitivity of the pair memory
    for r, ar_r in preds_in_order:
        for q, ar_q in preds_in_order:
            for s, ar_s in preds_in_order:
                z = _zvars(ar_r, avoid, zterms, "z")
                y = _zvars(ar_q, avoid, zterms, "y")
                w = _zvars(ar_s, avoid, zterms, "w")
                body = Impl(
                    AtomF(voc.pairs[(r, q)], tuple(z) + tuple(y)),
                    Impl(
                        AtomF(voc.pairs[(q, s)], tuple(y) + tuple(w)),
                        Impl(
                            bracket(AtomF(voc.pairs[(r, s)], tuple(z) + tuple(w)), voc.circ),
                            nullary(voc.circ),
                        ),
                    ),
                )
                axioms.append(
                    Axiom(
                        forall_chain([v.name for v in z + y + w], body),
                        11,
                        f"triple {r},{q},{s}",
                    )
                )

    # schema 12: loop closers
    for name, arity in preds_in_order:
        z = _zvars(arity, avoid, zterms)
        body = Impl(AtomF(voc.pairs[(name, name)], tuple(z) + tuple(z)), nullary(voc.circ))
        axioms.append(Axiom(forall_chain([t.name for t in z], body), 12, f"pred {name}"))

    formula = impl_chain([ax.formula for ax in axioms], nullary(voc.lupa))
    return AspTranslation(p, omega, voc, tuple(axioms), formula)


# ---------------------------------------------------------------------------
# Model contexts and the two instability cases
# ---------------------------------------------------------------------------


def _ground_atom_formula(voc: Vocabulary, a: Atom, barred: bool) -> AtomF:
    name = voc.preds[a.pred].bar if barred else a.pred
    return AtomF(name, a.args)


def model_context(t: AspTranslation, m: Model) -> ModelContext:
    base = sorted(program_base(t.program))
    model_atoms = tuple(
        _ground_atom_formula(t.vocabulary, a, False) for a in base if a in m
    )
    complement = tuple(
        _ground_atom_formula(t.vocabulary, a, True) for a in base if a not in m
    )
    formulas = tuple(ax.formula for ax in t.axioms) + model_atoms + complement
    return ModelContext(formulas, model_atoms, complement)


def _unsound(p: Program, m: Model) -> bool:
    return bool(interpretation(p, m) - m)


def _incomplete(p: Program, m: Model) -> bool:
    return bool(m - interpretation(p, m))


def _check_case(
    t: AspTranslation,
    m: Model,
    goal_pred: str,
    expected_fn,
    deadline: float | None,
) -> bool:
    ctx = model_context(t, m)
    cert = prove(list(ctx.formulas), AtomF(goal_pred), deadline=deadline)
    verdict = cert is not None
    expected = expected_fn(t.program, m)
    if verdict != expected:
        raise CrossCheckError(
            f"prover said {verdict} for goal {goal_pred} but the fixpoint "
            f"test says {expected} for model {sorted(str(a) for a in m)}"
        )
    return verdict
