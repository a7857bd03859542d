"""Witnesses of the paper's lemmas about the reduct, shared by the tests.

These are proof devices, not library features: the Gelfond-Lifschitz reduct,
the overline transform with Horn derivability, refutation trees and
return-free derivations.  ``tests/test_engine.py`` and acceptance criteria 2
and 6 check them against ``aspsigma.engine.interpretation``.  They build
their programs with ``from_clauses``, the clause route into integer rows.
"""

import itertools
from dataclasses import dataclass

from aspsigma.engine import GroundProgram, Model, atom_key, ground, interpretation
from aspsigma.errors import FormulaError
from aspsigma.syntax import Atom, Clause, Program
from oracle import lfp


def _as_ground(p: Program | GroundProgram) -> GroundProgram:
    return p if isinstance(p, GroundProgram) else ground(p)


def from_clauses(clauses: tuple[Clause, ...]) -> GroundProgram:
    """The rows of ground ``clauses``, numbering their atoms in order: for
    each clause its head, its positive body, then its negated body.

    This is the oracle route: the rows of ``engine.ground`` and of the
    formula translation must be the rows it gives for their clauses.  The
    result has no source, so its ``clauses`` list a negated atom first and
    its ``base`` is its atom table; on negation-free clauses that is the
    order given.
    """
    ids: dict = {}

    def intern(a: Atom) -> int:
        return ids.setdefault(atom_key(a), len(ids))

    heads, pos, neg = [], [], []
    for c in clauses:
        heads.append(intern(c.head))
        pos.append(tuple([intern(a) for a in c.body if not a.negated]))
        neg.append(tuple([intern(a) for a in c.body if a.negated]))
    return GroundProgram(ids, heads, pos, neg)


def reduct(g: GroundProgram, m: Model) -> GroundProgram:
    """The negation-free transform relative to ``m``."""
    out: list[Clause] = []
    for c in g.clauses:
        if any(a.negated and a.positive() in m for a in c.body):
            continue
        out.append(Clause(c.head, tuple(a for a in c.body if not a.negated)))
    return from_clauses(tuple(out))


# ---------------------------------------------------------------------------
# Overline transform and Horn derivability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlineProgram:
    """The ground program with negative atoms replaced by fresh bar predicates."""

    program: GroundProgram
    bar_names: dict[str, str]
    source_base: frozenset[Atom]

    def bar(self, a: Atom) -> Atom:
        return Atom(self.bar_names[a.pred], a.args)

    def complement(self, m: Model) -> frozenset[Atom]:
        """The bar-atoms of everything in the base that is missing from ``m``."""
        return frozenset(self.bar(b) for b in self.source_base - m)


def overline(p: Program | GroundProgram) -> OverlineProgram:
    g = _as_ground(p)
    preds = {a.pred for c in g.clauses for a in c.atoms()} | {
        a.pred for a in g.base
    }
    bar_names: dict[str, str] = {}
    for name in sorted(preds):
        candidate = name + "_bar"
        while candidate in preds or candidate in bar_names.values():
            candidate += "_"
        bar_names[name] = candidate
    out = []
    for c in g.clauses:
        body = tuple(
            Atom(bar_names[a.pred], a.args) if a.negated else a for a in c.body
        )
        out.append(Clause(c.head, body))
    barred = from_clauses(tuple(out))
    return OverlineProgram(barred, bar_names, g.base)


def horn_derives(
    horn: GroundProgram, facts: frozenset[Atom] | set[Atom], goal: Atom
) -> bool:
    """Forward-chaining derivability of ``goal`` from ``facts`` under ``horn``."""
    for c in horn.clauses:
        if any(a.negated for a in c.body):
            raise FormulaError("horn_derives requires a negation-free program")
    comp = horn.compiled()
    seeds = horn.ids_of(frozenset(facts))
    derived = lfp(comp, [True] * len(comp.heads), seeds)
    gid = horn.ids.get(atom_key(goal))
    return goal.positive() in frozenset(facts) or (gid is not None and gid in derived)


# ---------------------------------------------------------------------------
# Refutation trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefNode:
    node_id: int
    label: Atom
    overlined: bool
    children: tuple[int, ...]
    back_edge: int | None
    history: frozenset[tuple[Atom, Atom]]


@dataclass(frozen=True)
class RefutationTree:
    """A regular tree witnessing that an atom lies outside the interpretation.

    Every internal node labeled ``a`` has one child per ground clause whose
    head is ``a``; repeated labels on a path become back edges.  ``history``
    carries the transition pairs accumulated from the root.
    """

    root: int
    nodes: dict[int, RefNode]

    def node(self, node_id: int) -> RefNode:
        return self.nodes[node_id]


def find_refutation(
    p: Program | GroundProgram, m: Model, a: Atom
) -> RefutationTree | None:
    g = _as_ground(p)
    interp = interpretation(g, m)
    a = a.positive()
    if a in interp:
        return None
    by_head: dict[Atom, list[Clause]] = {}
    for c in g.clauses:
        by_head.setdefault(c.head, []).append(c)

    nodes: dict[int, RefNode] = {}
    counter = itertools.count()

    def build(
        label: Atom,
        path: dict[Atom, int],
        history: frozenset[tuple[Atom, Atom]],
    ) -> int:
        nid = next(counter)
        if label in path:
            nodes[nid] = RefNode(nid, label, False, (), path[label], history)
            return nid
        child_ids: list[int] = []
        path = dict(path)
        path[label] = nid
        for clause in by_head.get(label, []):
            neg_hit = next(
                (b for b in clause.body if b.negated and b.positive() in m), None
            )
            if neg_hit is not None:
                leaf = next(counter)
                nodes[leaf] = RefNode(
                    leaf, neg_hit.positive(), True, (), None, history
                )
                child_ids.append(leaf)
                continue
            witness = next(
                (b for b in clause.body if not b.negated and b not in interp),
                None,
            )
            if witness is None:
                raise AssertionError(
                    f"no failing body atom for {clause}; interpretation is wrong"
                )
            child_hist = history | {(label, witness)}
            child_ids.append(build(witness, path, child_hist))
        nodes[nid] = RefNode(nid, label, False, tuple(child_ids), None, history)
        return nid

    root = build(a, {}, frozenset())
    return RefutationTree(root, nodes)


# ---------------------------------------------------------------------------
# Derivations without returns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivNode:
    node_id: int
    clause: Clause | None  # None for bar-atom leaves
    leaf_atom: Atom | None
    derived: Atom | None  # the head this subtree derives, for clause nodes
    children: tuple[int, ...]


@dataclass(frozen=True)
class DerivationTree:
    """A finite derivation over the overline program and the complement facts."""

    root: int
    nodes: dict[int, DerivNode]

    def node(self, node_id: int) -> DerivNode:
        return self.nodes[node_id]


def find_derivation_no_returns(
    p: Program | GroundProgram, m: Model, a: Atom
) -> DerivationTree | None:
    """A derivation whose derived head atoms never repeat along a path.

    Exists exactly when ``a`` is in the interpretation; the search works on
    the overline program directly and never consults the fixpoint.
    """
    over = overline(p)
    mbar = over.complement(m)
    by_head: dict[Atom, list[Clause]] = {}
    for c in over.program.clauses:
        by_head.setdefault(c.head, []).append(c)
    bar_preds = set(over.bar_names.values())

    def derive(goal: Atom, forbidden: frozenset[Atom]) -> tuple | None:
        for clause in by_head.get(goal, []):
            bar_leaves = [b for b in clause.body if b.pred in bar_preds]
            if any(b not in mbar for b in bar_leaves):
                continue
            pos_goals = [b for b in clause.body if b.pred not in bar_preds]
            if any(b in forbidden for b in pos_goals):
                continue
            subs: list[tuple] = []
            ok = True
            for b in pos_goals:
                sub = derive(b, forbidden | {goal})
                if sub is None:
                    ok = False
                    break
                subs.append(sub)
            if not ok:
                continue
            subs.extend(("leaf", b) for b in bar_leaves)
            return ("node", clause, goal, subs)
        return None

    tmp = derive(a.positive(), frozenset())
    if tmp is None:
        return None

    nodes: dict[int, DerivNode] = {}
    counter = itertools.count()

    def materialize(t: tuple) -> int:
        if t[0] == "leaf":
            nid = next(counter)
            nodes[nid] = DerivNode(nid, None, t[1], None, ())
            return nid
        _, clause, goal, subs = t
        child_ids = tuple(materialize(s) for s in subs)
        nid = next(counter)
        nodes[nid] = DerivNode(nid, clause, None, goal, child_ids)
        return nid

    root = materialize(tmp)
    return DerivationTree(root, nodes)
