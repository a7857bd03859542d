"""Stable model semantics: grounding, fixpoints, enumeration and entailment.

One search core, ``_search``, enumerates the stable models: it propagates
bounds over the atoms that occur negated and branches only where forced, which
scales to the large ground programs produced by the formula translation.
``stable_models``, ``sms_entails`` and ``has_stable_model`` are views of it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import CapExceeded, FormulaError, check_deadline
from .syntax import Atom, Clause, Program, const

Model = frozenset[Atom]

GROUND_CAP = 10**6
ENUM_CAP = 22


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroundProgram:
    clauses: tuple[Clause, ...]
    base: frozenset[Atom]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_compiled", None)

    def compiled(self) -> "_Compiled":
        c = getattr(self, "_compiled")
        if c is None:
            c = _Compiled(self.clauses)
            object.__setattr__(self, "_compiled", c)
        return c


def program_base(p: Program) -> frozenset[Atom]:
    atoms: set[Atom] = set()
    dom = sorted(p.domain)
    for pred, arity in sorted(p.predicates().items()):
        for combo in itertools.product(dom, repeat=arity):
            atoms.add(Atom(pred, tuple(const(c) for c in combo)))
    return frozenset(atoms)


def ground(p: Program) -> GroundProgram:
    """All substitution instances of the clauses over the program domain;
    more than ``GROUND_CAP`` of them raise ``CapExceeded``."""
    dom = sorted(p.domain)
    out: list[Clause] = []
    seen: set[Clause] = set()
    count = 0
    for clause in p.clauses:
        cvars = sorted(clause.variables())
        n_inst = len(dom) ** len(cvars)
        count += n_inst
        if count > GROUND_CAP:
            raise CapExceeded(
                f"grounding would exceed {GROUND_CAP} clauses", feasible=GROUND_CAP
            )
        for combo in itertools.product(dom, repeat=len(cvars)):
            binding = dict(zip(cvars, combo))
            g = Clause(
                clause.head.apply(binding),
                tuple(a.apply(binding) for a in clause.body),
            )
            if g not in seen:
                seen.add(g)
                out.append(g)
    return GroundProgram(tuple(out), program_base(p))


def _as_ground(p: Program | GroundProgram) -> GroundProgram:
    return p if isinstance(p, GroundProgram) else ground(p)


# ---------------------------------------------------------------------------
# Compiled clause form for fast fixpoints
# ---------------------------------------------------------------------------


class _Compiled:
    """Integer-indexed clause arrays with Dowling-Gallier style derivation."""

    def __init__(self, clauses: tuple[Clause, ...]):
        self.atom_ids: dict[Atom, int] = {}
        self.atoms: list[Atom] = []

        def intern(a: Atom) -> int:
            a = a.positive()
            i = self.atom_ids.get(a)
            if i is None:
                i = len(self.atoms)
                self.atom_ids[a] = i
                self.atoms.append(a)
            return i

        self.heads: list[int] = []
        self.pos: list[tuple[int, ...]] = []
        self.neg: list[tuple[int, ...]] = []
        for c in clauses:
            self.heads.append(intern(c.head))
            self.pos.append(tuple(intern(a) for a in c.body if not a.negated))
            self.neg.append(tuple(intern(a) for a in c.body if a.negated))
        self.n_atoms = len(self.atoms)
        self.watch: list[list[int]] = [[] for _ in range(self.n_atoms)]
        for ci, body in enumerate(self.pos):
            for a in set(body):
                self.watch[a].append(ci)
        # positive-body counts use distinct atoms so the watch lists fire once
        self.pos_need: list[int] = [len(set(b)) for b in self.pos]
        self.neg_sets: list[frozenset[int]] = [frozenset(ns) for ns in self.neg]
        # the atoms that occur negated, the only branch points of the search
        self.negated: list[int] = sorted({a for ns in self.neg_sets for a in ns})

    def lfp(
        self,
        usable: list[bool],
        seeds: set[int] | None = None,
        excluded: set[int] | None = None,
    ) -> set[int]:
        """Least model of the positive parts of the usable clauses.

        ``seeds`` are taken as given facts; atoms in ``excluded`` are never
        derived (and so never feed positive bodies).
        """
        counts = self.pos_need[:]
        derived: set[int] = set(seeds or ())
        queue: list[int] = list(derived)
        for ci in range(len(self.heads)):
            if usable[ci] and counts[ci] == 0:
                h = self.heads[ci]
                if h not in derived and (excluded is None or h not in excluded):
                    derived.add(h)
                    queue.append(h)
        while queue:
            a = queue.pop()
            for ci in self.watch[a]:
                counts[ci] -= 1
                if counts[ci] == 0 and usable[ci]:
                    h = self.heads[ci]
                    if h not in derived and (excluded is None or h not in excluded):
                        derived.add(h)
                        queue.append(h)
        return derived

    def usable_for_model(self, model_ids: set[int]) -> list[bool]:
        return [not (ns & model_ids) for ns in self.neg_sets]

    def model_ids(self, m: Model) -> set[int]:
        return {self.atom_ids[a] for a in m if a in self.atom_ids}

    def ids_to_atoms(self, ids: set[int]) -> frozenset[Atom]:
        return frozenset(self.atoms[i] for i in ids)


# ---------------------------------------------------------------------------
# Interpretation and stability
# ---------------------------------------------------------------------------


def interpretation(p: Program | GroundProgram, m: Model) -> Model:
    """Least fixpoint of the one-step consequence operator of the reduct."""
    g = _as_ground(p)
    comp = g.compiled()
    usable = comp.usable_for_model(comp.model_ids(m))
    return comp.ids_to_atoms(comp.lfp(usable))


def is_stable(p: Program | GroundProgram, m: Model) -> bool:
    return frozenset(m) == interpretation(p, m)


# ---------------------------------------------------------------------------
# Stable-model search by propagation and branching
# ---------------------------------------------------------------------------


def _search(
    g: GroundProgram,
    deadline: float | None = None,
    branch_priority=None,
) -> Iterator[Model]:
    """Every stable model of ``g``, each once, in depth-first order.

    A stable model is fixed by the truth values of the atoms that occur
    negated, so the search assigns values only to those.  A partial
    assignment yields a lower fixpoint (clauses whose negative bodies are all
    assigned false, seeded with the true-assigned atoms) and an upper fixpoint
    (clauses whose negative bodies are not assigned true, with false-assigned
    atoms underivable).  Every stable model M that extends the assignment
    satisfies ``lower <= M <= upper``, so conflicts prune no model and
    entailed literals are forced; a false atom whose clause has a certain
    positive body forces that clause's one open negative literal true, which
    removes no model either.  Complete assignments are verified with the plain
    reduct-fixpoint check, so every yield is exact, and distinct leaves differ
    on a negated atom, so no model is yielded twice.

    ``branch_priority`` optionally maps an Atom to a sort key deciding which
    unassigned atoms to branch on first.
    """
    comp = g.compiled()
    neg_atoms = list(comp.negated)
    if branch_priority is not None:
        neg_atoms.sort(key=lambda a: (branch_priority(comp.atoms[a]), a))
    UNKNOWN, TRUE, FALSE = 0, 1, 2

    def lower_upper(assign: dict[int, int]) -> tuple[set[int], set[int]]:
        sure = [True] * len(comp.heads)
        poss = [True] * len(comp.heads)
        for ci, ns in enumerate(comp.neg_sets):
            for a in ns:
                v = assign[a]
                if v != FALSE:
                    sure[ci] = False
                if v == TRUE:
                    poss[ci] = False
                    break
        seeds = {a for a, v in assign.items() if v == TRUE}
        excluded = {a for a, v in assign.items() if v == FALSE}
        return comp.lfp(sure, seeds), comp.lfp(poss, None, excluded)

    clauses_by_head: dict[int, list[int]] = {}
    for ci, h in enumerate(comp.heads):
        clauses_by_head.setdefault(h, []).append(ci)

    def propagate(assign: dict[int, int]) -> tuple[set[int], set[int]] | None:
        while True:
            check_deadline(deadline, "wall-clock")
            lower, upper = lower_upper(assign)
            changed = False
            for a in neg_atoms:
                v = assign[a]
                inl, inu = a in lower, a in upper
                if v == TRUE and not inu:
                    return None
                if v == FALSE and inl:
                    return None
                if v == UNKNOWN:
                    if inl:
                        assign[a] = TRUE
                        changed = True
                    elif not inu:
                        assign[a] = FALSE
                        changed = True
            # a clause whose head is excluded must not fire: if its positive
            # body is already certain, the one open negative literal is forced
            for a in neg_atoms:
                if assign[a] != FALSE:
                    continue
                for ci in clauses_by_head.get(a, ()):
                    if not all(b in lower for b in comp.pos[ci]):
                        continue
                    open_negs = [
                        b for b in comp.neg_sets[ci] if assign[b] == UNKNOWN
                    ]
                    if len(open_negs) == 1 and all(
                        assign[b] == FALSE
                        for b in comp.neg_sets[ci]
                        if b != open_negs[0]
                    ):
                        if assign[open_negs[0]] == UNKNOWN:
                            assign[open_negs[0]] = TRUE
                            changed = True
            if not changed:
                return lower, upper

    def leaf_model(assign: dict[int, int]) -> Model | None:
        usable = [
            all(assign[a] == FALSE for a in ns) for ns in comp.neg_sets
        ]
        derived = comp.lfp(usable)
        for a in neg_atoms:
            if (a in derived) != (assign[a] == TRUE):
                return None
        return comp.ids_to_atoms(derived)

    def choose(assign, lower, upper) -> tuple[int, tuple[int, int]] | None:
        # a true-assigned atom that is not yet derivable needs a support
        # clause; decide one of the open literals in a candidate support first
        for t in neg_atoms:
            if assign[t] != TRUE or t in lower:
                continue
            for ci in clauses_by_head.get(t, ()):
                if any(assign[b] == TRUE for b in comp.neg_sets[ci]):
                    continue
                if not all(b in upper for b in comp.pos[ci]):
                    continue
                for b in comp.pos[ci]:
                    if b in assign and assign[b] == UNKNOWN:
                        return b, (TRUE, FALSE)
                for b in comp.neg_sets[ci]:
                    if assign[b] == UNKNOWN:
                        return b, (FALSE, TRUE)
        pick = next((a for a in neg_atoms if assign[a] == UNKNOWN), None)
        if pick is None:
            return None
        return pick, (FALSE, TRUE)

    # the stack holds the open branches; the first value of a choice is
    # pushed last, so it is explored first, as a recursive search would
    stack = [{a: UNKNOWN for a in neg_atoms}]
    while stack:
        assign = stack.pop()
        bounds = propagate(assign)
        if bounds is None:
            continue
        choice = choose(assign, *bounds)
        if choice is None:
            m = leaf_model(assign)
            if m is not None:
                yield m
            continue
        pick, values = choice
        for value in reversed(values):
            child = dict(assign)
            child[pick] = value
            stack.append(child)


def _within_cap(p: Program | GroundProgram, cap: int) -> GroundProgram:
    g = _as_ground(p)
    n = len(g.compiled().negated)
    if n > cap:
        raise CapExceeded(
            f"{n} atoms occur negated, beyond the enumeration cap {cap}",
            feasible=cap,
        )
    return g


def stable_models(
    p: Program | GroundProgram,
    cap: int = ENUM_CAP,
    deadline: float | None = None,
) -> tuple[Model, ...]:
    """All stable models, smallest first; ``cap`` bounds the negated atoms."""
    found = list(_search(_within_cap(p, cap), deadline))
    found.sort(key=lambda m: (len(m), sorted(str(a) for a in m)))
    return tuple(found)


def sms_entails(
    p: Program | GroundProgram,
    a: Atom,
    cap: int = ENUM_CAP,
    deadline: float | None = None,
) -> bool:
    """True when every stable model satisfies ``a`` (vacuously if none exists).

    The search stops at the first stable model without ``a``.
    """
    if a.negated or not a.is_ground():
        raise FormulaError(f"entailment queries take positive ground atoms: {a}")
    return all(a in m for m in _search(_within_cap(p, cap), deadline))


def has_stable_model(
    p: Program | GroundProgram,
    deadline: float | None = None,
    branch_priority=None,
) -> Model | None:
    """The first stable model the search finds, or None when there is none.

    No cap applies; ``deadline`` bounds the work.
    """
    return next(_search(_as_ground(p), deadline, branch_priority), None)

