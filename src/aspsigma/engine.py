"""Stable model semantics: grounding, fixpoints, enumeration and entailment.

A ``GroundProgram`` is a table of ground atoms numbered from 0, each known
by its key ``(pred, arg name, ...)``, and one integer row ``(head, pos,
neg)`` per clause.  Both routes into it emit rows directly: the formula
translation, and ``ground``.  ``ground`` interns a source clause without
variables from its atoms' own keys, and compiles a clause with variables once
into one key getter per atom, which picks each substitution's keys; no
``Atom`` or ``Clause`` is built per instance.  The search, the fixpoints and
the stability check run on the rows alone, through the one ``_Compiled``
constructor.  ``Atom`` and ``Clause`` objects are built only for what a
caller reads: a returned model, a printed clause, the atoms a branching
priority looks at.  Decoding the whole program builds each atom, and each
negated atom, once.

One search core, ``_search``, enumerates the stable models: it propagates
bounds over the atoms that occur negated and branches only where forced, which
scales to the large ground programs produced by the formula translation.
``stable_models``, ``sms_entails`` and ``has_stable_model`` are views of it.
A ``_Propagator`` keeps the search's assignment, its lower and upper
fixpoints and four counters per clause for the whole search, updates them as
atoms are assigned and undoes them through a trail on backtrack, so a
propagation step costs what it changes, not a pass over the program.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator

from .errors import ArityError, CapExceeded, FormulaError, check_deadline
from .syntax import Atom, Clause, Program, Term, const

Model = frozenset[Atom]
AtomKey = tuple[str, ...]

GROUND_CAP = 10**6
ENUM_CAP = 22


# ---------------------------------------------------------------------------
# Ground programs as integer clause rows
# ---------------------------------------------------------------------------


_name = operator.attrgetter("name")


def atom_key(a: Atom) -> AtomKey:
    """The key of a ground atom: its predicate and argument names."""
    return (a.pred, *map(_name, a.args))


class _TermTable(dict[str, Term]):
    """The constant of each name, built the first time it is looked up."""

    def __missing__(self, name: str) -> Term:
        t = self[name] = const(name)
        return t


class GroundProgram:
    """A ground program as integer clause rows over a table of atoms.

    ``ids`` numbers the atoms, each by its key ``(pred, arg name, ...)``, in
    insertion order from 0; clause ``c`` is ``heads[c] :- pos[c], not
    neg[c]``.  The engine works on the rows alone.  ``Atom`` and ``Clause``
    objects are built only when read, each atom once: ``atom`` and
    ``atoms_of`` decode ids, and ``clauses`` and ``base`` decode the whole
    program.

    ``ground`` passes its ``source``: the program it instantiated and, per
    source clause, the end of that clause's rows and the signs of its body
    (True for a negated atom).  A decoded body then follows its source
    clause's order, and ``base`` is ``program_base`` of the program.  Without
    a source (the formula translation), a decoded body lists the negated atoms
    first, then the positive ones, and last a negated atom that repeats the
    head, so the self-blocking constraint ``f :- B, not f`` reads as written;
    ``base`` is then the atom table.
    """

    __slots__ = (
        "ids", "heads", "pos", "neg", "_source", "_keys", "_atoms", "_term",
        "_clauses", "_base", "_compiled",
    )

    def __init__(
        self,
        ids: dict[AtomKey, int],
        heads: list[int],
        pos: list[tuple[int, ...]],
        neg: list[tuple[int, ...]],
        source: tuple[Program, list[tuple[int, tuple[bool, ...]]]] | None = None,
    ):
        self.ids = ids
        self.heads, self.pos, self.neg = heads, pos, neg
        self._source = source
        self._keys: list[AtomKey] | None = None
        self._atoms: list[Atom | None] = [None] * len(ids)
        self._term = _TermTable().__getitem__
        self._clauses: tuple[Clause, ...] | None = None
        self._base: frozenset[Atom] | None = None
        self._compiled: _Compiled | None = None

    def compiled(self) -> "_Compiled":
        return self._compile(None)

    def _compile(self, deadline: float | None) -> "_Compiled":
        """``compiled``, with ``deadline`` bounding the first build."""
        if self._compiled is None:
            self._compiled = _Compiled(
                len(self.ids), self.heads, self.pos, self.neg, deadline
            )
        return self._compiled

    def atom(self, i: int) -> Atom:
        a = self._atoms[i]
        if a is None:
            if self._keys is None:
                self._keys = list(self.ids)
            key = self._keys[i]
            a = self._atoms[i] = Atom(key[0], tuple(map(self._term, key[1:])))
        return a

    def atoms_of(self, atom_ids) -> frozenset[Atom]:
        return frozenset([self.atom(i) for i in atom_ids])

    def ids_of(self, m: Model) -> set[int]:
        """The ids of the positive atoms of ``m`` that are in the table."""
        get = self.ids.get
        found = {get(atom_key(a)) for a in m if not a.negated}
        found.discard(None)
        return found

    def reduct_model(self, mids: set[int]) -> set[int]:
        """The least model of the reduct of the program by the atoms
        ``mids``, as ids."""
        comp = self.compiled()
        return comp.lfp(comp.usable_for_model(mids))

    def stable_ids(self, m: Model) -> set[int] | None:
        """The ids of ``m`` when it is a stable model, else None."""
        m = frozenset(m)
        mids = self.ids_of(m)
        if len(mids) != len(m) or self.reduct_model(mids) != mids:
            return None
        return mids

    def _all_atoms(self) -> list[Atom]:
        """Every atom of the table, decoded once, indexed by id."""
        atoms = self._atoms
        if None in atoms:
            term = self._term
            for i, key in enumerate(self.ids):
                if atoms[i] is None:
                    atoms[i] = Atom(key[0], tuple(map(term, key[1:])))
        return atoms

    @property
    def clauses(self) -> tuple[Clause, ...]:
        if self._clauses is None:
            atoms = self._all_atoms()
            # each atom that occurs negated is negated once
            nots: list[Atom | None] = [None] * len(atoms)
            for i in set().union(*self.neg):
                a = atoms[i]
                nots[i] = Atom(a.pred, a.args, True)
            atom_at, not_at = atoms.__getitem__, nots.__getitem__
            rows = zip(self.heads, self.pos, self.neg)
            out = []
            if self._source is None:
                for h, ps, ns in rows:
                    if ns and ns[-1] == h:
                        body = (*map(not_at, ns[:-1]), *map(atom_at, ps), nots[h])
                    else:
                        body = (*map(not_at, ns), *map(atom_at, ps))
                    out.append(Clause(atoms[h], body))
            else:
                start = 0
                for end, signs in self._source[1]:
                    for h, ps, ns in itertools.islice(rows, end - start):
                        ps, ns = iter(ps), iter(ns)
                        body = [nots[next(ns)] if s else atoms[next(ps)] for s in signs]
                        out.append(Clause(atoms[h], tuple(body)))
                    start = end
            self._clauses = tuple(out)
        return self._clauses

    @property
    def base(self) -> frozenset[Atom]:
        if self._base is None:
            if self._source is None:
                self._base = frozenset(self._all_atoms())
            else:
                self._base = program_base(self._source[0])
        return self._base


def program_base(p: Program) -> frozenset[Atom]:
    atoms: set[Atom] = set()
    dom = sorted(p.domain)
    for pred, arity in sorted(p.predicates().items()):
        for combo in itertools.product(dom, repeat=arity):
            atoms.add(Atom(pred, tuple(const(c) for c in combo)))
    return frozenset(atoms)


def _key_getters(atoms: list[Atom], cvars: list[str]) -> tuple[list, tuple[str, ...]]:
    """One getter per atom of ``atoms`` that picks the atom's key from the
    values of a substitution: the constants it gives ``cvars``, in order,
    followed by the returned names, which are the atoms' predicates and
    constants."""
    slot = {v: i for i, v in enumerate(cvars)}
    where: dict[str, int] = {}

    def at(name: str) -> int:
        return where.setdefault(name, len(cvars) + len(where))

    getters = []
    for a in atoms:
        idx = [at(a.pred)] + [slot[t.name] if t.var else at(t.name) for t in a.args]
        # itemgetter of one index gives the value, of a slice a tuple
        getters.append(
            operator.itemgetter(*idx)
            if a.args
            else operator.itemgetter(slice(idx[0], idx[0] + 1))
        )
    return getters, tuple(where)


_negated = operator.attrgetter("negated")


def ground(p: Program) -> GroundProgram:
    """All substitution instances of the clauses over the program domain, as
    rows; more than ``GROUND_CAP`` of them raise ``CapExceeded``, and a
    predicate used with two arities raises ``ArityError`` once the whole
    program is within the cap.

    An instance interns the keys of its head, its positive body and its
    negated body in that order, as the clauses of the formula translation do,
    and is dropped when an earlier one has the same head and signed body in
    source order: the same sign pattern and the same row.  A clause with
    variables compiles one key getter per atom (``_key_getters``); a clause
    without them has one instance, whose keys are its atoms' own.
    """
    dom = sorted(p.domain)
    ids: dict[AtomKey, int] = {}
    setdefault = ids.setdefault
    heads: list[int] = []
    pos: list[tuple[int, ...]] = []
    neg: list[tuple[int, ...]] = []
    spans: list[tuple[int, tuple[bool, ...]]] = []
    seen: set[tuple[tuple[bool, ...], tuple[int, ...]]] = set()
    arity: dict[str, int] = {}
    clash: ArityError | None = None
    count = 0
    for clause in p.clauses:
        head, body = clause.head, clause.body
        signs = tuple(map(_negated, body))
        ordered = [head]
        ordered += itertools.compress(body, map(operator.not_, signs))
        ordered += itertools.compress(body, signs)
        cvars = sorted({t.name for a in ordered for t in a.args if t.var})
        count += len(dom) ** len(cvars)
        if count > GROUND_CAP:
            raise CapExceeded(
                f"grounding would exceed {GROUND_CAP} clauses", feasible=GROUND_CAP
            )
        # the first clash in source order, as ``Program.predicates`` finds it
        if clash is None:
            for a in (head, *body):
                n = len(a.args)
                if arity.setdefault(a.pred, n) != n:
                    clash = ArityError(
                        f"predicate {a.pred} used with arities {arity[a.pred]} and {n}"
                    )
                    break
        split = len(signs) - sum(signs) + 1
        if cvars:
            getters, names = _key_getters(ordered, cvars)
            combos = itertools.product(dom, repeat=len(cvars))
            rows = (
                tuple([setdefault(get(vals), len(ids)) for get in getters])
                for vals in map(operator.add, combos, itertools.repeat(names))
            )
        else:
            rows = (tuple([setdefault(atom_key(a), len(ids)) for a in ordered]),)
        for row in rows:
            key = (signs, row)
            if key not in seen:
                seen.add(key)
                heads.append(row[0])
                pos.append(row[1:split])
                neg.append(row[split:])
        spans.append((len(heads), signs))
    if clash is not None:
        raise clash
    return GroundProgram(ids, heads, pos, neg, (p, spans))


def _as_ground(p: Program | GroundProgram) -> GroundProgram:
    return p if isinstance(p, GroundProgram) else ground(p)


# ---------------------------------------------------------------------------
# Compiled clause form for fast fixpoints
# ---------------------------------------------------------------------------


def _chunks(n: int, deadline: float | None) -> Iterator[range]:
    """``range(n)`` in pieces of 4096, with ``deadline`` checked before each:
    on a large program a pass over its atoms or clauses takes long, and
    making their lists sets off the garbage collector's full passes."""
    for start in range(0, n, 4096):
        check_deadline(deadline, "wall-clock")
        yield range(start, min(start + 4096, n))


class _Compiled:
    """The clause rows with the indexes Dowling-Gallier style derivation
    needs."""

    def __init__(
        self,
        n_atoms: int,
        heads: list[int],
        pos: list[tuple[int, ...]],
        neg: list[tuple[int, ...]],
        deadline: float | None = None,
    ):
        self.n_atoms = n_atoms
        self.heads, self.pos, self.neg = heads, pos, neg
        self.watch: list[list[int]] = [
            [] for part in _chunks(n_atoms, deadline) for _ in part
        ]
        # positive-body counts use distinct atoms so the watch lists fire once
        self.pos_need: list[int] = []
        self.neg_sets: list[frozenset[int]] = []
        negated: set[int] = set()
        for part in _chunks(len(pos), deadline):
            for ci in part:
                distinct = set(pos[ci])
                for a in distinct:
                    self.watch[a].append(ci)
                self.pos_need.append(len(distinct))
                ns = frozenset(neg[ci])
                self.neg_sets.append(ns)
                negated.update(ns)
        # the atoms that occur negated, the only branch points of the search
        self.negated: list[int] = sorted(negated)

    def lfp(self, usable: list[bool]) -> set[int]:
        """Least model of the positive parts of the usable clauses."""
        counts = self.pos_need[:]
        derived: set[int] = set()
        queue: list[int] = []
        for ci in range(len(self.heads)):
            if usable[ci] and counts[ci] == 0:
                h = self.heads[ci]
                if h not in derived:
                    derived.add(h)
                    queue.append(h)
        while queue:
            a = queue.pop()
            for ci in self.watch[a]:
                counts[ci] -= 1
                if counts[ci] == 0 and usable[ci]:
                    h = self.heads[ci]
                    if h not in derived:
                        derived.add(h)
                        queue.append(h)
        return derived

    def usable_for_model(self, model_ids: set[int]) -> list[bool]:
        return [not (ns & model_ids) for ns in self.neg_sets]


# ---------------------------------------------------------------------------
# Interpretation and stability
# ---------------------------------------------------------------------------


def interpretation(p: Program | GroundProgram, m: Model) -> Model:
    """Least fixpoint of the one-step consequence operator of the reduct."""
    g = _as_ground(p)
    return g.atoms_of(g.reduct_model(g.ids_of(m)))


def is_stable(p: Program | GroundProgram, m: Model) -> bool:
    return _as_ground(p).stable_ids(m) is not None


# ---------------------------------------------------------------------------
# Stable-model search by propagation and branching
# ---------------------------------------------------------------------------


class _Propagator:
    """The bounds of a partial assignment, kept for a whole search and
    restored on backtrack through a trail.

    ``val`` holds UNKNOWN, TRUE or FALSE for each atom that occurs negated and
    None for every other atom.  ``lower`` is the least model of the clauses
    whose negated atoms are all false, with the true atoms as facts;
    ``upper`` is the least model of the clauses with no true negated atom,
    where false atoms are never derived.  Four counters per clause keep them:
    its negated atoms not yet false (``not_false``) and true
    (``true_negs``), and its distinct positive-body atoms not yet in
    ``lower`` (``low_need``) and in ``upper`` (``up_need``).  Along a branch
    ``lower`` only grows, by counter propagation as in Dowling & Gallier's
    linear-time Horn algorithm.  ``upper`` only shrinks: each of its atoms
    keeps the clause that derived it (``source``), an assignment deletes the
    atoms whose source lost its support, and the deleted atoms that another
    clause still supports are derived again (Smodels' atmost: Simons,
    Niemelä & Soininen, AIJ 2002).

    ``propagate`` applies three rules until none applies: an atom in
    ``lower`` is true, an atom outside ``upper`` is false, and a false head
    whose clause has its positive body in ``lower`` and one negated atom not
    yet false forces that atom true.  Each rule only adds to the assignment,
    so what it ends with, or whether it ends in a conflict, does not depend
    on the order it applies them in.  Every change goes on ``trail``, and
    ``undo(mark)`` reverses the changes made since ``len(trail)`` was
    ``mark``, except ``source``.  That needs no undo: a clause that derived
    an atom below a node is still active at the node, and in a cycle of
    sources the atom whose source was set last would have been derived from
    atoms already in ``upper`` that lead back to it.

    The set-up and every loop of a propagation round check ``deadline`` once
    every 4096 steps: on a large program one round, or the set-up alone, can
    take seconds.
    """

    UNKNOWN, TRUE, FALSE = 0, 1, 2
    # a trail entry is atom * 4 + kind
    ASSIGN, LOWER, DROP, REGAIN = 0, 1, 2, 3

    def __init__(self, comp: _Compiled, deadline: float | None = None):
        self.comp = comp
        self.deadline = deadline
        n, m = comp.n_atoms, len(comp.heads)
        self.by_head = [[] for part in _chunks(n, deadline) for _ in part]
        self.neg_watch = [[] for part in _chunks(n, deadline) for _ in part]
        heads = comp.heads
        for part in _chunks(m, deadline):
            for ci in part:
                self.by_head[heads[ci]].append(ci)
                for a in comp.neg_sets[ci]:
                    self.neg_watch[a].append(ci)
        self.val: list[int | None] = [None] * n
        for a in comp.negated:
            self.val[a] = self.UNKNOWN
        self.not_false = [len(ns) for ns in comp.neg_sets]
        self.true_negs = [0] * m
        self.low_need = comp.pos_need[:]
        self.up_need = comp.pos_need[:]
        self.lower = [False] * n
        self.upper = [False] * n
        self.source = [-1] * n
        self.trail: list[int] = []
        forced: list[tuple[int, int]] = []
        for part in _chunks(m, deadline):
            for ci in part:
                if self.low_need[ci] == 0 and self.not_false[ci] == 0:
                    self._add_lower(heads[ci], forced)
                if self.up_need[ci] == 0:
                    self._regain(heads[ci], ci)
        self.trail.clear()
        # what the empty assignment forces, for the first ``propagate``
        self.initial = forced + [
            (a, self.FALSE) for a in comp.negated if not self.upper[a]
        ]

    def _open_neg(self, ci: int) -> int:
        """The one negated atom of clause ``ci`` that is not false."""
        return next(b for b in self.comp.neg_sets[ci] if self.val[b] != self.FALSE)

    def _add_lower(self, h: int, pending: list[tuple[int, int]]) -> bool:
        """Put ``h`` and what it derives into ``lower``; False on a conflict."""
        FALSE, UNKNOWN = self.FALSE, self.UNKNOWN
        heads, watch = self.comp.heads, self.comp.watch
        val, lower, low_need = self.val, self.lower, self.low_need
        not_false, trail = self.not_false, self.trail
        stack = [h]
        steps = 0
        while stack:
            steps += 1
            if not steps & 4095:
                check_deadline(self.deadline, "wall-clock")
            x = stack.pop()
            if lower[x]:
                continue
            v = val[x]
            if v == FALSE:
                return False
            lower[x] = True
            trail.append(x * 4 + self.LOWER)
            if v == UNKNOWN:
                pending.append((x, self.TRUE))
            for ci in watch[x]:
                low_need[ci] -= 1
                if low_need[ci] == 0:
                    if not_false[ci] == 0:
                        stack.append(heads[ci])
                    elif not_false[ci] == 1 and val[heads[ci]] == FALSE:
                        pending.append((self._open_neg(ci), self.TRUE))
        return True

    def _regain(self, h: int, ci: int) -> None:
        """Put ``h``, derived by clause ``ci``, and what it derives into
        ``upper``."""
        heads, watch = self.comp.heads, self.comp.watch
        val, upper, source = self.val, self.upper, self.source
        up_need, true_negs, trail = self.up_need, self.true_negs, self.trail
        stack = [(h, ci)]
        steps = 0
        while stack:
            steps += 1
            if not steps & 4095:
                check_deadline(self.deadline, "wall-clock")
            x, c = stack.pop()
            if upper[x]:
                continue
            upper[x] = True
            trail.append(x * 4 + self.REGAIN)
            source[x] = c
            for cj in watch[x]:
                up_need[cj] -= 1
                if up_need[cj] == 0 and true_negs[cj] == 0:
                    g = heads[cj]
                    if not upper[g] and val[g] != self.FALSE:
                        stack.append((g, cj))

    def _shrink_upper(self, lost: list[int]) -> list[int]:
        """Delete from ``upper`` the atoms in ``lost`` and every atom whose
        source clause needs a deleted one, derive again those that another
        clause still supports, and return the atoms that stay deleted."""
        heads, watch = self.comp.heads, self.comp.watch
        upper, source, up_need = self.upper, self.source, self.up_need
        dropped = []
        steps = 0
        while lost:
            steps += 1
            if not steps & 4095:
                check_deadline(self.deadline, "wall-clock")
            h = lost.pop()
            if not upper[h]:
                continue
            upper[h] = False
            self.trail.append(h * 4 + self.DROP)
            dropped.append(h)
            for ci in watch[h]:
                up_need[ci] += 1
                if source[heads[ci]] == ci:
                    lost.append(heads[ci])
        for i, h in enumerate(dropped):
            if not i & 4095:
                check_deadline(self.deadline, "wall-clock")
            if upper[h] or self.val[h] == self.FALSE:
                continue
            for ci in self.by_head[h]:
                if up_need[ci] == 0 and self.true_negs[ci] == 0:
                    self._regain(h, ci)
                    break
        return [h for h in dropped if not upper[h]]

    def propagate(self, literals: list[tuple[int, int]]) -> bool:
        """Assign the ``(atom, value)`` pairs in ``literals`` and everything
        they force; False on a conflict, after which the caller undoes."""
        UNKNOWN, TRUE, FALSE = self.UNKNOWN, self.TRUE, self.FALSE
        heads = self.comp.heads
        val, lower, upper, source = self.val, self.lower, self.upper, self.source
        not_false, true_negs, low_need = self.not_false, self.true_negs, self.low_need
        neg_watch, by_head, trail = self.neg_watch, self.by_head, self.trail
        pending = list(literals)
        while True:
            check_deadline(self.deadline, "wall-clock")
            lost: list[int] = []
            steps = 0
            while pending:
                steps += 1
                if not steps & 4095:
                    check_deadline(self.deadline, "wall-clock")
                a, v = pending.pop()
                if val[a] == v:
                    continue
                if val[a] != UNKNOWN or (lower[a] if v == FALSE else not upper[a]):
                    return False
                val[a] = v
                trail.append(a * 4 + self.ASSIGN)
                if v == TRUE:
                    for ci in neg_watch[a]:
                        true_negs[ci] += 1
                        if source[heads[ci]] == ci:
                            lost.append(heads[ci])
                    if not self._add_lower(a, pending):
                        return False
                    continue
                lost.append(a)
                for ci in neg_watch[a]:
                    not_false[ci] -= 1
                for ci in neg_watch[a]:
                    if low_need[ci] == 0:
                        if not_false[ci] == 0:
                            if not self._add_lower(heads[ci], pending):
                                return False
                        elif not_false[ci] == 1 and val[heads[ci]] == FALSE:
                            pending.append((self._open_neg(ci), TRUE))
                for ci in by_head[a]:
                    if low_need[ci] == 0 and not_false[ci] == 1:
                        pending.append((self._open_neg(ci), TRUE))
            for h in self._shrink_upper(lost):
                if val[h] == TRUE:
                    return False
                if val[h] == UNKNOWN:
                    pending.append((h, FALSE))
            if not pending:
                return True

    def undo(self, mark: int) -> None:
        """Restore the state as it was when the trail had ``mark`` entries."""
        watch = self.comp.watch
        val, lower, upper = self.val, self.lower, self.upper
        not_false, true_negs = self.not_false, self.true_negs
        low_need, up_need, neg_watch = self.low_need, self.up_need, self.neg_watch
        trail, TRUE = self.trail, self.TRUE
        while len(trail) > mark:
            entry = trail.pop()
            a, kind = entry >> 2, entry & 3
            if kind == self.ASSIGN:
                if val[a] == TRUE:
                    for ci in neg_watch[a]:
                        true_negs[ci] -= 1
                else:
                    for ci in neg_watch[a]:
                        not_false[ci] += 1
                val[a] = self.UNKNOWN
            elif kind == self.LOWER:
                lower[a] = False
                for ci in watch[a]:
                    low_need[ci] += 1
            elif kind == self.DROP:
                upper[a] = True
                for ci in watch[a]:
                    up_need[ci] -= 1
            else:
                upper[a] = False
                for ci in watch[a]:
                    up_need[ci] += 1


def _search(
    g: GroundProgram,
    deadline: float | None = None,
    branch_priority=None,
) -> Iterator[set[int]]:
    """Every stable model of ``g`` as a set of atom ids, each once, in
    depth-first order.

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

    One ``_Propagator`` keeps the assignment, both fixpoints and their
    per-clause counters for the whole search, so a node costs what its
    assignments change rather than a pass over the program.  The depth-first
    stack holds (trail mark, atom, value) entries: a branch undoes the trail
    to its parent's mark and propagates its one decision.

    ``branch_priority`` optionally maps an Atom to a sort key deciding which
    unassigned atoms to branch on first.
    """
    comp = g._compile(deadline)
    neg_atoms = list(comp.negated)
    if branch_priority is not None:
        neg_atoms.sort(key=lambda a: (branch_priority(g.atom(a)), a))
    prop = _Propagator(comp, deadline)
    UNKNOWN, TRUE, FALSE = prop.UNKNOWN, prop.TRUE, prop.FALSE
    val = prop.val

    def leaf_model() -> set[int] | None:
        derived = comp.lfp([nf == 0 for nf in prop.not_false])
        for a in neg_atoms:
            if (a in derived) != (val[a] == TRUE):
                return None
        return derived

    def choose() -> int | None:
        # no true atom waits for a support: ``propagate`` puts an atom it
        # assigns true into ``lower`` in the same step, and ``undo`` takes
        # both back together, so the first open negated atom is the choice
        return next((a for a in neg_atoms if val[a] == UNKNOWN), None)

    # a choice tries FALSE, then TRUE: FALSE is pushed last, so it is
    # explored first, as a recursive search would
    stack: list[tuple[int, int, int]] = []
    ok = prop.propagate(prop.initial)
    while True:
        if ok:
            pick = choose()
            if pick is None:
                m = leaf_model()
                if m is not None:
                    yield m
            else:
                mark = len(prop.trail)
                stack.append((mark, pick, TRUE))
                stack.append((mark, pick, FALSE))
        if not stack:
            return
        mark, pick, value = stack.pop()
        prop.undo(mark)
        ok = prop.propagate([(pick, value)])


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
    g = _within_cap(p, cap)
    found = [g.atoms_of(m) for m in _search(g, deadline)]
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
    g = _within_cap(p, cap)
    aid = g.ids.get(atom_key(a))
    return all(aid in m for m in _search(g, deadline))


def has_stable_model(
    p: Program | GroundProgram,
    deadline: float | None = None,
    branch_priority=None,
) -> Model | None:
    """The first stable model the search finds, or None when there is none.

    No cap applies; ``deadline`` bounds the work.
    """
    g = _as_ground(p)
    m = next(_search(g, deadline, branch_priority), None)
    if m is None:
        return None
    # a large model takes long to decode, so that runs under the deadline too
    ids = list(m)
    atoms = []
    for part in _chunks(len(ids), deadline):
        atoms += [g.atom(ids[i]) for i in part]
    return frozenset(atoms)

