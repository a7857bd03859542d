"""Lambda proof terms, the type-assignment checker, and Sigma1 proof search.

The search decides judgments ``ctx |- c`` with Pi1 contexts and atomic goals:
pick a context member, instantiate its quantified variables from the constant
pool, and recursively prove the target of every premise.  Contexts only grow
along the recursion, so weakening holds and solved/failed results subsume by
inclusion.  Positive results are found as a least fixpoint of depth-first
passes.  A pass cuts a judgment that is already on its stack (reads it as
failed) and records every judgment it expands and fails.  A member instance
whose premise asks again the judgment being expanded, with no new hypothesis,
is not tried: that premise could only be cut.  Passes repeat while the last
one failed and solved some judgment it had cut.

The rule is sound for negative answers.  Suppose a failing pass solved no
judgment it cut, but some judgment it recorded failed (the root among them)
is provable; take one with a minimal proof.  The pass tried the member
instance that proof uses: a minimal proof has no self-loop, since a premise
asking the same judgment would hold a smaller proof of it.  The first premise
of that instance which did not succeed either failed when expanded, or hit the
recorded failure of a judgment with a larger context (weakening keeps the
premise's proof), or was cut.  A cut judgment was on the stack, so the pass
finished it, and as it was not solved it failed.  Each case gives a provable
failed judgment with a smaller proof, a contradiction.  The rule stops no later
than repeating until the solved table stops growing (no cut judgment can be
solved then), and it runs the same passes up to its stop, so verdicts and
certificates are those of that loop.

Context members are interned: each alpha-equivalence class gets a dense
integer id the first time it is met, so a context is a set of ids added to
the initial context.  A class is looked up by its ``syntax.alpha_key``, a
flat tuple built once when a formula is interned and hashed without calls
back into Python; no member's tree is hashed or rebuilt.  Goal atoms are
interned too, per search: each gets a dense integer id the first time the
search meets it, once per member instance whose premise asks it, so a
judgment is ``(frozenset of added ids, goal id)`` and no judgment hashes a
formula.  The goal atom itself is read only to pick and match members.
A context member is surveyed in one walk (``syntax.survey``), which gives its
key, its constants, its free variables and whether it is Pi1.  Interning
records only its key, id and target predicate, the ground atom index and
``flexible_preds``.  Its Pi1 scheme, top variables and atomic premises come
from the top-level quantifiers and premises alone, and are compiled the first
time a search tries the member: a search reaches only some of a context's
members (a quarter of them over acceptance 8's case queries).  The
goal is not walked whole: each premise of its implication spine is surveyed
once, the goal's class, constants and free variables follow from those
surveys and its target, and the search interns the premises by their keys.

The search is one loop per judgment.  It tries the members whose target
predicate is the goal's, initial members first, then the added ones, each in
id order, and for each member its instantiations, enumerated from the moment
the loop reaches it: the target matched against the goal, then, depth first,
the atomic premises over membership-only predicates joined against the
context's atom members, then the remaining top variables drawn from the
constant pool.  Only the target match and the bare membership tests it
allows are done at once; the join and the pool product, which can grow
exponentially in a member's top variables, are walked lazily, so a search
that succeeds early builds few of them.  The atom members by predicate and
the added members by target predicate are built once per added set.  The
premises a member instance leaves to prove (substituted, peeled, with their
hypotheses interned) are computed once per (member id, instantiation) and
kept for the life of one search.  Every iteration follows these orders, so
the certificate found does not depend on the string hash seed.

Interning is split in two.  The context minus its trailing run of ground
atoms is interned once into a base (``_Base``): frozen members, their
constants, the entries and every table built from them.  A search copies the
base's tables, then interns the trailing atoms and the goal's premises after
it, in context order, so ids and certificates are those of interning the whole
context afresh.  It compiles a base entry in place when it first tries it, so
later calls on the same base find it compiled.  ``prove`` keeps the last base
and reuses it while the leading members of the next context compare equal:
the two instability cases of a model ask the same axioms, and so do all
models of one program (``asp_to_logic``).  ``prove_sigma1`` has an empty
context and so an empty base.

Every positive answer is returned as a long-normal-form certificate that the
checker accepts.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CapExceeded, FormulaError, ParseError, check_deadline
from .syntax import (
    AtomF,
    Forall,
    Formula,
    Impl,
    Pi1Scheme,
    Survey,
    Term,
    AlphaKey,
    alpha_eq,
    alpha_key,
    classify,
    const,
    fmt_formula,
    free_vars,
    impl_spine,
    pi1_spine,
    substitute,
    survey,
    var,
)

MAX_JUDGMENTS = 200_000


# ---------------------------------------------------------------------------
# Proof terms
# ---------------------------------------------------------------------------


class ProofTerm:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class PVar(ProofTerm):
    name: str


@dataclass(frozen=True, slots=True)
class PAbs(ProofTerm):
    var: str
    annot: Formula
    body: ProofTerm


@dataclass(frozen=True, slots=True)
class OAbs(ProofTerm):
    var: str
    body: ProofTerm


@dataclass(frozen=True, slots=True)
class PApp(ProofTerm):
    fn: ProofTerm
    arg: ProofTerm


@dataclass(frozen=True, slots=True)
class OApp(ProofTerm):
    fn: ProofTerm
    arg: Term


class Environment:
    """Ordered proof-variable declarations, at most one per variable.

    The declarations are kept as one name -> formula dict in declaration
    order, so ``lookup`` is a hash probe and ``bind`` a dict copy, not a pass
    over the declarations in Python.  ``bind`` shadows: the name's old
    declaration goes and the new one comes last.
    """

    __slots__ = ("_index",)

    def __init__(self, decls: tuple[tuple[str, Formula], ...] = ()):
        self._index = dict(decls)
        if len(self._index) != len(decls):
            raise FormulaError("environment declares a variable twice")

    @property
    def decls(self) -> tuple[tuple[str, Formula], ...]:
        return tuple(self._index.items())

    def lookup(self, name: str) -> Formula | None:
        return self._index.get(name)

    def bind(self, name: str, f: Formula) -> "Environment":
        env = Environment()
        env._index = self._index.copy()
        env._index.pop(name, None)
        env._index[name] = f
        return env

    def formulas(self) -> tuple[Formula, ...]:
        return tuple(self._index.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Environment):
            return NotImplemented
        return self.decls == other.decls

    def __hash__(self) -> int:
        return hash(self.decls)

    def __repr__(self) -> str:
        return f"Environment(decls={self.decls!r})"


# ---------------------------------------------------------------------------
# Type checking
# ---------------------------------------------------------------------------


class _CheckFailure(Exception):
    def __init__(self, trail: list[str]):
        self.trail = trail
        super().__init__("; ".join(trail))


def infer(env: Environment, term: ProofTerm) -> Formula:
    """Type of ``term`` under ``env``; raises with a diagnostic trail."""
    if isinstance(term, PVar):
        f = env.lookup(term.name)
        if f is None:
            raise _CheckFailure([f"unbound proof variable {term.name}"])
        return f
    if isinstance(term, PAbs):
        body = infer(env.bind(term.var, term.annot), term.body)
        return Impl(term.annot, body)
    if isinstance(term, OAbs):
        for name, f in env.decls:
            if term.var in free_vars(f):
                raise _CheckFailure(
                    [
                        f"eigenvariable violation: {term.var} is free in the "
                        f"declaration of {name}"
                    ]
                )
        body = infer(env, term.body)
        return Forall(term.var, body)
    if isinstance(term, PApp):
        fn = infer(env, term.fn)
        if not isinstance(fn, Impl):
            raise _CheckFailure(
                [f"applied a term of non-implication type {fmt_formula(fn)}"]
            )
        arg = infer(env, term.arg)
        if not alpha_eq(arg, fn.lhs):
            raise _CheckFailure(
                [
                    f"argument type {fmt_formula(arg)} does not match the "
                    f"expected premise {fmt_formula(fn.lhs)}"
                ]
            )
        return fn.rhs
    if isinstance(term, OApp):
        fn = infer(env, term.fn)
        if not isinstance(fn, Forall):
            raise _CheckFailure(
                [f"object-applied a term of non-universal type {fmt_formula(fn)}"]
            )
        return substitute(fn.body, {fn.var: term.arg})
    raise TypeError(term)


def check_explain(
    env: Environment, term: ProofTerm, goal: Formula
) -> tuple[bool, list[str]]:
    try:
        got = infer(env, term)
    except _CheckFailure as e:
        return False, e.trail
    if alpha_eq(got, goal):
        return True, []
    return False, [
        f"term has type {fmt_formula(got)} but the goal is {fmt_formula(goal)}"
    ]


def check(env: Environment, term: ProofTerm, goal: Formula) -> bool:
    return check_explain(env, term, goal)[0]


def is_lnf(env: Environment, term: ProofTerm, typ: Formula) -> bool:
    """The long-normal-form predicate, evaluated structurally against ``typ``."""
    if isinstance(typ, Forall):
        if not isinstance(term, OAbs):
            return False
        body_typ = substitute(typ.body, {typ.var: var(term.var)})
        return is_lnf(env, term.body, body_typ)
    if isinstance(typ, Impl):
        if not isinstance(term, PAbs):
            return False
        return is_lnf(env.bind(term.var, term.annot), term.body, typ.rhs)
    # atom type: the term must be a head variable applied to lnf arguments
    spine: list[ProofTerm | Term] = []
    head = term
    while isinstance(head, (PApp, OApp)):
        spine.append(head.arg)
        head = head.fn
    if not isinstance(head, PVar):
        return False
    head_typ = env.lookup(head.name)
    if head_typ is None:
        return False
    for arg in reversed(spine):
        if isinstance(arg, Term):
            if not isinstance(head_typ, Forall):
                return False
            head_typ = substitute(head_typ.body, {head_typ.var: arg})
        else:
            if not isinstance(head_typ, Impl):
                return False
            if not is_lnf(env, arg, head_typ.lhs):
                return False
            head_typ = head_typ.rhs
    return isinstance(head_typ, AtomF)


# ---------------------------------------------------------------------------
# Printing and parsing certificates
# ---------------------------------------------------------------------------


def fmt_term(t: ProofTerm) -> str:
    if isinstance(t, PVar):
        return t.name
    if isinstance(t, PAbs):
        annot = fmt_formula(t.annot)
        if not isinstance(t.annot, AtomF):
            annot = f"({annot})"
        return f"\\{t.var}:{annot}. {fmt_term(t.body)}"
    if isinstance(t, OAbs):
        return f"\\{t.var}. {fmt_term(t.body)}"
    # application spine, left associated
    parts: list[str] = []
    head = t
    while isinstance(head, (PApp, OApp)):
        arg = head.arg
        if isinstance(arg, Term):
            parts.append(arg.name)
        elif isinstance(arg, PVar):
            parts.append(arg.name)
        else:
            parts.append(f"({fmt_term(arg)})")
        head = head.fn
    if isinstance(head, PVar):
        parts.append(head.name)
    else:
        parts.append(f"({fmt_term(head)})")
    return " ".join(reversed(parts))


def parse_term(text: str) -> ProofTerm:
    from .parsing import _Cursor, tokenize

    cur = _Cursor(tokenize(text))

    def parse_abs(bound_obj: tuple[str, ...]) -> ProofTerm:
        if cur.at("\\"):
            cur.next()
            name = cur.expect_ident("binder")
            if cur.at(":"):
                if not name.value[0].isupper():
                    raise ParseError(
                        "proof variables start uppercase", name.line, name.col
                    )
                cur.next()
                annot = _parse_annot(bound_obj)
                cur.expect(".")
                return PAbs(name.value, annot, parse_abs(bound_obj))
            if name.value[0].isupper():
                raise ParseError(
                    "object variables start lowercase", name.line, name.col
                )
            cur.expect(".")
            return OAbs(name.value, parse_abs(bound_obj + (name.value,)))
        return parse_app(bound_obj)

    def _parse_annot(bound_obj: tuple[str, ...]) -> Formula:
        from .parsing import _parse_formula, _parse_formula_unit

        if cur.at("("):
            cur.next()
            f = _parse_formula(cur, bound_obj, {})
            cur.expect(")")
            return f
        return _parse_formula_unit(cur, bound_obj, {})

    def parse_app(bound_obj: tuple[str, ...]) -> ProofTerm:
        out = parse_atom(bound_obj)
        while True:
            if cur.at("("):
                cur.next()
                arg = parse_abs(bound_obj)
                cur.expect(")")
                out = PApp(out, arg)
            elif cur.at_ident():
                tok = cur.next()
                if tok.value[0].isupper():
                    out = PApp(out, PVar(tok.value))
                elif tok.value in bound_obj:
                    out = OApp(out, var(tok.value))
                else:
                    out = OApp(out, const(tok.value))
            else:
                return out

    def parse_atom(bound_obj: tuple[str, ...]) -> ProofTerm:
        if cur.at("("):
            cur.next()
            t = parse_abs(bound_obj)
            cur.expect(")")
            return t
        tok = cur.expect_ident("proof variable")
        if not tok.value[0].isupper():
            raise ParseError(
                f"expected a proof variable, found {tok.value!r}", tok.line, tok.col
            )
        return PVar(tok.value)

    t = parse_abs(())
    tail = cur.peek()
    if tail.kind != "eof":
        raise ParseError(f"trailing input after term: {tail.value!r}", tail.line, tail.col)
    return t


# ---------------------------------------------------------------------------
# Proof search
# ---------------------------------------------------------------------------


class _Entry:
    """An interned context member.

    Interning records the formula and its target predicate; the Pi1 scheme,
    its top variables and its atomic premises are compiled the first time a
    search tries the member (``_Prover.instances``), since a search reaches
    only some of a context's members.  ``compile`` stores the scheme last, so
    a search that finds ``scheme`` set finds the other two set as well.
    """

    __slots__ = ("formula", "pred", "top", "atom_premises", "scheme")

    def __init__(self, formula: Formula, pred: str):
        self.formula = formula
        self.pred = pred  # the target atom's predicate
        self.scheme: Pi1Scheme | None = None

    def compile(self) -> None:
        scheme = pi1_spine(self.formula)
        self.top: frozenset[str] = frozenset(scheme.top_vars)
        # the premises that are atoms, in step order: the ones a search joins
        # against the context's atom members when their predicate is rigid
        self.atom_premises: tuple[AtomF, ...] = tuple(
            s.sigma for s in scheme.steps if type(s.sigma) is AtomF
        )
        self.scheme = scheme


class _Base:
    """The interned leading members of a context, shared by later calls.

    Holds the member tables a search starts from: the entries and their ids,
    the ground atom index, ``flexible_preds`` and the per-predicate member and
    atom lists.  No table changes once the base is built; a search copies the
    tables (``_Prover``) before it interns anything else.  Only the entries
    are written later, each compiled once in place (``_Entry.compile``).
    """

    def __init__(self, members: list[Formula]):
        # as given, so the next call can compare its own leading members
        self.members = members
        self.constants: set[str] = set()
        # member id -> entry; ids are dense and follow interning order
        self.entries: list[_Entry] = []
        self.ids: dict[AlphaKey, int] = {}  # alpha_key(frozen member) -> id
        # (pred, constant names...) -> id of that ground atom member
        self.atom_ids: dict[tuple[str, ...], int] = {}
        # predicates that head a non-atomic member; their atoms may be proved
        # by a generation step, all other atoms only by context membership
        self.flexible_preds: set[str] = set()
        self.base_ids: list[int] = []
        for f in members:
            frozen, key, facts = _freeze(f)
            if not facts.pi1:
                raise FormulaError(
                    f"context members must be Pi1 formulas: {fmt_formula(f)}"
                )
            self.constants |= facts.constants | facts.free
            self.base_ids.append(self.intern(frozen, key))
        self.base_by_target: dict[str, list[int]] = {}
        self.base_atoms: dict[str, list[AtomF]] = {}
        self._index(0, {}, {})

    def intern(self, f: Formula, key: AlphaKey) -> int:
        """The id of the class of ``f``, a closed Pi1 formula whose alpha key
        is ``key``.

        Only a leading context member can fail to be Pi1, and ``_Base``
        checks those from the walk that keys them.  Atoms are Pi1, and so
        are the premises of a Sigma1 goal and the hypotheses of a Pi1
        member's premises, by the grammar of the two classes.
        """
        mid = self.ids.get(key)
        if mid is None:
            target = f
            while type(target) is not AtomF:
                target = target.body if type(target) is Forall else target.rhs
            mid = self.ids[key] = len(self.entries)
            self.entries.append(_Entry(f, target.pred))
            if type(f) is not AtomF:
                self.flexible_preds.add(target.pred)
            elif _is_ground_atom(f):
                self.atom_ids[(f.pred, *(t.name for t in f.args))] = mid
        return mid

    def _index(self, start: int, targets: dict, atoms: dict) -> None:
        """List the members from id ``start`` on by target predicate, copying
        a list that the base's ``targets`` or ``atoms`` holds before
        extending it."""
        for mid in range(start, len(self.entries)):
            entry = self.entries[mid]
            _append(self.base_by_target, targets, entry.pred, mid)
            if isinstance(entry.formula, AtomF):
                _append(self.base_atoms, atoms, entry.pred, entry.formula)


def _append(table: dict[str, list], shared: dict[str, list], key: str, item) -> None:
    items = table.get(key)
    if items is None or items is shared.get(key):
        items = table[key] = list(items or ())
    items.append(item)


def _match_atom(
    pattern: AtomF, concrete: AtomF, tv: frozenset[str], binding: dict[str, Term]
) -> dict[str, Term] | None:
    """``binding`` extended so that the pattern becomes the concrete atom, as
    a new dict, or None."""
    if pattern.pred != concrete.pred or len(pattern.args) != len(concrete.args):
        return None
    out = dict(binding)
    for p_arg, c_arg in zip(pattern.args, concrete.args):
        if p_arg.var and p_arg.name in tv:
            old = out.get(p_arg.name)
            if old is None:
                out[p_arg.name] = c_arg
            elif old != c_arg:
                return None
        elif p_arg != c_arg:
            return None
    return out


class _Prover(_Base):
    """One search: a copy of a base's tables, the context's remaining members
    and the goal's premises interned after the base's, in that order."""

    def __init__(
        self,
        base: _Base,
        extra: list[tuple[Formula, AlphaKey]],
        pool: list[Term],
        deadline: float | None,
    ):
        self.pool = pool
        self.deadline = deadline
        self.entries = list(base.entries)
        self.ids = dict(base.ids)
        self.atom_ids = dict(base.atom_ids)
        self.flexible_preds = set(base.flexible_preds)
        # the base holds the ids 0 .. k-1, the extra members the ones after
        self.base_ids = base.base_ids + [self.intern(f, key) for f, key in extra]
        self.base_set = frozenset(range(len(self.entries)))
        self.base_by_target = dict(base.base_by_target)
        self.base_atoms = dict(base.base_atoms)
        self._index(len(base.entries), base.base_by_target, base.base_atoms)
        # added set -> its members by target predicate and the context's atoms
        # by predicate, for the predicates that have added atoms
        self.added_tables: dict[frozenset[int], tuple[dict, dict]] = {}
        # (member id, assigned constant names) -> per-premise child data
        self.children: dict[tuple[int, tuple[str, ...]], tuple] = {}
        # goal atoms by id, dense in the order the search first meets them;
        # the tables below and the dfs stack key a goal by its id
        self.goals: list[AtomF] = []
        self.goal_ids: dict[AtomF, int] = {}
        # solved[goal id] -> list of (added_set, record); insertion order matters
        self.solved: dict[int, list[tuple[frozenset[int], tuple]]] = {}
        self.failed: dict[int, list[frozenset[int]]] = {}
        # the judgments the current pass cut because they were on the stack
        self.cuts: set[tuple[frozenset[int], int]] = set()
        self.judgments_seen: set[tuple[frozenset[int], int]] = set()

    def goal_id(self, goal: AtomF) -> int:
        gid = self.goal_ids.get(goal)
        if gid is None:
            gid = self.goal_ids[goal] = len(self.goals)
            self.goals.append(goal)
        return gid

    # -- matching ----------------------------------------------------------

    def members(self, added: frozenset[int], goal: AtomF) -> tuple:
        """The members whose target predicate is the goal's, base members
        first, then the added ones, each in id order; and the context's atom
        members by predicate where they differ from the base's."""
        tables = self.added_tables.get(added)
        if tables is None:
            by_target: dict[str, list[int]] = {}
            atoms: dict[str, list[AtomF]] = {}
            for mid in sorted(added):
                entry = self.entries[mid]
                by_target.setdefault(entry.pred, []).append(mid)
                if isinstance(entry.formula, AtomF):
                    atoms.setdefault(entry.formula.pred, []).append(entry.formula)
            for pred, more in atoms.items():
                atoms[pred] = self.base_atoms.get(pred, []) + more
            tables = self.added_tables[added] = (by_target, atoms)
        by_target, atoms = tables
        pred = goal.pred
        return (
            itertools.chain(
                self.base_by_target.get(pred, ()), by_target.get(pred, ())
            ),
            atoms,
        )

    def instances(
        self,
        entry: _Entry,
        goal: AtomF,
        added: frozenset[int],
        atoms: dict[str, list[AtomF]],
    ) -> Iterable[dict[str, Term]]:
        """Top-variable assignments matching the member's target against the
        goal, in the order of a depth-first join.

        Atomic premises over membership-only predicates are joined against the
        context's atom members (``atoms``, else the base's, in member-id
        order), which both binds their variables and prunes instantiations
        that could never be completed; the top variables still unbound then
        range over the pool.  Which predicates are membership-only is read
        here, when the search reaches the member: ``flexible_preds`` grows as
        the search interns.  When the target binds every top variable, the
        premises are bare membership tests and the answer is at most one
        assignment; otherwise the join and the pool product, which can grow
        exponentially in the member's top variables, are enumerated lazily.
        The member is compiled here, the first time a search reaches it.
        """
        if entry.scheme is None:
            entry.compile()
        b = _match_atom(entry.scheme.target, goal, entry.top, {})
        if b is None:
            return ()
        flexible = self.flexible_preds
        rigid = [p for p in entry.atom_premises if p.pred not in flexible]
        if len(b) == len(entry.top):
            for pattern in rigid:
                if not self.has_atom(pattern, b, added):
                    return ()
            return (b,)
        return self.joined(entry, rigid, b, added, atoms)

    def has_atom(self, pattern: AtomF, b: dict[str, Term], added) -> bool:
        """Whether the context holds the pattern's instance under ``b``, which
        binds all its variables.  An atom interned after the context is in
        neither set."""
        mid = self.atom_ids.get(
            (pattern.pred, *(b[a.name].name if a.var else a.name for a in pattern.args))
        )
        return mid is not None and (mid in self.base_set or mid in added)

    def joined(
        self,
        entry: _Entry,
        rigid: list[AtomF],
        b: dict[str, Term],
        added: frozenset[int],
        atoms: dict[str, list[AtomF]],
    ) -> Iterator[dict[str, Term]]:
        """The rest of ``instances``: the ``rigid`` premises joined depth first
        from the target's binding ``b``, each full join completed from the
        pool."""
        top, n = entry.top, len(rigid)
        stack = [(0, b)]
        while stack:
            i, b = stack.pop()
            if i == n:
                rest = [v for v in entry.scheme.top_vars if v not in b]
                for combo in itertools.product(self.pool, repeat=len(rest)):
                    full = dict(b)
                    full.update(zip(rest, combo))
                    yield full
                continue
            pattern = rigid[i]
            if all(not a.var or a.name in b for a in pattern.args):
                if self.has_atom(pattern, b, added):
                    stack.append((i + 1, b))
                continue
            # a join that finds no complete assignment asks no judgment, so
            # it checks the deadline itself, once per branching step
            check_deadline(self.deadline, "proof search")
            # distinct atom members match with distinct bindings
            cands = atoms.get(pattern.pred) or self.base_atoms.get(pattern.pred, ())
            found = [_match_atom(pattern, cand, top, b) for cand in cands]
            stack.extend((i + 1, nb) for nb in reversed(found) if nb is not None)

    def child_data(self, mid: int, t_assign: dict[str, Term]) -> tuple:
        """Per premise: its peeled taus, their ids, the ids new beyond the
        base, and its target atom's goal id; computed once per member
        instance."""
        scheme = self.entries[mid].scheme
        key = (mid, tuple(t_assign[v].name for v in scheme.top_vars))
        data = self.children.get(key)
        if data is None:
            out = []
            for step in scheme.steps:
                taus, a_i = impl_spine(substitute(step.sigma, t_assign))
                tau_ids = tuple(self.intern(tau, alpha_key(tau)) for tau in taus)
                out.append(
                    (taus, tau_ids, frozenset(tau_ids) - self.base_set, self.goal_id(a_i))
                )
            data = self.children[key] = tuple(out)
        return data

    # -- search ------------------------------------------------------------

    def solved_lookup(self, added: frozenset[int], gid: int):
        for added2, record in self.solved.get(gid, ()):
            if added2 <= added:
                return record
        return None

    def failed_lookup(self, added: frozenset[int], gid: int) -> bool:
        return any(added <= added2 for added2 in self.failed.get(gid, ()))

    def dfs(self, added: frozenset[int], gid: int, stack: set) -> bool:
        check_deadline(self.deadline, "proof search")
        if self.solved_lookup(added, gid) is not None:
            return True
        if self.failed_lookup(added, gid):
            return False
        j = (added, gid)
        if j in stack:
            self.cuts.add(j)
            return False
        self.judgments_seen.add(j)
        if len(self.judgments_seen) > MAX_JUDGMENTS:
            raise CapExceeded(
                f"judgment space exceeded {MAX_JUDGMENTS}",
                feasible=MAX_JUDGMENTS,
            )
        stack.add(j)
        try:
            goal = self.goals[gid]
            members, atoms = self.members(added, goal)
            for mid in members:
                for t_assign in self.instances(self.entries[mid], goal, added, atoms):
                    children = self.child_data(mid, t_assign)
                    child_added = []
                    for _, _, new, child_gid in children:
                        if new <= added:
                            # a premise that asks this judgment again would
                            # only be cut: the instance fails here
                            if child_gid == gid:
                                break
                            sub = added
                        else:
                            sub = added | new
                        if not self.dfs(sub, child_gid, stack):
                            break
                        child_added.append(sub)
                    else:
                        record = (mid, t_assign, children, child_added)
                        self.solved.setdefault(gid, []).append((added, record))
                        return True
            self.failed.setdefault(gid, []).append(added)
            return False
        finally:
            stack.discard(j)

    def run(self, goal: AtomF) -> bool:
        gid = self.goal_id(goal)
        while True:
            self.failed = {}
            self.cuts = set()
            if self.dfs(frozenset(), gid, set()):
                return True
            # a failing pass is final unless it solved a judgment it had cut
            if not any(self.solved_lookup(*j) is not None for j in self.cuts):
                return False

    # -- certificate extraction --------------------------------------------

    def extract(
        self, added: frozenset[int], gid: int, names: dict[int, str], counter
    ) -> ProofTerm:
        record = self.solved_lookup(added, gid)
        assert record is not None, "extraction requires a solved judgment"
        mid, t_assign, children, child_added = record
        scheme = self.entries[mid].scheme
        term: ProofTerm = PVar(names[mid])
        seen_vars = 0
        for i, step in enumerate(scheme.steps):
            for v in scheme.top_vars[seen_vars : step.vars_visible]:
                term = OApp(term, t_assign[v])
            seen_vars = step.vars_visible
            # the taus are instantiated already
            taus, tau_ids, _, child_gid = children[i]
            sub_names = dict(names)
            abs_info: list[tuple[str, Formula]] = []
            for tau, tid in zip(taus, tau_ids):
                name = f"X{next(counter)}"
                abs_info.append((name, tau))
                sub_names[tid] = name
            body = self.extract(child_added[i], child_gid, sub_names, counter)
            for name, annot in reversed(abs_info):
                body = PAbs(name, annot, body)
            term = PApp(term, body)
        for v in scheme.top_vars[seen_vars:]:
            term = OApp(term, t_assign[v])
        return term


def _freeze(f: Formula) -> tuple[Formula, AlphaKey, Survey]:
    """``f`` with its free variables read as constants, the convention for
    closed search; its alpha key; and the survey of ``f`` as given."""
    facts = survey(f)
    if not facts.free:
        return f, facts.key, facts
    frozen = substitute(f, {v: const(v) for v in facts.free})
    return frozen, alpha_key(frozen), facts


def context_environment(ctx) -> Environment:
    """The hypothesis naming ``prove`` uses for free assumptions.

    Like ``prove``, it reads free variables as constants and numbers members
    by the alpha key of that frozen formula, which each hypothesis declares.
    """
    decls = []
    seen: set[AlphaKey] = set()
    for f in ctx:
        frozen, key, _ = _freeze(f)
        if key not in seen:
            seen.add(key)
            decls.append((f"H{len(seen)}", frozen))
    return Environment(tuple(decls))


def _is_ground_atom(f: Formula) -> bool:
    return isinstance(f, AtomF) and not any(t.var for t in f.args)


# the base of the last call.  Its tables are never changed, so calls from
# several threads can share one, and a race at worst builds a base twice.  A
# search writes only the base's entries, compiling each in place the first time
# it tries it; a compile is a function of the entry's formula alone, and it
# stores the scheme last, so a racing thread either compiles the entry again,
# with an equal result, or reads a whole one.
_last_base = _Base([])


def _base_for(members: list[Formula]) -> _Base:
    global _last_base
    base = _last_base
    if base.members != members:
        base = _last_base = _Base(members)
    return base


class _GoalSpine(NamedTuple):
    """What ``prove`` reads of a goal, from one ``survey`` per premise: its
    premises, their alpha keys and its target, and the goal's constants,
    free variables and whether it is Sigma1."""

    premises: tuple[Formula, ...]
    keys: list[AlphaKey]
    target: Formula
    constants: set[str]
    free: set[str]
    sigma1: bool


def _goal_spine(goal: Formula) -> _GoalSpine:
    premises, target = impl_spine(goal)
    facts = [survey(p) for p in premises]
    if type(target) is AtomF:
        # a Sigma1 formula is Pi1 premises leading to an atom
        sigma1 = all(s.pi1 for s in facts)
        constants = {t.name for t in target.args if not t.var}
        free = {t.name for t in target.args if t.var}
    else:
        # not Sigma1; the target is surveyed for the free variables that
        # ``prove`` names before it names the class
        sigma1 = False
        rest = survey(target)
        constants, free = rest.constants, rest.free
    for s in facts:
        constants |= s.constants
        free |= s.free
    return _GoalSpine(premises, [s.key for s in facts], target, constants, free, sigma1)


def prove(
    ctx,
    goal: Formula,
    deadline: float | None = None,
) -> ProofTerm | None:
    """A long-normal-form proof of ``goal`` from ``ctx``, or None.

    ``ctx`` members must classify Pi1 or Both and may have free variables,
    which are read as constants; the goal must classify Sigma1 or Both and be
    closed, so that the result checks against the goal as given.  Free proof
    variables of the result are named as in ``context_environment``.
    """
    return _prove(list(ctx), goal, _goal_spine(goal), deadline)


def _prove(
    ctx: list[Formula], goal: Formula, spine: _GoalSpine, deadline: float | None
) -> ProofTerm | None:
    """``prove``, with ``spine`` the goal's ``_goal_spine``."""
    if spine.free:
        raise FormulaError(
            f"goal has free variables {', '.join(sorted(spine.free))}: "
            f"{fmt_formula(goal)}"
        )
    if not spine.sigma1:
        raise FormulaError(f"goal must be a Sigma1 formula: {fmt_formula(goal)}")
    premises, target = spine.premises, spine.target
    k = len(ctx)
    while k and _is_ground_atom(ctx[k - 1]):
        k -= 1
    base = _base_for(ctx[:k])
    atoms = ctx[k:]
    constants = base.constants | spine.constants
    for f in atoms:
        constants.update(t.name for t in f.args)
    counter = itertools.count(1)
    peeled_names = [(f"X{next(counter)}", p) for p in premises]
    prover = _Prover(
        base,
        [(f, alpha_key(f)) for f in atoms] + list(zip(premises, spine.keys)),
        [const(n) for n in sorted(constants or {"c0"})],
        deadline,
    )
    if not prover.run(target):
        return None
    # the prover numbers distinct context members in order, from 0, just as
    # context_environment names them H1, H2, ...
    names = {mid: f"H{mid + 1}" for mid in prover.base_ids[: len(ctx)]}
    for (name, _), mid in zip(peeled_names, prover.base_ids[len(ctx) :]):
        names[mid] = name
    term = prover.extract(frozenset(), prover.goal_id(target), names, counter)
    for name, annot in reversed(peeled_names):
        term = PAbs(name, annot, term)
    return term


def prove_sigma1(
    phi: Formula,
    deadline: float | None = None,
) -> ProofTerm | None:
    """A closed long-normal-form proof of the Sigma1 formula ``phi``, or None."""
    spine = _goal_spine(phi)
    if not spine.sigma1:
        # the rejected formula is walked once more, for the message alone
        raise FormulaError(
            f"prove_sigma1 takes Sigma1 formulas, got {classify(phi).value}"
        )
    return _prove([], phi, spine, deadline)
