"""Lambda proof terms, the type-assignment checker, and Sigma1 proof search.

The search decides judgments ``ctx |- c`` with Pi1 contexts and atomic goals:
pick a context member, instantiate its quantified variables from the constant
pool, and recursively prove the target of every premise.  Contexts only grow
along the recursion, so weakening holds and solved/failed results subsume by
inclusion.  Positive results are found as a least fixpoint of depth-first
passes.  A pass keeps the judgments it is expanding as frames on a list of
its own, not on Python's stack, so its depth meets no recursion limit.  It
cuts a judgment that is already on its stack (reads it as failed) and records
every judgment it expands and fails.  A member instance whose premise asks
again the judgment being expanded, with no new hypothesis, is not tried: that
premise could only be cut.  Passes repeat while the last one failed and
solved some judgment it had cut.

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
certificates are those of that loop.  The failed judgments of the last pass
are thus a refutation.  ``decide_sigma1`` runs the search once and returns
either the certificate or that table, which ``soups.proof_or_soup`` builds its
soup from; ``prove`` and ``prove_sigma1`` never build the table.

A solved judgment is filed under the members its proof uses, not under its
whole context.  That used set is the record's own member, unless it is a base
member, joined with each premise's used set minus the premise's new taus,
which the step discharges.  A premise's used set is the one of the record
that answered it, the one ``known`` matched or the one the premise's own
expansion filed, so no solved list is scanned twice.  By weakening, a proof
from the members U proves its goal from any context that contains U, so the
record answers every judgment on its goal whose added set includes U:
``known``, ``solved_lookup``, ``extract`` and the stopping rule read the
table with the same inclusion test as for whole contexts.  This is what
lets a refutation of a program's translation reuse a lemma across case
splits: each axiom ``forall z. (q(z) -> lupa) -> (bar_q(z) -> lupa) ->
lupa`` adds a split atom per branch, and a sub-proof that uses none of them
is found once and answers under every split assignment, where a record filed
under its whole context answered only the extensions of that assignment.
The soundness argument above is unchanged: failures are still recorded under
whole contexts, and a solved lookup only ever answers True, for a judgment
that is provable.  ``extract`` looks each premise up by its used set, which
the names in scope there cover, and finds the record the search used or one
filed before it, so the walk ends.

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

At each judgment the search tries the members whose target predicate is the
goal's, initial members first, then the added ones, each in id order, and
for each member its instantiations, enumerated from the moment the loop
reaches it: the target matched against the goal, then, depth first,
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
checker accepts.  The certificate path (``_Prover.extract``, ``infer`` and
``check_explain``, ``is_lnf``, ``fmt_term`` and ``parse_term``) keeps its own
stacks and visits the nodes in the order a recursion would, so a proof of any
depth is extracted, checked, printed and read back in time linear in its size,
and meets no recursion limit.  The checker binds proof variables in one scope
per call (``_Scope``) and undoes a binding when its binder's frame pops, so no
binder copies the scope.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CapExceeded, FormulaError, check_deadline
from .parsing import SYMBOLS, Fault, expect, formula_at, ident, parse_tokens
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
    slot_init,
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


@slot_init
@dataclass(frozen=True, slots=True)
class PVar(ProofTerm):
    name: str


@slot_init
@dataclass(frozen=True, slots=True)
class PAbs(ProofTerm):
    var: str
    annot: Formula
    body: ProofTerm


@slot_init
@dataclass(frozen=True, slots=True)
class OAbs(ProofTerm):
    var: str
    body: ProofTerm


@slot_init
@dataclass(frozen=True, slots=True)
class PApp(ProofTerm):
    fn: ProofTerm
    arg: ProofTerm


@slot_init
@dataclass(frozen=True, slots=True)
class OApp(ProofTerm):
    fn: ProofTerm
    arg: Term


class Environment:
    """Ordered proof-variable declarations, at most one per variable.

    The declarations are kept as one name -> formula dict in declaration
    order, so ``lookup`` is a hash probe and ``bind`` a dict copy, not a pass
    over the declarations in Python.  ``bind`` shadows: the name's old
    declaration goes and the new one comes last.  The checker makes no such
    copy per binder: ``infer`` and ``is_lnf`` read the declarations into one
    ``_Scope`` per call and bind in it in place.
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


class _Scope:
    """The declarations in scope at one node of a checker's walk.

    ``types`` is one name -> formula dict that a binder updates in place and
    logs; when the binder's frame pops, ``pop`` undoes the entry and the
    shadowed declaration comes back.  In an ``Environment``'s declaration
    order, where a binder's declaration comes last, the visible declarations
    are the given ones not rebound on the log, then the logged names in the
    order of their last binding (``order``).

    The eigenvariable check of an ``OAbs`` reads ``counts``: per object
    variable, how many visible declarations it is free in.  The first
    ``OAbs`` a walk meets builds it, and binders keep it from then on, with
    ``free_vars`` computed once per declaration it counts.
    """

    __slots__ = ("env", "types", "log", "free", "counts")

    def __init__(self, env: Environment):
        self.env = env
        self.types = dict(env._index)
        # (name, the declaration it shadows or None, that one's free
        # variables if they were counted)
        self.log: list[tuple[str, Formula | None, set[str] | None]] = []
        # once counted: name -> the free variables of its visible declaration
        self.free: dict[str, set[str]] = {}
        self.counts: dict[str, int] | None = None

    def bind(self, name: str, f: Formula) -> None:
        old = self.types.get(name)
        self.types[name] = f
        old_free = None
        if self.counts is not None:
            old_free = self.free.get(name)
            if old_free:
                self._count(old_free, -1)
            new_free = self.free[name] = free_vars(f)
            self._count(new_free, 1)
        self.log.append((name, old, old_free))

    def pop(self) -> None:
        """Undo the last binding."""
        name, old, old_free = self.log.pop()
        if self.counts is not None:
            self._count(self.free.pop(name), -1)
            if old is not None:
                if old_free is None:
                    old_free = free_vars(old)
                self.free[name] = old_free
                self._count(old_free, 1)
        if old is None:
            del self.types[name]
        else:
            self.types[name] = old

    def undo(self, mark: int) -> None:
        """Undo the bindings logged from ``mark`` on, the last first."""
        while len(self.log) > mark:
            self.pop()

    def _count(self, names: set[str], step: int) -> None:
        counts = self.counts
        for x in names:
            counts[x] = counts.get(x, 0) + step

    def check_eigenvariable(self, x: str) -> None:
        """Raise unless the object variable ``x`` is free in no visible
        declaration; the trail names the first one in declaration order."""
        if self.counts is None:
            self.free = {name: free_vars(f) for name, f in self.types.items()}
            self.counts = {}
            for names in self.free.values():
                self._count(names, 1)
        if self.counts.get(x):
            for name in self.order():
                if x in self.free[name]:
                    raise _CheckFailure(
                        [
                            f"eigenvariable violation: {x} is free in the "
                            f"declaration of {name}"
                        ]
                    )

    def order(self) -> list[str]:
        """The visible names in declaration order."""
        rebound: dict[str, None] = {}
        for name, _, _ in self.log:
            rebound.pop(name, None)
            rebound[name] = None
        return [n for n in self.env._index if n not in rebound] + list(rebound)


def infer(env: Environment, term: ProofTerm) -> Formula:
    """Type of ``term`` under ``env``; raises with a diagnostic trail.

    The walk keeps its own stack, so a term of any depth meets no recursion
    limit, and it takes the rules in the recursive order: an application's
    function, then its argument, so the first rule to fail is the one the
    recursion reports.  The stack holds each node that waits for a child's
    type, and for an application whose argument is being typed, the
    function's type in its place.
    """
    scope = _Scope(env)
    types = scope.types
    stack: list = []
    while True:
        # down the leftmost path, to the head variable of a spine
        while True:
            cls = type(term)
            if cls is PApp or cls is OApp:
                stack.append(term)
                term = term.fn
            elif cls is PAbs:
                scope.bind(term.var, term.annot)
                stack.append(term)
                term = term.body
            elif cls is OAbs:
                scope.check_eigenvariable(term.var)
                stack.append(term)
                term = term.body
            elif cls is PVar:
                typ = types.get(term.name)
                if typ is None:
                    raise _CheckFailure([f"unbound proof variable {term.name}"])
                break
            else:
                raise TypeError(term)
        # hand the type up until a node asks for its argument's
        while stack:
            node = stack.pop()
            cls = type(node)
            if cls is PApp:
                if type(typ) is not Impl:
                    raise _CheckFailure(
                        [f"applied a term of non-implication type {fmt_formula(typ)}"]
                    )
                stack.append(typ)
                term = node.arg
                break
            if cls is Impl:
                # ``typ`` is the argument's, ``node`` the function's type
                if not alpha_eq(typ, node.lhs):
                    raise _CheckFailure(
                        [
                            f"argument type {fmt_formula(typ)} does not match the "
                            f"expected premise {fmt_formula(node.lhs)}"
                        ]
                    )
                typ = node.rhs
            elif cls is PAbs:
                scope.pop()
                typ = Impl(node.annot, typ)
            elif cls is OAbs:
                typ = Forall(node.var, typ)
            else:
                if type(typ) is not Forall:
                    raise _CheckFailure(
                        [f"object-applied a term of non-universal type {fmt_formula(typ)}"]
                    )
                typ = substitute(typ.body, {typ.var: node.arg})
        else:
            return typ


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
    """The long-normal-form predicate, evaluated structurally against ``typ``.

    Against a quantifier the term must be an object abstraction, against an
    implication a proof abstraction, and against an atom a head variable
    applied to arguments that fit its declared type, each proof argument in
    long normal form against its premise.  The walk keeps its own stack: per
    spine whose arguments are being checked, its arguments, the index of the
    one being checked, the head type after it and the scope's mark to undo
    to before the next.  The arguments are taken in order, as the recursion
    takes them.
    """
    scope = _Scope(env)
    types = scope.types
    frames: list[tuple[list, int, Formula, int]] = []
    while True:
        while True:
            cls = type(typ)
            if cls is Forall:
                if type(term) is not OAbs:
                    return False
                typ = substitute(typ.body, {typ.var: var(term.var)})
                term = term.body
            elif cls is Impl:
                if type(term) is not PAbs:
                    return False
                scope.bind(term.var, term.annot)
                typ = typ.rhs
                term = term.body
            else:
                break
        # an atom type: the term must be a head variable applied to lnf
        # arguments; ``spine`` holds them last first
        spine: list[ProofTerm | Term] = []
        head = term
        while type(head) is PApp or type(head) is OApp:
            spine.append(head.arg)
            head = head.fn
        if type(head) is not PVar:
            return False
        head_typ = types.get(head.name)
        if head_typ is None:
            return False
        i = len(spine)
        while True:
            while i:
                i -= 1
                arg = spine[i]
                if type(arg) is Term:
                    if type(head_typ) is not Forall:
                        return False
                    head_typ = substitute(head_typ.body, {head_typ.var: arg})
                    continue
                if type(head_typ) is not Impl:
                    return False
                frames.append((spine, i, head_typ.rhs, len(scope.log)))
                term, typ = arg, head_typ.lhs
                break
            else:
                if type(head_typ) is not AtomF:
                    return False
                if not frames:
                    return True
                spine, i, head_typ, mark = frames.pop()
                scope.undo(mark)
                continue
            break


# ---------------------------------------------------------------------------
# Printing and parsing certificates
# ---------------------------------------------------------------------------


def fmt_term(t: ProofTerm) -> str:
    """The certificate text of ``t``: abstractions as ``\\X:annot. body`` and
    ``\\x. body``, applications left associated, with an argument or a head
    that is not a variable in parentheses.

    The text is one list of parts, built on a stack of the parts and terms
    still to print, so a term of any depth meets no recursion limit.
    """
    parts: list[str] = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        if type(t) is str:
            parts.append(t)
            continue
        while True:
            cls = type(t)
            if cls is PAbs:
                annot = fmt_formula(t.annot)
                if type(t.annot) is AtomF:
                    parts.append(f"\\{t.var}:{annot}. ")
                else:
                    parts.append(f"\\{t.var}:({annot}). ")
                t = t.body
            elif cls is OAbs:
                parts.append(f"\\{t.var}. ")
                t = t.body
            elif cls is PVar:
                parts.append(t.name)
                break
            elif cls is PApp or cls is OApp:
                # an application spine: the arguments, last first, go on the
                # stack after the head's closing parenthesis, if it has one
                head = t
                while type(head) is PApp or type(head) is OApp:
                    arg = head.arg
                    if type(arg) is Term or type(arg) is PVar:
                        todo.append(arg.name)
                    else:
                        todo += (")", arg, "(")
                    todo.append(" ")
                    head = head.fn
                if type(head) is PVar:
                    parts.append(head.name)
                    break
                parts.append("(")
                todo.append(")")
                t = head
            else:
                raise TypeError(t)
    return "".join(parts)


def parse_term(text: str) -> ProofTerm:
    """Parse a certificate in the syntax ``fmt_term`` prints."""
    return parse_tokens(text, _whole_term)


def _whole_term(toks: list[str]) -> ProofTerm:
    """Read the term that ``toks`` hold, left to right, keeping on a stack
    what waits for the term being read: a binder for its body, or an
    application for a parenthesized head or argument.  ``bound`` counts the
    object binders in scope per name."""
    bound: dict[str, int] = {}
    # (PAbs, name, annotation), (OAbs, name, None), or (PApp, the
    # application so far, or None for a parenthesized head)
    frames: list[tuple] = []
    i = 0
    while True:
        # a term: binders, then an application
        while toks[i] == "\\":
            name = ident(toks, i + 1, "binder")
            if toks[i + 2] == ":":
                if not name[0].isupper():
                    raise Fault("proof variables start uppercase", i + 1)
                annot, i = formula_at(toks, i + 3, bound, {}, {}, [], unit=True)
                i = expect(toks, i, ".")
                frames.append((PAbs, name, annot))
            else:
                if name[0].isupper():
                    raise Fault("object variables start lowercase", i + 1)
                i = expect(toks, i + 2, ".")
                bound[name] = bound.get(name, 0) + 1
                frames.append((OAbs, name, None))
        if toks[i] == "(":
            frames.append((PApp, None, None))
            i += 1
            continue
        name = ident(toks, i, "proof variable")
        if not name[0].isupper():
            raise Fault(f"expected a proof variable, found {name!r}", i)
        out: ProofTerm = PVar(name)
        i += 1
        # the application's arguments; a parenthesized one is read as a term
        # of its own, and the term that ends at a symbol closes the binders
        # and parentheses around it
        while True:
            t = toks[i]
            if t == "(":
                frames.append((PApp, out, None))
                i += 1
                break
            if t not in SYMBOLS:
                i += 1
                if t[0].isupper():
                    out = PApp(out, PVar(t))
                else:
                    out = OApp(out, var(t) if t in bound else const(t))
                continue
            while frames:
                kind, x, annot = frames.pop()
                if kind is PAbs:
                    out = PAbs(x, annot, out)
                elif kind is OAbs:
                    bound[x] -= 1
                    if not bound[x]:
                        del bound[x]
                    out = OAbs(x, out)
                else:
                    i = expect(toks, i, ")")
                    if x is not None:
                        out = PApp(x, out)
                    break
            else:
                if t:
                    raise Fault(f"trailing input after term: {t!r}", i)
                return out


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
        # solved[goal id] -> list of (used set, record), the used set being
        # the added members the record's proof uses; insertion order matters
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

    def attempts(self, added: frozenset[int], goal: AtomF) -> Iterator[tuple]:
        """The (member id, assignment) pairs the search tries at a judgment:
        the members whose target predicate is the goal's, base members first,
        then the added ones, each in id order, and each member's ``instances``,
        enumerated when the loop reaches it.  The added members by target
        predicate, and the context's atom members by predicate where they
        differ from the base's, are built once per added set."""
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
        base = self.base_by_target.get(pred, ())
        for mid in itertools.chain(base, by_target.get(pred, ())):
            for t_assign in self.instances(self.entries[mid], goal, added, atoms):
                yield mid, t_assign

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
        for used, record in self.solved.get(gid, ()):
            if used <= added:
                return record
        return None

    def known(
        self, added: frozenset[int], gid: int, stack: set
    ) -> frozenset[int] | bool | None:
        """The answer this pass gives the judgment without expanding it: the
        used set of a solved record that answers it, False when it is
        recorded failed or cut because it is on ``stack``, and None when the
        search must expand it.  An empty used set is falsy: callers test for
        False and None."""
        check_deadline(self.deadline, "proof search")
        for used, _ in self.solved.get(gid, ()):
            if used <= added:
                return used
        for added2 in self.failed.get(gid, ()):
            if added <= added2:
                return False
        j = (added, gid)
        if j in stack:
            self.cuts.add(j)
            return False
        return None

    def dfs(self, root: int) -> bool:
        """One pass: whether the judgment with nothing added and goal ``root``
        is solved.  The judgment being expanded lives in locals, and each one
        waiting for a premise lives on ``frames`` with its attempts, the
        record of its current attempt and the rest of that attempt's
        premises.  A premise that ``known`` answers is decided in place; only
        one it leaves open is expanded.  ``used`` carries the answer of the
        last judgment decided, as ``known`` gives it: a used set when it is
        solved, else False."""
        known, child_data, base_set = self.known, self.child_data, self.base_set
        stack: set[tuple[frozenset[int], int]] = set()
        frames: list[tuple] = []
        added, gid = _NO_IDS, root
        used = known(added, gid, stack)
        if used is not None:
            return used is not False
        while True:
            j = (added, gid)
            self.judgments_seen.add(j)
            if len(self.judgments_seen) > MAX_JUDGMENTS:
                raise CapExceeded(
                    f"judgment space exceeded {MAX_JUDGMENTS}",
                    feasible=MAX_JUDGMENTS,
                )
            stack.add(j)
            attempts = self.attempts(added, self.goals[gid])
            premises = None
            while True:
                if premises is None:
                    for mid, t_assign in attempts:
                        children = child_data(mid, t_assign)
                        # per premise proved, the used set of its proof
                        child_used: list[frozenset[int]] = []
                        record = (mid, t_assign, children, child_used)
                        premises = iter(children)
                        break
                    else:
                        self.failed.setdefault(gid, []).append(added)
                        used = False
                if premises is not None:
                    for _, _, new, child_gid in premises:
                        if new <= added:
                            # a premise that asks this judgment again would
                            # only be cut: the instance fails here
                            if child_gid == gid:
                                used = False
                                break
                            sub = added
                        else:
                            sub = added | new
                        used = known(sub, child_gid, stack)
                        if used is None or used is False:
                            break
                        child_used.append(used)
                    else:
                        mid = record[0]
                        used = _NO_IDS if mid in base_set else frozenset((mid,))
                        if any(child_used):
                            used = _uses(used, record[2], child_used)
                        self.solved.setdefault(gid, []).append((used, record))
                    if used is None:
                        frames.append(
                            (added, gid, attempts, record, child_used, premises)
                        )
                        added, gid = sub, child_gid
                        break
                    if used is False:
                        premises = None
                        continue
                # the judgment is decided: hand ``used`` to the one that asked it
                stack.discard((added, gid))
                if not frames:
                    return used is not False
                added, gid, attempts, record, child_used, premises = frames.pop()
                if used is False:
                    premises = None
                else:
                    child_used.append(used)

    def run(self, goal: AtomF) -> bool:
        gid = self.goal_id(goal)
        while True:
            self.failed = {}
            self.cuts = set()
            if self.dfs(gid):
                return True
            # a failing pass is final unless it solved a judgment it had cut
            if not any(self.solved_lookup(*j) is not None for j in self.cuts):
                return False

    # -- certificate extraction --------------------------------------------

    def extract(
        self, added: frozenset[int], gid: int, names: dict[int, str], counter
    ) -> ProofTerm:
        """The proof term of a solved judgment, with ``names`` naming the
        members in scope.  A step's taus name their ids in ``names`` itself,
        the later of two taus with one id winning, and the entries they
        shadow are put back once the step's subproof is extracted.

        Subproofs are extracted in step order, as a recursion would, with a
        frame per member instance waiting for a step's subproof: its record,
        the step, its term so far and the names its taus took and shadowed.
        """
        frames: list[tuple] = []
        while True:
            record = self.solved_lookup(added, gid)
            assert record is not None, "extraction requires a solved judgment"
            mid, t_assign, children, child_used = record
            scheme = self.entries[mid].scheme
            term: ProofTerm = PVar(names[mid])
            i = 0
            while True:
                steps = scheme.steps
                seen_vars = steps[i - 1].vars_visible if i else 0
                if i < len(steps):
                    for v in scheme.top_vars[seen_vars : steps[i].vars_visible]:
                        term = OApp(term, t_assign[v])
                    # the taus are instantiated already
                    taus, tau_ids, _, child_gid = children[i]
                    abs_info: list[tuple[str, Formula]] = []
                    shadowed: list[tuple[int, str | None]] = []
                    for tau, tid in zip(taus, tau_ids):
                        name = f"X{next(counter)}"
                        abs_info.append((name, tau))
                        shadowed.append((tid, names.get(tid)))
                        names[tid] = name
                    frames.append(
                        (scheme, t_assign, children, child_used, i, term, abs_info, shadowed)
                    )
                    added, gid = child_used[i], child_gid
                    break
                for v in scheme.top_vars[seen_vars:]:
                    term = OApp(term, t_assign[v])
                if not frames:
                    return term
                body = term
                scheme, t_assign, children, child_used, i, term, abs_info, shadowed = (
                    frames.pop()
                )
                # in reverse, so an id two taus share gets its first entry back
                for tid, old in reversed(shadowed):
                    if old is None:
                        del names[tid]
                    else:
                        names[tid] = old
                for name, annot in reversed(abs_info):
                    body = PAbs(name, annot, body)
                term = PApp(term, body)
                i += 1


_NO_IDS: frozenset[int] = frozenset()


def _uses(
    used: frozenset[int], children: tuple, child_used: list[frozenset[int]]
) -> frozenset[int]:
    """The used set of a record: ``used``, the record's own member unless it
    is a base member, joined with each premise's used set minus the taus that
    premise discharges.  No set is built where one side is empty, and the
    search calls this only when some premise's used set is not."""
    for (_, _, new, _), u in zip(children, child_used):
        if u:
            if new and not new.isdisjoint(u):
                u = u - new
            if u and not u <= used:
                used = used | u if used else u
    return used


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
    ctx, spine = list(ctx), _goal_spine(goal)
    prover, proved = _run(ctx, goal, spine, deadline)
    return _certificate(prover, len(ctx), spine) if proved else None


def _run(
    ctx: list[Formula], goal: Formula, spine: _GoalSpine, deadline: float | None
) -> tuple[_Prover, bool]:
    """The search for ``goal`` from ``ctx``, run, and whether it proved the goal."""
    if spine.free:
        raise FormulaError(
            f"goal has free variables {', '.join(sorted(spine.free))}: "
            f"{fmt_formula(goal)}"
        )
    if not spine.sigma1:
        raise FormulaError(f"goal must be a Sigma1 formula: {fmt_formula(goal)}")
    k = len(ctx)
    while k and _is_ground_atom(ctx[k - 1]):
        k -= 1
    base = _base_for(ctx[:k])
    atoms = ctx[k:]
    constants = base.constants | spine.constants
    for f in atoms:
        constants.update(t.name for t in f.args)
    prover = _Prover(
        base,
        [(f, alpha_key(f)) for f in atoms] + list(zip(spine.premises, spine.keys)),
        [const(n) for n in sorted(constants or {"c0"})],
        deadline,
    )
    return prover, prover.run(spine.target)


def _certificate(prover: _Prover, k: int, spine: _GoalSpine) -> ProofTerm:
    """The certificate a proving run found, from a context of ``k`` members."""
    counter = itertools.count(1)
    peeled_names = [(f"X{next(counter)}", p) for p in spine.premises]
    # the prover numbers distinct context members in order, from 0, just as
    # context_environment names them H1, H2, ...
    names = {mid: f"H{mid + 1}" for mid in prover.base_ids[:k]}
    for (name, _), mid in zip(peeled_names, prover.base_ids[k:]):
        names[mid] = name
    term = prover.extract(frozenset(), prover.goal_id(spine.target), names, counter)
    for name, annot in reversed(peeled_names):
        term = PAbs(name, annot, term)
    return term


def decide_sigma1(
    phi: Formula, deadline: float | None = None
) -> ProofTerm | dict[AtomF, list[frozenset[AlphaKey]]]:
    """One search for the closed Sigma1 formula ``phi``: the certificate
    ``prove_sigma1`` gives when ``phi`` is provable, and otherwise, per goal
    atom, the contexts at which the last pass failed it, each as the alpha
    keys added to ``phi``'s premises."""
    spine = _goal_spine(phi)
    prover, proved = _run([], phi, spine, deadline)
    if proved:
        return _certificate(prover, 0, spine)
    keys = list(prover.ids)  # ids are dense and follow interning order
    return {
        prover.goals[gid]: [frozenset(keys[mid] for mid in added) for added in fails]
        for gid, fails in prover.failed.items()
    }


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
    prover, proved = _run([], phi, spine, deadline)
    return _certificate(prover, 0, spine) if proved else None
