"""Shared syntax: logic programs, minimal predicate-logic formulas, Mints classes.

Programs are finite clause sets over a finite constant domain.  Formulas use
only implication and universal quantification.  Everything here is immutable;
all operations are pure functions.

The library's frozen records are slots dataclasses whose ``__init__`` is
replaced by ``slot_init``.  The ``__init__`` a frozen dataclass generates
stores each field with ``object.__setattr__(self, name, value)``, which looks
the name up along the class's MRO on every call to find the slot descriptor;
the one ``slot_init`` builds holds each field's descriptor ``__set__`` and
calls it directly, then runs ``__post_init__`` where the class has one.  It
is built once, at import, with the signature, defaults and default factories
of the one it replaces, so a record is constructed, compared, hashed,
ordered, printed, pickled and ``dataclasses.replace``-d exactly as before,
and assigning to a field still raises ``FrozenInstanceError``.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

from .errors import ArityError, FormulaError

# Identifiers that start with one of these letters are clause variables in
# program syntax; every other identifier in term position is a constant.
PROGRAM_VARIABLE_PREFIXES = ("u", "v", "w", "x", "y", "z")


def is_program_variable_name(name: str) -> bool:
    return name[:1] in PROGRAM_VARIABLE_PREFIXES


# ---------------------------------------------------------------------------
# Frozen records
# ---------------------------------------------------------------------------


class _Factory:
    """The default of a parameter whose field has a default factory."""

    def __repr__(self) -> str:
        return "<factory>"


_HAS_FACTORY = _Factory()

# the file name of every ``__init__`` that ``slot_init`` builds
SLOT_INIT_FILE = "<slot_init>"

_C = TypeVar("_C", bound=type)


def slot_init(cls: _C) -> _C:
    """Replace the ``__init__`` of the frozen slots dataclass ``cls`` with one
    that stores each field through its slot descriptor.

    The new ``__init__`` takes the parameters of the generated one, in the
    same order and with the same defaults; a field with a default factory
    calls it when its argument is left out, and ``__post_init__`` runs last,
    as in the generated one.  Apply it above
    ``@dataclass(frozen=True, slots=True)``; every field must be a plain
    positional ``__init__`` parameter (no ``InitVar``, ``init=False`` or
    ``kw_only``), as every record of this library is.
    """
    params = cls.__dict__.get("__dataclass_params__")
    if params is None or not params.frozen or "__slots__" not in cls.__dict__:
        raise TypeError(f"slot_init needs a frozen slots dataclass: {cls.__name__}")
    fields = dataclasses.fields(cls)
    if len(fields) != len(cls.__dataclass_fields__) or not all(
        f.init and not f.kw_only for f in fields
    ):
        raise TypeError(f"slot_init takes only positional init fields: {cls.__name__}")
    missing = dataclasses.MISSING
    env: dict[str, object] = {"_HAS_FACTORY": _HAS_FACTORY}
    args = ["self"]
    body: list[str] = []
    for f in fields:
        name = f.name
        env[f"_set_{name}"] = cls.__dict__[name].__set__
        if f.default_factory is not missing:
            env[f"_fac_{name}"] = f.default_factory
            args.append(f"{name}=_HAS_FACTORY")
            body.append(f"if {name} is _HAS_FACTORY: {name} = _fac_{name}()")
        elif f.default is not missing:
            env[f"_dflt_{name}"] = f.default
            args.append(f"{name}=_dflt_{name}")
        else:
            args.append(name)
        body.append(f"_set_{name}(self, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    text = (
        f"def __create_fn__({', '.join(env)}):\n"
        f" def __init__({', '.join(args)}):\n"
        + "".join(f"  {line}\n" for line in body or ["pass"])
        + " return __init__\n"
    )
    ns: dict[str, Callable] = {}
    code = compile(text, SLOT_INIT_FILE, "exec", dont_inherit=True)
    exec(code, sys.modules[cls.__module__].__dict__, ns)
    init = ns["__create_fn__"](**env)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {f.name: f.type for f in fields} | {"return": None}
    cls.__init__ = init
    return cls


# ---------------------------------------------------------------------------
# Terms and program syntax
# ---------------------------------------------------------------------------


@slot_init
@dataclass(frozen=True, slots=True, order=True)
class Term:
    name: str
    var: bool = False

    @property
    def kind(self) -> str:
        return "variable" if self.var else "constant"

    def __str__(self) -> str:
        return self.name


def const(name: str) -> Term:
    return Term(name, False)


def var(name: str) -> Term:
    return Term(name, True)


@slot_init
@dataclass(frozen=True, slots=True, order=True)
class Atom:
    """A predicate applied to terms; ``negated`` marks body occurrences ``not a``."""

    pred: str
    args: tuple[Term, ...] = ()
    negated: bool = False

    @property
    def arity(self) -> int:
        return len(self.args)

    def positive(self) -> "Atom":
        return Atom(self.pred, self.args) if self.negated else self

    def negate(self) -> "Atom":
        return Atom(self.pred, self.args, not self.negated)

    def is_ground(self) -> bool:
        return all(not t.var for t in self.args)

    def variables(self) -> set[str]:
        return {t.name for t in self.args if t.var}

    def constants(self) -> set[str]:
        return {t.name for t in self.args if not t.var}

    def __str__(self) -> str:
        body = self.pred if not self.args else (
            self.pred + "(" + ",".join(t.name for t in self.args) + ")"
        )
        return ("not " + body) if self.negated else body


@slot_init
@dataclass(frozen=True, slots=True)
class Clause:
    head: Atom
    body: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        if self.head.negated:
            raise FormulaError(f"clause head must be positive: {self.head}")

    def atoms(self) -> Iterator[Atom]:
        yield self.head
        yield from self.body

    def variables(self) -> set[str]:
        out: set[str] = set()
        for a in self.atoms():
            out |= a.variables()
        return out

    def constants(self) -> set[str]:
        out: set[str] = set()
        for a in self.atoms():
            out |= a.constants()
        return out

    def is_ground(self) -> bool:
        return all(a.is_ground() for a in self.atoms())

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- " + ", ".join(str(a) for a in self.body) + "."


@slot_init
@dataclass(frozen=True, slots=True)
class Program:
    """Clauses plus the finite constant domain (a superset of the constants used)."""

    clauses: tuple[Clause, ...]
    domain: frozenset[str]

    def __post_init__(self) -> None:
        if not self.domain:
            raise FormulaError("program domain must be nonempty")
        used = {
            t.name
            for c in self.clauses
            for a in (c.head, *c.body)
            for t in a.args
            if not t.var
        }
        missing = used - self.domain
        if missing:
            raise FormulaError(f"constants outside the domain: {sorted(missing)}")

    @classmethod
    def unchecked(cls, clauses: tuple[Clause, ...], domain: frozenset[str]) -> "Program":
        """The program of ``clauses`` over ``domain``, whose caller has
        checked that the domain is nonempty and holds every constant of the
        clauses; ``Program(...)`` walks the clauses to check that itself."""
        p = object.__new__(cls)
        object.__setattr__(p, "clauses", clauses)
        object.__setattr__(p, "domain", domain)
        return p

    def predicates(self) -> dict[str, int]:
        """Predicate -> arity symbol table; raises on conflicting arities."""
        table: dict[str, int] = {}
        for c in self.clauses:
            for a in c.atoms():
                old = table.setdefault(a.pred, a.arity)
                if old != a.arity:
                    raise ArityError(
                        f"predicate {a.pred} used with arities {old} and {a.arity}"
                    )
        return table

    def __str__(self) -> str:
        lines = []
        extra = self.domain - {c for cl in self.clauses for c in cl.constants()}
        if extra:
            lines.append("#domain " + ", ".join(sorted(extra)) + ".")
        lines.extend(str(c) for c in self.clauses)
        return "\n".join(lines) + ("\n" if lines else "")


def program_domain(
    used: Iterable[str], extra: Iterable[str], has_vars: bool
) -> frozenset[str]:
    """The domain of a program that uses the constants ``used``, declares
    ``extra`` and has variables when ``has_vars``.

    Variable-free programs with no constants at all get a default one-element
    domain, since the domain is irrelevant to them but must be nonempty.
    """
    dom = frozenset(used).union(extra)
    if dom:
        return dom
    if has_vars:
        raise FormulaError(
            "program has variables but no constants; declare some with #domain"
        )
    return frozenset({"d0"})


def make_program(clauses: Iterable[Clause], extra_constants: Iterable[str] = ()) -> Program:
    """Build a program whose domain is the used constants plus ``extra_constants``
    (see ``program_domain``)."""
    cl = tuple(clauses)
    terms = {t for c in cl for a in (c.head, *c.body) for t in a.args}
    used = [t.name for t in terms if not t.var]
    has_vars = len(used) < len(terms)
    return Program(cl, program_domain(used, extra_constants, has_vars))


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula:
    __slots__ = ()


@slot_init
@dataclass(frozen=True, slots=True)
class AtomF(Formula):
    pred: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)


@slot_init
@dataclass(frozen=True, slots=True)
class Impl(Formula):
    lhs: Formula
    rhs: Formula


@slot_init
@dataclass(frozen=True, slots=True)
class Forall(Formula):
    var: str
    body: Formula


def impl_chain(premises: Iterable[Formula], target: Formula) -> Formula:
    out = target
    for p in reversed(list(premises)):
        out = Impl(p, out)
    return out


def forall_chain(names: Iterable[str], body: Formula) -> Formula:
    out = body
    for x in reversed(list(names)):
        out = Forall(x, out)
    return out


def formula_length(f: Formula) -> int:
    """Symbol count: predicates, argument occurrences, arrows and quantifiers."""
    total = 0
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, AtomF):
            total += 1 + len(g.args)
        elif isinstance(g, Impl):
            total += 1
            stack.append(g.lhs)
            stack.append(g.rhs)
        elif isinstance(g, Forall):
            total += 1
            stack.append(g.body)
        else:
            raise TypeError(g)
    return total


def free_vars(f: Formula) -> set[str]:
    out: set[str] = set()
    stack: list[tuple[Formula, frozenset[str]]] = [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        if isinstance(g, AtomF):
            out |= {t.name for t in g.args if t.var and t.name not in bound}
        elif isinstance(g, Impl):
            stack.append((g.lhs, bound))
            stack.append((g.rhs, bound))
        elif isinstance(g, Forall):
            stack.append((g.body, bound | {g.var}))
        else:
            raise TypeError(g)
    return out


def _rebuild(
    f: Formula,
    mapping: Mapping[str, Term],
    name: Callable[[Forall, Mapping[str, Term]], str],
) -> Formula:
    """``f`` with the free occurrences of ``mapping``'s variables replaced
    by their images, all at once, and each quantifier ``g`` binding
    ``name(g, m)``, where ``m`` is the mapping under ``g`` less ``g.var``.

    A binder renamed from ``v`` to ``w`` joins that mapping as
    ``v -> var(w)``, so its occurrences are renamed in the same pass and
    never replaced again.  Nodes are visited in preorder, premise before
    conclusion, as a recursive walk visits them; ``todo`` holds the nodes to
    visit, each with its mapping, above the node to build once its children
    are on ``done``.  A node whose children come back unchanged comes back
    itself, so a subtree in which nothing changes is shared.
    """
    done: list[Formula] = []
    todo: list = [(f, mapping)]
    while todo:
        item = todo.pop()
        cls = type(item)
        if cls is Impl:
            rhs = done.pop()
            lhs = done.pop()
            done.append(
                item if lhs is item.lhs and rhs is item.rhs else Impl(lhs, rhs)
            )
            continue
        if cls is Forall:
            body = done.pop()
            done.append(item if body is item.body else Forall(item.var, body))
            continue
        g, m = item
        cls = type(g)
        if cls is AtomF:
            if m:
                args = tuple(m[t.name] if t.var and t.name in m else t for t in g.args)
                if args != g.args:
                    g = AtomF(g.pred, args)
            done.append(g)
        elif cls is Impl:
            todo.append(g)
            todo.append((g.rhs, m))
            todo.append((g.lhs, m))
        elif cls is Forall:
            v = g.var
            if v in m:
                m = {k: t for k, t in m.items() if k != v}
            w = name(g, m)
            if w != v:
                m = {**m, v: var(w)}
                g = Forall(w, g.body)
            todo.append(g)
            todo.append((g.body, m))
        else:
            raise TypeError(g)
    return done[0]


def rectify(f: Formula) -> Formula:
    """Rename binders so no free name is bound and no name is bound twice.

    Already-rectified formulas come back as they are, which keeps printing
    and re-parsing stable.  A renamed binder gets the first ``x<i>`` that is
    neither taken nor bound yet; those names only accumulate, so the count
    ``i`` resumes where the last rename stopped.  The walk is ``_rebuild``'s,
    on its own stack, so no depth meets the recursion limit.
    """
    facts = survey(f)
    taken = facts.free | facts.constants
    used_binders: set[str] = set()
    next_x = 1

    def fresh(g: Forall, m: Mapping[str, Term]) -> str:
        nonlocal next_x
        name = g.var
        if name in taken or name in used_binders:
            while f"x{next_x}" in taken or f"x{next_x}" in used_binders:
                next_x += 1
            name = f"x{next_x}"
        used_binders.add(name)
        return name

    return _rebuild(f, {}, fresh)


def substitute(f: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Simultaneous capture-avoiding substitution of free variable occurrences.

    A quantifier ``v`` under which some image is a variable named ``v`` is
    renamed to the first ``x<i>`` that is neither free in its body nor an
    image's name, and ``_rebuild`` renames its occurrences in the same pass.
    A subtree with nothing to replace comes back as it is, and an empty
    mapping returns ``f`` without a walk.
    """
    if not mapping:
        return f

    def capture(g: Forall, m: Mapping[str, Term]) -> str:
        name = g.var
        if not any(t.var and t.name == name for t in m.values()):
            return name
        taken = free_vars(g.body) | {t.name for t in m.values()}
        i = 1
        while f"x{i}" in taken:
            i += 1
        return f"x{i}"

    return _rebuild(f, mapping, capture)


# An alpha key is a flat tuple of str, int and None; see ``alpha_key``.
AlphaKey = tuple

_IMPL_TAG = 0
_FORALL_TAG = 1


def alpha_key(f: Formula) -> AlphaKey:
    """The identity of ``f`` up to alpha-equivalence, as one flat tuple.

    Two formulas share a key exactly when they are equal once their binders
    are renamed to one canonical sequence (the tests check this against
    ``reference_alpha_canon`` in ``tests/oracle.py``), and hashing or
    comparing a key never calls back into Python.  The key lists the nodes
    in preorder: an implication as 0, a quantifier as 1 (the binders are
    numbered 1, 2, ... in that order, and ``fmt_key`` prints them as ``$1``,
    ``$2``, ...), and an atom as its predicate name and argument count
    followed by its arguments.  A constant is its name, a bound variable its
    binder's number, and a free variable None and its name.  The key comes
    from ``survey``, the one walk that emits it.
    """
    return survey(f).key


def alpha_eq(f: Formula, g: Formula) -> bool:
    """Whether ``f`` and ``g`` are alpha-equivalent.

    Syntactic equality implies it and is cheaper to test, so the two trees
    are compared first, pair by pair on a stack of their own (``==`` on them
    would recurse once per level), and a shared subtree is passed over.  An
    atom binds nothing, so it is alpha-equivalent only to an equal atom; any
    other pair that differs compares its flat keys.
    """
    stack = [(f, g)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        cls = type(x)
        if cls is not type(y):
            break
        if cls is Impl:
            stack.append((x.rhs, y.rhs))
            stack.append((x.lhs, y.lhs))
        elif cls is Forall:
            if x.var != y.var:
                break
            stack.append((x.body, y.body))
        elif x != y:
            break
    else:
        return True
    if type(f) is AtomF or type(g) is AtomF:
        return False
    return alpha_key(f) == alpha_key(g)


class Survey(NamedTuple):
    """What one walk of a formula finds; see ``survey``."""

    key: AlphaKey
    constants: set[str]
    free: set[str]
    sigma1: bool
    pi1: bool


# the two questions a survey asks of the root, as bits of a mask
_ASK_SIGMA1 = 1
_ASK_PI1 = 2


def survey(f: Formula) -> Survey:
    """The alpha key, constants, free variables and Mints class of ``f``, in
    one walk.

    ``key`` is ``alpha_key(f)`` (the format is described there), and
    ``fmt_key`` prints it.  ``constants`` are the constant names, ``free``
    equals ``free_vars(f)``, and ``sigma1`` and ``pi1`` say whether ``f`` is
    in Mints' Sigma1 and Pi1 classes, which ``classify`` reads.  The tests
    check these against separate walks, ``reference_constants`` and
    ``reference_classify`` in ``tests/oracle.py``.  The class is decided
    top-down: every node carries the root questions ("is the root
    Sigma1?", "is it Pi1?") that need the node in Sigma1 and those that need
    it in Pi1.  A quantifier fails the questions that need it in Sigma1; an
    implication passes its needs on to its conclusion as they are and to its
    premise swapped; an atom is in both classes.
    """
    out: list = []
    emit = out.append
    constants: set[str] = set()
    free: set[str] = set()
    failed = 0
    binders = 0
    ren: dict[str, int] = {}
    need_s, need_p = _ASK_SIGMA1, _ASK_PI1
    stack: list[tuple[Formula, dict[str, int], int, int]] = []
    g = f
    while True:
        cls = type(g)
        if cls is Impl:
            emit(_IMPL_TAG)
            stack.append((g.rhs, ren, need_s, need_p))
            g = g.lhs
            need_s, need_p = need_p, need_s
            continue
        if cls is Forall:
            failed |= need_s
            need_s = 0
            binders += 1
            ren = {**ren, g.var: binders}
            emit(_FORALL_TAG)
            g = g.body
            continue
        if cls is not AtomF:
            raise TypeError(g)
        emit(g.pred)
        emit(len(g.args))
        for t in g.args:
            name = t.name
            if not t.var:
                emit(name)
                constants.add(name)
            elif name in ren:
                emit(ren[name])
            else:
                emit(None)
                emit(name)
                free.add(name)
        if not stack:
            return Survey(
                tuple(out),
                constants,
                free,
                not failed & _ASK_SIGMA1,
                not failed & _ASK_PI1,
            )
        g, ren, need_s, need_p = stack.pop()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def fmt_atomf(f: AtomF) -> str:
    if not f.args:
        return f.pred
    return f.pred + "(" + ",".join(t.name for t in f.args) + ")"


def fmt_formula(f: Formula) -> str:
    """The text of ``f``: implications right associated, with a premise that
    is not an atom in parentheses, and quantifiers as ``forall x. body``.

    The text is one list of parts.  A parenthesized premise is printed
    before its implication's conclusion, which waits on ``rests``; each
    premise closes where its own chain of conclusions ends, at an atom, so
    ``) -> `` is all that goes between the two.  No level is a call, so a
    formula of any depth meets no recursion limit.
    """
    parts: list[str] = []
    rests: list[Formula] = []
    while True:
        cls = type(f)
        if cls is Impl:
            lhs = f.lhs
            if type(lhs) is AtomF:
                parts.append(fmt_atomf(lhs) + " -> ")
                f = f.rhs
            else:
                parts.append("(")
                rests.append(f.rhs)
                f = lhs
        elif cls is Forall:
            parts.append(f"forall {f.var}. ")
            f = f.body
        elif cls is AtomF:
            parts.append(fmt_atomf(f))
            if not rests:
                return "".join(parts)
            parts.append(") -> ")
            f = rests.pop()
        else:
            raise TypeError(f)


def _fmt_key_atom(key: AlphaKey, i: int) -> tuple[str, int]:
    """The text of the atom at ``key[i]``, and the index after it."""
    pred, n = key[i], key[i + 1]
    i += 2
    args: list[str] = []
    for _ in range(n):
        t = key[i]
        if t is None:
            args.append(key[i + 1])
            i += 2
        else:
            args.append(f"${t}" if type(t) is int else t)
            i += 1
    return (pred + "(" + ",".join(args) + ")" if args else pred), i


def fmt_key(key: AlphaKey) -> str:
    """The text ``fmt_formula`` prints for the formula with alpha key ``key``
    once its binders are named ``$1``, ``$2``, ... in preorder, the order
    ``survey`` numbers them in: one text per alpha-equivalence class.

    The key lists the nodes in the order they are printed, so one pass
    prints it: as in ``fmt_formula``, a parenthesized premise closes at the
    atom that ends its chain of conclusions, and a count of the premises
    still open is all the pass keeps.
    """
    parts: list[str] = []
    binders = 0
    opened = 0
    i = 0
    while True:
        tag = key[i]
        if tag == _IMPL_TAG:
            # an atom starts with its predicate name, any other node a tag
            if type(key[i + 1]) is str:
                lhs, i = _fmt_key_atom(key, i + 1)
                parts.append(lhs + " -> ")
            else:
                parts.append("(")
                opened += 1
                i += 1
        elif tag == _FORALL_TAG:
            binders += 1
            parts.append(f"forall ${binders}. ")
            i += 1
        else:
            atom, i = _fmt_key_atom(key, i)
            parts.append(atom)
            if not opened:
                return "".join(parts)
            parts.append(") -> ")
            opened -= 1


# ---------------------------------------------------------------------------
# Mints classification and structural decompositions
# ---------------------------------------------------------------------------


class MintsClass(Enum):
    SIGMA1 = "Sigma1"
    PI1 = "Pi1"
    BOTH = "Both"
    NEITHER = "Neither"


def classify(f: Formula) -> MintsClass:
    facts = survey(f)
    s, p = facts.sigma1, facts.pi1
    if s and p:
        return MintsClass.BOTH
    if s:
        return MintsClass.SIGMA1
    if p:
        return MintsClass.PI1
    return MintsClass.NEITHER


def impl_spine(f: Formula) -> tuple[tuple[Formula, ...], Formula]:
    """Split ``t1 -> ... -> tq -> g``, g not an implication, into premises
    and ``g``; for a Sigma1 formula, ``g`` is its target atom."""
    premises: list[Formula] = []
    while isinstance(f, Impl):
        premises.append(f.lhs)
        f = f.rhs
    return tuple(premises), f


@slot_init
@dataclass(frozen=True, slots=True)
class Pi1Step:
    """One premise of a Pi1 formula with the quantifier prefix visible at it."""

    sigma: Formula
    vars_visible: int  # how many top variables are in scope for this premise


@slot_init
@dataclass(frozen=True, slots=True)
class Pi1Scheme:
    """Alternating quantifier blocks and premises, ending in the target atom."""

    top_vars: tuple[str, ...]
    steps: tuple[Pi1Step, ...]
    target: AtomF


def pi1_spine(f: Formula) -> Pi1Scheme:
    """The Pi1 scheme of ``f``, a formula known to be Pi1 (``survey`` says
    which are): only the top-level quantifiers and premises are walked."""
    top: list[str] = []
    steps: list[Pi1Step] = []
    g = f
    while True:
        while isinstance(g, Forall):
            top.append(g.var)
            g = g.body
        if isinstance(g, AtomF):
            return Pi1Scheme(tuple(top), tuple(steps), g)
        assert isinstance(g, Impl)
        steps.append(Pi1Step(g.lhs, len(top)))
        g = g.rhs


# ---------------------------------------------------------------------------
# Subformula occurrences
# ---------------------------------------------------------------------------


@slot_init
@dataclass(frozen=True, slots=True)
class Occurrence:
    """A subformula occurrence, identified by its preorder index."""

    idx: int
    formula: Formula
    size: int  # node count of the subtree, for index arithmetic


def occurrences(f: Formula) -> tuple[Occurrence, ...]:
    """Every subformula occurrence of ``f``, in preorder.

    Walked with an explicit stack, so a long implication chain does not
    exhaust the call stack (``reference_occurrences`` in ``tests/oracle.py``
    is the recursive walk the tests compare it with).  A node's subtree
    follows it in preorder, so its size is the count of occurrences listed
    between the node and the index marker pushed below its children.
    """
    out: list = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        cls = type(g)
        if cls is int:
            out[g] = Occurrence(g, out[g], len(out) - g)
        elif cls is AtomF:
            out.append(Occurrence(len(out), g, 1))
        else:
            stack.append(len(out))
            out.append(g)  # until its subtree is listed
            if cls is Impl:
                stack.append(g.rhs)
                stack.append(g.lhs)
            elif cls is Forall:
                stack.append(g.body)
            else:
                raise TypeError(g)
    return tuple(out)
