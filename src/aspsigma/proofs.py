"""Lambda proof terms, the type-assignment checker, and Sigma1 proof search.

The search decides judgments ``ctx |- c`` with Pi1 contexts and atomic goals:
pick a context member, instantiate its quantified variables from the constant
pool, and recursively prove the target of every premise.  Contexts only grow
along the recursion, so weakening holds and solved/failed results subsume by
inclusion.  Positive results are found as a least fixpoint: depth-first passes
that treat in-progress judgments as failed are repeated until the solved table
stops growing, which is sound for negative answers as well.

Context members are interned: each alpha-equivalence class gets a dense
integer id the first time it is met, so a context is a set of ids added to
the initial context and a judgment is ``(frozenset of added ids, goal atom)``.
A class is looked up by its ``syntax.alpha_key``, a flat tuple built once
when a formula is interned and hashed without calls back into Python; no
member's tree is hashed or rebuilt, and per judgment only goal atoms are.
Members are tried in id order (initial members first, then the added ones),
and only those whose target predicate is the goal's.  Ground atom members are
indexed by predicate before the search, with the added ones merged in per
judgment, to join a member's membership-only premises.  The premises a
member instance leaves to prove (substituted, peeled, with their hypotheses
interned) are computed once per (member id, instantiation) and kept for the
life of one search.  Every iteration follows these orders, so the certificate
found does not depend on the string hash seed.

Interning is split in two.  The context minus its trailing run of ground
atoms is interned once into a base (``_Base``): frozen members, their
constants, the entries and every table built from them.  A search copies the
base's tables, then interns the trailing atoms and the goal's premises after
it, in context order, so ids and certificates are those of interning the whole
context afresh.  ``prove`` keeps the last base and reuses it while the leading
members of the next context compare equal: the two instability cases of a
model ask the same axioms, and so do all models of one program
(``asp_to_logic``).  ``prove_sigma1`` has an empty context and so an empty base.

Every positive answer is returned as a long-normal-form certificate that the
checker accepts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapExceeded, FormulaError, ParseError, check_deadline
from .syntax import (
    AtomF,
    Forall,
    Formula,
    Impl,
    MintsClass,
    Pi1Scheme,
    Term,
    AlphaKey,
    alpha_eq,
    alpha_key,
    classify,
    const,
    decompose_pi1,
    fmt_formula,
    formula_constants,
    free_vars,
    peel_sigma1,
    substitute,
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


@dataclass(frozen=True, slots=True)
class _Entry:
    formula: Formula
    scheme: Pi1Scheme


class _Base:
    """The interned leading members of a context, shared by later calls.

    Holds the member tables a search starts from: the entries and their ids,
    the ground atom index, ``flexible_preds`` and the per-predicate member and
    atom lists.  Nothing mutates a base once it is built; a search copies the
    tables (``_Prover``) before it interns anything else.
    """

    def __init__(self, members: list[Formula]):
        # as given, so the next call can compare its own leading members
        self.members = members
        frozen = [_freeze_free_vars(f) for f in members]
        self.constants: set[str] = set()
        for f in frozen:
            self.constants |= formula_constants(f)
        # member id -> entry; ids are dense and follow interning order
        self.entries: list[_Entry] = []
        self.ids: dict[AlphaKey, int] = {}  # alpha_key(frozen member) -> id
        # (pred, constant names...) -> id of that ground atom member
        self.atom_ids: dict[tuple[str, ...], int] = {}
        # predicates that head a non-atomic member; their atoms may be proved
        # by a generation step, all other atoms only by context membership
        self.flexible_preds: set[str] = set()
        self.base_ids = [self.intern(f) for f in frozen]
        self.base_by_target: dict[str, list[int]] = {}
        self.base_atoms: dict[str, list[AtomF]] = {}
        self._index(0, {}, {})

    def intern(self, f: Formula) -> int:
        key = alpha_key(f)
        mid = self.ids.get(key)
        if mid is None:
            try:
                scheme = decompose_pi1(f)
            except FormulaError:
                raise FormulaError(
                    f"context members must be Pi1 formulas: {fmt_formula(f)}"
                ) from None
            mid = self.ids[key] = len(self.entries)
            self.entries.append(_Entry(f, scheme))
            if _is_ground_atom(f):
                self.atom_ids[(f.pred, *(t.name for t in f.args))] = mid
            if scheme.steps or scheme.top_vars:
                self.flexible_preds.add(scheme.target.pred)
        return mid

    def _index(self, start: int, targets: dict, atoms: dict) -> None:
        """List the members from id ``start`` on by target predicate, copying
        a list that the base's ``targets`` or ``atoms`` holds before
        extending it."""
        for mid in range(start, len(self.entries)):
            entry = self.entries[mid]
            pred = entry.scheme.target.pred
            _append(self.base_by_target, targets, pred, mid)
            if isinstance(entry.formula, AtomF):
                _append(self.base_atoms, atoms, pred, entry.formula)


def _append(table: dict[str, list], shared: dict[str, list], key: str, item) -> None:
    items = table.get(key)
    if items is None or items is shared.get(key):
        items = table[key] = list(items or ())
    items.append(item)


class _Prover(_Base):
    """One search: a copy of a base's tables, the context's remaining members
    and the goal's premises interned after the base's, in that order."""

    def __init__(
        self,
        base: _Base,
        extra: list[Formula],
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
        self.base_ids = base.base_ids + [self.intern(f) for f in extra]
        self.base_set = frozenset(range(len(self.entries)))
        self.base_by_target = dict(base.base_by_target)
        self.base_atoms = dict(base.base_atoms)
        self._index(len(base.entries), base.base_by_target, base.base_atoms)
        # (member id, assigned constant names) -> per-premise child data
        self.children: dict[tuple[int, tuple[str, ...]], tuple] = {}
        # solved[goal] -> list of (added_set, record); insertion order matters
        self.solved: dict[AtomF, list[tuple[frozenset[int], tuple]]] = {}
        self.failed: dict[AtomF, list[frozenset[int]]] = {}
        self.judgments_seen: set[tuple[frozenset[int], AtomF]] = set()

    # -- matching ----------------------------------------------------------

    @staticmethod
    def _match_atom(
        pattern: AtomF, concrete: AtomF, tv: set[str], binding: dict[str, Term]
    ) -> dict[str, Term] | None:
        """Extend ``binding`` so the pattern becomes the concrete atom."""
        if pattern.pred != concrete.pred or len(pattern.args) != len(concrete.args):
            return None
        out = binding
        for p_arg, c_arg in zip(pattern.args, concrete.args):
            if p_arg.var and p_arg.name in tv:
                old = out.get(p_arg.name)
                if old is None:
                    if out is binding:
                        out = dict(binding)
                    out[p_arg.name] = c_arg
                elif old != c_arg:
                    return None
            elif p_arg != c_arg:
                return None
        return out if out is not binding else dict(binding)

    def instantiations(
        self, scheme: Pi1Scheme, goal: AtomF, added: frozenset[int], atoms_of
    ):
        """Top-variable assignments matching the target against the goal.

        Atomic premises over membership-only predicates are joined against the
        context's atom members (``atoms_of(pred)``, in member-id order), which
        both binds their variables and prunes instantiations that could never
        be completed.
        """
        tv = set(scheme.top_vars)
        binding = self._match_atom(scheme.target, goal, tv, {})
        if binding is None:
            return
        rigid = [
            s.sigma
            for s in scheme.steps
            if isinstance(s.sigma, AtomF) and s.sigma.pred not in self.flexible_preds
        ]

        def join(i: int, b: dict[str, Term]):
            if i == len(rigid):
                rest = [v for v in scheme.top_vars if v not in b]
                for combo in itertools.product(self.pool, repeat=len(rest)):
                    full = dict(b)
                    full.update(zip(rest, combo))
                    yield full
                return
            pattern = rigid[i]
            if all(not a.var or a.name in b for a in pattern.args):
                # fully bound: a bare membership test, no branching
                mid = self.atom_ids.get(
                    (
                        pattern.pred,
                        *(b[a.name].name if a.var else a.name for a in pattern.args),
                    )
                )
                if mid is not None and (mid in self.base_set or mid in added):
                    yield from join(i + 1, b)
                return
            seen: set[tuple] = set()
            for cand in atoms_of(pattern.pred):
                nb = self._match_atom(pattern, cand, tv, b)
                if nb is not None:
                    sig = tuple(sorted((k, v.name) for k, v in nb.items()))
                    if sig not in seen:
                        seen.add(sig)
                        yield from join(i + 1, nb)

        yield from join(0, binding)

    def child_data(self, mid: int, t_assign: dict[str, Term]) -> tuple:
        """Per premise: its peeled taus, their ids, the ids new beyond the
        base, and its target atom; computed once per member instance."""
        scheme = self.entries[mid].scheme
        key = (mid, tuple(t_assign[v].name for v in scheme.top_vars))
        data = self.children.get(key)
        if data is None:
            out = []
            for step in scheme.steps:
                taus, a_i = peel_sigma1(substitute(step.sigma, t_assign))
                tau_ids = tuple(self.intern(tau) for tau in taus)
                out.append((taus, tau_ids, frozenset(tau_ids) - self.base_set, a_i))
            data = self.children[key] = tuple(out)
        return data

    def attempts(self, added: frozenset[int], goal: AtomF):
        """Member instances whose target is the goal: base members first, then
        the added ones, each in id order."""
        entries = self.entries
        extra = sorted(added)
        added_atoms: dict[str, list[AtomF]] = {}
        for mid in extra:
            f = entries[mid].formula
            if isinstance(f, AtomF):
                added_atoms.setdefault(f.pred, []).append(f)

        def atoms_of(pred: str) -> list[AtomF]:
            base = self.base_atoms.get(pred, [])
            more = added_atoms.get(pred)
            return base + more if more else base

        pred = goal.pred
        members = itertools.chain(
            self.base_by_target.get(pred, ()),
            (mid for mid in extra if entries[mid].scheme.target.pred == pred),
        )
        for mid in members:
            scheme = entries[mid].scheme
            for t_assign in self.instantiations(scheme, goal, added, atoms_of):
                yield mid, t_assign, self.child_data(mid, t_assign)

    # -- search ------------------------------------------------------------

    def solved_lookup(self, added: frozenset[int], goal: AtomF):
        for added2, record in self.solved.get(goal, ()):
            if added2 <= added:
                return record
        return None

    def failed_lookup(self, added: frozenset[int], goal: AtomF) -> bool:
        return any(added <= added2 for added2 in self.failed.get(goal, ()))

    def dfs(self, added: frozenset[int], goal: AtomF, stack: set) -> bool:
        check_deadline(self.deadline, "proof search")
        if self.solved_lookup(added, goal) is not None:
            return True
        if self.failed_lookup(added, goal):
            return False
        j = (added, goal)
        if j in stack:
            return False
        self.judgments_seen.add(j)
        if len(self.judgments_seen) > MAX_JUDGMENTS:
            raise CapExceeded(
                f"judgment space exceeded {MAX_JUDGMENTS}",
                feasible=MAX_JUDGMENTS,
            )
        stack.add(j)
        try:
            for mid, t_assign, children in self.attempts(added, goal):
                child_added = []
                for _, _, new, a_i in children:
                    sub = added if new <= added else added | new
                    if not self.dfs(sub, a_i, stack):
                        break
                    child_added.append(sub)
                else:
                    record = (mid, t_assign, children, child_added)
                    self.solved.setdefault(goal, []).append((added, record))
                    return True
            self.failed.setdefault(goal, []).append(added)
            return False
        finally:
            stack.discard(j)

    def run(self, goal: AtomF) -> bool:
        added0: frozenset[int] = frozenset()
        while True:
            size_before = sum(len(v) for v in self.solved.values())
            self.failed = {}
            if self.dfs(added0, goal, set()):
                return True
            if sum(len(v) for v in self.solved.values()) == size_before:
                return False

    # -- certificate extraction --------------------------------------------

    def extract(
        self, added: frozenset[int], goal: AtomF, names: dict[int, str], counter
    ) -> ProofTerm:
        record = self.solved_lookup(added, goal)
        assert record is not None, "extraction requires a solved judgment"
        mid, t_assign, children, child_added = record
        scheme = self.entries[mid].scheme
        term: ProofTerm = PVar(names[mid])
        seen_vars = 0
        for i, step in enumerate(scheme.steps):
            for v in scheme.top_vars[seen_vars : step.vars_visible]:
                term = OApp(term, t_assign[v])
            seen_vars = step.vars_visible
            taus, tau_ids, _, a_i = children[i]
            sub_names = dict(names)
            abs_info: list[tuple[str, Formula]] = []
            for tau, tid in zip(taus, tau_ids):
                tau_inst = substitute(tau, t_assign)
                name = f"X{next(counter)}"
                abs_info.append((name, tau_inst))
                sub_names[tid] = name
            body = self.extract(child_added[i], a_i, sub_names, counter)
            for name, annot in reversed(abs_info):
                body = PAbs(name, annot, body)
            term = PApp(term, body)
        for v in scheme.top_vars[seen_vars:]:
            term = OApp(term, t_assign[v])
        return term


def _freeze_free_vars(f: Formula) -> Formula:
    """Read free variables as constants, the convention for closed search."""
    fv = free_vars(f)
    if not fv:
        return f
    return substitute(f, {v: const(v) for v in fv})


def context_environment(ctx) -> Environment:
    """The hypothesis naming ``prove`` uses for free assumptions.

    Like ``prove``, it reads free variables as constants and numbers members
    by the alpha key of that frozen formula, which each hypothesis declares.
    """
    decls = []
    seen: set[AlphaKey] = set()
    for f in ctx:
        frozen = _freeze_free_vars(f)
        key = alpha_key(frozen)
        if key not in seen:
            seen.add(key)
            decls.append((f"H{len(seen)}", frozen))
    return Environment(tuple(decls))


def _is_ground_atom(f: Formula) -> bool:
    return isinstance(f, AtomF) and not any(t.var for t in f.args)


# the base of the last call; bases are never mutated, so calls from several
# threads can share one, and a race at worst builds a base twice
_last_base = _Base([])


def _base_for(members: list[Formula]) -> _Base:
    global _last_base
    base = _last_base
    if base.members != members:
        base = _last_base = _Base(members)
    return base


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
    ctx = list(ctx)
    fv = free_vars(goal)
    if fv:
        raise FormulaError(
            f"goal has free variables {', '.join(sorted(fv))}: {fmt_formula(goal)}"
        )
    if classify(goal) not in (MintsClass.SIGMA1, MintsClass.BOTH):
        raise FormulaError(f"goal must be a Sigma1 formula: {fmt_formula(goal)}")
    premises, target = peel_sigma1(goal)
    k = len(ctx)
    while k and _is_ground_atom(ctx[k - 1]):
        k -= 1
    base = _base_for(ctx[:k])
    atoms = ctx[k:]
    constants = set(base.constants)
    for f in atoms + [goal]:
        constants |= formula_constants(f)
    counter = itertools.count(1)
    peeled_names: list[tuple[str, Formula]] = []
    for p in premises:
        peeled_names.append((f"X{next(counter)}", p))
    prover = _Prover(
        base,
        atoms + [p for _, p in peeled_names],
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
    term = prover.extract(frozenset(), target, names, counter)
    for name, annot in reversed(peeled_names):
        term = PAbs(name, annot, term)
    return term


def prove_sigma1(
    phi: Formula,
    deadline: float | None = None,
) -> ProofTerm | None:
    """A closed long-normal-form proof of the Sigma1 formula ``phi``, or None."""
    if classify(phi) not in (MintsClass.SIGMA1, MintsClass.BOTH):
        raise FormulaError(
            f"prove_sigma1 takes Sigma1 formulas, got {classify(phi).value}"
        )
    return prove([], phi, deadline=deadline)
