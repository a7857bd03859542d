"""Compile a Sigma1 formula into a program whose stable models are exactly the
formula's refutation soups over a fixed address space.

A soup is a set of addressed disjudgments ``Gamma |/- a`` in which every
question (a context member whose instantiated target matches the goal) is
answered by challenging one of its premise targets.  The program encodes one
disjudgment per bit-string address: environment membership is a free choice
per (subformula instance, address), questions are recognized from goals and
heads, answer choices propagate environments and goals, and a self-blocking
false atom forces every question to receive an answer.

``analysis`` reads the formula's length, predicate arities, binder names and
the free variables of every subformula occurrence off one pass over its
occurrences, and builds the instance and question tables from them; it
prints no key, and the soup search orders only the keys it reaches.

``translate`` names each atom by a plain key ``(pred, arg name, ...)`` and
emits each clause as an integer row ``(head, pos, neg)`` into an
``engine.GroundProgram``; an atom gets its id the first time a clause meets
it, head first, then the positive body, then the negated body.  The emitter
looks ids up in tables by (symbol, instance or question, address) that it
fills on first sight, so a key is built once per atom, not once per
occurrence; it appends rows without building a clause and checks the
deadline once per block of at most 4096 rows.  Before any table is built,
the per-address id tables and then the rows are sized against
``EMISSION_CAP``: ``_family_rows`` counts the rows of each clause family
from the analysis tables, one law for ``counts`` and the cap.  The engine
solves the rows as they are, and the soup conversions look atoms up by key
(``AtomBuilder``).
``FormulaTranslation.program`` builds ``Atom`` and ``Clause`` objects only
when it is read, and checks their domain once per atom of the table.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .engine import AtomKey, GroundProgram, Model, has_stable_model
from .errors import ArityError, CapExceeded, FormulaError, check_deadline
from .syntax import (
    AlphaKey,
    Atom,
    AtomF,
    Forall,
    Formula,
    Impl,
    Occurrence,
    Program,
    alpha_key,
    const,
    fmt_atomf,
    fmt_formula,
    occurrences,
    slot_init,
    substitute,
    survey,
)

DEFAULT_ADDR_LEN_CAP = 4
EMISSION_CAP = 10_000_000
INSTANCE_CAP = 200_000
CONE_CAP = 200_000


# ---------------------------------------------------------------------------
# Signature and question schemas
# ---------------------------------------------------------------------------


@slot_init
@dataclass(frozen=True, slots=True)
class SubgoalInfo:
    index: int  # 1-based premise position
    subgoal: AtomF
    descendants: tuple[int, ...]  # occurrence ids of the premise's own premises
    vars_visible: int


@slot_init
@dataclass(frozen=True, slots=True)
class QuestionSchema:
    occ: int
    free: tuple[str, ...]  # the member's free variables, sorted
    top_vars: tuple[str, ...]
    head: AtomF
    steps: tuple[SubgoalInfo, ...]


@slot_init
@dataclass(frozen=True, slots=True)
class SoupSignature:
    phi: Formula
    occs: tuple[Occurrence, ...]
    pool: tuple[str, ...]
    n: int  # formula length
    r: int  # maximum predicate arity
    bound_vars: tuple[str, ...]  # all binder names, in preorder
    premises: tuple[int, ...]  # occurrence ids of the top-level premises
    target: AtomF
    env_occs: tuple[int, ...]  # occurrences that can appear in environments
    schemas: dict[int, QuestionSchema]


_CLOSED: frozenset[str] = frozenset()


def _occurrence_facts(
    occs: tuple[Occurrence, ...],
) -> tuple[int, dict[str, int], list[str], list[frozenset[str]]]:
    """The formula length, the predicate arities, the binder names in
    preorder and each occurrence's free variables, in one pass over the
    occurrences from the last: a node's children come after it in preorder,
    so their free variables are known when it is reached.

    The pass meets the atoms from right to left, in the order of a walk that
    visits an implication's conclusion before its premise, so a predicate
    used with two arities raises the ``ArityError`` that walk raises."""
    length = 0
    arities: dict[str, int] = {}
    binders: list[str] = []
    free: list[frozenset[str]] = [_CLOSED] * len(occs)
    for i in range(len(occs) - 1, -1, -1):
        f = occs[i].formula
        cls = type(f)
        if cls is AtomF:
            length += 1 + len(f.args)
            old = arities.setdefault(f.pred, len(f.args))
            if old != len(f.args):
                raise ArityError(
                    f"predicate {f.pred} used with arities {old} and {len(f.args)}"
                )
            names = [t.name for t in f.args if t.var]
            if names:
                free[i] = frozenset(names)
        elif cls is Impl:
            length += 1
            lhs, rhs = free[i + 1], free[i + 1 + occs[i + 1].size]
            free[i] = lhs | rhs if lhs and rhs else lhs or rhs
        else:
            length += 1
            binders.append(f.var)
            body = free[i + 1]
            free[i] = body - {f.var} if f.var in body else body
    binders.reverse()
    return length, arities, binders, free


def _question_schema(
    occs: tuple[Occurrence, ...], free: list[frozenset[str]], idx: int
) -> QuestionSchema:
    """The question schema of the member at occurrence ``idx``; ``free`` gives
    each occurrence's free variables, which the schema's scopes must hold."""
    psi_fv = free[idx]
    top_vars: list[str] = []
    steps: list[SubgoalInfo] = []
    cur = idx
    while True:
        f = occs[cur].formula
        if isinstance(f, Forall):
            top_vars.append(f.var)
            cur += 1
        elif isinstance(f, AtomF):
            assert free[cur] <= psi_fv.union(top_vars)
            return QuestionSchema(
                idx, tuple(sorted(psi_fv)), tuple(top_vars), f, tuple(steps)
            )
        else:
            assert isinstance(f, Impl)
            visible = psi_fv.union(top_vars) if top_vars else psi_fv
            sigma = cur + 1
            rhs = sigma + occs[sigma].size
            taus: list[int] = []
            s = sigma
            while isinstance(occs[s].formula, Impl):
                taus.append(s + 1)
                assert free[s + 1] <= visible
                s = s + 1 + occs[s + 1].size
            subgoal = occs[s].formula
            if not isinstance(subgoal, AtomF):
                raise FormulaError(
                    f"premise is not Sigma1: {fmt_formula(occs[sigma].formula)}"
                )
            assert free[s] <= visible
            steps.append(
                SubgoalInfo(len(steps) + 1, subgoal, tuple(taus), len(top_vars))
            )
            cur = rhs


def _signature(phi: Formula) -> SoupSignature:
    """Decompose a Sigma1 formula for the soup machinery.

    The signature holds the domain data, constant pool and sizes, and the
    question schema of every subformula occurrence that can appear in an
    environment: the top-level premises and, transitively, all their premise
    descendants.  One pass over the occurrences gives the sizes, the binder
    names and the free variables the schemas read.
    """
    facts = survey(phi)
    if facts.free:
        # free variables are read as constants
        phi = substitute(phi, {v: const(v) for v in facts.free})
    if not facts.sigma1:
        raise FormulaError(f"not a Sigma1 formula: {fmt_formula(phi)}")
    occs = occurrences(phi)
    n, arities, binders, free = _occurrence_facts(occs)
    r = max(arities.values(), default=0)
    pool = sorted(facts.constants | facts.free)
    if not pool:
        fresh = "c0"
        pool = [fresh]
    premises: list[int] = []
    cur = 0
    while isinstance(occs[cur].formula, Impl):
        premises.append(cur + 1)
        cur = cur + 1 + occs[cur + 1].size
    target = occs[cur].formula
    assert isinstance(target, AtomF)
    schemas: dict[int, QuestionSchema] = {}
    worklist = list(premises)
    env_occs: list[int] = []
    while worklist:
        idx = worklist.pop(0)
        if idx in schemas:
            continue
        schema = _question_schema(occs, free, idx)
        schemas[idx] = schema
        env_occs.append(idx)
        for step in schema.steps:
            worklist.extend(step.descendants)
    return SoupSignature(
        phi,
        occs,
        tuple(pool),
        n,
        r,
        tuple(binders),
        tuple(premises),
        target,
        tuple(env_occs),
        schemas,
    )


# ---------------------------------------------------------------------------
# Instance and question tables
# ---------------------------------------------------------------------------


@slot_init
@dataclass(frozen=True, slots=True)
class InstancePattern:
    index: int
    occ: int
    assign: tuple[tuple[str, str], ...]  # variable -> constant, restricted to FV
    formula: Formula
    key: AlphaKey  # alpha_key(formula), the semantic identity


@slot_init
@dataclass(frozen=True, slots=True)
class AnswerOption:
    index: int  # 1-based premise position
    subgoal: AtomF  # ground subgoal instance
    taus: tuple[int, ...]  # instance indices added to the context
    tau_keys: frozenset[AlphaKey]  # their alpha keys


@slot_init
@dataclass(frozen=True, slots=True)
class QuestionPattern:
    index: int
    inst: int  # instance index of the member psi[S]
    t_assign: tuple[tuple[str, str], ...]
    head: AtomF  # ground head instance
    answers: tuple[AnswerOption, ...]

    def semantic_key(self, analysis: "Analysis") -> tuple:
        inst = analysis.instances[self.inst]
        schema = analysis.sig.schemas[inst.occ]
        t = dict(self.t_assign)
        return (inst.key, tuple(t[v] for v in schema.top_vars))


@slot_init
@dataclass(frozen=True, slots=True)
class Analysis:
    """The instance and question tables of a formula, with the indexes their
    readers share; all of it is built once by ``analysis`` and never mutated.
    No key is printed here: the soup search orders the keys it reaches."""

    sig: SoupSignature
    instances: tuple[InstancePattern, ...]
    questions: tuple[QuestionPattern, ...]
    goal_universe: tuple[AtomF, ...]
    initial_keys: frozenset[AlphaKey]  # keys of the premises, the initial context
    instance_index: dict[tuple[int, tuple], int]  # (occ, assign) -> instance
    key_formula: dict[AlphaKey, Formula]  # key -> its first instance formula
    # head -> member key -> the key's questions with that head, in table
    # order: a context's questions at a goal are those of its keys here
    by_head: dict[AtomF, dict[AlphaKey, list[QuestionPattern]]]
    active: tuple[QuestionPattern, ...]  # questions whose head is a goal
    # the formula ``analysis`` was given, the object itself; ``sig.phi`` is a
    # substituted copy when it has free variables
    source: Formula

    def asked(self, keys, goal: AtomF) -> tuple[QuestionPattern, ...]:
        """The questions a context with member ``keys`` asks at ``goal``: its
        members' questions whose head is ``goal``, in ``questions`` order."""
        at_goal = self.by_head.get(goal, {}).items()
        found = [q for k, qs in at_goal if k in keys for q in qs]
        found.sort(key=lambda q: q.index)
        return tuple(found)


def analysis(phi: Formula) -> Analysis:
    """The signature of ``phi``, its instance and question tables, and their
    indexes."""
    sig = _signature(phi)
    occs, pool = sig.occs, list(sig.pool)
    instances: list[InstancePattern] = []
    lookup: dict[tuple[int, tuple], int] = {}
    key_formula: dict[AlphaKey, Formula] = {}
    for occ in sig.env_occs:
        fv = sig.schemas[occ].free
        if len(pool) ** len(fv) + len(instances) > INSTANCE_CAP:
            raise CapExceeded(
                f"instance table would exceed {INSTANCE_CAP}", feasible=INSTANCE_CAP
            )
        for combo in itertools.product(pool, repeat=len(fv)):
            assign = tuple(zip(fv, combo))
            inst_formula = substitute(
                occs[occ].formula, {v: const(c) for v, c in assign}
            )
            p = InstancePattern(
                len(instances), occ, assign, inst_formula, alpha_key(inst_formula)
            )
            instances.append(p)
            lookup[(occ, assign)] = p.index
            key_formula.setdefault(p.key, inst_formula)

    questions: list[QuestionPattern] = []
    by_head: dict[AtomF, dict[AlphaKey, list[QuestionPattern]]] = {}
    goals: set[AtomF] = {sig.target}
    for p in instances:
        schema = sig.schemas[p.occ]
        s_map = {v: const(c) for v, c in p.assign}
        for combo in itertools.product(pool, repeat=len(schema.top_vars)):
            t_assign = tuple(zip(schema.top_vars, combo))
            full = dict(s_map)
            full.update({v: const(c) for v, c in t_assign})
            head = substitute(schema.head, full)
            assert isinstance(head, AtomF) and not any(t.var for t in head.args)
            answers: list[AnswerOption] = []
            for step in schema.steps:
                subgoal = substitute(step.subgoal, full)
                assert isinstance(subgoal, AtomF) and not any(t.var for t in subgoal.args)
                taus = []
                for tau_occ in step.descendants:
                    u_assign = tuple(
                        (v, full[v].name) for v in sig.schemas[tau_occ].free
                    )
                    taus.append(lookup[(tau_occ, u_assign)])
                answers.append(
                    AnswerOption(
                        step.index,
                        subgoal,
                        tuple(taus),
                        frozenset(instances[i].key for i in taus),
                    )
                )
                goals.add(subgoal)
            q = QuestionPattern(len(questions), p.index, t_assign, head, tuple(answers))
            questions.append(q)
            by_head.setdefault(head, {}).setdefault(p.key, []).append(q)

    # top-level premises of a closed formula are closed: one instance each
    initial_keys = frozenset(instances[lookup[(occ, ())]].key for occ in sig.premises)
    return Analysis(
        sig,
        tuple(instances),
        tuple(questions),
        tuple(sorted(goals, key=fmt_atomf)),
        initial_keys,
        lookup,
        key_formula,
        by_head,
        tuple(q for q in questions if q.head in goals),
        phi,
    )


def _cone_contexts(an: Analysis, deadline: float | None) -> list[set[frozenset]]:
    """The contexts of the judgments reachable from the initial one via
    minimal answers, by goal: entry ``i`` holds those whose goal is
    ``an.goal_universe[i]``.  A minimal answer to a question extends the
    context by exactly the instantiated premises of the challenged premise
    and moves to its target; every soup can be reshaped to live inside this
    cone, so its size certifies a sufficient address space.

    Goals are read as their index in ``goal_universe``, which holds the
    target and every subgoal, so no judgment hashes or compares an atom.
    Within one judgment, the context an answer leads to is built once for
    each distinct set of premises it adds.
    """
    goals = an.goal_universe
    index = {g: i for i, g in enumerate(goals)}
    # per goal, filled when the walk first pops it: each member key that asks
    # a question there, with the (added keys, next goal) of every answer
    # option of its questions
    asking: list[list | None] = [None] * len(goals)
    target = index[an.sig.target]
    seen: list[set[frozenset]] = [set() for _ in goals]
    seen[target].add(an.initial_keys)
    size = 1
    work = [(an.initial_keys, target)]
    while work:
        check_deadline(deadline, "translation")
        ctx, goal = work.pop()
        asks = asking[goal]
        if asks is None:
            asks = asking[goal] = [
                (key, [(o.tau_keys, index[o.subgoal]) for q in qs for o in q.answers])
                for key, qs in an.by_head.get(goals[goal], {}).items()
            ]
        made: dict[frozenset, frozenset] = {}
        for key, options in asks:
            if key not in ctx:
                continue
            for tau_keys, sub in options:
                nxt = made.get(tau_keys)
                if nxt is None:
                    nxt = made[tau_keys] = ctx if tau_keys <= ctx else ctx | tau_keys
                at = seen[sub]
                if nxt not in at:
                    if size >= CONE_CAP:
                        raise CapExceeded(
                            f"judgment cone exceeds {CONE_CAP}", feasible=CONE_CAP
                        )
                    at.add(nxt)
                    size += 1
                    work.append((nxt, sub))
    return seen


def certified_addr_len(an: Analysis, deadline: float | None = None) -> int:
    """An address length at which a soup exists whenever one exists at all.

    Every soup can be reshaped into the minimal-answer cone, so addressing
    that cone is complete; the quoted bound n^r (with nullary signatures read
    at arity one) is taken when smaller.
    """
    cone = sum(map(len, _cone_contexts(an, deadline)))
    mine = max(1, math.ceil(math.log2(max(2, cone))))
    paper = an.sig.n ** max(1, an.sig.r)
    return max(1, min(mine, paper))


# ---------------------------------------------------------------------------
# Program emission
# ---------------------------------------------------------------------------


class AtomBuilder:
    """Names the translated program's ground atoms and numbers them.

    An atom is named by its key ``(pred, arg name, ...)``; ``ids`` gives a
    key the next int the first time ``translate`` meets it, and is the atom
    table of the translation's ``GroundProgram``.  Addresses are given as bit
    strings; substitution blocks are flattened over the formula's binder list
    with irrelevant positions pinned to the first pool constant.
    """

    def __init__(self, an: Analysis, names: "_Names", addr_len: int):
        self.names = names
        self.addr_len = addr_len
        bvars = an.sig.bound_vars
        # the block positions of each binder name (two for a name bound twice)
        where: dict[str, list[int]] = {}
        for i, v in enumerate(bvars):
            where.setdefault(v, []).append(i)
        pinned = [names.pin] * len(bvars)
        all_pinned = tuple(pinned)

        def fill(assign) -> tuple[str, ...]:
            """The block of the (variable, constant) pairs ``assign``."""
            if not assign:
                return all_pinned
            blk = pinned.copy()
            for v, c in assign:
                for i in where.get(v, ()):
                    blk[i] = c
            return tuple(blk)

        def block(assign: dict[str, str]) -> tuple[str, ...]:
            return fill(assign.items())

        self.block = block
        self.inst_args = [
            (names.occ_name(p.occ),) + fill(p.assign) for p in an.instances
        ]
        inst_args = self.inst_args
        self.q_args = [inst_args[q.inst] + fill(q.t_assign) for q in an.questions]
        self.addr = {
            bits: tuple([names.bits[int(c)] for c in bits])
            for bits in self.all_addresses()
        }
        self.ids: dict[AtomKey, int] = {}

    def all_addresses(self) -> list[str]:
        return [
            "".join(bits)
            for bits in itertools.product("01", repeat=self.addr_len)
        ]

    def env(self, inst: int, bits: str) -> AtomKey:
        return ("env",) + self.inst_args[inst] + self.addr[bits]

    def nenv(self, inst: int, bits: str) -> AtomKey:
        return ("nenv",) + self.inst_args[inst] + self.addr[bits]

    def q(self, qi: int, bits: str) -> AtomKey:
        return ("q",) + self.q_args[qi] + self.addr[bits]

    def y(self, qi: int, bits: str) -> AtomKey:
        return ("y",) + self.q_args[qi] + self.addr[bits]

    def ans(self, i: int, qi: int, bits_from: str, bits_to: str) -> AtomKey:
        return (f"ans{i}",) + self.q_args[qi] + self.addr[bits_from] + self.addr[bits_to]

    def nans(self, i: int, qi: int, bits_from: str, bits_to: str) -> AtomKey:
        return (f"nans{i}",) + self.q_args[qi] + self.addr[bits_from] + self.addr[bits_to]

    def goal(self, g: AtomF, bits: str) -> AtomKey:
        return (self.names.goal_pred(g),) + self.addr[bits]


class _Ids(dict):
    """The ids of the atoms ``prefixes[i] + tail`` by ``i``, each read from the
    atom table ``table`` the first time it is asked for: the key is built
    only then, and an atom new to the table gets the next id there."""

    __slots__ = ("table", "prefixes", "tail")

    def __init__(self, table: dict[AtomKey, int], prefixes: list[tuple], tail: tuple):
        self.table, self.prefixes, self.tail = table, prefixes, tail

    def __missing__(self, i: int) -> int:
        table = self.table
        n = self[i] = table.setdefault(self.prefixes[i] + self.tail, len(table))
        return n


# the most items one emission block walks; a block writes at most three rows
# an item, so no more than 4096 rows pass between two deadline checks
_RUN = 1024


def _runs(items):
    """``items`` cut into consecutive slices of at most ``_RUN``."""
    if len(items) <= _RUN:
        return [items] if items else []
    return [items[i : i + _RUN] for i in range(0, len(items), _RUN)]


@dataclass(frozen=True)
class FormulaTranslation:
    analysis: Analysis
    addr_len: int
    ground_program: GroundProgram
    counts: dict[str, int]  # the rows of each clause family that has any
    builder: AtomBuilder
    syntax_facts: frozenset[int]  # ids of the heads of families 1-3

    @property
    def sig(self) -> SoupSignature:
        return self.analysis.sig

    @cached_property
    def program(self) -> Program:
        """The emitted clauses over their constant domain.

        Every argument of a clause is an argument of an atom of the table, so
        the domain is checked once per atom there, not per clause as
        ``Program`` would check it."""
        names = self.builder.names
        domain = {*names.bits, *self.sig.pool}
        domain.update(names.occ_name(occ) for occ in range(len(self.sig.occs)))
        args = map(operator.itemgetter(slice(1, None)), self.ground_program.ids)
        missing = set(itertools.chain.from_iterable(args)) - domain
        if missing:
            raise FormulaError(f"constants outside the domain: {sorted(missing)}")
        return Program.unchecked(self.ground_program.clauses, frozenset(domain))

    def header(self) -> str:
        sig = self.sig
        lines = [
            f"% source formula: {fmt_formula(sig.phi)}",
            f"% length n={sig.n}, max arity r={sig.r}, addresses of length {self.addr_len}",
            f"% symbols: f<k> = subformula occurrence k; substitution arguments"
            f" follow the binder order {', '.join(sig.bound_vars) or '(none)'}",
        ]
        for family in sorted(self.counts):
            lines.append(f"% clauses {family}: {self.counts[family]}")
        return "\n".join(lines)


class _Names:
    """Deterministic, collision-free naming for the emitted vocabulary."""

    def __init__(self, an: Analysis):
        sig = an.sig
        pool = set(sig.pool)
        self.occ_prefix = "f"
        while any(_looks_like(c, self.occ_prefix) for c in pool):
            self.occ_prefix += "f"
        self.bits = ("0", "1") if not ({"0", "1"} & pool) else _fresh_bits(pool)
        self.pin = sig.pool[0]
        self.atom_keys: dict[AtomF, str] = {}
        taken: set[str] = set()
        heads = {q.head for q in an.questions}
        for g in sorted(set(an.goal_universe) | heads, key=fmt_atomf):
            key = g.pred.lower() + "".join("_" + t.name for t in g.args)
            while key in taken:
                key += "_"
            taken.add(key)
            self.atom_keys[g] = key

    def occ_name(self, occ: int) -> str:
        return f"{self.occ_prefix}{occ}"

    def goal_pred(self, g: AtomF) -> str:
        return "goal_" + self.atom_keys[g]

    def head_pred(self, g: AtomF) -> str:
        return "hd_" + self.atom_keys[g]

    def subgoal_pred(self, i: int, g: AtomF) -> str:
        return f"sg{i}_" + self.atom_keys[g]


def _looks_like(name: str, prefix: str) -> bool:
    return name.startswith(prefix) and name[len(prefix):].isdigit()


def _fresh_bits(pool: set[str]) -> tuple[str, str]:
    b = "b"
    while {b + "0", b + "1"} & pool:
        b += "b"
    return (b + "0", b + "1")


def _unpinned(an: Analysis, q: QuestionPattern) -> tuple[list[str], list[str]]:
    """The binder positions of ``q``'s substitution blocks that its member and
    its question leave free: ``full_facts`` fills them with every constant."""
    p = an.instances[q.inst]
    s_rel = {v for v, _ in p.assign}
    t_rel = set(an.sig.schemas[p.occ].top_vars)
    bvars = an.sig.bound_vars
    s_free = [v for v in bvars if v not in s_rel]
    return s_free, [v for v in bvars if v not in t_rel]


def _family_rows(an: Analysis, addr_len: int, full_facts: bool) -> dict[str, int]:
    """The rows ``translate`` writes of each clause family at ``addr_len``,
    read off the analysis tables before any row is written; a family without
    rows is left out."""
    n_blocks = n_subgoals = n_descendants = 0
    for q in an.questions:
        blocks = 1
        if full_facts:
            s_free, t_free = _unpinned(an, q)
            blocks = len(an.sig.pool) ** (len(s_free) + len(t_free))
        n_blocks += blocks
        n_subgoals += blocks * len(q.answers)
        n_descendants += blocks * sum(len(opt.taus) for opt in q.answers)
    n_addr = 2**addr_len
    pairs = n_addr * n_addr
    n_inst = len(an.instances)
    n_initial = sum(p.key in an.initial_keys for p in an.instances)
    n_options = sum(len(q.answers) for q in an.active)
    n_taus = sum(len(opt.taus) for q in an.active for opt in q.answers)
    n_goals = len(an.goal_universe)
    rows = {
        "01_descendant": n_descendants,
        "02_subgoal": n_subgoals,
        "03_head": n_blocks,
        "04_initial_goal": 1,
        "05_initial_env": n_initial,
        "06_initial_nenv": n_inst - n_initial,
        "07_env_propagation": pairs * n_options * n_inst,
        "08_env_descendants": pairs * n_taus,
        "09_goal_of_answer": pairs * n_options,
        "10_env_choice": 2 * n_inst * n_addr,
        "11_env_conflict": n_inst * n_addr,
        "12_answer_choice": 2 * pairs * n_options,
        "13_question": len(an.active) * n_addr,
        "14_must_answer": len(an.active) * n_addr,
        "15_answered": pairs * n_options,
        "16_unique_goal": n_goals * (n_goals - 1) // 2 * n_addr,
    }
    return {family: n for family, n in rows.items() if n}


def _set_up_fits(an: Analysis, addr_len: int) -> bool:
    """Whether the tables ``translate`` builds per address before emitting are
    within ``EMISSION_CAP``: the address table and one id table per address
    for env, nenv, goal, q, y and each answer option's ans and nans."""
    if addr_len > EMISSION_CAP.bit_length():
        return False  # 2^addr_len alone is past the cap; do not compute it
    n_options = sum(len(q.answers) for q in an.active)
    return (6 + 2 * n_options) << addr_len <= EMISSION_CAP


def _feasible(an: Analysis, addr_len: int, full_facts: bool) -> int | None:
    """The longest address length below ``addr_len`` whose set-up and rows
    are within ``EMISSION_CAP``, or None."""
    for l in range(min(addr_len - 1, EMISSION_CAP.bit_length()), 0, -1):
        if _set_up_fits(an, l):
            if sum(_family_rows(an, l, full_facts).values()) <= EMISSION_CAP:
                return l
    return None


def translate(
    phi: Formula,
    addr_len: int | None = None,
    full_facts: bool = False,
    deadline: float | None = None,
    an: Analysis | None = None,
) -> FormulaTranslation:
    """Emit the ground program for ``phi`` over addresses of length ``addr_len``.

    Any address length is sound (a stable model yields a soup); completeness
    holds from ``certified_addr_len`` up.  The default is the capped length
    ``min(certified, 4)``.  The per-address tables are sized first, then the
    rows of each clause family (``counts``) are counted by ``_family_rows``;
    more than ``EMISSION_CAP`` of either raises ``CapExceeded`` with the
    longest address length at which both are within the cap.

    The program is emitted as integer rows ``(head, pos, neg)``: each clause
    gives its head, then its positive body, then its negated body an id on
    first sight (``AtomBuilder.ids``), and ``Atom`` objects are built only
    when the program is read.  ``an``, when given, must be ``analysis(phi)``,
    which is then not built again.
    """
    if an is None:
        an = analysis(phi)
    if addr_len is None:
        addr_len = min(certified_addr_len(an), DEFAULT_ADDR_LEN_CAP)
    if addr_len < 1:
        raise FormulaError("address length must be at least 1")
    if not _set_up_fits(an, addr_len):
        raise CapExceeded(
            f"the id tables of 2^{addr_len} addresses exceed the cap "
            f"{EMISSION_CAP}",
            feasible=_feasible(an, addr_len, full_facts),
        )
    counts = _family_rows(an, addr_len, full_facts)
    total = sum(counts.values())
    if total > EMISSION_CAP:
        raise CapExceeded(
            f"emission of {total} clauses exceeds the cap {EMISSION_CAP} "
            f"at address length {addr_len}",
            feasible=_feasible(an, addr_len, full_facts),
        )
    names = _Names(an)
    sig = an.sig
    b = AtomBuilder(an, names, addr_len)
    q_args, inst_args = b.q_args, b.inst_args
    n_addr = 2**addr_len
    n_inst = len(an.instances)
    tails = list(b.addr.values())
    ids = b.ids
    tick = functools.partial(check_deadline, deadline, "translation")

    # the id tables: an atom's key is built the first time a clause meets it
    def per_address(prefixes: list[tuple]) -> list[_Ids]:
        """Per address ``a``, the ids of the atoms ``prefixes[i] + a`` by ``i``."""
        return [_Ids(ids, prefixes, tail) for tail in tails]

    env_at = per_address([("env",) + args for args in inst_args])
    nenv_at = per_address([("nenv",) + args for args in inst_args])
    goal_at = per_address([(names.goal_pred(g),) for g in an.goal_universe])
    goal_no = {g: i for i, g in enumerate(an.goal_universe)}
    false = _Ids(ids, [("f",)], ())
    # per active question: the question and, per answer option, the option and
    # per target address the ids of its ans and nans atoms by source address;
    # the q and y atoms go by the question's place in this list
    asked = []
    for q in an.active:
        args = q_args[q.index]
        options = [
            (
                opt,
                per_address([(f"ans{opt.index}",) + args + t for t in tails]),
                per_address([(f"nans{opt.index}",) + args + t for t in tails]),
            )
            for opt in q.answers
        ]
        asked.append((q, options))
    q_at = per_address([("q",) + q_args[q.index] for q in an.active])
    y_at = per_address([("y",) + q_args[q.index] for q in an.active])
    inst_runs = _runs(range(n_inst))
    addr_runs = _runs(range(n_addr))

    heads: list[int] = []
    pos: list[tuple[int, ...]] = []
    neg: list[tuple[int, ...]] = []
    put_h, put_p, put_n = heads.append, pos.append, neg.append

    # families 1-3: syntax facts (descendants, subgoals, heads)
    def filled_blocks(q: QuestionPattern) -> list[tuple[str, ...]]:
        """The substitution blocks of ``q``'s facts: its own, or under
        ``full_facts`` each filling of the positions it leaves free."""
        if not full_facts:
            return [q_args[q.index][1:]]
        p = an.instances[q.inst]
        s_free, t_free = _unpinned(an, q)
        out = []
        for s_fill in itertools.product(sig.pool, repeat=len(s_free)):
            for t_fill in itertools.product(sig.pool, repeat=len(t_free)):
                s = dict(p.assign)
                s.update(zip(s_free, s_fill))
                t = dict(q.t_assign)
                t.update(zip(t_free, t_fill))
                out.append(b.block(s) + b.block(t))
        return out

    for q in an.questions:
        occ = inst_args[q.inst][0]
        for st_blk in filled_blocks(q):
            keys = []
            for opt in q.answers:
                di = f"di{opt.index}"
                for tau in opt.taus:
                    keys.append((di, inst_args[tau][0], occ) + st_blk + inst_args[tau][1:])
                keys.append((names.subgoal_pred(opt.index, opt.subgoal), occ) + st_blk)
            keys.append((names.head_pred(q.head), occ) + st_blk)
            for run in _runs(keys):
                for key in run:
                    put_h(ids.setdefault(key, len(ids)))
                    put_p(())
                    put_n(())
                tick()
    syntax_facts = frozenset(heads)

    # families 4-6: the initial judgment at address 0...0
    # an instance is in the initial context when its key is, as in the soup
    # layer, so a repeated premise key also puts its other occurrences there
    put_h(goal_at[0][goal_no[sig.target]])
    put_p(())
    put_n(())
    initial = [p.key in an.initial_keys for p in an.instances]
    for at, wanted in ((env_at[0], True), (nenv_at[0], False)):
        for run in inst_runs:
            for i in run:
                if initial[i] is wanted:
                    put_h(at[i])
                    put_p(())
                    put_n(())
            tick()

    # families 7-9: answers propagate environments and set goals
    for q, options in asked:
        occ, st_blk = q_args[q.index][0], q_args[q.index][1:]
        for opt, ans_at, _ in options:
            # the subgoal and descendant atoms are heads of families 2 and 1
            sg = ids[(names.subgoal_pred(opt.index, opt.subgoal),) + q_args[q.index]]
            di = f"di{opt.index}"
            descendants = _runs(
                [
                    (tau, ids[(di, inst_args[tau][0], occ) + st_blk + inst_args[tau][1:]])
                    for tau in opt.taus
                ]
            )
            subgoal = goal_no[opt.subgoal]
            for a_from in range(n_addr):
                env_from = env_at[a_from]
                for a_to in range(n_addr):
                    ans_to = ans_at[a_to]
                    env_to = env_at[a_to]
                    # inst_runs is never empty (the asking member is an
                    # instance), so the deadline is checked after the
                    # family-9 row of the previous pass
                    for run in inst_runs:
                        for i in run:
                            put_h(env_to[i])
                            put_p((ans_to[a_from], env_from[i]))
                            put_n(())
                        tick()
                    for run in descendants:
                        for tau, d in run:
                            put_h(env_to[tau])
                            put_p((ans_to[a_from], d))
                            put_n(())
                        tick()
                    put_h(goal_at[a_to][subgoal])
                    put_p((ans_to[a_from], sg))
                    put_n(())

    # families 10-11: environment choice and its exclusivity
    for i in range(n_inst):
        for run in addr_runs:
            for a in run:
                e, ne = env_at[a][i], nenv_at[a][i]
                put_h(e)
                put_p(())
                put_n((ne,))
                put_h(ne)
                put_p(())
                put_n((e,))
                f = false[0]
                put_h(f)
                put_p((e, ne))
                put_n((f,))
            tick()

    # family 12: answer choice, guarded by the question; the guard is looked
    # up before the clause's head, which has its id from family 9 on
    for qn, (q, options) in enumerate(asked):
        for _, ans_at, nans_at in options:
            for a_from in range(n_addr):
                guard = q_at[a_from][qn]
                for run in addr_runs:
                    for a_to in run:
                        yes, no = ans_at[a_to][a_from], nans_at[a_to][a_from]
                        put_h(yes)
                        put_p((guard,))
                        put_n((no,))
                        put_h(no)
                        put_p((guard,))
                        put_n((yes,))
                    tick()

    # families 13-15: question recognition and the everything-answered rule
    for qn, (q, options) in enumerate(asked):
        # a head atom of family 3
        hd = ids[(names.head_pred(q.head),) + q_args[q.index]]
        head = goal_no[q.head]
        for run in addr_runs:
            for a in run:
                qa = q_at[a][qn]
                put_h(qa)
                put_p((env_at[a][q.inst], hd, goal_at[a][head]))
                put_n(())
                f = false[0]
                put_h(f)
                put_p((qa,))
                put_n((y_at[a][qn], f))
            tick()
        for _, ans_at, _ in options:
            for a_from in range(n_addr):
                y = y_at[a_from][qn]
                for run in addr_runs:
                    for a_to in run:
                        put_h(y)
                        put_p((ans_at[a_to][a_from],))
                        put_n(())
                    tick()

    # family 16: at most one goal per address
    n_goals = len(an.goal_universe)
    for g1, g2 in itertools.combinations(range(n_goals), 2):
        for run in addr_runs:
            for a in run:
                f = false[0]
                put_h(f)
                put_p((goal_at[a][g1], goal_at[a][g2]))
                put_n((f,))
            tick()

    assert total == len(heads)

    gp = GroundProgram(b.ids, heads, pos, neg)
    return FormulaTranslation(an, addr_len, gp, counts, b, syntax_facts)


# ---------------------------------------------------------------------------
# The decision procedure by translation
# ---------------------------------------------------------------------------


def _answers_first(a: Atom) -> int:
    """Branch the contradiction atom first (activating constraint propagation),
    then answer selection, and the free environment choices last."""
    if a.pred == "f":
        return 0
    if a.pred == "y" or a.pred.startswith(("ans", "nans")):
        return 1
    return 2


@slot_init
@dataclass(frozen=True, slots=True)
class TranslationVerdict:
    refutable: bool
    translation: FormulaTranslation  # the program that was solved
    witness: Model | None

    @property
    def addr_len(self) -> int:
        return self.translation.addr_len


def decide_by_translation(
    phi: Formula,
    deadline: float | None = None,
    an: Analysis | None = None,
) -> TranslationVerdict:
    """Refutability of ``phi`` via stable-model existence of its program at
    the full (certified) address length.  ``an``, when given, must be
    ``analysis(phi)``, as for ``translate``.
    """
    if an is None:
        an = analysis(phi)
    addr_len = certified_addr_len(an, deadline=deadline)
    t = translate(phi, addr_len=addr_len, deadline=deadline, an=an)
    witness = has_stable_model(
        t.ground_program, deadline=deadline, branch_priority=_answers_first
    )
    return TranslationVerdict(witness is not None, t, witness)
