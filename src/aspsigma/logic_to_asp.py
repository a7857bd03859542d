"""Compile a Sigma1 formula into a program whose stable models are exactly the
formula's refutation soups over a fixed address space.

A soup is a set of addressed disjudgments ``Gamma |/- a`` in which every
question (a context member whose instantiated target matches the goal) is
answered by challenging one of its premise targets.  The program encodes one
disjudgment per bit-string address: environment membership is a free choice
per (subformula instance, address), questions are recognized from goals and
heads, answer choices propagate environments and goals, and a self-blocking
false atom forces every question to receive an answer.

``translate`` names each atom by a plain key ``(pred, arg name, ...)`` and
emits each clause as an integer row ``(head, pos, neg)`` into an
``engine.GroundProgram``; an atom gets its id the first time a clause meets
it, head first, then the positive body, then the negated body.  The engine
solves those rows as they are, and the soup conversions look atoms up by
key.  ``FormulaTranslation.program`` builds ``Atom`` and ``Clause`` objects
and checks their domain only when it is read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .engine import AtomKey, GroundProgram, Model, has_stable_model
from .errors import CapExceeded, CrossCheckError, FormulaError, check_deadline
from .proofs import prove_sigma1
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
    binder_names,
    const,
    fmt_atomf,
    fmt_formula,
    fmt_key,
    formula_length,
    formula_predicates,
    free_vars,
    occurrences,
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


@dataclass(frozen=True)
class SubgoalInfo:
    index: int  # 1-based premise position
    subgoal: AtomF
    descendants: tuple[int, ...]  # occurrence ids of the premise's own premises
    vars_visible: int


@dataclass(frozen=True)
class QuestionSchema:
    occ: int
    free: tuple[str, ...]  # the member's free variables, sorted
    top_vars: tuple[str, ...]
    head: AtomF
    steps: tuple[SubgoalInfo, ...]


@dataclass(frozen=True)
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


def _question_schema(occs: tuple[Occurrence, ...], idx: int) -> QuestionSchema:
    free = tuple(sorted(free_vars(occs[idx].formula)))
    top_vars: list[str] = []
    steps: list[SubgoalInfo] = []
    cur = idx
    while True:
        f = occs[cur].formula
        if isinstance(f, Forall):
            top_vars.append(f.var)
            cur += 1
        elif isinstance(f, AtomF):
            schema = QuestionSchema(idx, free, tuple(top_vars), f, tuple(steps))
            _validate_schema(occs, schema)
            return schema
        else:
            assert isinstance(f, Impl)
            sigma = cur + 1
            rhs = sigma + occs[sigma].size
            taus: list[int] = []
            s = sigma
            while isinstance(occs[s].formula, Impl):
                taus.append(s + 1)
                s = s + 1 + occs[s + 1].size
            subgoal = occs[s].formula
            if not isinstance(subgoal, AtomF):
                raise FormulaError(
                    f"premise is not Sigma1: {fmt_formula(occs[sigma].formula)}"
                )
            steps.append(
                SubgoalInfo(len(steps) + 1, subgoal, tuple(taus), len(top_vars))
            )
            cur = rhs


def _validate_schema(occs, schema: QuestionSchema) -> None:
    psi_fv = set(schema.free)
    for step in schema.steps:
        visible = psi_fv | set(schema.top_vars[: step.vars_visible])
        assert free_vars(step.subgoal) <= visible
        for tau in step.descendants:
            assert free_vars(occs[tau].formula) <= visible
    assert free_vars(schema.head) <= psi_fv | set(schema.top_vars)


def _signature(phi: Formula) -> SoupSignature:
    """Decompose a Sigma1 formula for the soup machinery.

    The signature holds the domain data, constant pool and sizes, and the
    question schema of every subformula occurrence that can appear in an
    environment: the top-level premises and, transitively, all their premise
    descendants.
    """
    facts = survey(phi)
    if facts.free:
        # free variables are read as constants
        phi = substitute(phi, {v: const(v) for v in facts.free})
    if not facts.sigma1:
        raise FormulaError(f"not a Sigma1 formula: {fmt_formula(phi)}")
    occs = occurrences(phi)
    n = formula_length(phi)
    preds = formula_predicates(phi)
    r = max(preds.values(), default=0)
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
        schema = _question_schema(occs, idx)
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
        tuple(binder_names(phi)),
        tuple(premises),
        target,
        tuple(env_occs),
        schemas,
    )


# ---------------------------------------------------------------------------
# Instance and question tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstancePattern:
    index: int
    occ: int
    assign: tuple[tuple[str, str], ...]  # variable -> constant, restricted to FV
    formula: Formula
    key: AlphaKey  # alpha_key(formula), the semantic identity


@dataclass(frozen=True)
class AnswerOption:
    index: int  # 1-based premise position
    subgoal: AtomF  # ground subgoal instance
    taus: tuple[int, ...]  # instance indices added to the context
    tau_keys: frozenset[AlphaKey]  # their alpha keys


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Analysis:
    """The instance and question tables of a formula, with the indexes their
    readers share; all of it is built once by ``analysis`` and never mutated."""

    sig: SoupSignature
    instances: tuple[InstancePattern, ...]
    questions: tuple[QuestionPattern, ...]
    goal_universe: tuple[AtomF, ...]
    initial_keys: frozenset[AlphaKey]  # keys of the premises, the initial context
    instance_index: dict[tuple[int, tuple], int]  # (occ, assign) -> instance
    key_formula: dict[AlphaKey, Formula]  # key -> its first instance formula
    # key -> its formula's alpha-canonical text, the order keys are listed in
    key_text: dict[AlphaKey, str]
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
    key_text: dict[AlphaKey, str] = {}
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
            if p.key not in key_formula:
                key_formula[p.key] = inst_formula
                key_text[p.key] = fmt_key(p.key)

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
        key_text,
        by_head,
        tuple(q for q in questions if q.head in goals),
        phi,
    )


def reachable_cone(
    an: Analysis, deadline: float | None = None
) -> set[tuple[frozenset, AtomF]]:
    """All judgments reachable from the initial one via minimal answers.

    A judgment is a (context keys, goal) pair; a minimal answer to a question
    extends the context by exactly the instantiated premises of the challenged
    premise and moves to its target.  Every soup can be reshaped to live
    inside this cone, so its size certifies a sufficient address space.
    """
    initial = (an.initial_keys, an.sig.target)
    seen: set[tuple[frozenset, AtomF]] = {initial}
    work = [initial]
    while work:
        check_deadline(deadline, "translation")
        ctx, goal = work.pop()
        for q in an.asked(ctx, goal):
            for opt in q.answers:
                nxt = (ctx | opt.tau_keys, opt.subgoal)
                if nxt not in seen:
                    if len(seen) >= CONE_CAP:
                        raise CapExceeded(
                            f"judgment cone exceeds {CONE_CAP}", feasible=CONE_CAP
                        )
                    seen.add(nxt)
                    work.append(nxt)
    return seen


def certified_addr_len(an: Analysis, deadline: float | None = None) -> int:
    """An address length at which a soup exists whenever one exists at all.

    Every soup can be reshaped into the minimal-answer cone, so addressing
    that cone is complete; the quoted bound n^r (with nullary signatures read
    at arity one) is taken when smaller.
    """
    cone = len(reachable_cone(an, deadline=deadline))
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
        pin, bvars = names.pin, an.sig.bound_vars

        def block(assign: dict[str, str]) -> tuple[str, ...]:
            return tuple([assign.get(v, pin) for v in bvars])

        self.block = block
        self.inst_args = [
            (names.occ_name(p.occ),) + block(dict(p.assign)) for p in an.instances
        ]
        self.q_args = [
            (names.occ_name(an.instances[q.inst].occ),)
            + block(dict(an.instances[q.inst].assign))
            + block(dict(q.t_assign))
            for q in an.questions
        ]
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


@dataclass(frozen=True)
class FormulaTranslation:
    phi: Formula
    analysis: Analysis
    addr_len: int
    full_facts: bool
    ground_program: GroundProgram
    counts: dict[str, int]
    names: "_Names"
    builder: AtomBuilder
    syntax_facts: frozenset[int]  # ids of the heads of families 1-3

    @property
    def sig(self) -> SoupSignature:
        return self.analysis.sig

    @cached_property
    def program(self) -> Program:
        """The emitted clauses over their constant domain, which checks them."""
        names = self.names
        domain = {*names.bits, *self.sig.pool}
        domain.update(names.occ_name(occ) for occ in range(len(self.sig.occs)))
        return Program(self.ground_program.clauses, frozenset(domain))

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


def estimate_emission(an: Analysis, addr_len: int, full_facts: bool = False) -> int:
    a = 2**addr_len
    n_inst = len(an.instances)
    ans_pairs = sum(len(q.answers) for q in an.active) * a * a
    total = 0
    # facts 1-3
    for q in an.questions:
        k = len(q.answers)
        taus = sum(len(opt.taus) for opt in q.answers)
        mult = 1
        if full_facts:
            inst = an.instances[q.inst]
            schema = an.sig.schemas[inst.occ]
            irrelevant = (
                2 * len(an.sig.bound_vars)
                - len(inst.assign)
                - len(schema.top_vars)
            )
            mult = len(an.sig.pool) ** irrelevant
        total += (taus + k + 1) * mult
    total += 1 + n_inst  # families 4-6: the goal, and env or nenv per instance
    total += ans_pairs * (n_inst + 1 + 1 + 2 + 1)  # families 7, 8-ish, 9, 12, 15
    total += n_inst * a * 3  # families 10, 11
    total += len(an.active) * a * 2  # families 13, 14
    g = len(an.goal_universe)
    total += (g * (g - 1) // 2) * a  # family 16
    return total


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
    ``min(certified, 4)``.  An estimate above ``EMISSION_CAP`` clauses raises
    ``CapExceeded`` with the longest feasible address length.

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
    est = estimate_emission(an, addr_len, full_facts)
    if est > EMISSION_CAP:
        feasible = None
        for l in range(addr_len - 1, 0, -1):
            if estimate_emission(an, l, full_facts) <= EMISSION_CAP:
                feasible = l
                break
        raise CapExceeded(
            f"emission of ~{est} clauses exceeds the cap {EMISSION_CAP} "
            f"at address length {addr_len}",
            feasible=feasible,
        )
    names = _Names(an)
    sig = an.sig
    pool = sig.pool
    bvars = sig.bound_vars
    b = AtomBuilder(an, names, addr_len)

    addresses = b.all_addresses()
    zero_bits = addresses[0]

    env, nenv = b.env, b.nenv
    q_atom, y_atom = b.q, b.y
    ans, nans = b.ans, b.nans
    goal_atom = b.goal
    q_args = b.q_args
    block = b.block

    f_atom = ("f",)

    heads: list[int] = []
    pos: list[tuple[int, ...]] = []
    neg: list[tuple[int, ...]] = []
    counts: dict[str, int] = {}

    # the next id for a key met the first time
    ids = b.ids
    sd = ids.setdefault

    def emit(family: str, head: AtomKey, body=(), negated=()) -> None:
        heads.append(sd(head, len(ids)))
        pos.append(tuple([sd(a, len(ids)) for a in body]))
        neg.append(tuple([sd(a, len(ids)) for a in negated]))
        counts[family] = counts.get(family, 0) + 1
        if len(heads) % 4096 == 0:
            check_deadline(deadline, "translation")

    # families 1-3: syntax facts (descendants, subgoals, heads)
    def filled_blocks(p: InstancePattern, t_assign) -> list[tuple[dict, dict]]:
        if not full_facts:
            return [(dict(p.assign), dict(t_assign))]
        schema = sig.schemas[p.occ]
        s_rel = {v for v, _ in p.assign}
        t_rel = set(schema.top_vars)
        s_free = [v for v in bvars if v not in s_rel]
        t_free = [v for v in bvars if v not in t_rel]
        out = []
        for s_fill in itertools.product(pool, repeat=len(s_free)):
            for t_fill in itertools.product(pool, repeat=len(t_free)):
                s = dict(p.assign)
                s.update(zip(s_free, s_fill))
                t = dict(t_assign)
                t.update(zip(t_free, t_fill))
                out.append((s, t))
        return out

    for q in an.questions:
        p = an.instances[q.inst]
        for s_map, t_map in filled_blocks(p, q.t_assign):
            s_blk, t_blk = block(s_map), block(t_map)
            base_args = (names.occ_name(p.occ),) + s_blk + t_blk
            for opt in q.answers:
                for tau_idx in opt.taus:
                    tau = an.instances[tau_idx]
                    u_blk = block(dict(tau.assign))
                    emit(
                        "01_descendant",
                        (f"di{opt.index}", names.occ_name(tau.occ), names.occ_name(p.occ))
                        + s_blk
                        + t_blk
                        + u_blk,
                    )
                emit(
                    "02_subgoal",
                    (names.subgoal_pred(opt.index, opt.subgoal),) + base_args,
                )
            emit("03_head", (names.head_pred(q.head),) + base_args)
    syntax_facts = frozenset(heads)

    # families 4-6: the initial judgment at address 0...0
    # an instance is in the initial context when its key is, as in the soup
    # layer, so a repeated premise key also puts its other occurrences there
    emit("04_initial_goal", goal_atom(sig.target, zero_bits))
    for p in an.instances:
        if p.key in an.initial_keys:
            emit("05_initial_env", env(p.index, zero_bits))
    for p in an.instances:
        if p.key not in an.initial_keys:
            emit("06_initial_nenv", nenv(p.index, zero_bits))

    # families 7-9: answers propagate environments and set goals
    for q in an.active:
        qi = q.index
        for opt in q.answers:
            sg_atom = (names.subgoal_pred(opt.index, opt.subgoal),) + q_args[qi]
            for a_from in addresses:
                for a_to in addresses:
                    a_atom = ans(opt.index, qi, a_from, a_to)
                    for p in an.instances:
                        emit(
                            "07_env_propagation",
                            env(p.index, a_to),
                            (a_atom, env(p.index, a_from)),
                        )
                    for tau_idx in opt.taus:
                        tau = an.instances[tau_idx]
                        d_atom = (
                            f"di{opt.index}",
                            names.occ_name(tau.occ),
                            names.occ_name(an.instances[q.inst].occ),
                        ) + q_args[qi][1:] + block(dict(tau.assign))
                        emit(
                            "08_env_descendants",
                            env(tau_idx, a_to),
                            (a_atom, d_atom),
                        )
                    emit(
                        "09_goal_of_answer",
                        goal_atom(opt.subgoal, a_to),
                        (a_atom, sg_atom),
                    )

    # families 10-11: environment choice and its exclusivity
    for p in an.instances:
        for addr in addresses:
            e, ne = env(p.index, addr), nenv(p.index, addr)
            emit("10_env_choice", e, (), (ne,))
            emit("10_env_choice", ne, (), (e,))
            emit("11_env_conflict", f_atom, (e, ne), (f_atom,))

    # family 12: answer choice, guarded by the question
    for q in an.active:
        for opt in q.answers:
            for a_from in addresses:
                guard = q_atom(q.index, a_from)
                for a_to in addresses:
                    a_atom = ans(opt.index, q.index, a_from, a_to)
                    na_atom = nans(opt.index, q.index, a_from, a_to)
                    emit("12_answer_choice", a_atom, (guard,), (na_atom,))
                    emit("12_answer_choice", na_atom, (guard,), (a_atom,))

    # families 13-15: question recognition and the everything-answered rule
    for q in an.active:
        hd_atom = (names.head_pred(q.head),) + q_args[q.index]
        for addr in addresses:
            emit(
                "13_question",
                q_atom(q.index, addr),
                (env(q.inst, addr), hd_atom, goal_atom(q.head, addr)),
            )
            emit(
                "14_must_answer",
                f_atom,
                (q_atom(q.index, addr),),
                (y_atom(q.index, addr), f_atom),
            )
        for opt in q.answers:
            for a_from in addresses:
                for a_to in addresses:
                    emit(
                        "15_answered",
                        y_atom(q.index, a_from),
                        (ans(opt.index, q.index, a_from, a_to),),
                    )

    # family 16: at most one goal per address
    for g1, g2 in itertools.combinations(an.goal_universe, 2):
        for addr in addresses:
            emit(
                "16_unique_goal",
                f_atom,
                (goal_atom(g1, addr), goal_atom(g2, addr)),
                (f_atom,),
            )

    gp = GroundProgram(b.ids, heads, pos, neg)
    return FormulaTranslation(
        sig.phi, an, addr_len, full_facts, gp, counts, names, b, syntax_facts
    )


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


@dataclass(frozen=True)
class TranslationVerdict:
    refutable: bool
    translation: FormulaTranslation  # the program that was solved
    witness: Model | None

    @property
    def addr_len(self) -> int:
        return self.translation.addr_len

    @property
    def provable(self) -> bool:
        return not self.refutable


def decide_by_translation(
    phi: Formula,
    deadline: float | None = None,
    cross_check: bool = True,
    an: Analysis | None = None,
) -> TranslationVerdict:
    """Refutability of ``phi`` via stable-model existence of its program.

    Uses the full (certified) address length, and asserts the verdict against
    direct proof search unless ``cross_check`` is disabled.  ``an``, when
    given, must be ``analysis(phi)``, as for ``translate``.
    """
    if an is None:
        an = analysis(phi)
    addr_len = certified_addr_len(an, deadline=deadline)
    t = translate(phi, addr_len=addr_len, deadline=deadline, an=an)
    witness = has_stable_model(
        t.ground_program, deadline=deadline, branch_priority=_answers_first
    )
    refutable = witness is not None
    if cross_check:
        cert = prove_sigma1(phi, deadline=deadline)
        if (cert is None) != refutable:
            raise CrossCheckError(
                f"translation says refutable={refutable} but proof search "
                f"says provable={cert is not None} for {fmt_formula(phi)}"
            )
    return TranslationVerdict(refutable, t, witness)
