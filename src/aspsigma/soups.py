"""Refutation soups as first-class objects: checking, searching, and the two
conversions between soups and stable models of the translated program.  The
search is the Sigma1 prover's: a soup is read off the judgments its last,
failing pass recorded as failed (``proofs.failed_judgments``).

A soup stores addressed disjudgments plus an explicit answer map.  The map is
a checkable witness; validity itself only requires that every asked question
has some valid answer among the members, and the checker falls back to that
existence reading when map entries are missing or malformed.  A context is a
set of alpha keys (``syntax.alpha_key``), so alpha-equivalent members are one;
formulas live only in ``Soup.members``, where a soup file is read or written.

``logic_to_asp.Analysis`` is the one question table: every question (a member
instance psi[S] with a head instance under T) and its answer options (the
challenged subgoal and the instances an answer adds) are tabulated there once
per formula, with its index by head and then member key.  Checking,
searching, both conversions and ``questions_at`` read that table and index;
none of them substitutes into the formula or re-indexes the table.  The
checker indexes a soup's judgments by goal and lists, per asked question and
answer option, the judgments that answer it; the map, the existence reading
and ``model_from_soup`` read those lists.

A soup made here carries the table its answer entries index into:
``find_soup`` attaches the one it searched, ``soup_from_model`` the one of its
translation, and ``parse_soup`` none.  ``check_soup(z, phi)`` reads the carried
table only when it was built from the very object ``phi``
(``Analysis.source is phi``) and builds ``analysis(phi)`` otherwise.  The
table lives as long as the soup does; there is no cache besides.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .engine import AtomKey, Model
from .errors import CapExceeded, CrossCheckError, FormulaError
from .logic_to_asp import (
    Analysis,
    FormulaTranslation,
    QuestionPattern,
    analysis,
    certified_addr_len,
    translate,
)
from .parsing import parse_formula
from .proofs import failed_judgments
from .syntax import (
    AlphaKey,
    AtomF,
    Formula,
    alpha_key,
    fmt_atomf,
    fmt_formula,
    fmt_key,
)

log = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Disjudgment:
    context: frozenset[AlphaKey]  # alpha keys of closed Pi1 instances
    goal: AtomF  # ground atom
    addresses: tuple[str, ...]  # bit strings, all of the soup's length


@dataclass(frozen=True)
class AnswerEntry:
    occ: int
    s_assign: tuple[tuple[str, str], ...]
    t_assign: tuple[tuple[str, str], ...]
    from_addr: str
    index: int  # which premise is challenged, 1-based
    to_addr: str


@dataclass(frozen=True)
class Soup:
    """Addressed disjudgments and an answer map, over addresses of
    ``addr_len`` bits.

    ``analysis`` is the question table of the formula the soup was made for,
    when the soup was made from one, and ``members`` the formula
    ``write_soup`` prints for each context key.  Neither takes part in
    equality, hashing or ``repr``; ``check_soup`` reuses ``analysis`` for
    that formula object only.
    """

    addr_len: int
    judgments: tuple[Disjudgment, ...]
    answers: tuple[AnswerEntry, ...]
    analysis: Analysis | None = field(default=None, compare=False, repr=False)
    members: dict[AlphaKey, Formula] = field(
        default_factory=dict, compare=False, repr=False
    )

    def by_address(self) -> dict[str, Disjudgment]:
        return {a: d for d in self.judgments for a in d.addresses}

    def initial(self) -> Disjudgment | None:
        return self.by_address().get("0" * self.addr_len)


@dataclass(frozen=True)
class SoupReport:
    ok: bool
    diagnostics: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Questions and answers
# ---------------------------------------------------------------------------


def questions_at(d: Disjudgment, an: Analysis) -> tuple[QuestionPattern, ...]:
    """The questions asked at ``d``, in ``an.questions`` order: context
    members whose instantiated head is the goal."""
    return an.asked(d.context, d.goal)


def _entry_key(an: Analysis, e: AnswerEntry):
    """The question a map entry names, as ``QuestionPattern.semantic_key``
    reads it; None when ``S`` names no instance of the member.  Raises
    KeyError when the member asks no question or ``T`` misses a variable."""
    schema = an.sig.schemas[e.occ]
    t = dict(e.t_assign)
    t_key = tuple(t[v] for v in schema.top_vars)
    s = dict(e.s_assign)
    i = an.instance_index.get((e.occ, tuple((v, s.get(v)) for v in schema.free)))
    return None if i is None else (an.instances[i].key, t_key)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def check_soup(z: Soup, phi: Formula) -> SoupReport:
    """Verify the three soup invariants; diagnostics name the first failure.

    The soup's own table is read when it was built from this ``phi`` object;
    identity, not ``==``, which would walk both formulas."""
    an = z.analysis
    if an is None or an.source is not phi:
        an = analysis(phi)
    return _check(z, an)[0]


def _check(z: Soup, an: Analysis) -> tuple[SoupReport, list]:
    """The report of ``check_soup`` and, when it is ok, the answer relation:
    per judgment, the questions it asks in table order, each with, per
    answer option ``opt``, the judgments in soup order whose goal is
    ``opt.subgoal`` and whose context contains the asking context and
    ``opt.tau_keys``."""
    sig = an.sig
    diags: list[str] = []
    seen_addr: set[str] = set()
    for d in z.judgments:
        if not d.addresses:
            diags.append("a judgment carries no address")
        for a in d.addresses:
            if len(a) != z.addr_len or set(a) - {"0", "1"}:
                diags.append(f"malformed address {a!r}")
            elif a in seen_addr:
                diags.append(f"address {a} used by two judgments")
            seen_addr.add(a)
    if diags:
        return _rejected(diags)

    # each distinct member is looked up in the table once: the members of a
    # parsed soup are equal to the table's keys but not the same objects, so
    # each lookup compares a whole key
    members = frozenset().union(*(d.context for d in z.judgments))
    foreign = members.difference(an.key_formula)
    if foreign:
        d = next(d for d in z.judgments if not foreign.isdisjoint(d.context))
        diags.append(
            "context member is not an instantiated subformula: "
            + ", ".join(sorted(fmt_key(key) for key in d.context & foreign))
        )
        return _rejected(diags)

    initial = z.initial()
    if initial is None:
        return _rejected(["no judgment at the initial address"])
    if initial.goal != sig.target:
        diags.append(
            f"initial goal is {fmt_atomf(initial.goal)}, expected "
            f"{fmt_atomf(sig.target)}"
        )
    if initial.context != an.initial_keys:
        diags.append("initial context is not exactly the premise set")
    if diags:
        return _rejected(diags)

    entry_index: dict[tuple, list[AnswerEntry]] = {}
    for e in z.answers:
        try:
            key = _entry_key(an, e)
        except KeyError:
            diags.append(f"answer entry references a bad occurrence: {e}")
            continue
        if key is not None:
            entry_index.setdefault((key, e.from_addr), []).append(e)

    by_goal: dict[AtomF, list[int]] = {}
    for j, d in enumerate(z.judgments):
        by_goal.setdefault(d.goal, []).append(j)
    by_addr = {a: j for j, d in enumerate(z.judgments) for a in d.addresses}
    relation: list[list[tuple[QuestionPattern, list[list[int]]]]] = []
    for d in z.judgments:
        row = []
        relation.append(row)
        for q in an.asked(d.context, d.goal):
            needs = [(opt.subgoal, d.context | opt.tau_keys) for opt in q.answers]
            answerers = [
                [k for k in by_goal.get(g, ()) if n <= z.judgments[k].context]
                for g, n in needs
            ]
            row.append((q, answerers))
            key = q.semantic_key(an)
            mapped = [e for a in d.addresses for e in entry_index.get((key, a), ())]
            for e in mapped:
                j = by_addr.get(e.to_addr)
                if 1 <= e.index <= len(needs) and j in answerers[e.index - 1]:
                    break  # the map answers the question
                diags.append(f"map entry {e} is not a valid answer")
            else:
                if not any(answerers):  # nor does any judgment
                    inst = an.instances[q.inst]
                    diags.append(
                        f"unanswered question (psi{inst.occ}, "
                        f"{_fmt_assign(inst.assign)}, {_fmt_assign(q.t_assign)}) "
                        f"at goal {fmt_atomf(d.goal)}"
                    )
                    return _rejected(diags)
    return SoupReport(True, tuple(diags)), relation


def _rejected(diags: list[str]) -> tuple[SoupReport, list]:
    return SoupReport(False, tuple(diags)), []


# ---------------------------------------------------------------------------
# Searching: the disjudgments the prover's last pass failed
# ---------------------------------------------------------------------------


def _question_options(an: Analysis):
    """Per head, then member key in ``key_text`` order: the questions, one per
    semantic key, with their answer data."""
    out: dict[AtomF, dict[AlphaKey, list[tuple[QuestionPattern, tuple]]]] = {}
    for head, by_key in an.by_head.items():
        at_head = out[head] = {}
        for key in sorted(by_key, key=an.key_text.__getitem__):
            sems: dict[tuple, QuestionPattern] = {}
            for q in by_key[key]:
                sems.setdefault(q.semantic_key(an), q)
            entries = at_head[key] = []
            for q in sems.values():
                opts = tuple(
                    (opt.index, opt.subgoal, opt.tau_keys - an.initial_keys)
                    for opt in q.answers
                )
                entries.append((q, opts))
    return out


def find_soup(
    phi: Formula,
    addr_len: int | None = None,
    deadline: float | None = None,
    an: Analysis | None = None,
) -> Soup | None:
    """A refutation soup for ``phi``, or None when the formula is provable.

    The judgments the prover failed, and those at which the context asks
    no question (the atoms its join prunes), answer the questions; the part
    reachable from the initial judgment is realized with minimal answers.
    ``an``, when given, must be ``analysis(phi)``; the soup carries it.
    """
    if an is None:
        an = analysis(phi)
    sig = an.sig
    # decide first: a provable formula needs no address space and no options
    failed = failed_judgments(sig.phi, deadline)
    if failed is None:
        return None
    if addr_len is None:
        addr_len = certified_addr_len(an, deadline=deadline)
    options = _question_options(an)

    def refuted(need: frozenset, goal: AtomF) -> bool:
        if any(need <= m for m in failed.get(goal, ())):
            return True
        return not an.asked(an.initial_keys | need, goal)

    # realize reachable judgments with minimal answers
    nodes: dict[tuple[frozenset, AtomF], int] = {}
    order: list[tuple[frozenset, AtomF]] = []
    edges: list[tuple[int, QuestionPattern, int, int]] = []  # from, q, index, to

    def node_id(x: frozenset, goal: AtomF) -> int:
        j = (x, goal)
        if j not in nodes:
            if len(nodes) >= 2**addr_len:
                raise CapExceeded(
                    f"soup needs more than 2^{addr_len} addresses",
                    feasible=addr_len,
                )
            nodes[j] = len(order)
            order.append(j)
        return nodes[j]

    node_id(frozenset(), sig.target)
    # breadth first: a judgment is numbered when first reached, and ``order``
    # grows while it is read
    for nid, (x, goal) in enumerate(order):
        # the context's keys that ask at the goal, in ``key_text`` order
        for key, entries in options.get(goal, {}).items():
            if key not in x and key not in an.initial_keys:
                continue
            for q, opts in entries:
                chosen = None
                for index, subgoal, tau_keys in opts:
                    need = x | tau_keys
                    if refuted(need, subgoal):
                        chosen = (index, subgoal, need)
                        break
                assert chosen is not None, "a failed judgment lost its answer"
                index, subgoal, need = chosen
                edges.append((nid, q, index, node_id(need, subgoal)))

    def addr(i: int) -> str:
        return format(i, f"0{addr_len}b")

    judgments = tuple(
        Disjudgment(an.initial_keys | x, goal, (addr(i),))
        for i, (x, goal) in enumerate(order)
    )
    answers = tuple(
        AnswerEntry(
            an.instances[q.inst].occ,
            an.instances[q.inst].assign,
            q.t_assign,
            addr(nid),
            index,
            addr(to_id),
        )
        for nid, q, index, to_id in edges
    )
    return Soup(addr_len, judgments, answers, an, an.key_formula)


# ---------------------------------------------------------------------------
# Conversions between models and soups
# ---------------------------------------------------------------------------


def soup_from_model(m: Model, t: FormulaTranslation) -> Soup:
    """Read the soup a stable model of the translated program describes."""
    mids = t.ground_program.stable_ids(m)
    if mids is None:
        raise FormulaError("the given model is not stable for the translation")
    an = t.analysis
    b = t.builder
    id_of = t.ground_program.ids.get

    def holds(key) -> bool:
        return id_of(key) in mids

    # judgments by (context, goal), with their addresses in ascending order
    grouped: dict[tuple[frozenset, AtomF], list[str]] = {}
    for bits in b.all_addresses():
        goals = [g for g in an.goal_universe if holds(b.goal(g, bits))]
        if len(goals) > 1:
            raise CrossCheckError(f"two goals at address {bits}")
        keys = set()
        for p in an.instances:
            e_in = holds(b.env(p.index, bits))
            ne_in = holds(b.nenv(p.index, bits))
            if e_in == ne_in:
                raise CrossCheckError(
                    f"environment choice for instance {p.index} at {bits} "
                    f"is inconsistent"
                )
            if e_in:
                keys.add(p.key)
        if goals:
            grouped.setdefault((frozenset(keys), goals[0]), []).append(bits)
    judgments = tuple(
        Disjudgment(keys, goal, tuple(addresses))
        for (keys, goal), addresses in grouped.items()
    )

    entries: list[AnswerEntry] = []
    for q in an.active:
        inst = an.instances[q.inst]
        for opt in q.answers:
            for a_from in b.all_addresses():
                for a_to in b.all_addresses():
                    if holds(b.ans(opt.index, q.index, a_from, a_to)):
                        entries.append(
                            AnswerEntry(
                                inst.occ,
                                inst.assign,
                                q.t_assign,
                                a_from,
                                opt.index,
                                a_to,
                            )
                        )
    return Soup(t.addr_len, judgments, tuple(entries), an, an.key_formula)


def model_from_soup(
    z: Soup,
    phi: Formula,
    translation: FormulaTranslation | None = None,
) -> Model:
    """Realize a soup as a stable model of the translated program.

    Untrimmed soups are trimmed to the part reachable from the initial
    judgment (with a notice); unused addresses repeat the last judgment.
    ``translation`` defaults to ``phi``'s at the soup's address length.
    """
    if translation is None:
        translation = translate(phi, addr_len=z.addr_len)
    t = translation
    if t.addr_len != z.addr_len:
        raise FormulaError(
            f"soup uses addresses of length {z.addr_len} but the translation "
            f"has {t.addr_len}"
        )
    an = t.analysis
    report, relation = _check(z, an)
    if not report.ok:
        raise FormulaError(
            "not a valid soup: " + "; ".join(report.diagnostics)
        )

    # trim to the judgments reachable from the initial one through answers;
    # ``answering`` collects the judgments that answer some kept question
    initial = z.judgments.index(z.initial())
    kept = {initial}
    answering: set[int] = set()
    work = [initial]
    while work:
        for q, answerers in relation[work.pop()]:
            for ks in answerers:
                answering.update(ks)
                for k in ks:
                    if k not in kept:
                        kept.add(k)
                        work.append(k)
    if len(kept) < len(z.judgments):
        log.warning(
            "soup has %d unreachable judgments; trimming them",
            len(z.judgments) - len(kept),
        )

    by_addr = {a: j for j in kept for a in z.judgments[j].addresses}
    # fill spare addresses by repeating the last judgment that answers some
    # question; a judgment without that property cannot support a goal atom
    all_addrs = t.builder.all_addresses()
    if answering:
        filler = max(answering, key=lambda j: z.judgments[j].addresses[0])
        for bits in all_addrs:
            by_addr.setdefault(bits, filler)

    b = t.builder
    true_keys: set[AtomKey] = set()  # the keys of the model's atoms

    for bits in all_addrs:
        j = by_addr.get(bits)
        if j is None:
            # dead address: empty environment, no goal
            for p in an.instances:
                true_keys.add(b.nenv(p.index, bits))
            continue
        true_keys.add(b.goal(z.judgments[j].goal, bits))
        for p in an.instances:
            if p.key in z.judgments[j].context:
                true_keys.add(b.env(p.index, bits))
            else:
                true_keys.add(b.nenv(p.index, bits))
        # a kept judgment's goal is the target or a subgoal, so every
        # question asked here has a goal for its head
        for q, answerers in relation[j]:
            true_keys.add(b.q(q.index, bits))
            any_answer = False
            for opt, ks in zip(q.answers, answerers):
                for bits2 in all_addrs:
                    if by_addr.get(bits2) in ks:
                        true_keys.add(b.ans(opt.index, q.index, bits, bits2))
                        any_answer = True
                    else:
                        true_keys.add(b.nans(opt.index, q.index, bits, bits2))
            if any_answer:
                true_keys.add(b.y(q.index, bits))
    g = t.ground_program
    mids = {g.ids.get(key) for key in true_keys}
    mids.update(t.syntax_facts)
    if None in mids or g.reduct_model(mids) != mids:
        raise CrossCheckError("realized model is not stable; translation bug")
    return g.atoms_of(mids)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt_assign(assign) -> str:
    return "[" + ", ".join(f"{v}:={c}" for v, c in assign) + "]"


def _parse_assign(text: str) -> tuple[tuple[str, str], ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise FormulaError(f"bad substitution {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    out = []
    for part in inner.split(","):
        v, _, c = part.partition(":=")
        out.append((v.strip(), c.strip()))
    return tuple(out)


def write_soup(z: Soup) -> str:
    texts: dict[AlphaKey, str] = {}  # each member's, formatted once
    lines = [f"addr-len: {z.addr_len}"]
    for d in z.judgments:
        lines.append("judgment:")
        lines.append("  addresses: " + ", ".join(d.addresses))
        lines.append("  goal: " + fmt_atomf(d.goal))
        lines.append("  context:")
        for k in d.context:
            if k not in texts:
                texts[k] = fmt_formula(z.members[k])
        for text in sorted(texts[k] for k in d.context):
            lines.append("    " + text)
    for e in z.answers:
        lines.append(
            f"answer: (psi{e.occ}, {_fmt_assign(e.s_assign)}, "
            f"{_fmt_assign(e.t_assign)}, {e.from_addr}) -> "
            f"({e.index}, {e.to_addr})"
        )
    return "\n".join(lines) + "\n"


def parse_soup(text: str) -> Soup:
    """Read a soup file; the first formula read for a context key is the
    one ``write_soup`` prints for it.  Each distinct context line is parsed
    once per call."""
    addr_len: int | None = None
    judgments: list[Disjudgment] = []
    answers: list[AnswerEntry] = []
    members: dict[AlphaKey, Formula] = {}
    # each context line is parsed once, and each alpha class has one key
    # object, so the checker's subset tests between contexts meet the same
    # objects and compare them by identity
    line_keys: dict[str, AlphaKey] = {}
    classes: dict[AlphaKey, AlphaKey] = {}
    cur_addrs: list[str] | None = None
    cur_goal: AtomF | None = None
    cur_ctx: list[AlphaKey] = []
    in_context = False

    def flush() -> None:
        nonlocal cur_addrs, cur_goal, cur_ctx, in_context
        if cur_addrs is not None:
            if cur_goal is None:
                raise FormulaError("judgment block without a goal")
            judgments.append(
                Disjudgment(frozenset(cur_ctx), cur_goal, tuple(cur_addrs))
            )
        cur_addrs, cur_goal, cur_ctx, in_context = None, None, [], False

    for raw in text.splitlines():
        stripped = raw.split("%", 1)[0].strip()
        if not stripped:
            continue
        try:
            if stripped.startswith("addr-len:"):
                addr_len = int(stripped.split(":", 1)[1])
            elif stripped == "judgment:":
                flush()
                cur_addrs = []
            elif stripped.startswith("addresses:"):
                if cur_addrs is None:
                    raise FormulaError(f"addresses outside a judgment: {stripped!r}")
                cur_addrs.extend(
                    a.strip() for a in stripped.split(":", 1)[1].split(",") if a.strip()
                )
            elif stripped.startswith("goal:"):
                goal = parse_formula(stripped.split(":", 1)[1])
                if not isinstance(goal, AtomF):
                    raise FormulaError(f"goal is not an atom: {stripped}")
                cur_goal = goal
            elif stripped == "context:":
                in_context = True
            elif stripped.startswith("answer:"):
                flush()
                body = stripped.split(":", 1)[1]
                left, _, right = (part.strip() for part in body.partition("->"))
                if not (left.startswith("(") and left.endswith(")")):
                    raise FormulaError(f"bad answer entry: {stripped}")
                psi, s_txt, t_txt, from_addr = _split_entry(left[1:-1])
                if not psi.startswith("psi"):
                    raise FormulaError(f"bad member id {psi!r}")
                if not (right.startswith("(") and right.endswith(")")):
                    raise FormulaError(f"bad answer entry: {stripped}")
                idx_txt, to_addr = (s.strip() for s in right[1:-1].split(","))
                answers.append(
                    AnswerEntry(
                        int(psi[3:]),
                        _parse_assign(s_txt),
                        _parse_assign(t_txt),
                        from_addr.strip(),
                        int(idx_txt),
                        to_addr.strip(),
                    )
                )
            elif in_context:
                key = line_keys.get(stripped)
                if key is None:
                    member = parse_formula(stripped)
                    key = alpha_key(member)
                    key = line_keys[stripped] = classes.setdefault(key, key)
                    members.setdefault(key, member)
                cur_ctx.append(key)
            else:
                raise FormulaError(f"unexpected soup line: {stripped!r}")
        except ValueError as e:  # a number or a tuple that does not read
            raise FormulaError(f"bad soup line {stripped!r}: {e}") from None
    flush()
    if addr_len is None:
        raise FormulaError("soup file lacks an addr-len header")
    return Soup(addr_len, tuple(judgments), tuple(answers), members=members)


def _split_entry(inner: str) -> tuple[str, str, str, str]:
    parts: list[str] = []
    depth = 0
    cur = ""
    for ch in inner:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur.strip())
            cur = ""
        else:
            cur += ch
    parts.append(cur.strip())
    if len(parts) != 4:
        raise FormulaError(f"bad answer tuple: ({inner})")
    return parts[0], parts[1], parts[2], parts[3]
