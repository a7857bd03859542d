"""Brute-force oracles shared by the tests.

``naive_ground`` shares no code with ``engine.ground``: it builds every
instance as a ``Clause`` and drops the ones equal to an earlier instance.
``ground`` must give its clauses and base, and through ``lemmas.from_clauses``
its rows.

``naive_stable_models`` shares no code with ``aspsigma.engine``'s grounding or
search: it tries every subset of ``naive_ground``'s base against a naive
reduct fixpoint, so it is exponential in the base and only meant for small
programs.

``naive_questions_at`` shares no code with ``logic_to_asp.analysis``'s question
table: it substitutes every combination of pool constants into every member
schema, once per judgment.

``scan_questions`` is the linear scan the soup layer ran over that table before
``Analysis`` indexed it by head and member key.  ``reference_answer_relation``
is the scan the soup checker and realizer made before the checker indexed a
soup's judgments by goal: every judgment against every answer option
(``_meets``).

``reference_find_soup`` is the soup search as it was before ``find_soup``
read its survivors off the prover's last failing pass: a greatest fixpoint
that deletes unsupportable candidate disjudgments from the whole candidate
space (``reference_antichains``), with its own candidate cap, then realizes
the reachable part with minimal answers.  Where it finishes, ``find_soup``
must give the same soup.

``reference_attempts`` is the Sigma1 search's member enumeration as it was
before the search became one flat loop: a generator per judgment, one per
member and one per joined premise.  At every judgment, ``proofs._Prover``'s
``attempts`` must give what it yields, in the same order.

``reference_run`` is the Sigma1 search's loop of passes as it was before the
search stopped on an unfounded pass: every premise that asks the judgment being
expanded is sent back into the search to be cut, and passes repeat until the
solved table stops growing.  It files each solved judgment under the members
its proof uses, as the library does.  ``proofs._Prover.run`` must give its
verdict and, through ``extract``, its certificate.

``reference_extract``, ``reference_infer`` with ``reference_check_explain``,
``reference_is_lnf`` and ``reference_fmt_term`` are the certificate path as
it was before it kept its own stacks: one call per proof level or node, and
one ``Environment.bind`` copy of the scope per proof abstraction.
``proofs._Prover.extract``, ``check_explain``, ``is_lnf`` and ``fmt_term``
must give what they give, trail texts included.  ``reference_parse_term``
below is the recursive descent that ``parse_term`` is compared with.

``reference_alpha_key`` is the key-only walk ``syntax.alpha_key`` made before
the key was read from ``syntax.survey``; ``peel_sigma1`` and ``decompose_pi1``
are the checked decompositions the prover used before ``survey`` decided the
class and ``impl_spine``/``pi1_spine`` split without checking.

``reference_rectify`` is ``syntax.rectify`` as it was before it counted its
fresh names: every rename searched for a free ``x<i>`` from ``x1`` again.
``rectify`` must give what it gives.  ``reference_substitute`` is
``syntax.substitute`` as it was before it shared one rebuild walk with
``rectify``: one call per premise, and a second walk to rename a binder that
would capture.  That walk then substituted into the renamed body again, so it
is the reference for constant-valued mappings only, which are all the
library makes; ``binder_names`` lists a formula's binders, which it avoided.

``reference_clauses`` is ``engine.GroundProgram.clauses`` as it was before it
decoded in bulk: one ``negate`` per negated occurrence and, for a program
without a source (the formula translation), three lists per row.  The bulk
decode must give the same clauses, in the same order.

``reference_classify``, ``reference_constants`` and ``reference_alpha_canon``
are the walks the library used before it read each fact off ``survey``: the
two grammar recursions behind ``classify``, the walk that collected the
constants ``rectify`` avoids and the soup signature pools, and the binder
renaming whose printed text ``Analysis.key_text`` and the soup checker used.
``survey`` must agree with the first two, two alpha keys must be equal exactly
when ``reference_alpha_canon`` makes their formulas equal, and
``syntax.fmt_key`` must print the text of that canonical formula.

``reference_occurrences`` is the recursive walk ``syntax.occurrences`` made
before it kept its own stack; both must list the same occurrences, sizes
included, in the same order.

``reference_fmt_formula`` and ``reference_fmt_key`` are the two printers as
they were before they kept their own stacks: one call per parenthesized
premise.  ``syntax.fmt_formula`` and ``syntax.fmt_key`` must print the same
text.

``reference_search`` is the stable-model search as it was before the engine
kept its bounds on a trail: every propagation round recomputes ``lower`` and
``upper`` with two full least-fixpoint passes (``lower_upper``), and every
child copies the whole assignment dict.  ``engine._search`` must yield what it
yields, in the same order, and ``propagate`` is the per-node reference for
``engine._Propagator``.

``reference_translate`` is ``logic_to_asp.translate`` as it was before it
numbered atoms through id tables: one ``emit`` call per clause, which builds
the key of every atom occurrence, looks it up in the atom table, counts the
clause's family and checks the deadline.  ``translate`` must give the same
atom table, rows, family counts and syntax facts.  ``reference_signature_facts``
reads the formula length, the predicate arities
(``reference_formula_predicates``, whose ``ArityError`` the library must
raise), the binder names and each occurrence's free variables with a walk
each, as ``_signature`` did before one pass over the occurrences gave them;
``reference_validate_schema`` is the scope check it ran on each schema with
``free_vars``.

``reference_tokenize``, ``reference_parse_program``,
``reference_parse_ground_atom``, ``reference_parse_formula`` and
``reference_parse_term`` are the parsers as they were before ``parsing.scan``
read a text with one regular expression: a character loop that builds a
``ReferenceToken`` per token, a cursor object over them and a recursive
descent, with every parsed formula rectified and every program built through
``make_program``.  The one-pass parsers must give what they give: the same
result, or a ``ParseError`` with the same message, line and column.
"""

import itertools
from dataclasses import dataclass

from aspsigma import engine, logic_to_asp, proofs
from aspsigma.errors import (
    ArityError,
    CapExceeded,
    FormulaError,
    ParseError,
    check_deadline,
)
from aspsigma.logic_to_asp import analysis, certified_addr_len
from aspsigma.proofs import OAbs, OApp, PAbs, PApp, ProofTerm, PVar
from aspsigma.soups import AnswerEntry, Disjudgment, Soup, _question_options
from aspsigma.syntax import (
    Atom,
    AtomF,
    Clause,
    Forall,
    Formula,
    Impl,
    MintsClass,
    Occurrence,
    Program,
    Term,
    alpha_key,
    const,
    fmt_formula,
    forall_chain,
    formula_length,
    free_vars,
    impl_spine,
    is_program_variable_name,
    make_program,
    occurrences,
    pi1_spine,
    rectify,
    substitute,
    var,
)


def subsets(atoms):
    atoms = sorted(atoms)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        yield frozenset(a for a, b in zip(atoms, bits) if b)


def _instance(a, binding):
    args = tuple(const(binding[t.name]) if t.var else t for t in a.args)
    return Atom(a.pred, args, a.negated)


def naive_ground(p):
    """The ground clauses of ``p`` in order and its base.

    Every substitution of the domain into a clause's sorted variables is
    built as a ``Clause`` and kept unless an equal one came first.  More than
    ``engine.GROUND_CAP`` instances raise ``CapExceeded`` before the clause
    that would pass the cap is instantiated.
    """
    dom = sorted(p.domain)
    out, seen, count = [], set(), 0
    for clause in p.clauses:
        cvars = sorted(clause.variables())
        count += len(dom) ** len(cvars)
        if count > engine.GROUND_CAP:
            raise CapExceeded(
                f"grounding would exceed {engine.GROUND_CAP} clauses",
                feasible=engine.GROUND_CAP,
            )
        for combo in itertools.product(dom, repeat=len(cvars)):
            binding = dict(zip(cvars, combo))
            g = Clause(
                _instance(clause.head, binding),
                tuple(_instance(a, binding) for a in clause.body),
            )
            if g not in seen:
                seen.add(g)
                out.append(g)
    base = frozenset(
        Atom(pred, tuple(const(c) for c in combo))
        for pred, arity in p.predicates().items()
        for combo in itertools.product(dom, repeat=arity)
    )
    return tuple(out), base


def reference_clauses(g):
    """The clauses of the ground program ``g``, decoded from its atom keys."""
    atoms = [Atom(key[0], tuple(const(n) for n in key[1:])) for key in g.ids]
    nots = {i: atoms[i].negate() for ns in g.neg for i in ns}
    rows = zip(g.heads, g.pos, g.neg)
    out = []
    if g._source is None:
        for h, ps, ns in rows:
            last = ns[-1:] if ns and ns[-1] == h else ()
            body = [nots[b] for b in ns[: len(ns) - len(last)]]
            body += [atoms[b] for b in ps]
            body += [nots[b] for b in last]
            out.append(Clause(atoms[h], tuple(body)))
    else:
        start = 0
        for end, signs in g._source[1]:
            for h, ps, ns in itertools.islice(rows, end - start):
                ps, ns = iter(ps), iter(ns)
                body = [nots[next(ns)] if s else atoms[next(ps)] for s in signs]
                out.append(Clause(atoms[h], tuple(body)))
            start = end
    return tuple(out)


def naive_stable_models(p):
    """The set of stable models of ``p``, by subset enumeration."""
    clauses, base = naive_ground(p)
    found = set()
    for m in subsets(base):
        reduct = []
        for c in clauses:
            if any(b.negated and b.positive() in m for b in c.body):
                continue
            reduct.append((c.head, [b for b in c.body if not b.negated]))
        interp = set()
        changed = True
        while changed:
            changed = False
            for head, body in reduct:
                if head not in interp and all(b in interp for b in body):
                    interp.add(head)
                    changed = True
        if interp == m:
            found.add(m)
    return found


def naive_questions_at(d, sig):
    """The (occurrence, S, T) triples asked at judgment ``d``, by substitution.

    ``sig`` is the formula's ``SoupSignature``; a triple is asked when the
    member instance psi[S] is in the context (up to alpha-equivalence) and its
    head under S and T is the goal.
    """
    keys = d.context
    out = []
    for occ in sig.env_occs:
        schema = sig.schemas[occ]
        fv = sorted(free_vars(sig.occs[occ].formula))
        for s_combo in itertools.product(sig.pool, repeat=len(fv)):
            s_assign = tuple(zip(fv, s_combo))
            s_map = {v: const(c) for v, c in s_assign}
            if alpha_key(substitute(sig.occs[occ].formula, s_map)) not in keys:
                continue
            for t_combo in itertools.product(sig.pool, repeat=len(schema.top_vars)):
                t_assign = tuple(zip(schema.top_vars, t_combo))
                full = dict(s_map)
                full.update({v: const(c) for v, c in t_assign})
                if substitute(schema.head, full) == d.goal:
                    out.append((occ, s_assign, t_assign))
    return out


def scan_questions(an, keys, goal):
    """The questions of ``an`` whose member key is in ``keys`` and whose head
    is ``goal``, by one pass over the whole table."""
    return tuple(
        q
        for q in an.questions
        if q.head == goal and an.instances[q.inst].key in keys
    )


def _meets(need, target, target_keys) -> bool:
    subgoal, keys = need
    return target.goal == subgoal and keys <= target_keys


def reference_answer_relation(z, an):
    """Per judgment of the soup ``z``, its questions (``scan_questions``) each
    with, per answer option, the indices of the judgments that answer it: a
    goal that is the option's subgoal and a context that contains the asking
    context and the option's tau keys; by a scan of every judgment."""
    keys = [d.context for d in z.judgments]
    out = []
    for d, d_keys in zip(z.judgments, keys):
        row = []
        for q in scan_questions(an, d_keys, d.goal):
            needs = [(opt.subgoal, d_keys | opt.tau_keys) for opt in q.answers]
            answerers = [
                [k for k, other in enumerate(z.judgments) if _meets(need, other, keys[k])]
                for need in needs
            ]
            row.append((q, answerers))
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# The soup search as a greatest fixpoint over candidate disjudgments
# ---------------------------------------------------------------------------

REFERENCE_CANDIDATE_CAP = 100_000  # candidate extensions the deletion may add


def reference_antichains(an, options, deadline=None, schedule="forward"):
    """Maximal surviving context extensions per goal.

    Candidates are (initial context + X, goal); a candidate survives while all
    its questions (``options``, from ``soups._question_options``) have
    surviving answers.  Survivors are downward closed in X, so each goal keeps
    an antichain of maximal extension sets.  The deletion order must not
    matter; ``schedule`` ("forward" or "reverse") picks a scan order.
    """
    added_universe = frozenset(an.key_formula) - an.initial_keys
    chains = {g: [added_universe] for g in an.goal_universe}
    work = 0

    def answered(x, opts):
        for index, subgoal, tau_keys in opts:
            need = x | tau_keys
            if any(need <= m for m in chains.get(subgoal, ())):
                return True
        return False

    def survives(x, goal):
        for key, entries in options.get(goal, {}).items():
            if key in x or key in an.initial_keys:
                for q, opts in entries:
                    if not answered(x, opts):
                        return False
        return True

    changed = True
    while changed:
        changed = False
        goals = list(chains)
        if schedule == "reverse":
            goals.reverse()
        for g in goals:
            row = chains[g]
            if schedule == "reverse":
                row = list(reversed(row))
            for x in list(row):
                if x not in chains[g]:
                    continue
                check_deadline(deadline, "soup search")
                if survives(x, g):
                    continue
                chains[g].remove(x)
                changed = True
                for e in sorted(x, key=an.key_text.__getitem__):
                    sub = x - {e}
                    if not any(sub <= m for m in chains[g]):
                        chains[g].append(sub)
                        work += 1
                        if work > REFERENCE_CANDIDATE_CAP:
                            raise CapExceeded(
                                f"soup candidate space exceeded {REFERENCE_CANDIDATE_CAP}",
                                feasible=REFERENCE_CANDIDATE_CAP,
                            )
    return chains


def reference_find_soup(phi, addr_len=None, deadline=None, an=None):
    """A refutation soup for ``phi``, or None when the formula is provable:
    unsupportable candidate disjudgments are deleted until the survivors are
    self-supporting (``reference_antichains``), and the reachable part is
    realized with minimal answers."""
    if an is None:
        an = analysis(phi)
    sig = an.sig
    if addr_len is None:
        addr_len = certified_addr_len(an, deadline=deadline)
    options = _question_options(an)
    chains = reference_antichains(an, options, deadline)
    if not any(frozenset() <= m for m in chains.get(sig.target, ())):
        return None

    nodes = {}
    order = []
    edges = []  # from, q, index, to

    def node_id(x, goal):
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

    root = node_id(frozenset(), sig.target)
    queue = [root]
    processed = set()
    while queue:
        nid = queue.pop(0)
        if nid in processed:
            continue
        processed.add(nid)
        x, goal = order[nid]
        for key, entries in options.get(goal, {}).items():
            if key not in x and key not in an.initial_keys:
                continue
            for q, opts in entries:
                chosen = None
                for index, subgoal, tau_keys in opts:
                    need = x | tau_keys
                    if any(need <= m for m in chains.get(subgoal, ())):
                        chosen = (index, subgoal, need)
                        break
                assert chosen is not None, "survivor question lost its answer"
                index, subgoal, need = chosen
                to_id = node_id(need, subgoal)
                queue.append(to_id)
                edges.append((nid, q, index, to_id))

    def addr(i):
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
# The stable-model search with bounds recomputed from scratch each round
# ---------------------------------------------------------------------------

UNKNOWN, TRUE, FALSE = 0, 1, 2


def lfp(comp, usable, seeds=None, excluded=None):
    """Least model of the positive parts of the usable clauses of ``comp``.

    ``seeds`` are taken as given facts; atoms in ``excluded`` are never
    derived (and so never feed positive bodies).
    """
    counts = comp.pos_need[:]
    derived = set(seeds or ())
    queue = list(derived)
    for ci in range(len(comp.heads)):
        if usable[ci] and counts[ci] == 0:
            h = comp.heads[ci]
            if h not in derived and (excluded is None or h not in excluded):
                derived.add(h)
                queue.append(h)
    while queue:
        a = queue.pop()
        for ci in comp.watch[a]:
            counts[ci] -= 1
            if counts[ci] == 0 and usable[ci]:
                h = comp.heads[ci]
                if h not in derived and (excluded is None or h not in excluded):
                    derived.add(h)
                    queue.append(h)
    return derived


def clauses_by_head(comp):
    by_head = {}
    for ci, h in enumerate(comp.heads):
        by_head.setdefault(h, []).append(ci)
    return by_head


def lower_upper(comp, assign):
    """The lower fixpoint (clauses whose negative bodies are all assigned
    false, seeded with the true atoms) and the upper fixpoint (clauses with no
    true negated atom, false atoms underivable) of a partial ``assign``."""
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
    return lfp(comp, sure, seeds), lfp(comp, poss, None, excluded)


def propagate(comp, neg_atoms, by_head, assign):
    """Extend ``assign`` in place to its propagation fixpoint; return the
    final ``(lower, upper)``, or None on a conflict."""
    while True:
        lower, upper = lower_upper(comp, assign)
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
            for ci in by_head.get(a, ()):
                if not all(b in lower for b in comp.pos[ci]):
                    continue
                open_negs = [b for b in comp.neg_sets[ci] if assign[b] == UNKNOWN]
                if len(open_negs) == 1 and all(
                    assign[b] == FALSE for b in comp.neg_sets[ci] if b != open_negs[0]
                ):
                    if assign[open_negs[0]] == UNKNOWN:
                        assign[open_negs[0]] = TRUE
                        changed = True
        if not changed:
            return lower, upper


def reference_search(g, branch_priority=None):
    """Every stable model of ``g`` in the order the engine's search yields them."""
    comp = g.compiled()
    neg_atoms = list(comp.negated)
    if branch_priority is not None:
        neg_atoms.sort(key=lambda a: (branch_priority(g.atom(a)), a))
    by_head = clauses_by_head(comp)

    def leaf_model(assign):
        usable = [all(assign[a] == FALSE for a in ns) for ns in comp.neg_sets]
        derived = lfp(comp, usable)
        for a in neg_atoms:
            if (a in derived) != (assign[a] == TRUE):
                return None
        return g.atoms_of(derived)

    def choose(assign, lower, upper):
        for t in neg_atoms:
            if assign[t] != TRUE or t in lower:
                continue
            for ci in by_head.get(t, ()):
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

    stack = [{a: UNKNOWN for a in neg_atoms}]
    while stack:
        assign = stack.pop()
        bounds = propagate(comp, neg_atoms, by_head, assign)
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


# ---------------------------------------------------------------------------
# Formula walks
# ---------------------------------------------------------------------------


def reference_alpha_key(f):
    """The alpha key of ``f`` by a walk that emits the key and nothing else."""
    out = []
    binders = 0
    ren = {}
    stack = []
    g = f
    while True:
        if isinstance(g, Impl):
            out.append(0)
            stack.append((g.rhs, ren))
            g = g.lhs
            continue
        if isinstance(g, Forall):
            binders += 1
            ren = {**ren, g.var: binders}
            out.append(1)
            g = g.body
            continue
        out += [g.pred, len(g.args)]
        for t in g.args:
            if not t.var:
                out.append(t.name)
            elif t.name in ren:
                out.append(ren[t.name])
            else:
                out += [None, t.name]
        if not stack:
            return tuple(out)
        g, ren = stack.pop()


def reference_occurrences(f):
    """Every subformula occurrence of ``f``, in preorder, by recursion."""
    out = []

    def walk(g):
        my = len(out)
        out.append(None)
        if isinstance(g, AtomF):
            size = 1
        elif isinstance(g, Impl):
            size = 1 + walk(g.lhs) + walk(g.rhs)
        elif isinstance(g, Forall):
            size = 1 + walk(g.body)
        else:
            raise TypeError(g)
        out[my] = Occurrence(my, g, size)
        return size

    walk(f)
    return tuple(out)


def reference_fmt_formula(f):
    """``syntax.fmt_formula`` as it was before it kept its own stack: a loop
    down the conclusions, and a call per parenthesized premise."""
    parts = []
    while True:
        if isinstance(f, AtomF):
            parts.append(f.pred + "(" + ",".join(t.name for t in f.args) + ")" if f.args else f.pred)
            return "".join(parts)
        if isinstance(f, Impl):
            lhs = reference_fmt_formula(f.lhs)
            if not isinstance(f.lhs, AtomF):
                lhs = f"({lhs})"
            parts.append(f"{lhs} -> ")
            f = f.rhs
        elif isinstance(f, Forall):
            parts.append(f"forall {f.var}. ")
            f = f.body
        else:
            raise TypeError(f)


def reference_fmt_key(key):
    """``syntax.fmt_key`` as it was before it printed in one pass: a call per
    premise, each returning its text and the index after it."""
    binders = 0

    def walk(i):
        nonlocal binders
        parts = []
        while True:
            tag = key[i]
            if tag == 0:  # an implication
                atom = type(key[i + 1]) is str
                lhs, i = walk(i + 1)
                parts.append(f"{lhs} -> " if atom else f"({lhs}) -> ")
            elif tag == 1:  # a quantifier
                binders += 1
                parts.append(f"forall ${binders}. ")
                i += 1
            else:
                break
        n, i = key[i + 1], i + 2
        args = []
        for _ in range(n):
            t = key[i]
            if t is None:
                args.append(key[i + 1])
                i += 2
            else:
                args.append(f"${t}" if type(t) is int else t)
                i += 1
        parts.append(tag + "(" + ",".join(args) + ")" if args else tag)
        return "".join(parts), i

    return walk(0)[0]


def reference_constants(f):
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, AtomF):
            out |= {t.name for t in g.args if not t.var}
        elif isinstance(g, Impl):
            stack.append(g.lhs)
            stack.append(g.rhs)
        elif isinstance(g, Forall):
            stack.append(g.body)
        else:
            raise TypeError(g)
    return out


def binder_names(f):
    """All quantifier variable names, in preorder."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Impl):
            stack.append(g.rhs)
            stack.append(g.lhs)
        elif isinstance(g, Forall):
            out.append(g.var)
            stack.append(g.body)
    return out


def reference_substitute(f, mapping):
    """``substitute`` as it was before it shared a walk with ``rectify``: a
    call per premise, and a binder that would capture renamed by a walk of
    its own before the mapping goes on into the renamed body (which is
    wrong when the mapping has a key named like the fresh binder)."""

    def fresh_name(taken):
        i = 1
        while f"x{i}" in taken:
            i += 1
        return f"x{i}"

    def walk(g, m):
        premises = []
        binder_runs = [[]]
        while True:
            if not m:
                out = g
                break
            if isinstance(g, Forall):
                m = {k: v for k, v in m.items() if k != g.var}
                name = g.var
                if any(v.var and v.name == name for v in m.values()):
                    fresh = fresh_name(
                        free_vars(g.body)
                        | {v.name for v in m.values()}
                        | set(binder_names(g.body))
                    )
                    g = walk(g.body, {name: var(fresh)})
                    name = fresh
                else:
                    g = g.body
                binder_runs[-1].append(name)
            elif isinstance(g, Impl):
                premises.append(walk(g.lhs, m))
                binder_runs.append([])
                g = g.rhs
            elif isinstance(g, AtomF):
                args = tuple(m[t.name] if t.var and t.name in m else t for t in g.args)
                out = AtomF(g.pred, args)
                break
            else:
                raise TypeError(g)
        for run, prem in zip(
            reversed(binder_runs), itertools.chain([None], reversed(premises))
        ):
            if prem is not None:
                out = Impl(prem, out)
            out = forall_chain(run, out)
        return out

    return walk(f, dict(mapping))


def reference_rectify(f):
    """``rectify`` as it was before it kept a count of the fresh names: each
    rename takes the first ``x<i>``, counting from ``x1``, outside the taken
    names and the binders so far, so a formula with ``n`` renames costs
    ``n`` squared."""
    taken = free_vars(f) | reference_constants(f)
    used_binders = set()

    def fresh_name(avoid):
        i = 1
        while f"x{i}" in avoid:
            i += 1
        return f"x{i}"

    def walk(g, ren):
        premises = []
        binder_runs = [[]]
        ren = dict(ren)
        while True:
            if isinstance(g, Forall):
                name = g.var
                if name in taken or name in used_binders:
                    name = fresh_name(taken | used_binders)
                used_binders.add(name)
                if name != g.var:
                    ren[g.var] = name
                else:
                    ren.pop(g.var, None)
                binder_runs[-1].append(name)
                g = g.body
            elif isinstance(g, Impl):
                premises.append(walk(g.lhs, ren))
                binder_runs.append([])
                g = g.rhs
            elif isinstance(g, AtomF):
                args = tuple(
                    var(ren[t.name]) if t.var and t.name in ren else t
                    for t in g.args
                )
                out = AtomF(g.pred, args)
                for run, prem in zip(
                    reversed(binder_runs), itertools.chain([None], reversed(premises))
                ):
                    if prem is not None:
                        out = Impl(prem, out)
                    out = forall_chain(run, out)
                return out
            else:
                raise TypeError(g)

    return walk(f, {})


def reference_alpha_canon(f):
    """Rename binders to a canonical sequence; alpha-equal formulas coincide."""
    counter = [0]

    def walk(g, ren):
        premises = []
        binder_runs = [[]]
        ren = dict(ren)
        while True:
            if isinstance(g, Forall):
                counter[0] += 1
                name = f"${counter[0]}"
                ren[g.var] = name
                binder_runs[-1].append(name)
                g = g.body
            elif isinstance(g, Impl):
                premises.append(walk(g.lhs, ren))
                binder_runs.append([])
                g = g.rhs
            elif isinstance(g, AtomF):
                args = tuple(
                    var(ren[t.name]) if t.var and t.name in ren else t
                    for t in g.args
                )
                out = AtomF(g.pred, args)
                break
            else:
                raise TypeError(g)
        for run, prem in zip(
            reversed(binder_runs), itertools.chain([None], reversed(premises))
        ):
            if prem is not None:
                out = Impl(prem, out)
            out = forall_chain(run, out)
        return out

    return walk(f, {})


def _in_sigma1(f):
    while isinstance(f, Impl):
        if not _in_pi1(f.lhs):
            return False
        f = f.rhs
    return isinstance(f, AtomF)


def _in_pi1(f):
    while True:
        if isinstance(f, AtomF):
            return True
        if isinstance(f, Forall):
            f = f.body
        elif isinstance(f, Impl):
            if not _in_sigma1(f.lhs):
                return False
            f = f.rhs
        else:
            return False


def reference_classify(f):
    s, p = _in_sigma1(f), _in_pi1(f)
    if s and p:
        return MintsClass.BOTH
    if s:
        return MintsClass.SIGMA1
    if p:
        return MintsClass.PI1
    return MintsClass.NEITHER


def peel_sigma1(f):
    """Split ``t1 -> ... -> tq -> c`` into premises and the target atom."""
    if reference_classify(f) not in (MintsClass.SIGMA1, MintsClass.BOTH):
        raise FormulaError(f"not a Sigma1 formula: {fmt_formula(f)}")
    return impl_spine(f)


def decompose_pi1(f):
    """The Pi1 scheme of ``f``, after checking that it is Pi1."""
    if reference_classify(f) not in (MintsClass.PI1, MintsClass.BOTH):
        raise FormulaError(f"not a Pi1 formula: {fmt_formula(f)}")
    return pi1_spine(f)


# ---------------------------------------------------------------------------
# The Sigma1 search's member enumeration as generators
# ---------------------------------------------------------------------------


def _match_atom(pattern, concrete, tv, binding):
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


def reference_instantiations(prover, scheme, goal, added, atoms_of):
    """Top-variable assignments matching the target against the goal, with
    the membership-only atomic premises joined depth first against
    ``atoms_of(pred)``."""
    tv = set(scheme.top_vars)
    binding = _match_atom(scheme.target, goal, tv, {})
    if binding is None:
        return
    rigid = [
        s.sigma
        for s in scheme.steps
        if isinstance(s.sigma, AtomF) and s.sigma.pred not in prover.flexible_preds
    ]

    def join(i, b):
        if i == len(rigid):
            rest = [v for v in scheme.top_vars if v not in b]
            for combo in itertools.product(prover.pool, repeat=len(rest)):
                full = dict(b)
                full.update(zip(rest, combo))
                yield full
            return
        pattern = rigid[i]
        if all(not a.var or a.name in b for a in pattern.args):
            mid = prover.atom_ids.get(
                (
                    pattern.pred,
                    *(b[a.name].name if a.var else a.name for a in pattern.args),
                )
            )
            if mid is not None and (mid in prover.base_set or mid in added):
                yield from join(i + 1, b)
            return
        seen = set()
        for cand in atoms_of(pattern.pred):
            nb = _match_atom(pattern, cand, tv, b)
            if nb is not None:
                sig = tuple(sorted((k, v.name) for k, v in nb.items()))
                if sig not in seen:
                    seen.add(sig)
                    yield from join(i + 1, nb)

    yield from join(0, binding)


def reference_attempts(prover, added, goal):
    """The (member id, assignment) pairs the search tries at judgment
    ``(added, goal)``: members whose target is the goal's predicate, base
    members first, then the added ones, each in id order.  Each member's
    scheme is split here from its formula, not read from the prover."""
    entries = prover.entries
    extra = sorted(added)
    added_atoms = {}
    for mid in extra:
        f = entries[mid].formula
        if isinstance(f, AtomF):
            added_atoms.setdefault(f.pred, []).append(f)

    def atoms_of(pred):
        base = prover.base_atoms.get(pred, [])
        more = added_atoms.get(pred)
        return base + more if more else base

    pred = goal.pred
    members = itertools.chain(
        prover.base_by_target.get(pred, ()),
        (mid for mid in extra if pi1_spine(entries[mid].formula).target.pred == pred),
    )
    for mid in members:
        scheme = pi1_spine(entries[mid].formula)
        for t_assign in reference_instantiations(prover, scheme, goal, added, atoms_of):
            yield mid, t_assign


# ---------------------------------------------------------------------------
# The Sigma1 search's passes, repeated until the solved table stops growing
# ---------------------------------------------------------------------------


def _reference_dfs(prover, added, gid, stack):
    """One judgment of a pass that reads the judgments on ``stack`` as failed,
    with the members tried as ``reference_attempts`` yields them: the used set
    of the record that answers it, or None when it fails."""
    check_deadline(prover.deadline, "proof search")
    for used, _ in prover.solved.get(gid, ()):
        if used <= added:
            return used
    if any(added <= added2 for added2 in prover.failed.get(gid, ())):
        return None
    j = (added, gid)
    if j in stack:
        return None
    prover.judgments_seen.add(j)
    if len(prover.judgments_seen) > proofs.MAX_JUDGMENTS:
        raise CapExceeded(
            f"judgment space exceeded {proofs.MAX_JUDGMENTS}",
            feasible=proofs.MAX_JUDGMENTS,
        )
    stack.add(j)
    try:
        for mid, t_assign in reference_attempts(prover, added, prover.goals[gid]):
            # ``child_data`` reads the scheme that ``instances`` compiles
            entry = prover.entries[mid]
            if entry.scheme is None:
                entry.compile()
            children = prover.child_data(mid, t_assign)
            child_used = []
            for _, _, new, child_gid in children:
                sub = added if new <= added else added | new
                used = _reference_dfs(prover, sub, child_gid, stack)
                if used is None:
                    break
                child_used.append(used)
            else:
                # the record's own member, unless a base member, and what
                # each premise's proof uses beyond the taus it discharges
                used = frozenset({mid}) - prover.base_set
                for (_, _, new, _), u in zip(children, child_used):
                    used |= u - new
                record = (mid, t_assign, children, child_used)
                prover.solved.setdefault(gid, []).append((used, record))
                return used
        prover.failed.setdefault(gid, []).append(added)
        return None
    finally:
        stack.discard(j)


def reference_run(prover, goal):
    """Whether ``goal`` is provable from the prover's context, filling its
    solved table as ``proofs._Prover.run`` does; a drop-in for that method."""
    gid = prover.goal_id(goal)
    while True:
        size_before = sum(len(v) for v in prover.solved.values())
        prover.failed = {}
        if _reference_dfs(prover, frozenset(), gid, set()) is not None:
            return True
        if sum(len(v) for v in prover.solved.values()) == size_before:
            return False


# ---------------------------------------------------------------------------
# The certificate path as recursions
# ---------------------------------------------------------------------------


def reference_extract(prover, added, gid, names, counter):
    """The proof term of a solved judgment, one call per proof level; a
    drop-in for ``proofs._Prover.extract``."""
    record = prover.solved_lookup(added, gid)
    assert record is not None, "extraction requires a solved judgment"
    mid, t_assign, children, child_added = record
    scheme = prover.entries[mid].scheme
    term = PVar(names[mid])
    seen_vars = 0
    for i, step in enumerate(scheme.steps):
        for v in scheme.top_vars[seen_vars : step.vars_visible]:
            term = OApp(term, t_assign[v])
        seen_vars = step.vars_visible
        taus, tau_ids, _, child_gid = children[i]
        abs_info = []
        shadowed = []
        for tau, tid in zip(taus, tau_ids):
            name = f"X{next(counter)}"
            abs_info.append((name, tau))
            shadowed.append((tid, names.get(tid)))
            names[tid] = name
        body = reference_extract(prover, child_added[i], child_gid, names, counter)
        for tid, old in reversed(shadowed):
            if old is None:
                del names[tid]
            else:
                names[tid] = old
        for name, annot in reversed(abs_info):
            body = PAbs(name, annot, body)
        term = PApp(term, body)
    for v in scheme.top_vars[seen_vars:]:
        term = OApp(term, t_assign[v])
    return term


class ReferenceCheckFailure(Exception):
    def __init__(self, trail):
        self.trail = trail
        super().__init__("; ".join(trail))


def _reference_alpha_eq(f, g):
    return f is g or f == g or alpha_key(f) == alpha_key(g)


def reference_infer(env, term):
    """The type of ``term`` under ``env``, one call per node and one
    ``Environment.bind`` copy per proof abstraction."""
    if isinstance(term, PVar):
        f = env.lookup(term.name)
        if f is None:
            raise ReferenceCheckFailure([f"unbound proof variable {term.name}"])
        return f
    if isinstance(term, PAbs):
        body = reference_infer(env.bind(term.var, term.annot), term.body)
        return Impl(term.annot, body)
    if isinstance(term, OAbs):
        for name, f in env.decls:
            if term.var in free_vars(f):
                raise ReferenceCheckFailure(
                    [
                        f"eigenvariable violation: {term.var} is free in the "
                        f"declaration of {name}"
                    ]
                )
        return Forall(term.var, reference_infer(env, term.body))
    if isinstance(term, PApp):
        fn = reference_infer(env, term.fn)
        if not isinstance(fn, Impl):
            raise ReferenceCheckFailure(
                [f"applied a term of non-implication type {fmt_formula(fn)}"]
            )
        arg = reference_infer(env, term.arg)
        if not _reference_alpha_eq(arg, fn.lhs):
            raise ReferenceCheckFailure(
                [
                    f"argument type {fmt_formula(arg)} does not match the "
                    f"expected premise {fmt_formula(fn.lhs)}"
                ]
            )
        return fn.rhs
    if isinstance(term, OApp):
        fn = reference_infer(env, term.fn)
        if not isinstance(fn, Forall):
            raise ReferenceCheckFailure(
                [f"object-applied a term of non-universal type {fmt_formula(fn)}"]
            )
        return substitute(fn.body, {fn.var: term.arg})
    raise TypeError(term)


def reference_check_explain(env, term, goal):
    try:
        got = reference_infer(env, term)
    except ReferenceCheckFailure as e:
        return False, e.trail
    if _reference_alpha_eq(got, goal):
        return True, []
    return False, [
        f"term has type {fmt_formula(got)} but the goal is {fmt_formula(goal)}"
    ]


def reference_is_lnf(env, term, typ):
    """The long-normal-form predicate, one call per abstraction and per
    proof argument of a spine."""
    if isinstance(typ, Forall):
        if not isinstance(term, OAbs):
            return False
        body_typ = substitute(typ.body, {typ.var: var(term.var)})
        return reference_is_lnf(env, term.body, body_typ)
    if isinstance(typ, Impl):
        if not isinstance(term, PAbs):
            return False
        return reference_is_lnf(env.bind(term.var, term.annot), term.body, typ.rhs)
    spine = []
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
            if not reference_is_lnf(env, arg, head_typ.lhs):
                return False
            head_typ = head_typ.rhs
    return isinstance(head_typ, AtomF)


def reference_fmt_term(t):
    """The certificate text of ``t``, one nested f-string per node."""
    if isinstance(t, PVar):
        return t.name
    if isinstance(t, PAbs):
        annot = fmt_formula(t.annot)
        if not isinstance(t.annot, AtomF):
            annot = f"({annot})"
        return f"\\{t.var}:{annot}. {reference_fmt_term(t.body)}"
    if isinstance(t, OAbs):
        return f"\\{t.var}. {reference_fmt_term(t.body)}"
    parts = []
    head = t
    while isinstance(head, (PApp, OApp)):
        arg = head.arg
        if isinstance(arg, (Term, PVar)):
            parts.append(arg.name)
        else:
            parts.append(f"({reference_fmt_term(arg)})")
        head = head.fn
    if isinstance(head, PVar):
        parts.append(head.name)
    else:
        parts.append(f"({reference_fmt_term(head)})")
    return " ".join(reversed(parts))


# ---------------------------------------------------------------------------
# The parsers before the one-pass scanner
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ReferenceToken:
    kind: str  # 'ident' | 'symbol' | 'eof'
    value: str
    line: int
    col: int


def reference_tokenize(text: str) -> list[ReferenceToken]:
    toks: list[ReferenceToken] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(ReferenceToken("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two in (":-", "->"):
            toks.append(ReferenceToken("symbol", two, line, col))
            i += 2
            col += 2
            continue
        if ch in "(),.:\\#":
            toks.append(ReferenceToken("symbol", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(ReferenceToken("eof", "", line, col))
    return toks


class _ReferenceCursor:
    def __init__(self, tokens: list[ReferenceToken]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> ReferenceToken:
        return self.tokens[self.pos]

    def next(self) -> ReferenceToken:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, value: str) -> ReferenceToken:
        t = self.peek()
        if t.value != value or t.kind == "eof":
            raise ParseError(f"expected {value!r} but found {t.value!r}", t.line, t.col)
        return self.next()

    def expect_ident(self, what: str = "identifier") -> ReferenceToken:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(f"expected {what} but found {t.value!r}", t.line, t.col)
        return self.next()

    def at(self, value: str) -> bool:
        t = self.peek()
        return t.kind == "symbol" and t.value == value

    def at_ident(self, value: str | None = None) -> bool:
        t = self.peek()
        return t.kind == "ident" and (value is None or t.value == value)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def _parse_term(cur: _ReferenceCursor) -> Term:
    t = cur.expect_ident("term")
    if t.value[0].isupper():
        raise ParseError(
            f"uppercase identifier {t.value!r} cannot appear in term position",
            t.line,
            t.col,
        )
    return var(t.value) if is_program_variable_name(t.value) else const(t.value)


def _parse_program_atom(cur: _ReferenceCursor, arities: dict[str, int]) -> Atom:
    negated = False
    if cur.at_ident("not"):
        cur.next()
        negated = True
    t = cur.expect_ident("predicate")
    name = t.value
    if name[0].isupper():
        raise ParseError(f"program predicates are lowercase: {name!r}", t.line, t.col)
    args: list[Term] = []
    if cur.at("("):
        cur.next()
        args.append(_parse_term(cur))
        while cur.at(","):
            cur.next()
            args.append(_parse_term(cur))
        cur.expect(")")
    old = arities.setdefault(name, len(args))
    if old != len(args):
        raise ParseError(
            f"predicate {name} used with arities {old} and {len(args)}", t.line, t.col
        )
    return Atom(name, tuple(args), negated)


def reference_parse_program(text: str, safe: bool = False) -> Program:
    """Parse program text; ``safe`` rejects head variables absent from the body."""
    cur = _ReferenceCursor(reference_tokenize(text))
    clauses: list[Clause] = []
    declared: set[str] = set()
    arities: dict[str, int] = {}
    while not cur.peek().kind == "eof":
        if cur.at("#"):
            t = cur.next()
            d = cur.expect_ident("directive name")
            if d.value != "domain":
                raise ParseError(f"unknown directive #{d.value}", d.line, d.col)
            c = cur.expect_ident("constant")
            _reject_variable_constant(c)
            declared.add(c.value)
            while cur.at(","):
                cur.next()
                c = cur.expect_ident("constant")
                _reject_variable_constant(c)
                declared.add(c.value)
            cur.expect(".")
            continue
        head_tok = cur.peek()
        head = _parse_program_atom(cur, arities)
        if head.negated:
            raise ParseError("clause head must be positive", head_tok.line, head_tok.col)
        body: list[Atom] = []
        if cur.at(":-"):
            cur.next()
            if not cur.at("."):
                body.append(_parse_program_atom(cur, arities))
                while cur.at(","):
                    cur.next()
                    body.append(_parse_program_atom(cur, arities))
        cur.expect(".")
        clause = Clause(head, tuple(body))
        if safe:
            body_vars = set()
            for a in body:
                body_vars |= a.variables()
            loose = head.variables() - body_vars
            if loose:
                raise ParseError(
                    f"unsafe clause: head variables {sorted(loose)} do not occur "
                    f"in the body",
                    head_tok.line,
                    head_tok.col,
                )
        clauses.append(clause)
    try:
        return make_program(clauses, declared)
    except FormulaError as e:
        raise ParseError(str(e)) from e


def _reject_variable_constant(tok: ReferenceToken) -> None:
    if is_program_variable_name(tok.value):
        raise ParseError(
            f"{tok.value!r} is in the variable lexical space and cannot be "
            f"declared as a constant",
            tok.line,
            tok.col,
        )


def reference_parse_ground_atom(text: str) -> Atom:
    """Parse a single ground atom, e.g. for entailment queries."""
    cur = _ReferenceCursor(reference_tokenize(text))
    atom = _parse_program_atom(cur, {})
    t = cur.peek()
    if cur.at("."):
        cur.next()
        t = cur.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input after atom: {t.value!r}", t.line, t.col)
    if atom.negated or not atom.is_ground():
        raise ParseError("expected a positive ground atom")
    return atom


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


def _parse_formula(cur: _ReferenceCursor, bound: tuple[str, ...], arities: dict[str, int]) -> Formula:
    units = [_parse_formula_unit(cur, bound, arities)]
    while cur.at("->"):
        cur.next()
        units.append(_parse_formula_unit(cur, bound, arities))
    out = units[-1]
    for u in reversed(units[:-1]):
        out = Impl(u, out)
    return out


def _parse_formula_unit(
    cur: _ReferenceCursor, bound: tuple[str, ...], arities: dict[str, int]
) -> Formula:
    if cur.at("("):
        cur.next()
        inner = _parse_formula(cur, bound, arities)
        cur.expect(")")
        return inner
    if cur.at_ident("forall"):
        cur.next()
        v = cur.expect_ident("quantified variable")
        if v.value[0].isupper():
            raise ParseError(
                f"quantified variables are lowercase: {v.value!r}", v.line, v.col
            )
        cur.expect(".")
        body = _parse_formula(cur, bound + (v.value,), arities)
        return Forall(v.value, body)
    t = cur.expect_ident("predicate")
    name = t.value
    args: list[Term] = []
    if cur.at("("):
        cur.next()
        args.append(_parse_formula_term(cur, bound))
        while cur.at(","):
            cur.next()
            args.append(_parse_formula_term(cur, bound))
        cur.expect(")")
    old = arities.setdefault(name, len(args))
    if old != len(args):
        raise ParseError(
            f"predicate {name} used with arities {old} and {len(args)}", t.line, t.col
        )
    return AtomF(name, tuple(args))


def _parse_formula_term(cur: _ReferenceCursor, bound: tuple[str, ...]) -> Term:
    t = cur.expect_ident("term")
    if t.value[0].isupper():
        raise ParseError(
            f"uppercase identifier {t.value!r} cannot appear in term position",
            t.line,
            t.col,
        )
    return var(t.value) if t.value in bound else const(t.value)


def reference_parse_formula(text: str) -> Formula:
    """Parse and rectify a formula; free identifiers are treated as constants."""
    cur = _ReferenceCursor(reference_tokenize(text))
    arities: dict[str, int] = {}
    f = _parse_formula(cur, (), arities)
    t = cur.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input after formula: {t.value!r}", t.line, t.col)
    return rectify(f)


def reference_parse_term(text: str) -> ProofTerm:
    cur = _ReferenceCursor(reference_tokenize(text))

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
# The formula translation's signature walks and emitter, one walk per fact
# ---------------------------------------------------------------------------


def reference_formula_predicates(f, table=None):
    """Predicate -> arity over ``f``, raising ``ArityError`` at the first
    clash met walking the conclusion before the premise."""
    if table is None:
        table = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, AtomF):
            old = table.setdefault(g.pred, g.arity)
            if old != g.arity:
                raise ArityError(
                    f"predicate {g.pred} used with arities {old} and {g.arity}"
                )
        elif isinstance(g, Impl):
            stack.append(g.lhs)
            stack.append(g.rhs)
        elif isinstance(g, Forall):
            stack.append(g.body)
        else:
            raise TypeError(g)
    return table


def reference_signature_facts(phi):
    """The formula length, the predicate arities (raising as the library
    does), the binder names in preorder and each occurrence's free
    variables, each from a walk of its own."""
    occs = occurrences(phi)
    return (
        formula_length(phi),
        reference_formula_predicates(phi),
        binder_names(phi),
        [frozenset(free_vars(o.formula)) for o in occs],
    )


def reference_validate_schema(occs, schema) -> None:
    """The scope assertions ``_question_schema`` makes, from ``free_vars``."""
    psi_fv = set(schema.free)
    for step in schema.steps:
        visible = psi_fv | set(schema.top_vars[: step.vars_visible])
        assert free_vars(step.subgoal) <= visible
        for tau in step.descendants:
            assert free_vars(occs[tau].formula) <= visible
    assert free_vars(schema.head) <= psi_fv | set(schema.top_vars)


def reference_translate(phi, addr_len, full_facts=False, deadline=None, an=None):
    """``logic_to_asp.translate`` at a given address length as it was before
    it numbered atoms through id tables: every atom occurrence builds its key
    and looks it up in the atom table, and every clause is one ``emit`` call
    that counts its family and checks the deadline."""
    if an is None:
        an = analysis(phi)
    names = logic_to_asp._Names(an)
    sig = an.sig
    pool = sig.pool
    bvars = sig.bound_vars
    b = logic_to_asp.AtomBuilder(an, names, addr_len)

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

    def emit(family, head, body=(), negated=()):
        heads.append(sd(head, len(ids)))
        pos.append(tuple([sd(a, len(ids)) for a in body]))
        neg.append(tuple([sd(a, len(ids)) for a in negated]))
        counts[family] = counts.get(family, 0) + 1
        if len(heads) % 4096 == 0:
            check_deadline(deadline, "translation")

    # families 1-3: syntax facts (descendants, subgoals, heads)
    def filled_blocks(p, t_assign):
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

    gp = engine.GroundProgram(b.ids, heads, pos, neg)
    return logic_to_asp.FormulaTranslation(an, addr_len, gp, counts, b, syntax_facts)
