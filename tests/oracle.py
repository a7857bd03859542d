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
``Analysis`` indexed it by member key and head.

``reference_attempts`` is the Sigma1 search's member enumeration as it was
before the search became one flat loop: a generator per judgment, one per
member and one per joined premise.  At every judgment, ``proofs._Prover``'s
``members`` and ``instances`` must give what it yields, in the same order.

``reference_run`` is the Sigma1 search's loop of passes as it was before the
search stopped on an unfounded pass: every premise that asks the judgment being
expanded is sent back into the search to be cut, and passes repeat until the
solved table stops growing.  ``proofs._Prover.run`` must give its verdict and,
through ``extract``, its certificate.

``reference_alpha_key`` is the key-only walk ``syntax.alpha_key`` made before
the key was read from ``syntax.survey``; ``peel_sigma1`` and ``decompose_pi1``
are the checked decompositions the prover used before ``survey`` decided the
class and ``impl_spine``/``pi1_spine`` split without checking.

``reference_search`` is the stable-model search as it was before the engine
kept its bounds on a trail: every propagation round recomputes ``lower`` and
``upper`` with two full least-fixpoint passes (``lower_upper``), and every
child copies the whole assignment dict.  ``engine._search`` must yield what it
yields, in the same order, and ``propagate`` is the per-node reference for
``engine._Propagator``.
"""

import itertools

from aspsigma import engine, proofs
from aspsigma.errors import CapExceeded, FormulaError, check_deadline
from aspsigma.syntax import (
    Atom,
    AtomF,
    Clause,
    Forall,
    Impl,
    MintsClass,
    alpha_key,
    classify,
    const,
    fmt_formula,
    free_vars,
    impl_spine,
    pi1_spine,
    substitute,
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
    keys = d.context_keys()
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


def peel_sigma1(f):
    """Split ``t1 -> ... -> tq -> c`` into premises and the target atom."""
    if classify(f) not in (MintsClass.SIGMA1, MintsClass.BOTH):
        raise FormulaError(f"not a Sigma1 formula: {fmt_formula(f)}")
    return impl_spine(f)


def decompose_pi1(f):
    """The Pi1 scheme of ``f``, after checking that it is Pi1."""
    if classify(f) not in (MintsClass.PI1, MintsClass.BOTH):
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
    with the members tried as ``reference_attempts`` yields them."""
    check_deadline(prover.deadline, "proof search")
    if prover.solved_lookup(added, gid) is not None:
        return True
    if prover.failed_lookup(added, gid):
        return False
    j = (added, gid)
    if j in stack:
        return False
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
            child_added = []
            for _, _, new, child_gid in children:
                sub = added if new <= added else added | new
                if not _reference_dfs(prover, sub, child_gid, stack):
                    break
                child_added.append(sub)
            else:
                record = (mid, t_assign, children, child_added)
                prover.solved.setdefault(gid, []).append((added, record))
                return True
        prover.failed.setdefault(gid, []).append(added)
        return False
    finally:
        stack.discard(j)


def reference_run(prover, goal):
    """Whether ``goal`` is provable from the prover's context, filling its
    solved table as ``proofs._Prover.run`` does; a drop-in for that method."""
    gid = prover.goal_id(goal)
    while True:
        size_before = sum(len(v) for v in prover.solved.values())
        prover.failed = {}
        if _reference_dfs(prover, frozenset(), gid, set()):
            return True
        if sum(len(v) for v in prover.solved.values()) == size_before:
            return False
