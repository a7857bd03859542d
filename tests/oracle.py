"""Brute-force oracles shared by the tests.

``naive_stable_models`` shares no code with ``aspsigma.engine``'s search: it
tries every subset of the base against a naive reduct fixpoint, so it is
exponential in the base and only meant for small programs.

``naive_questions_at`` shares no code with ``logic_to_asp.analysis``'s question
table: it substitutes every combination of pool constants into every member
schema, once per judgment.

``scan_questions`` is the linear scan the soup layer ran over that table before
``Analysis`` indexed it by member key and head.
"""

import itertools

from aspsigma.engine import ground
from aspsigma.syntax import alpha_canon, const, free_vars, substitute


def subsets(atoms):
    atoms = sorted(atoms)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        yield frozenset(a for a, b in zip(atoms, bits) if b)


def naive_stable_models(p):
    """The set of stable models of ``p``, by subset enumeration."""
    g = ground(p)
    found = set()
    for m in subsets(g.base):
        reduct = []
        for c in g.clauses:
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
            if alpha_canon(substitute(sig.occs[occ].formula, s_map)) not in keys:
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
