"""A brute-force stable-model oracle shared by the tests.

It shares no code with ``aspsigma.engine``'s search: it tries every subset of
the base against a naive reduct fixpoint, so it is exponential in the base and
only meant for small programs.
"""

import itertools

from aspsigma.engine import ground


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
