"""Independent brute-force oracles. Everything here works on raw tables and
itertools, never through the library's search code, so the two routes can
check each other."""

from itertools import permutations, product


def bf_dual(table, a, b):
    """The x with x*b = a, found by scanning column b."""
    n = len(table)
    hits = [x for x in range(n) if table[x][b] == a]
    assert len(hits) == 1
    return hits[0]


def bf_automorphisms(table):
    """All operation-preserving permutations, by filtering n! candidates."""
    n = len(table)
    out = []
    for p in permutations(range(n)):
        if all(p[table[a][b]] == table[p[a]][p[b]]
               for a in range(n) for b in range(n)):
            out.append(p)
    return out


def all_involutions(n):
    return [p for p in permutations(range(n))
            if all(p[p[a]] == a for a in range(n))]


def bf_good_involutions(table):
    """All good involutions by testing the definition on every involution:
    rho^2 = id, rho(a*b) = rho(a)*b, and a*rho(b) = the dual product."""
    n = len(table)
    out = []
    for rho in all_involutions(n):
        if all(rho[table[a][b]] == table[rho[a]][b]
               for a in range(n) for b in range(n)) and \
           all(table[a][rho[b]] == bf_dual(table, a, b)
               for a in range(n) for b in range(n)):
            out.append(rho)
    return out


def bf_conjugacy_classes(G):
    """Partition by pairwise conjugacy testing over all pairs."""
    n = G.order
    conj = [[G.mul(G.mul(G.inv(x), g), x) for x in range(n)] for g in range(n)]
    classes = []
    seen = set()
    for g in range(n):
        if g in seen:
            continue
        cls = sorted(set(conj[g]))
        seen.update(cls)
        classes.append(tuple(cls))
    return classes


def bf_inversion_closed_transversal_exists(G):
    """Try every system of conjugacy class representatives."""
    classes = bf_conjugacy_classes(G)
    for system in product(*classes):
        if {G.inv(g) for g in system} == set(system):
            return True
    return False


def relabel(table, p):
    """The operation table transported along the bijection p."""
    n = len(table)
    q = [0] * n
    for a in range(n):
        q[p[a]] = a
    return [[p[table[q[a]][q[b]]] for b in range(n)] for a in range(n)]


def compose_then(p, q):
    """Apply p, then q (the package's product convention)."""
    return tuple(q[p[a]] for a in range(len(p)))


def bf_subgroup(G, gens):
    """Subgroup generated by gens: e and gens, closed under all products of
    two members, on both sides, until nothing new appears."""
    els = {G.identity, *gens}
    while True:
        new = {G.mul(x, y) for x in els for y in els} - els
        if not new:
            return tuple(sorted(els))
        els |= new


def bf_closure(start, gens, act):
    """The set start, grown by every act(x, g) until nothing new appears."""
    els = set(start)
    while True:
        new = {act(x, g) for x in els for g in gens} - els
        if not new:
            return els
        els |= new
