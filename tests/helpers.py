"""Independent brute-force oracles. Everything here works on raw tables and
itertools, never through the library's search code, so the two routes can
check each other."""

from itertools import permutations, product

from sqk.errors import (
    AxiomQ1Violated,
    AxiomQ2Violated,
    AxiomQ3Violated,
    FormatError,
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
)


def bf_dual(table, a, b):
    """The x with x*b = a, found by scanning column b."""
    n = len(table)
    hits = [x for x in range(n) if table[x][b] == a]
    assert len(hits) == 1
    return hits[0]


def bf_isomorphisms(t1, t2, rho1=None, rho2=None):
    """The operation-preserving bijections p from t1 to t2, with
    p(rho1(a)) = rho2(p(a)) when the involutions are given, in
    lexicographic order: each of the n! candidates is tested on every
    product a*b, in a plain loop that stops at the first failure."""
    n = len(t1)
    products = [(a, b, c) for a, row in enumerate(t1) for b, c in enumerate(row)]
    for p in permutations(range(n)):
        for a, b, c in products:
            if p[c] != t2[p[a]][p[b]]:
                break
        else:
            if rho1 is None or all(p[rho1[a]] == rho2[p[a]] for a in range(n)):
                yield p


def bf_automorphisms(table):
    """All operation-preserving permutations, by filtering n! candidates."""
    return list(bf_isomorphisms(table, table))


def all_involutions(n, pair_ok=None):
    """Every involution of 0..n-1, in lexicographic order of the array:
    the least unpaired point a is fixed, then paired with each larger
    unpaired point in turn. With pair_ok, only the involutions whose
    every pair rho(a) = c has pair_ok(a, c) and pair_ok(c, a).
    test_symmetric checks it against the involutions among all n!
    permutations for small n."""
    out = []
    p = [-1] * n

    def extend(a):
        while a < n and p[a] >= 0:
            a += 1
        if a == n:
            out.append(tuple(p))
            return
        for c in range(a, n):
            if p[c] < 0 and (pair_ok is None
                             or pair_ok(a, c) and pair_ok(c, a)):
                p[a], p[c] = c, a
                extend(a + 1)
                p[a] = p[c] = -1

    extend(0)
    return out


def bf_good_involutions(table):
    """All good involutions by testing the definition on every involution:
    rho^2 = id, rho(a*b) = rho(a)*b, and a*rho(b) = the dual product.
    The last is a condition on b and rho(b) alone, so it is tested on each
    pair as the involutions are listed."""
    n = len(table)
    dual = [[bf_dual(table, a, b) for b in range(n)] for a in range(n)]
    return [rho for rho in all_involutions(
                n, lambda b, c: all(table[a][c] == dual[a][b] for a in range(n)))
            if all(rho[table[a][b]] == table[rho[a]][b]
                   for a in range(n) for b in range(n))]


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


# Per-cell reference loops for table parsing and validation. Each one reads
# and checks cell by cell, in the order the library promises, and raises the
# library's exception with the same first witness, so a whole-row or
# whole-column check can be held to it.

def _ref_entries(table):
    n = len(table)
    rows = []
    for a, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            raise FormatError(f"row {a} has {len(row)} entries, expected {n}")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise FormatError(f"entry {v!r} in row {a} not in 0..{n - 1}")
        rows.append(row)
    return tuple(rows)


def ref_quandle_from_table(table, allow_rack=False):
    """(op, dual, rack_only) by per-cell loops: the entries, each column
    sorted (Q2), the triple scan (Q3), the diagonal (Q1), and the dual
    filled cell by cell from each column."""
    n = len(table)
    if n == 0:
        raise FormatError("empty operation table")
    op = _ref_entries(table)
    for b in range(n):
        if sorted(op[a][b] for a in range(n)) != list(range(n)):
            raise AxiomQ2Violated(b)
    for a, b, c in product(range(n), repeat=3):
        if op[op[a][b]][c] != op[op[a][c]][op[b][c]]:
            raise AxiomQ3Violated(a, b, c)
    rack_only = False
    for a in range(n):
        if op[a][a] != a:
            if not allow_rack:
                raise AxiomQ1Violated(a)
            rack_only = True
            break
    dual = [[0] * n for _ in range(n)]
    for b in range(n):
        for a in range(n):
            dual[op[a][b]][b] = a
    return op, tuple(map(tuple, dual)), rack_only


def ref_group_from_table(table):
    """(product, identity, inverse) by per-cell loops: the entries, each row
    then each column sorted (Latin square), the identity tested cell by
    cell, the triple scan (associativity), and the inverses."""
    n = len(table)
    if n == 0:
        raise FormatError("empty product table")
    t = _ref_entries(table)
    full = list(range(n))
    for x in range(n):
        if sorted(t[x]) != full:
            raise NotLatinSquare("row", x)
    for y in range(n):
        if sorted(t[x][y] for x in range(n)) != full:
            raise NotLatinSquare("column", y)
    identity = None
    for e in range(n):
        if all(t[e][y] == y for y in range(n)) and \
           all(t[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity()
    for x, y, z in product(range(n), repeat=3):
        if t[t[x][y]][z] != t[x][t[y][z]]:
            raise NotAssociative(x, y, z)
    inverse = tuple(t[x].index(identity) for x in range(n))
    return t, identity, inverse


def _ref_rows(text, keyword, in_range):
    """The table rows of a .qnd or .grp text, row by row: one int() per
    token, then the count and, with in_range, the range of every entry."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
    n = int(lines[0].split()[1])
    if len(lines) < 1 + n:
        table = "operation" if keyword == "table" else keyword
        raise FormatError(f"{table} table needs {n} rows, file ends early")
    rows = []
    for a, line in enumerate(lines[1:1 + n]):
        what = f"{keyword} row {a}"
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise FormatError(f"{what}: expected integers, got {line!r}")
        if len(row) != n:
            raise FormatError(f"{what} has {len(row)} entries, expected {n}")
        for v in row if in_range else ():
            if not 0 <= v < n:
                raise FormatError(f"table entry {v} in row {a} not in 0..{n - 1}")
        rows.append(tuple(row))
    return tuple(rows)


def ref_parse_qnd_table(text):
    """The table of a .qnd text with no rho line."""
    return _ref_rows(text, "table", True)


def ref_parse_grp(text):
    """A .grp text with no names line: its rows, then ref_group_from_table."""
    return ref_group_from_table(_ref_rows(text, "group", False))


def ref_presentation_lines(P, level):
    """The report lines of validate_presentation(P, level), decided by one
    loop per condition over the orbits, each stopping at its first failing
    orbit, with the library's detail strings."""
    G, k = P.group, P.orbit_count
    H, z, r, kappa = P.subgroups, P.z, P.r, P.kappa

    def c1():
        for i in range(k):
            for h in H[i].elements:
                if G.mul(h, z[i]) != G.mul(z[i], h):
                    return f"z_{i} does not centralize h={h}"

    def c2():
        for i in range(k):
            if z[i] not in H[i].elements:
                return f"z_{i} not in H_{i}"

    def c3():
        for i in range(k):
            ri_inv = G.inv(r[i])
            for h in H[i].elements:
                if G.mul(G.mul(r[i], h), ri_inv) not in H[kappa[i]].elements:
                    return f"r_{i} h r_{i}^-1 escapes H_{kappa[i]} at h={h}"

    def c4():
        for i in range(k):
            if G.mul(r[kappa[i]], r[i]) not in H[i].elements:
                return f"r_kappa({i}) r_{i} not in H_{i}"

    def c5():
        for i in range(k):
            rhs = G.mul(G.mul(G.inv(r[i]), z[kappa[i]]), r[i])
            if G.inv(z[i]) != rhs:
                return f"z_{i}^-1 != r_{i}^-1 z_kappa({i}) r_{i}"

    def c6():
        for i in range(k):
            if kappa[kappa[i]] != i:
                return f"kappa^2({i}) = {kappa[kappa[i]]}"

    conditions = {"rack": [c1], "quandle": [c1, c2],
                  "symmetric": [c1, c2, c3, c4, c5, c6]}[level]
    lines = []
    for n, cond in enumerate(conditions, 1):
        detail = cond()
        lines.append(f"C{n}: pass" if detail is None else f"C{n}: fail ({detail})")
    return lines
