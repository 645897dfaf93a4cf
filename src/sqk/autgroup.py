"""Automorphism groups of (symmetric) quandles as explicit permutation groups,
orbits, stabilizers, transporters.

Groups are stored by exhaustive element lists sorted lexicographically; the
product convention is "apply left, then right", so the action on points is a
right action a.f = f(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import perm
from .errors import IndexOutOfRange, InternalVerificationFailed, SizeBoundExceeded
from .groups import CosetSpace, GroupLike, Subgroup
from .quandle import Quandle, Table, _MapSearch
from .symmetric import DEFAULT_MAX_N, SymmetricQuandle, is_symmetric_isomorphism_map


def mulclose(perms: Iterable[perm.Perm]) -> set[perm.Perm]:
    """Closure of a set of permutations under composition."""
    gens = list(perms)
    els = set(gens)
    frontier = list(els)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perm.compose(p, g)
                if q not in els:
                    els.add(q)
                    nxt.append(q)
        frontier = nxt
    return els


class PermGroup(GroupLike):
    """A group of permutations of 0..degree-1, stored exhaustively.

    The generators, when given, generate the group (every constructor in
    this module makes sure of it); orbits reads them, and an empty
    generator list stands for every element."""

    def __init__(self, degree: int, elements: Iterable[perm.Perm],
                 generator_perms: Iterable[perm.Perm] = ()):
        self.degree = degree
        els = sorted(set(tuple(p) for p in elements))
        if not els:
            els = [perm.identity(degree)]
        self.elements: tuple[perm.Perm, ...] = tuple(els)
        self._index = {p: i for i, p in enumerate(self.elements)}
        ident = perm.identity(degree)
        if ident not in self._index:
            raise InternalVerificationFailed("identity permutation missing")
        self.identity = self._index[ident]
        self.generators = tuple(self._index[tuple(p)] for p in generator_perms)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, x: int, y: int) -> int:
        return self._index[perm.compose(self.elements[x], self.elements[y])]

    def inv(self, x: int) -> int:
        return self._index[perm.inverse(self.elements[x])]

    def name_of(self, x: int) -> str:
        return perm.cycle_token(self.elements[x])

    def index_of(self, p: perm.Perm) -> int | None:
        return self._index.get(tuple(p))


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple[tuple[int, ...], ...]       # ascending by minimal element
    representatives: tuple[int, ...]          # minimal element of each orbit
    orbit_index: tuple[int, ...]              # point -> orbit number

    @property
    def count(self) -> int:
        return len(self.orbits)


def _greedy_generators(elements: tuple[perm.Perm, ...]) -> list[perm.Perm]:
    """Small generating set: scan elements in order, keep what grows the closure.

    One closure grows as generators are kept, as in perm.spanning_points:
    the elements reached so far are closed under the old generators, so
    only the new generator is applied to them; new elements get every
    generator.
    """
    compose = perm.compose
    reached = [perm.identity(len(elements[0]))]
    seen = set(reached)
    gens: list[perm.Perm] = []
    for p in elements:
        if p in seen:
            continue
        gens.append(p)
        old = len(reached)
        for i in range(old):
            q = compose(reached[i], p)
            if q not in seen:
                seen.add(q)
                reached.append(q)
        i = old
        while i < len(reached):
            x = reached[i]
            for g in gens:
                q = compose(x, g)
                if q not in seen:
                    seen.add(q)
                    reached.append(q)
            i += 1
    return gens


def _generation_order(op: Table,
                      rho: perm.Perm | None) -> tuple[list[int], list[int]]:
    """Every point, in the order the subquandles generated by 0..k are
    reached for k = 0, 1, ..., and the points k not in the subquandle
    generated by 0..k-1.

    Scanning k in order, a k not reached yet is appended, then the closure
    under * (and rho, when given): each new member is multiplied with every
    member on both sides. For a finite set, closure under * alone makes it
    closed under the dual operation too. So the points before k are
    exactly the subquandle generated by 0..k-1 when k is not in it.
    """
    n = len(op)
    seen = [False] * n
    members: list[int] = []
    bases: list[int] = []
    for k in range(n):
        if seen[k]:
            continue
        seen[k] = True
        bases.append(k)
        i = len(members)
        members.append(k)
        while i < len(members):
            x = members[i]
            new = [op[x][y] for y in members[:i + 1]]
            new += [op[y][x] for y in members[:i]]
            if rho is not None:
                new.append(rho[x])
            for y in new:
                if not seen[y]:
                    seen[y] = True
                    members.append(y)
            i += 1
    return members, bases


def _orbit(point: int, gens: list[perm.Perm]) -> set[int]:
    orb = {point}
    frontier = [point]
    for a in frontier:
        for g in gens:
            b = g[a]
            if b not in orb:
                orb.add(b)
                frontier.append(b)
    return orb


def _chain_group(op: Table, rho: perm.Perm | None = None) -> PermGroup:
    """The automorphisms of op (commuting with rho, when given), found along
    the pointwise stabilizer chain G = G_0 >= G_1 >= ... >= G_n = 1, where
    G_k fixes 0..k-1; see aut_group for why the result is exact."""
    n = len(op)
    order, bases = _generation_order(op, rho)
    pos = [0] * n
    for i, a in enumerate(order):
        pos[a] = i
    search = _MapSearch(op, op, rho, rho, order)
    ident = perm.identity(n)
    gens: list[perm.Perm] = []
    size = 1
    for k in reversed(bases):
        # the points before k in the order are the subquandle generated by
        # 0..k-1, fixed by all of G_k; so are the images sought
        orbit = {k}
        prefix = tuple(order[:pos[k]])
        for v in search.candidates[k]:
            if pos[v] <= pos[k] or v in orbit:
                continue
            hit = search.run(prefix + (v,))
            if hit:
                gens.append(hit[0])
                orbit = _orbit(k, gens)
        size *= len(orbit)
    elements = tuple(sorted(mulclose(gens) | {ident}))
    if len(elements) != size:
        raise InternalVerificationFailed(
            f"automorphism closure has {len(elements)} elements, the "
            f"stabilizer chain {size}")
    return PermGroup(n, elements, _greedy_generators(elements))


def aut_group(Q: Quandle, max_n: int = DEFAULT_MAX_N) -> PermGroup:
    """All operation-preserving permutations, found along the pointwise
    stabilizer chain G = G_0 >= G_1 >= ... >= G_n = 1, where G_k fixes
    0..k-1 (Sims' chain on the base 0, 1, ..., n-1).

    Levels run k = n-1 down to 0, so the generators found so far fix
    0..k-1 and, by induction, generate G_{k+1}.

    * Forced points: an automorphism fixing 0..k-1 fixes the subquandle
      they generate (for a finite set, closure under * is enough). A k in
      it has the trivial orbit {k}, and no search is made for it.
    * One search per coset: for every other k, each candidate image v (same
      translation cycle type) not yet in the orbit of k under the
      generators gets one find-first search for an automorphism with
      f(i) = i for i < k and f(k) = v. A hit is a new generator; it is
      accepted only after the complete-map check (every product). A miss
      is an exhaustive proof that v is not in the orbit of k under G_k.
    * So each orbit is exact, and the generators found generate G_k, since
      |G_k| is the orbit length times |G_{k+1}| (Schreier-Sims). Each
      generator passed the full check, so their closure, listed by
      mulclose, is G and holds only automorphisms.
    * Cross-check: the closure must have as many elements as the product
      of the orbit lengths, or InternalVerificationFailed is raised.

    The elements are sorted and the generators are the greedy ones over
    that list, so the result does not depend on the generators found.
    """
    if Q.order > max_n:
        raise SizeBoundExceeded(Q.order, max_n)
    return _chain_group(Q.op)


def symmetric_aut_group(S: SymmetricQuandle,
                        max_n: int = DEFAULT_MAX_N) -> PermGroup:
    """The automorphisms commuting with rho, along the same stabilizer chain
    as aut_group, with rho as a search constraint: candidate images keep
    rho fixed-point status, each search checks f(rho(a)) = rho(f(a)), and
    the forced points are the closure of 0..k-1 under * and rho. The same
    argument applies: misses are exhaustive, forced points have trivial
    orbits, the generators found pass the full check (products and rho)
    and generate the group, and its order is cross-checked against the
    product of the orbit lengths.
    """
    if S.order > max_n:
        raise SizeBoundExceeded(S.order, max_n)
    return _chain_group(S.quandle.op, S.rho)


def inner_group(S: SymmetricQuandle) -> PermGroup:
    """The group generated by the translations s_b: a -> a*b.

    Only the translations at perm.spanning_points of the columns are
    checked to be symmetric quandle automorphisms, and only they are
    closed. They generate every translation: once s_b is a verified
    automorphism, s_{a*b} = s_b^-1 s_a s_b (so s_a in the group gives
    s_{a*b} in it), and every point is reached from the spanning points by
    their translations. A composite of symmetric automorphisms is one, so
    every element of the closure is. The printed generators are still
    every distinct translation, in column order; each is looked up in the
    closure as a cross-check, and a miss raises InternalVerificationFailed.
    """
    cols = S.quandle.translations()
    span = [cols[c] for c in perm.spanning_points(list(cols))]
    for t in span:
        if not is_symmetric_isomorphism_map(S, S, t):
            raise InternalVerificationFailed(
                f"translation {perm.cycle_string(t)} is not a symmetric "
                "automorphism")
    elements = mulclose(span) | {perm.identity(S.order)}
    gens = list(dict.fromkeys(cols))
    for t in gens:
        if t not in elements:
            raise InternalVerificationFailed(
                f"translation {perm.cycle_string(t)} is missing from the "
                "closure of the spanning translations")
    return PermGroup(S.order, elements, gens)


def orbits(G: PermGroup) -> OrbitDecomposition:
    """Orbits on 0..degree-1 by the orbit algorithm on G's generators: the
    orbit of a is the closure of {a} under the generators (a finite set
    closed under a permutation is closed under its inverse), which costs
    O(degree * generators) rather than a scan of every element."""
    gens = [G.elements[g] for g in G.generators] or list(G.elements)
    n = G.degree
    orbit_index = [-1] * n
    orbs: list[tuple[int, ...]] = []
    reps: list[int] = []
    for a in range(n):
        if orbit_index[a] >= 0:
            continue
        members = sorted(_orbit(a, gens))
        idx = len(orbs)
        for m in members:
            orbit_index[m] = idx
        orbs.append(tuple(members))
        reps.append(members[0])
    return OrbitDecomposition(orbits=tuple(orbs), representatives=tuple(reps),
                              orbit_index=tuple(orbit_index))


@dataclass(frozen=True)
class Stabilizer(Subgroup):
    """The elements of a PermGroup fixing point, as stabilizer lists them."""
    point: int


def stabilizer(G: PermGroup, q: int) -> Stabilizer:
    """Indices of the elements fixing q, as a subgroup of G that records q."""
    if not 0 <= q < G.degree:
        raise IndexOutOfRange(q, G.degree)
    elems = tuple(i for i, p in enumerate(G.elements) if p[q] == q)
    return Stabilizer(parent=G, elements=elems, point=q)


def stabilizer_cosets(H: Subgroup) -> tuple[CosetSpace, tuple[int, ...]] | None:
    """H\\G listed by image point, with the point q.x of each coset, when H
    is exactly the stabilizer of its recorded point q in a PermGroup G;
    None otherwise, and the caller lists the cosets by products.

    Orbit-stabilizer: (h x)[q] = x[h[q]] = x[q] for h fixing q, and
    x[q] = y[q] iff x y^-1 fixes q, so H x <-> q.x is a bijection from
    H\\G onto the orbit of q. One pass over G in index order, with no
    products, puts every element in its coset: members come out ascending
    and cosets by least element, as right_cosets orders them. The point is
    not trusted. The coset of the identity is Stab(q), and it must equal H:
    then every element of H fixes q, and |H| times the orbit length is |G|.
    """
    G = H.parent
    if not (isinstance(H, Stabilizer) and isinstance(G, PermGroup)
            and 0 <= H.point < G.degree):
        return None
    q = H.point
    slot: dict[int, int] = {}
    cosets: list[list[int]] = []
    points: list[int] = []
    coset_index: list[int] = []
    for x, g in enumerate(G.elements):
        c = slot.get(g[q])
        if c is None:
            c = slot[g[q]] = len(cosets)
            cosets.append([])
            points.append(g[q])
        cosets[c].append(x)
        coset_index.append(c)
    if cosets[coset_index[G.identity]] != list(H.elements):
        return None
    space = CosetSpace(parent=G, subgroup=H, cosets=tuple(map(tuple, cosets)),
                       representatives=tuple(c[0] for c in cosets),
                       coset_index=tuple(coset_index))
    return space, tuple(points)


def transporter(G: PermGroup, frm: int, to: int) -> int | None:
    """Least element index moving frm to to; None if they sit in
    different orbits."""
    if not 0 <= frm < G.degree:
        raise IndexOutOfRange(frm, G.degree)
    if not 0 <= to < G.degree:
        raise IndexOutOfRange(to, G.degree)
    for i, p in enumerate(G.elements):
        if p[frm] == to:
            return i
    return None


def is_homogeneous(S: SymmetricQuandle, max_n: int = DEFAULT_MAX_N) -> bool:
    """True iff the symmetric automorphism group is transitive."""
    return orbits(symmetric_aut_group(S, max_n)).count == 1
