"""Automorphism groups of (symmetric) quandles as permutation groups,
orbits, stabilizers, transporters.

A group is stored by a base and strong generating set on the base
0..degree-1 (Sims 1970), built by a deterministic Schreier-Sims. The chain
gives the order, membership by sifting and the orbits without listing any
element. Element indices (lexicographic ranks), least transporters and
coset representatives, the least element outside a subgroup and the
greedy generators all come from the descent over base images (_Chain).
The elements are listed, in lexicographic order, only where every one is
used: a written group table and requests for all the indices of a
subgroup or coset space. The product convention is "apply left, then
right", so the action on points is a right action a.f = f(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from . import perm
from .errors import (
    IndexOutOfRange,
    InternalVerificationFailed,
    SizeBoundExceeded,
)
from .groups import GroupLike
from .quandle import Quandle, Table, _MapSearch
from .symmetric import (
    DEFAULT_MAX_N,
    SymmetricQuandle,
    _spanning_translations,
)


# kept in sqk because perfbench/tracing.py wraps it by name
def mulclose(perms: Iterable[perm.Perm]) -> set[perm.Perm]:
    """Closure of a set of permutations under composition. perm.compose is
    looked up per call, so a rebinding of it sees every product."""
    gens = list(perms)
    return set(perm.closure(gens, gens, perm.compose))


class _Level:
    """One nontrivial level of a stabilizer chain: the orbit of base under
    gens, with a transversal element u_v (u_v[base] = v) and its inverse
    for each orbit point v. tree holds the pairs (v, i) with u_{v.gens[i]}
    = u_v gens[i], whose Schreier generators are the identity; done[i]
    counts the orbit points whose Schreier generators with gens[i] have
    been sifted."""

    __slots__ = ("base", "gens", "invs", "orbit", "trans", "tinv", "tree",
                 "done")

    def __init__(self, base: int, ident: perm.Perm):
        self.base = base
        self.gens: list[perm.Perm] = []
        self.invs: list[perm.Perm] = []
        self.orbit = [base]
        self.trans = {base: ident}
        self.tinv = {base: ident}
        self.tree: set[tuple[int, int]] = set()
        self.done: list[int] = []

    def add_gen(self, s: perm.Perm, s_inv: perm.Perm) -> None:
        """Append s and grow the orbit by the orbit algorithm, with
        u_{v.s} = u_v s and its inverse s^-1 u_v^-1, so no element is
        inverted. Old points need only s; new points need every generator."""
        compose = perm.compose
        self.gens.append(s)
        self.invs.append(s_inv)
        self.done.append(0)
        orbit, trans, tinv = self.orbit, self.trans, self.tinv
        last = len(self.gens) - 1
        i, old = 0, len(orbit)
        while i < len(orbit):
            v = orbit[i]
            for gi in (range(last + 1) if i >= old else (last,)):
                g = self.gens[gi]
                w = g[v]
                if w not in trans:
                    orbit.append(w)
                    trans[w] = compose(trans[v], g)
                    tinv[w] = compose(self.invs[gi], tinv[v])
                    self.tree.add((v, gi))
            i += 1


class _Chain:
    """A base and strong generating set on the base 0..degree-1, by the
    incremental Schreier-Sims algorithm (Holt, Eick and O'Brien 2005,
    SCHREIERSIMS), deterministic in the order generators are given.

    Only the nontrivial levels are stored, ascending by base point. A
    strong generator s is in the levels with base point from lo, the level
    it was made for, up to its first moved point; for the generators given
    lo is 0. Level k is complete when each Schreier generator
    u_v s u_{v.s}^-1 sifts through the levels below it; then the group of
    the levels below is the stabilizer of k in the group of level k
    (Schreier's lemma), and the order is the product of the orbit lengths.
    perm.compose is looked up per call, so a rebinding of it counts every
    product.

    The descent (Butler 1991): an element is u_{d-1} ... u_1 u_0 (u_0
    applied last), one transversal element u_w per level. Below the
    product P of the levels above level j, the subtree of child w is
    Y u_w P with Y in the group of the levels below; its elements agree
    with P on the points before the base b_j, send b_j to P[w], and agree
    with each other up to the next base. So children taken by ascending
    P[w] give the lexicographic order, and the least element of a union
    of subtrees takes, at each level, the child of least image whose
    subtree meets it, with no backtracking.
    """

    def __init__(self, degree: int, gens: Iterable[perm.Perm] = ()):
        self.identity = perm.identity(degree)
        self.levels: list[_Level] = []
        self.gens: list[perm.Perm] = []       # the given ones that were kept
        self._strong: list[tuple[perm.Perm, perm.Perm, int, int]] = []
        for g in gens:
            self.extend(g)

    @property
    def order(self) -> int:
        size = 1
        for L in self.levels:
            size *= len(L.orbit)
        return size

    def sift(self, g: perm.Perm, start: int = 0) -> perm.Perm:
        """g divided by transversal elements, level by level from level
        start, until a base image leaves an orbit; the identity iff g lies
        in the group of the levels from start on."""
        compose = perm.compose
        for L in self.levels[start:]:
            v = g[L.base]
            if v != L.base:
                t = L.tinv.get(v)
                if t is None:
                    return g
                g = compose(g, t)
        return g

    def __contains__(self, g: perm.Perm) -> bool:
        return self.sift(g) == self.identity

    def extend(self, g: perm.Perm) -> None:
        """Add g to the generators unless it is already a member."""
        g = tuple(g)
        r = self.sift(g)
        if r == self.identity:
            return
        self.gens.append(g)
        self._complete(self._add(r, 0))

    def _add(self, r: perm.Perm, lo: int) -> int:
        """Make r a strong generator of the levels with base point lo to its
        first moved point j, creating level j with the strong generators
        that reach it; returns the index of level j."""
        j = next(a for a, v in enumerate(r) if a != v)
        if j < lo:
            raise InternalVerificationFailed(
                f"Schreier generator moves the base point {j} it must fix")
        levels = self.levels
        at = sum(L.base < j for L in levels)
        old = at < len(levels) and levels[at].base == j
        if old and r[j] in levels[at].trans:
            raise InternalVerificationFailed(
                f"sifting stopped inside the orbit of base point {j}")
        r_inv = perm.inverse(r)
        self._strong.append((r, r_inv, lo, j))
        if not old:
            new = _Level(j, self.identity)
            for s, s_inv, s_lo, s_hi in self._strong:
                if s_lo <= j <= s_hi:
                    new.add_gen(s, s_inv)
            levels.insert(at, new)
        for L in levels[:at + old]:
            if L.base >= lo:
                L.add_gen(r, r_inv)
        return at

    def _complete(self, i: int) -> None:
        """Sift every new Schreier generator of levels i, i-1, ..., 0; a
        residue becomes a strong generator of the levels below, which are
        then completed first."""
        compose, ident = perm.compose, self.identity
        while i >= 0:
            L = self.levels[i]
            residue = None
            for gi, s in enumerate(L.gens):
                while residue is None and L.done[gi] < len(L.orbit):
                    v = L.orbit[L.done[gi]]
                    L.done[gi] += 1
                    if (v, gi) not in L.tree:
                        h = compose(compose(L.trans[v], s), L.tinv[s[v]])
                        r = self.sift(h, i + 1)
                        if r != ident:
                            residue = r
            if residue is None:
                i -= 1
            else:
                i = self._add(residue, L.base + 1)

    def walk(self) -> Iterator[perm.Perm]:
        """Every element in lexicographic order (the descent, _Chain),
        made as it is taken."""
        compose, levels = perm.compose, self.levels
        last = len(levels) - 1

        def below(j: int, P: perm.Perm) -> Iterator[perm.Perm]:
            if j > last:
                yield P
                return
            L = levels[j]
            kids = sorted(L.orbit, key=P.__getitem__)
            if j == last:
                for w in kids:
                    yield compose(L.trans[w], P)
            else:
                for w in kids:
                    yield from below(j + 1, compose(L.trans[w], P))

        if not levels:
            yield self.identity
            return
        for w in sorted(levels[0].orbit):
            yield from below(1, levels[0].trans[w])

    def rank(self, g: perm.Perm) -> int | None:
        """The index of g in the order of walk, or None if g is not a
        member. Below P, g lies in the subtree of the child w with
        P[w] = g[b_j], after the children u with P[u] < g[b_j], each a
        subtree of the order of the levels below (_Chain). g is a member
        iff the product of the children taken is g."""
        compose = perm.compose
        x, below = 0, self.order
        P = Pinv = self.identity
        for L in self.levels:
            below //= len(L.orbit)
            v = g[L.base]
            w = Pinv[v]
            if w not in L.trans:
                return None
            x += below * sum(P[u] < v for u in L.orbit)
            P, Pinv = compose(L.trans[w], P), compose(Pinv, L.tinv[w])
        return x if P == g else None

    def unrank(self, x: int) -> perm.Perm:
        """The element of index x in the order of walk (0 <= x < order)."""
        compose, below, P = perm.compose, self.order, self.identity
        for L in self.levels:
            below //= len(L.orbit)
            c, x = divmod(x, below)
            P = compose(L.trans[sorted(L.orbit, key=P.__getitem__)[c]], P)
        return P

    def transporters(self, q: int, targets: Sequence[int]
                     ) -> list[tuple[perm.Perm, perm.Perm] | None]:
        """For each p in targets, the lexicographically least element g
        with g[q] = p, with g^-1; None when p is not in the orbit of q.

        The descent (_Chain): the subtree Y u_w P of child w holds an
        element carrying q to p iff u_w^-1[P^-1[p]] lies in the orbit of q
        under the levels below. At the first level P is the identity, and
        one table settles every target: the least w with p in u_w[orbit of
        q]. Each result is checked to carry q to p."""
        compose, levels = perm.compose, self.levels
        if not levels:
            return [(self.identity, self.identity) if p == q else None
                    for p in targets]
        below = [set(perm.closure([q], L.gens, perm.image)) for L in levels[1:]]
        below.append({q})
        first: dict[int, int] = {}
        for w in sorted(levels[0].orbit):
            u = levels[0].trans[w]
            for a in below[0]:
                first.setdefault(u[a], w)
        out: list[tuple[perm.Perm, perm.Perm] | None] = []
        for p in targets:
            w = first.get(p)
            if w is None:
                out.append(None)
                continue
            P, Pinv = levels[0].trans[w], levels[0].tinv[w]
            for L, orb in zip(levels[1:], below[1:]):
                t = Pinv[p]
                w = min((u for u in L.orbit if L.tinv[u][t] in orb),
                        key=P.__getitem__)
                P, Pinv = compose(L.trans[w], P), compose(Pinv, L.tinv[w])
            if P[q] != p:
                raise InternalVerificationFailed(
                    f"the descent from {q} to {p} ends at {P[q]}")
            out.append((P, Pinv))
        return out

    def _least_below(self, P: perm.Perm, j: int) -> perm.Perm:
        """The least element of the subtree below P, the product of the
        levels above j (_Chain): the child of least image at each level."""
        compose = perm.compose
        for L in self.levels[j:]:
            P = compose(L.trans[min(L.orbit, key=P.__getitem__)], P)
        return P

    def least_outside(self, ok: Callable[[perm.Perm], bool],
                      start: int = 0) -> perm.Perm | None:
        """The lexicographically least element g of G_start, the group of
        the levels from start on, with ok(g) false, or None; the elements
        with ok true must form a subgroup K.

        G_j, the group of levels j and below, is generated by G_{j+1} and
        the strong generators that move b_j, so, from the bottom up,
        G_j <= K iff G_{j+1} <= K and each of those passes ok. Each element
        of G_start outside G_j moves a point before b_j up, so the least g
        lies in the deepest G_j not in K. There G_{j+1} <= K, so the
        subtree G_{j+1} u_w of each child lies wholly inside K or outside,
        and g is the least element of the least child outside (_Chain).
        The result is checked to fail ok."""
        levels = self.levels
        for j in reversed(range(start, len(levels))):
            L = levels[j]
            if not all(ok(s) for s in L.gens if s[L.base] != L.base):
                break
        else:
            return None
        P = self._least_below(
            next(L.trans[w] for w in sorted(L.orbit) if not ok(L.trans[w])),
            j + 1)
        if ok(P):
            raise InternalVerificationFailed(
                f"the descent below level {j} ends inside the subgroup")
        return P

    def greedy_generators(self) -> list[perm.Perm]:
        """The greedy generators over the lexicographic order: the least
        element outside K, the group of those kept so far, is kept next,
        until K is everything. They are read off the level orbits, from the
        deepest level up; no chain is built for K and nothing is sifted.

        At level j, K holds G_{j+1} and lies in G_j, so K is the x in G_j
        with x[b_j] in D, the orbit of b_j under the kept generators. As in
        least_outside, the least element outside K is the least element of
        the subtree of w, the least orbit point outside D (_Chain). When D
        is the whole orbit, K = G_j and the next level up starts. Each kept
        element is checked to carry b_j out of D."""
        levels = self.levels
        kept: list[perm.Perm] = []
        for j in reversed(range(len(levels))):
            L = levels[j]
            D = {L.base}
            for w in sorted(L.orbit):
                if w in D:
                    continue
                P = self._least_below(L.trans[w], j + 1)
                if P[L.base] in D:
                    raise InternalVerificationFailed(
                        f"the greedy generator for level {j} keeps its base "
                        "point inside the orbit of those kept")
                kept.append(P)
                D = set(perm.closure([L.base], kept, perm.image))
        return kept


class PermGroup(GroupLike):
    """A group of permutations of 0..degree-1, stored by its stabilizer
    chain, built from a list of elements, which must form a group, or from
    a chain. The printed generators, generator_perms, generate the group;
    with none given, every element is one. The index of an element is its
    lexicographic rank (the identity is 0). The elements, which mul, inv
    and name_of read, are listed on first use by the chain's walk."""


    def __init__(self, degree: int, elements: Iterable[perm.Perm] = (),
                 generator_perms: Iterable[perm.Perm] = (),
                 chain: _Chain | None = None):
        self.degree = degree
        if chain is None:
            els = sorted(set(map(tuple, elements))) or [perm.identity(degree)]
            chain = _Chain(degree, els)
            if chain.order != len(els):
                raise InternalVerificationFailed(
                    f"{len(els)} permutations generate a group of order "
                    f"{chain.order}")
            self.elements = tuple(els)
        self.chain = chain
        self.identity = 0
        self.generator_perms = (tuple(map(tuple, generator_perms))
                                or tuple(self.elements))
        self._perms: dict[int, perm.Perm] = {}    # index -> element, as met

    @property
    def order(self) -> int:
        return self.chain.order

    def iter_elements(self) -> Iterator[perm.Perm]:
        return self.chain.walk()

    @cached_property
    def elements(self) -> tuple[perm.Perm, ...]:
        return tuple(self.iter_elements())

    @cached_property
    def _index(self) -> dict[perm.Perm, int]:
        return {p: i for i, p in enumerate(self.elements)}

    @property
    def generators(self) -> tuple[int, ...]:
        """The indices of generator_perms."""
        return tuple(map(self.index_of, self.generator_perms))

    def element(self, x: int) -> perm.Perm:
        """The permutation of index x."""
        p = self._perms.get(x)
        if p is None:
            p = self._perms[x] = self.chain.unrank(self.check_index(x))
        return p

    def index_of(self, p: perm.Perm) -> int | None:
        """The index of p, or None if p is not a member."""
        p = tuple(p)
        x = self.chain.rank(p) if len(p) == self.degree else None
        if x is not None:
            self._perms[x] = p
        return x

    def mul(self, x: int, y: int) -> int:
        return self._index[perm.compose(self.elements[x], self.elements[y])]

    def inv(self, x: int) -> int:
        return self._index[perm.inverse(self.elements[x])]

    def name_of(self, x: int) -> str:
        return perm.cycle_token(self.elements[x])


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple[tuple[int, ...], ...]       # ascending by minimal element
    representatives: tuple[int, ...]          # minimal element of each orbit
    orbit_index: tuple[int, ...]              # point -> orbit number

    @property
    def count(self) -> int:
        return len(self.orbits)


def _chain_group(op: Table, rho: perm.Perm | None = None) -> PermGroup:
    """The automorphisms of op (commuting with rho, when given), found along
    the pointwise stabilizer chain G = G_0 >= G_1 >= ... >= G_n = 1, where
    G_k fixes 0..k-1, from k = n-1 down.

    An automorphism fixing 0..k-1 fixes the subquandle they generate, so
    only op's generating points k are searched: each candidate image v not
    yet in the orbit of k gets one find-first search with f(i) = i for
    i < k and f(k) = v, in one shared _MapSearch (the map-search argument
    there). A hit is a generator, accepted after the complete-map check;
    a miss proves v is not in the orbit of k under G_k. So each orbit is
    exact, and the generators generate G. Schreier-Sims on them must give
    the product of the orbit lengths as the order: a missed orbit point or
    a lost generator changes one side and not the other. The printed
    generators are the chain's greedy ones, independent of those found."""
    n = len(op)
    search = _MapSearch(op, op, rho, rho)
    order = search.order
    pos = {a: i for i, a in enumerate(order)}
    gens: list[perm.Perm] = []
    size = 1
    for k in reversed(search.gens):
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
                orbit = set(perm.closure([k], gens, perm.image))
        size *= len(orbit)
    chain = _Chain(n, gens)
    if chain.order != size:
        raise InternalVerificationFailed(
            f"the automorphisms found generate a group of order "
            f"{chain.order}, the stabilizer chain {size}")
    return PermGroup(n, generator_perms=chain.greedy_generators(), chain=chain)


def aut_group(Q: Quandle, max_n: int = DEFAULT_MAX_N) -> PermGroup:
    """All operation-preserving permutations, kept as the stabilizer chain
    on the base 0, 1, ..., n-1 that _chain_group finds by map searches
    (the map-search argument of _MapSearch); no element is listed."""
    if Q.order > max_n:
        raise SizeBoundExceeded(Q.order, max_n)
    return _chain_group(Q.op)


def symmetric_aut_group(S: SymmetricQuandle,
                        max_n: int = DEFAULT_MAX_N) -> PermGroup:
    """The automorphisms commuting with rho, found as in aut_group with rho
    as a search constraint (_chain_group, and the map-search argument of
    _MapSearch, which covers rho)."""
    if S.order > max_n:
        raise SizeBoundExceeded(S.order, max_n)
    return _chain_group(S.quandle.op, S.rho)


def inner_group(S: SymmetricQuandle) -> PermGroup:
    """The group generated by the translations s_b: a -> a*b, kept as a
    stabilizer chain.

    Every translation is a symmetric automorphism when S.violation is
    None (read, or proved here when S skipped validation). The chain is
    built from the spanning translations (symmetric._spanning_translations)
    alone. They generate every translation: s_{a*b} = s_b^-1 s_a s_b, so
    the a with s_a in the group are closed under a -> a*b. The printed
    generators are every distinct translation, in column order, each
    sifted through the chain as a cross-check.
    """
    bad = S.violation
    if bad is not None:
        raise InternalVerificationFailed(str(bad)) from bad
    span = _spanning_translations(S.quandle)
    chain = _Chain(S.order, span)
    gens = list(dict.fromkeys(S.quandle.columns))
    for t in gens:
        if t not in chain:
            raise InternalVerificationFailed(
                f"translation {perm.cycle_string(t)} is missing from the "
                "group of the spanning translations")
    return PermGroup(S.order, generator_perms=gens, chain=chain)


def orbits(G: PermGroup) -> OrbitDecomposition:
    """Orbits on 0..degree-1 by the orbit algorithm on the generators G's
    chain was built from, in O(degree * generators)."""
    gens = G.chain.gens
    orbit_index = [-1] * G.degree
    orbs: list[tuple[int, ...]] = []
    for a in range(G.degree):
        if orbit_index[a] < 0:
            orbs.append(tuple(sorted(perm.closure([a], gens, perm.image))))
            for m in orbs[-1]:
                orbit_index[m] = len(orbs) - 1
    return OrbitDecomposition(orbits=tuple(orbs),
                              representatives=tuple(o[0] for o in orbs),
                              orbit_index=tuple(orbit_index))


@dataclass(frozen=True)
class Stabilizer:
    """The elements of a PermGroup fixing point, given by a chain and the
    first of its levels that generate them (_chain).

    The chain is the group's own when point is its first base point or
    fixed by every element. Otherwise it is a chain of the Schreier
    generators x_v s x_{v.s}^-1 over the group's generators s, with the
    least transporters x_v of the coset listing (the descent, _Chain) as
    the transversal (Schreier's lemma). Each is checked to fix point and
    sifted in until the chain has the order |G| / |orbit|. The element
    indices are listed only on request."""
    parent: PermGroup
    point: int

    @cached_property
    def orbit(self) -> list[int]:
        """The orbit of point under the group, in the order reached."""
        return perm.closure([self.point], self.parent.chain.gens, perm.image)

    @property
    def order(self) -> int:
        return self.parent.order // len(self.orbit)

    @cached_property
    def cosets(self) -> PointCosets:
        return PointCosets(self)

    @cached_property
    def _chain(self) -> tuple[_Chain, int]:
        """A chain and the first of its levels that generate the
        stabilizer."""
        chain, q = self.parent.chain, self.point
        if chain.levels and chain.levels[0].base == q:
            return chain, 1
        if len(self.orbit) == 1:
            return chain, 0
        compose, order = perm.compose, self.order
        cos = self.cosets
        kept = _Chain(len(chain.identity))
        schreier = (compose(compose(x, s), cos.rep_invs[cos.slot[s[v]]])
                    for x, v in zip(cos.reps, cos.points) for s in chain.gens)
        for h in schreier:
            if kept.order == order:
                break
            if h[q] != q:
                raise InternalVerificationFailed(
                    f"Schreier generator {perm.cycle_string(h)} moves {q}")
            kept.extend(h)
        if kept.order != order:
            raise InternalVerificationFailed(
                f"the Schreier generators of {q} generate a group of order "
                f"{kept.order}, not {order}")
        return kept, 0

    @property
    def generators(self) -> tuple[perm.Perm, ...]:
        chain, start = self._chain
        if start == 0:
            return tuple(chain.gens)
        return tuple(chain.levels[1].gens) if len(chain.levels) > 1 else ()

    def least_outside(self, ok: Callable[[perm.Perm], bool]) -> perm.Perm | None:
        """The lexicographically least element h, which is the least in the
        parent's index order, with ok(h) false, or None; the elements with
        ok true must form a subgroup (_Chain.least_outside)."""
        chain, start = self._chain
        return chain.least_outside(ok, start)

    @cached_property
    def elements(self) -> tuple[int, ...]:
        """The indices of the elements, ascending, by a scan of the listed
        group."""
        q = self.point
        return tuple(x for x, g in enumerate(self.parent.elements) if g[q] == q)

    def __contains__(self, x: int) -> bool:
        return self.parent.element(x)[self.point] == self.point


def stabilizer(G: PermGroup, q: int) -> Stabilizer:
    """The stabilizer of q in G."""
    if not 0 <= q < G.degree:
        raise IndexOutOfRange(q, G.degree)
    return Stabilizer(parent=G, point=q)


class PointCosets:
    """H\\G for the stabilizer H of a point q, listed by the point q.x of
    each coset, with the least element x of each coset and its inverse.

    Orbit-stabilizer: x[q] = y[q] iff x y^-1 fixes q, so H x <-> q.x is a
    bijection from H\\G onto the orbit of q, and the least element of the
    coset at p is the least transporter from q to p (the descent, _Chain).
    The cosets are ordered by it, as right_cosets orders them by least
    element. The indices of a CosetSpace are made on request."""

    def __init__(self, subgroup: Stabilizer):
        G, q = subgroup.parent, subgroup.point
        found = G.chain.transporters(q, subgroup.orbit)
        found.sort()
        self.parent, self.subgroup = G, subgroup
        self.reps = tuple(x for x, _ in found)
        self.rep_invs = tuple(x_inv for _, x_inv in found)
        self.points = tuple(x[q] for x in self.reps)
        self.slot = [-1] * G.degree       # point -> coset
        for c, p in enumerate(self.points):
            self.slot[p] = c

    @property
    def count(self) -> int:
        return len(self.points)

    def name(self, c: int) -> str:
        return perm.cycle_token(self.reps[c])

    @cached_property
    def representatives(self) -> tuple[int, ...]:
        return tuple(map(self.parent.index_of, self.reps))

    @cached_property
    def coset_index(self) -> tuple[int, ...]:
        q = self.subgroup.point
        return tuple(self.slot[g[q]] for g in self.parent.elements)

    @cached_property
    def cosets(self) -> tuple[tuple[int, ...], ...]:
        members: list[list[int]] = [[] for _ in self.points]
        for x, c in enumerate(self.coset_index):
            members[c].append(x)
        return tuple(map(tuple, members))


def transporter(G: PermGroup, frm: int, to: int) -> int | None:
    """Least element index moving frm to to; None if they sit in
    different orbits."""
    if not 0 <= frm < G.degree:
        raise IndexOutOfRange(frm, G.degree)
    if not 0 <= to < G.degree:
        raise IndexOutOfRange(to, G.degree)
    found = G.chain.transporters(frm, [to])[0]
    return None if found is None else G.index_of(found[0])


def is_homogeneous(S: SymmetricQuandle, max_n: int = DEFAULT_MAX_N) -> bool:
    """True iff the symmetric automorphism group is transitive."""
    return orbits(symmetric_aut_group(S, max_n)).count == 1
