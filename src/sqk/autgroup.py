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
from .groups import GroupLike, Subgroup
from .quandle import Quandle, all_automorphism_maps
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
    """A group of permutations of 0..degree-1, stored exhaustively."""

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
        self._inv = tuple(self._index[perm.inverse(p)] for p in self.elements)
        self.generators = tuple(self._index[tuple(p)] for p in generator_perms)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, x: int, y: int) -> int:
        return self._index[perm.compose(self.elements[x], self.elements[y])]

    def inv(self, x: int) -> int:
        return self._inv[x]

    def name_of(self, x: int) -> str:
        return perm.cycle_token(self.elements[x])

    def index_of(self, p: perm.Perm) -> int | None:
        return self._index.get(tuple(p))

    def apply(self, x: int, point: int) -> int:
        """The right action point . x."""
        return self.elements[x][point]

    def is_closed(self) -> bool:
        els = set(self.elements)
        return all(perm.compose(p, q) in els
                   for p in self.elements for q in self.elements)

    @classmethod
    def from_generators(cls, degree: int,
                        gens: Iterable[perm.Perm]) -> "PermGroup":
        gens = [tuple(p) for p in gens]
        return cls(degree, mulclose(gens + [perm.identity(degree)]), gens)


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple[tuple[int, ...], ...]       # ascending by minimal element
    representatives: tuple[int, ...]          # minimal element of each orbit
    orbit_index: tuple[int, ...]              # point -> orbit number

    @property
    def count(self) -> int:
        return len(self.orbits)


def _greedy_generators(elements: tuple[perm.Perm, ...]) -> list[perm.Perm]:
    """Small generating set: scan elements in order, keep what grows the closure."""
    n = len(elements[0]) if elements else 0
    closure = {perm.identity(n)}
    gens: list[perm.Perm] = []
    for p in elements:
        if p not in closure:
            gens.append(p)
            closure = mulclose(gens)
    return gens


def aut_group(Q: Quandle, max_n: int = DEFAULT_MAX_N) -> PermGroup:
    """All operation-preserving permutations, found by backtracking."""
    if Q.order > max_n:
        raise SizeBoundExceeded(Q.order, max_n)
    maps = all_automorphism_maps(Q)
    return PermGroup(Q.order, maps, _greedy_generators(tuple(maps)))


def symmetric_aut_group(S: SymmetricQuandle,
                        max_n: int = DEFAULT_MAX_N) -> PermGroup:
    """The subgroup of aut_group commuting with rho."""
    full = aut_group(S.quandle, max_n)
    rho = S.rho
    els = tuple(p for p in full.elements
                if all(p[rho[a]] == rho[p[a]] for a in range(S.order)))
    return PermGroup(S.order, els, _greedy_generators(els))


def inner_group(S: SymmetricQuandle) -> PermGroup:
    """Closure of the translations. Each distinct translation is verified to
    be a symmetric quandle automorphism; that covers every element, since
    the closure consists of products of translations and a composite of
    symmetric automorphisms is again one."""
    gens: list[perm.Perm] = []
    for t in S.quandle.translations():
        if t not in gens:
            gens.append(t)
    for t in gens:
        if not is_symmetric_isomorphism_map(S, S, t):
            raise InternalVerificationFailed(
                f"translation {perm.cycle_string(t)} is not a symmetric "
                "automorphism")
    return PermGroup.from_generators(S.order, gens)


def orbits(G: PermGroup) -> OrbitDecomposition:
    n = G.degree
    orbit_index = [-1] * n
    orbs: list[tuple[int, ...]] = []
    reps: list[int] = []
    for a in range(n):
        if orbit_index[a] >= 0:
            continue
        members = sorted({p[a] for p in G.elements})
        idx = len(orbs)
        for m in members:
            orbit_index[m] = idx
        orbs.append(tuple(members))
        reps.append(members[0])
    return OrbitDecomposition(orbits=tuple(orbs), representatives=tuple(reps),
                              orbit_index=tuple(orbit_index))


def stabilizer(G: PermGroup, q: int) -> Subgroup:
    """Indices of the elements fixing q, as a subgroup of G."""
    if not 0 <= q < G.degree:
        raise IndexOutOfRange(q, G.degree)
    elems = tuple(i for i, p in enumerate(G.elements) if p[q] == q)
    return Subgroup(parent=G, elements=elems)


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
