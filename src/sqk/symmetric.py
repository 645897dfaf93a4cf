"""Good involutions and symmetric quandles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import perm
from .errors import (
    NotDualCompatible,
    NotEquivariant,
    NotInvolution,
    SizeBoundExceeded,
    SqkError,
)
from .quandle import (
    Isomorphism,
    Quandle,
    Table,
    _search_maps,
    first_mismatch,
    product_violation,
)

DEFAULT_MAX_N = 12
RACK_HAS_NO_INVOLUTION = "good involutions require a quandle; this table is a rack"


@dataclass(frozen=True)
class SymmetricQuandle:
    quandle: Quandle
    rho: perm.Perm

    @property
    def order(self) -> int:
        return self.quandle.order


def involution_violation(rho: Sequence[int]) -> int | None:
    for a in range(len(rho)):
        if rho[rho[a]] != a:
            return a
    return None


def equivariance_violation(op: Table, rho: Sequence[int]) -> tuple[int, int] | None:
    """First (a,b) with rho(a*b) != rho(a)*b, or None: row a of rho(a*b)
    is compose(op[a], rho), and row a of rho(a)*b is row rho(a)."""
    return first_mismatch([perm.compose(row, rho) for row in op],
                          [tuple(op[r]) for r in rho])


def _spanning_translations(Q: Quandle) -> list[perm.Perm]:
    """The distinct non-identity translations s_c at Q.spanning_points.

    rho(a*c) = rho(a)*c for every a exactly when rho commutes with s_c.
    On a rack the c with that property are closed under *, because
    s_{c*d} = s_d^-1 s_c s_d, and the closure of the spanning points
    under their own translations is every point. So a permutation
    commuting with these translations is equivariant: attach_involution
    proves equivariance at these points, and the involution enumeration
    and autgroup.inner_group work with these translations. The identity
    and a repeated column add nothing, and the list is empty for a
    trivial quandle.
    """
    cols = Q.columns
    ident = perm.identity(Q.order)
    return list(dict.fromkeys(cols[c] for c in Q.spanning_points
                              if cols[c] != ident))


def dual_violation(op: Table, dual: Table, rho: Sequence[int]) -> tuple[int, int] | None:
    """First (a,b) with a*rho(b) != the dual product, or None: row a of
    a*rho(b) is compose(rho, op[a])."""
    return first_mismatch(perm.compose_each(rho, op), list(map(tuple, dual)))


def attach_involution(Q: Quandle, rho: Sequence[int]) -> SymmetricQuandle:
    """Validate rho as a good involution on the validated quandle Q and
    pair them up.

    The three conditions are checked in order: involutivity, equivariance
    rho(a*b) = rho(a)*b, and dual compatibility a*rho(b) = a/b. The last
    two are proved at the points c of Q.spanning_points, as the Q3 proof
    is: equivariance at c is s_c commuting with rho (the argument of
    _spanning_translations carries it to every point), and dual
    compatibility at c is s_c followed by s_rho(c) being the identity,
    s_rho(c) = s_c^-1. Given equivariance everywhere, the b with
    s_rho(b) = s_b^-1 are closed under b -> b*d for every d:
    s_rho(b*d) = s_{rho(b)*d} = s_d^-1 s_rho(b) s_d = (s_d^-1 s_b s_d)^-1
    = s_{b*d}^-1. They hold the spanning points, so they are every point.
    When a proof fails, the full scan (equivariance_violation,
    dual_violation) names the first failing pair, as a cell-by-cell scan
    of the conditions in order would.
    """
    if Q.rack_only:
        raise SqkError(RACK_HAS_NO_INVOLUTION)
    rho = tuple(rho)
    if len(rho) != Q.order:
        raise SqkError(f"rho has length {len(rho)}, expected {Q.order}")
    for v in rho:
        if not isinstance(v, int) or not 0 <= v < Q.order:
            raise SqkError(f"entry {v!r} of rho not in 0..{Q.order - 1}")
    a = involution_violation(rho)
    if a is not None:
        raise NotInvolution(a)
    cols, span, compose = Q.columns, Q.spanning_points, perm.compose
    if any(compose(cols[c], rho) != compose(rho, cols[c]) for c in span):
        raise NotEquivariant(*equivariance_violation(Q.op, rho))
    ident = perm.identity(Q.order)
    if any(compose(cols[c], cols[rho[c]]) != ident for c in span):
        raise NotDualCompatible(*dual_violation(Q.op, Q.dual, rho))
    return SymmetricQuandle(quandle=Q, rho=rho)


def is_good_involution(Q: Quandle, rho: Sequence[int]) -> bool:
    try:
        attach_involution(Q, rho)
    except SqkError:
        return False
    return True


def enumerate_good_involutions(Q: Quandle,
                               max_n: int = DEFAULT_MAX_N) -> list[perm.Perm]:
    """All good involutions of Q, in lexicographic order of the array.

    A good involution commutes with every spanning translation t (see
    _spanning_translations), so on an orbit of theirs it is the orbit map
    m fixed by its value y at the least point x, m(t[a]) = t[m(a)], built
    once along a Schreier tree. Dual compatibility s_y = s_x^-1 checked
    at x carries along the orbit: t is an automorphism, so
    s_{t[a]} = t^-1 s_a t. Each y >= x with s_y = s_x^-1 is tried once,
    and m is kept when it is injective and commutes with every spanning
    translation on the orbit, so it maps the orbit onto the orbit of y;
    when y lies in the same orbit, also when m(y) = x, as m^2 commutes
    and fixes x, so it is the identity there. Then rho is m on the orbit
    and m^-1 on the orbit of y, and commuting with the spanning
    translations is equivariance. The search pairs the least unpaired
    orbit with the orbit of each kept y while that is unpaired, with an
    explicit stack. That orbit's x is the least point not yet assigned,
    and y increases, so the completions come in lexicographic order; each
    has written every point, so nothing is undone. A trivial quandle's
    orbits are its points. A rack has none, as attach_involution rules.
    """
    if Q.rack_only:
        raise SqkError(RACK_HAS_NO_INVOLUTION)
    n = Q.order
    if n > max_n:
        raise SizeBoundExceeded(n, max_n)
    # s_c = s_b^-1 iff kind[c] == dual_kind[b]
    cols = Q.columns
    kinds: dict[perm.Perm, int] = {}
    kind = [kinds.setdefault(col, len(kinds)) for col in cols]
    dual_kind = [kinds.get(perm.inverse(col), -1) for col in cols]
    gens = _spanning_translations(Q)
    orbit = [-1] * n
    trees = []          # per orbit, (point, parent, t) from its least point
    for x in range(n):
        if orbit[x] < 0:
            orbit[x] = len(trees)
            trees.append([(x, x, None)])
            for a, _, _ in trees[-1]:
                for t in gens:
                    if orbit[t[a]] < 0:
                        orbit[t[a]] = orbit[x]
                        trees[-1].append((t[a], a, t))
    choices = []        # per orbit, each (orbit paired with it, rho's pairs)
    for i, tree in enumerate(trees):
        x, points = tree[0][0], [a for a, _, _ in tree]
        choices.append([])
        for y in range(x, n):
            if kind[y] != dual_kind[x] or orbit[y] < i:
                continue    # an orbit below i is paired before i
            m = {x: y}
            for b, a, t in tree[1:]:
                m[b] = t[m[a]]
            images = list(m.values())
            if len(set(images)) == len(points) and (orbit[y] > i or m[y] == x) \
                    and all(m[t[a]] == t[m[a]] for t in gens for a in points):
                choices[i].append(
                    (orbit[y], tuple(zip(points + images, images + points))))

    found: list[perm.Perm] = []
    rho = [-1] * n
    k = len(trees)
    partner = [-1] * k  # the orbit paired with each, or -1
    stack = [(0, iter(choices[0]))]     # per open orbit, its choices left
    while stack:
        i, options = stack[-1]
        j = partner[i]
        if j >= 0:
            partner[i] = partner[j] = -1
        for j, pairs in options:
            if partner[j] < 0:
                break
        else:
            stack.pop()
            continue
        partner[i] = j
        partner[j] = i
        for a, b in pairs:
            rho[a] = b
        while i < k and partner[i] >= 0:
            i += 1
        if i == k:
            found.append(tuple(rho))
        else:
            stack.append((i, iter(choices[i])))
    return found


def find_symmetric_isomorphism(S1: SymmetricQuandle,
                               S2: SymmetricQuandle) -> Isomorphism | None:
    """Least quandle isomorphism f with f o rho1 = rho2 o f, or None."""
    maps = _search_maps(S1.quandle.op, S2.quandle.op, S1.rho, S2.rho)
    if not maps:
        return None
    return Isomorphism(source=S1, target=S2, map=maps[0])


def is_symmetric_isomorphism_map(S1: SymmetricQuandle, S2: SymmetricQuandle,
                                 f: Sequence[int]) -> bool:
    n = S1.order
    if S2.order != n or sorted(f) != list(range(n)):
        return False
    if product_violation(S1.quandle.op, S2.quandle.op, f) is not None:
        return False
    return perm.compose(S1.rho, f) == perm.compose(f, S2.rho)
