"""Good involutions and symmetric quandles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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
    """The distinct non-identity translations s_b at perm.spanning_points.

    rho(a*b) = rho(a)*b for every a exactly when rho commutes with s_b.
    On a rack the b with that property are closed under *, because
    s_{c*d} = s_d^-1 s_c s_d, and the closure of the spanning points
    under their own translations is every point. So a permutation
    commuting with these translations is equivariant. The list is empty
    for a trivial quandle.
    """
    cols = Q.translations()
    ident = perm.identity(Q.order)
    return list(dict.fromkeys(cols[b] for b in perm.spanning_points(cols)
                              if cols[b] != ident))


def _commutes(rho: perm.Perm, maps: Sequence[perm.Perm]) -> bool:
    compose = perm.compose
    return all(compose(s, rho) == compose(rho, s) for s in maps)


def dual_violation(op: Table, dual: Table, rho: Sequence[int]) -> tuple[int, int] | None:
    """First (a,b) with a*rho(b) != the dual product, or None: row a of
    a*rho(b) is compose(rho, op[a])."""
    return first_mismatch([perm.compose(rho, row) for row in op],
                          list(map(tuple, dual)))


def attach_involution(Q: Quandle, rho: Sequence[int]) -> SymmetricQuandle:
    """Validate rho as a good involution on Q and pair them up.

    The three conditions are checked in order: involutivity, equivariance
    rho(a*b) = rho(a)*b, and dual compatibility a*rho(b) = dual(a,b).
    """
    if Q.rack_only:
        raise SqkError(RACK_HAS_NO_INVOLUTION)
    rho = tuple(rho)
    if len(rho) != Q.order:
        raise SqkError(f"rho has length {len(rho)}, expected {Q.order}")
    a = involution_violation(rho)
    if a is not None:
        raise NotInvolution(a)
    ab = equivariance_violation(Q.op, rho)
    if ab is not None:
        raise NotEquivariant(*ab)
    ab = dual_violation(Q.op, Q.dual, rho)
    if ab is not None:
        raise NotDualCompatible(*ab)
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

    Dual compatibility pins rho(b) to C_b = {c : s_c = s_b^-1}, so the
    search backtracks over involutions respecting C_b, assigning
    b = 0, 1, ... in turn with an explicit stack. Each completion is kept
    when it commutes with the spanning translations, which proves
    equivariance (see _spanning_translations). A rack has none, as
    attach_involution rules.
    """
    if Q.rack_only:
        raise SqkError(RACK_HAS_NO_INVOLUTION)
    n = Q.order
    if n > max_n:
        raise SizeBoundExceeded(n, max_n)
    cols = Q.translations()
    inv_cols = [perm.inverse(c) for c in cols]
    cand = [[c for c in range(n) if cols[c] == inv_cols[b]] for b in range(n)]
    gens = _spanning_translations(Q)

    rho = [-1] * n
    found: list[perm.Perm] = []
    # one entry per open choice: b and the candidates for rho(b) not yet tried
    stack: list[tuple[int, Iterator[int]]] = []
    b = 0
    while True:
        while b < n and rho[b] >= 0:
            b += 1
        if b == n:
            r = tuple(rho)
            if _commutes(r, gens):
                found.append(r)
        else:
            stack.append((b, iter(cand[b])))
        while stack:
            b, options = stack[-1]
            c = rho[b]
            if c >= 0:
                rho[b] = rho[c] = -1
            for c in options:
                if c >= b and rho[c] < 0:
                    rho[b] = c
                    rho[c] = b
                    break
            else:
                stack.pop()
                continue
            break
        else:
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
