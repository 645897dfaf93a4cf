"""Good involutions and symmetric quandles."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

from . import perm
from .errors import (
    FormatError,
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
    refuse_unproved,
)

DEFAULT_MAX_N = 12
RACK_HAS_NO_INVOLUTION = "good involutions require a quandle; this table is a rack"


@dataclass(frozen=True)
class SymmetricQuandle:
    quandle: Quandle
    rho: perm.Perm

    @property
    def op(self) -> Table:
        return self.quandle.op

    @property
    def order(self) -> int:
        return self.quandle.order

    @cached_property
    def violation(self) -> SqkError | None:
        """The first fact the pair fails, with its witness, or None: the
        quandle axioms (RACK_HAS_NO_INVOLUTION on a rack, else
        Quandle.violation), then involutivity, equivariance
        rho(a*b) = rho(a)*b and dual compatibility a*rho(b) = a/b. Derived
        on first read and kept, as the quandle's verdict is:
        attach_involution raises it, and quandle.refuse_unproved reads it
        at the gates of the searches and groups.

        On a rack the last two are proved at Q.spanning_points.
        Equivariance at c is s_c commuting with rho (see
        _spanning_translations). Dual compatibility at c is
        s_rho(c) = s_c^-1, and given equivariance the b where it holds are
        closed under b -> b*d, as s_rho(b*d) = s_d^-1 s_rho(b) s_d. When a
        proof fails, the full scan names the first failing pair, as a
        cell-by-cell scan of the conditions in order would.
        """
        Q, rho = self.quandle, self.rho
        if Q.violation is not None:
            return SqkError(RACK_HAS_NO_INVOLUTION) if Q.rack_only else Q.violation
        a = involution_violation(rho)
        if a is not None:
            return NotInvolution(a)
        cols, span, compose = Q.columns, Q.spanning_points, perm.compose
        if any(compose(cols[c], rho) != compose(rho, cols[c]) for c in span):
            return NotEquivariant(*equivariance_violation(Q.op, rho))
        ident = perm.identity(Q.order)
        if any(compose(cols[c], cols[rho[c]]) != ident for c in span):
            return NotDualCompatible(*dual_violation(Q.op, Q.dual, rho))
        return None


def involution_violation(rho: Sequence[int]) -> int | None:
    """First a with rho(rho(a)) != a, or None."""
    return next((a for a, b in enumerate(rho) if rho[b] != a), None)


def equivariance_violation(op: Table, rho: Sequence[int]) -> tuple[int, int] | None:
    """First (a,b) with rho(a*b) != rho(a)*b, or None: row a of rho(a*b)
    is compose(op[a], rho), and row a of rho(a)*b is row rho(a)."""
    return first_mismatch([perm.compose(row, rho) for row in op],
                          [tuple(op[r]) for r in rho])


def _spanning_translations(Q: Quandle) -> list[perm.Perm]:
    """The distinct non-identity translations s_c at Q.spanning_points.

    rho(a*c) = rho(a)*c for every a exactly when rho commutes with s_c,
    and on a rack the c where it does are closed under c -> c*d, as
    s_{c*d} = s_d^-1 s_c s_d. So a permutation commuting with these
    translations is equivariant, and they generate every translation
    (autgroup.inner_group).
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
    """Pair the quandle Q with rho after checking rho's length and
    entries, and raise the pair's violation if it has one."""
    rho = tuple(rho)
    if len(rho) != Q.order:
        raise FormatError(f"rho has length {len(rho)}, expected {Q.order}")
    for v in rho:
        if not isinstance(v, int) or not 0 <= v < Q.order:
            raise FormatError(f"entry {v!r} of rho not in 0..{Q.order - 1}")
    S = SymmetricQuandle(quandle=Q, rho=rho)
    if S.violation is not None:
        raise S.violation.with_traceback(None)
    return S


def is_good_involution(Q: Quandle, rho: Sequence[int]) -> bool:
    try:
        attach_involution(Q, rho)
    except SqkError:
        return False
    return True


def enumerate_good_involutions(Q: Quandle,
                               max_n: int = DEFAULT_MAX_N) -> list[perm.Perm]:
    """All good involutions of Q, in lexicographic order of the array:
    rho as good_involution_walk writes it, at each of its steps."""
    rho = [-1] * Q.order
    return [tuple(rho) for _ in good_involution_walk(
        Q, max_n, lambda a, b: ((rho, a, b),))]


def good_involution_walk(Q: Quandle, max_n: int,
                         write: Callable) -> Iterator[None]:
    """Steps once per good involution rho of Q, in lexicographic order of
    the array, after the writes t[a] = v that write(a, b) returned, once
    per choice, for each b = rho[a]. Rack, verdict (refuse_unproved) and
    size errors come first.

    A good involution commutes with every spanning translation t
    (_spanning_translations), so on an orbit of theirs it is the orbit map
    m with m(t[a]) = t[m(a)], fixed by its value y at the least point x
    and built along a Schreier tree. Dual compatibility s_y = s_x^-1 at x
    carries along the orbit, as s_{t[a]} = t^-1 s_a t. m is kept when it
    is injective and commutes with every t on the orbit; when y lies in
    the same orbit, also when m(y) = x, as m^2 commutes and fixes x. Then
    rho is m on the orbit and m^-1 on the orbit of y. The walk pairs the
    least unpaired orbit with the orbit of each kept y in turn; its x is
    the least point not yet assigned and y increases, so the involutions
    come in lexicographic order.
    """
    if Q.rack_only:
        raise SqkError(RACK_HAS_NO_INVOLUTION)
    refuse_unproved(Q)
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
    choices = []        # per orbit, each (orbit paired with it, its writes)
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
                # each point once: zip lists an orbit paired with itself twice
                pairs = dict(zip(points + images, images + points)).items()
                choices[i].append((orbit[y], [w for p in pairs for w in write(*p)]))

    k = len(trees)
    partner = [-1] * k  # the orbit paired with each, or -1
    stack = [(0, iter(choices[0]))]     # per open orbit, its choices left
    while stack:
        i, options = stack[-1]
        j = partner[i]
        if j >= 0:
            partner[i] = partner[j] = -1
        for j, writes in options:
            if partner[j] < 0:
                break
        else:
            stack.pop()
            continue
        partner[i] = j
        partner[j] = i
        for t, a, v in writes:
            t[a] = v
        while i < k and partner[i] >= 0:
            i += 1
        if i == k:
            yield
        else:
            stack.append((i, iter(choices[i])))


def find_symmetric_isomorphism(S1: SymmetricQuandle,
                               S2: SymmetricQuandle) -> Isomorphism | None:
    """Least quandle isomorphism f with f o rho1 = rho2 o f, or None.
    Unproved pairs are refused (quandle._search_maps)."""
    maps = _search_maps(S1, S2)
    return Isomorphism(source=S1, target=S2, map=maps[0]) if maps else None


def is_symmetric_isomorphism_map(S1: SymmetricQuandle, S2: SymmetricQuandle,
                                 f: Sequence[int]) -> bool:
    n = S1.order
    if S2.order != n or sorted(f) != list(range(n)):
        return False
    if product_violation(S1.quandle.op, S2.quandle.op, f) is not None:
        return False
    return perm.compose(S1.rho, f) == perm.compose(f, S2.rho)
