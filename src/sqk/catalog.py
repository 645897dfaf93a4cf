"""Constructors for the stock objects: dihedral quandles, antipodal
involutions, conjugation symmetric quandles, small groups, and the
quaternion-group coset presentation of (R_4, antipodal).

Every constructor routes its output through the owning module's validation;
nothing here is trusted by fiat.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable

from . import perm
from .cosets import CosetPresentation
from .errors import (
    GoodInvolutionCheckFailed,
    OddOrder,
    ParameterOutOfRange,
    SqkError,
)
from .groups import FiniteGroup, GroupLike, group_from_table, subgroup_closure
from .quandle import Quandle, quandle_from_table
from .symmetric import SymmetricQuandle, attach_involution

# largest table order a constructor builds; a table has order^2 cells
MAX_ORDER = 1024


def _check_order(n: int, order: int, what: str = "order") -> None:
    """Reject a parameter n < 1, or a table order above MAX_ORDER, before
    any table is allocated."""
    if n < 1:
        raise ParameterOutOfRange(f"{what} must be positive, got {n}")
    if order > MAX_ORDER:
        raise ParameterOutOfRange(
            f"table order {order} exceeds the catalog bound {MAX_ORDER}")


def dihedral_quandle(n: int) -> Quandle:
    """Z_n with a*b = 2b - a. A kei for every n."""
    _check_order(n, n)
    table = [[(2 * b - a) % n for b in range(n)] for a in range(n)]
    return quandle_from_table(table)


def trivial_quandle(n: int) -> Quandle:
    """a*b = a for all a, b."""
    _check_order(n, n)
    return quandle_from_table([[a] * n for a in range(n)])


def antipodal(n: int) -> SymmetricQuandle:
    """The dihedral quandle of even order n with rho(x) = x + n/2.

    The involution is validated, not assumed.
    """
    _check_order(n, n)
    if n % 2:
        raise OddOrder(n)
    Q = dihedral_quandle(n)
    rho = [(x + n // 2) % n for x in range(n)]
    try:
        return attach_involution(Q, rho)
    except SqkError as exc:  # unreachable for the shift map; kept honest
        raise GoodInvolutionCheckFailed(str(exc)) from exc


def conj_symmetric_quandle(G: GroupLike) -> SymmetricQuandle:
    """G with a*b = b^-1 a b and rho = inversion."""
    n = G.order
    table = [[G.conj(a, b) for b in range(n)] for a in range(n)]
    rho = [G.inv(a) for a in range(n)]
    Q = quandle_from_table(table)
    return attach_involution(Q, rho)


def cyclic_group(n: int) -> FiniteGroup:
    _check_order(n, n)
    table = [[(x + y) % n for y in range(n)] for x in range(n)]
    names = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    return group_from_table(table, names)


def dihedral_group(n: int) -> FiniteGroup:
    """Order 2n, elements r^m s^t with index m + n*t."""
    _check_order(n, 2 * n, "rotation order")

    def mul(x, y):
        m, t = x % n, x // n
        p, q = y % n, y // n
        if t == 0:
            return (m + p) % n + n * q
        return (m - p) % n + n * ((1 + q) % 2)

    table = [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
    rot = ["e"] + [f"r{k}" if k > 1 else "r" for k in range(1, n)]
    names = rot + [("s" if k == 0 else rot[k] + "s") for k in range(n)]
    return group_from_table(table, names)


def quaternion_group() -> FiniteGroup:
    """Order 8, element order (e, a, a2, a3, b, ab, a2b, a3b) with
    a4 = e, b2 = a2, ba = a3 b."""

    def mul(x, y):
        m, t = x % 4, x // 4
        p, q = y % 4, y // 4
        if t == 0:
            return (m + p) % 4 + 4 * q
        if q == 0:
            return (m - p) % 4 + 4
        return (m - p + 2) % 4

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    names = ("e", "a", "a2", "a3", "b", "ab", "a2b", "a3b")
    return group_from_table(table, names)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n for n <= 4, elements sorted lexicographically as permutation
    tuples, product "apply left then right"."""
    if not 1 <= n <= 4:
        raise ParameterOutOfRange(f"symmetric_group supports 1 <= n <= 4, got {n}")
    els = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(els)}
    table = [[index[perm.compose(p, q)] for q in els] for p in els]
    names = ["".join("(" + "".join(map(str, c)) + ")"
                     for c in perm.cycles(p) if len(c) > 1) or "id" for p in els]
    return group_from_table(table, names)


def paper_example_presentation() -> CosetPresentation:
    """Coset presentation of the antipodal dihedral quandle of order 4 over
    the quaternion group.

    Two orbits: H_1 = <a>, H_2 = <b>, z = (a, b), r = (b, a), kappa the
    identity. Note a lies in H_1 and b in H_2, so the nontrivial cosets are
    H_1 b and H_2 a; the isomorphism onto (R_4, antipodal) sends
    H_1 e -> 0, H_1 b -> 2, H_2 e -> 1, H_2 a -> 3.
    """
    G = quaternion_group()
    a, b = 1, 4
    H1 = subgroup_closure(G, {a})
    H2 = subgroup_closure(G, {b})
    return CosetPresentation(group=G, subgroups=(H1, H2), z=(a, b), r=(b, a),
                             kappa=(0, 1))


# name -> (parameter names, for usage messages; the kind produced, one of
# "quandle", "symmetric_quandle", "group", "presentation"; the constructor).
# conj takes a group spec rather than integers; build_entry resolves it.
ENTRIES: dict[str, tuple[tuple[str, ...], str, Callable]] = {
    "dihedral-quandle": (("n",), "quandle", dihedral_quandle),
    "antipodal": (("n",), "symmetric_quandle", antipodal),
    "conj": (("group-name", "params..."), "symmetric_quandle",
             conj_symmetric_quandle),
    "quaternion": ((), "group", quaternion_group),
    "cyclic": (("n",), "group", cyclic_group),
    "dihedral-group": (("n",), "group", dihedral_group),
    "sym": (("n",), "group", symmetric_group),
    "paper-example": ((), "presentation", paper_example_presentation),
}


def build_entry(name: str, params: list[str]):
    """Resolve a catalog spec to (produces, object)."""
    if name not in ENTRIES:
        raise ParameterOutOfRange(f"unknown catalog entry {name!r}")
    names, produces, make = ENTRIES[name]
    if name == "conj":
        if not params:
            raise ParameterOutOfRange("catalog conj needs a group spec")
        _, G = build_entry(params[0], params[1:])
        if not isinstance(G, FiniteGroup):
            raise ParameterOutOfRange(f"{params[0]} is not a group entry")
        return produces, make(G)
    if len(params) != len(names):
        raise ParameterOutOfRange(f"catalog {name} takes {len(names)} "
                                  f"parameter(s): {' '.join(names) or '(none)'}")
    try:
        ints = [int(p) for p in params]
    except ValueError:
        raise ParameterOutOfRange(f"catalog {name}: parameters must be integers")
    return produces, make(*ints)
