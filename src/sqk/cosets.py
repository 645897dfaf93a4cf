"""Coset presentations of (symmetric) quandles over a finite group.

The data is a group G, subgroups H_i, elements z_i and r_i, and an
involution kappa on the orbit index set. The underlying set is the disjoint
union of the right coset spaces H_i\\G with

    H_i x * H_j y  =  H_i (x y^-1 z_j y)
    rho(H_i x)     =  H_kappa(i) (r_i x)

Six side conditions make this well defined and a good involution. They are
decided in one place, validate_presentation, once per build, before any
table is assembled. Its verdict covers every choice of representatives:
the twisting element y^-1 z_j y is the same for every member of H_j y
exactly when C1 holds, and rho(H_i x) is the same for every member of
H_i x exactly when C3 holds. Independence from the choice of x in the
product holds in any group by associativity. The finished tables are
re-validated against the quandle and good-involution axioms rather than
trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from . import perm
from .autgroup import stabilizer_cosets
from .errors import InternalVerificationFailed, PresentationInvalid
from .groups import CosetSpace, GroupLike, Subgroup, centralizes, right_cosets
from .quandle import Quandle, quandle_from_table
from .report import Check, Report
from .symmetric import SymmetricQuandle, attach_involution

LEVELS = ("rack", "quandle", "symmetric")


@dataclass(frozen=True)
class CosetPresentation:
    group: GroupLike
    subgroups: tuple[Subgroup, ...]
    z: tuple[int, ...]
    r: tuple[int, ...]
    kappa: tuple[int, ...]

    @property
    def orbit_count(self) -> int:
        return len(self.subgroups)


def single_orbit_presentation(G: GroupLike, H: Subgroup, z: int,
                              r: int | None = None) -> CosetPresentation:
    """The one-orbit case: kappa is forced to be the identity."""
    if r is None:
        r = G.identity
    return CosetPresentation(group=G, subgroups=(H,), z=(z,), r=(r,), kappa=(0,))


def _structural_problems(P: CosetPresentation) -> str | None:
    k = P.orbit_count
    if not (len(P.z) == len(P.r) == len(P.kappa) == k):
        return "z, r, kappa must all have one entry per orbit"
    for i in range(k):
        if P.subgroups[i].parent is not P.group:
            return f"subgroup {i} does not live in the presentation group"
        if not 0 <= P.z[i] < P.group.order:
            return f"z_{i} out of range"
        if not 0 <= P.r[i] < P.group.order:
            return f"r_{i} out of range"
        if not 0 <= P.kappa[i] < k:
            return f"kappa({i}) out of range"
    return None


def validate_presentation(P: CosetPresentation, level: str = "symmetric") -> Report:
    """Per-condition report for the requested level.

    rack: C1 (z_i centralizes H_i). quandle: adds C2 (z_i in H_i).
    symmetric: adds C3 (r_i H_i r_i^-1 in H_kappa(i)), C4 (r_kappa(i) r_i
    in H_i), C5 (z_i^-1 = r_i^-1 z_kappa(i) r_i), C6 (kappa involutive).
    Each condition is one test of a single orbit i, which returns the
    failure detail or None. The table lists them in paper order, a level
    takes a prefix of it, and each check reports the first failing orbit.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    problem = _structural_problems(P)
    if problem is not None:
        raise PresentationInvalid("structure", problem)
    G, H, z, r, kappa = P.group, P.subgroups, P.z, P.r, P.kappa

    def c1(i: int) -> str | None:
        if centralizes(G, z[i], H[i]):
            return None
        h = next(h for h in H[i].elements if G.mul(h, z[i]) != G.mul(z[i], h))
        return f"z_{i} does not centralize h={h}"

    def c3(i: int) -> str | None:
        Hk = set(H[kappa[i]].elements)
        ri_inv = G.inv(r[i])
        for h in H[i].elements:
            if G.mul(G.mul(r[i], h), ri_inv) not in Hk:
                return f"r_{i} h r_{i}^-1 escapes H_{kappa[i]} at h={h}"
        return None

    conditions = (
        ("C1", c1),
        ("C2", lambda i: None if z[i] in H[i] else f"z_{i} not in H_{i}"),
        ("C3", c3),
        ("C4", lambda i: None if G.mul(r[kappa[i]], r[i]) in H[i]
         else f"r_kappa({i}) r_{i} not in H_{i}"),
        ("C5", lambda i: None if G.inv(z[i]) == G.conj(z[kappa[i]], r[i])
         else f"z_{i}^-1 != r_{i}^-1 z_kappa({i}) r_{i}"),
        ("C6", lambda i: None if kappa[kappa[i]] == i
         else f"kappa^2({i}) = {kappa[kappa[i]]}"),
    )
    checks = []
    for name, test in conditions[:(1, 2, 6)[LEVELS.index(level)]]:
        detail = next(filter(None, map(test, range(P.orbit_count))), None)
        checks.append(Check(name, detail is None, detail or ""))
    return Report(tuple(checks))


@dataclass(frozen=True)
class LabeledQuandle:
    """A built rack, quandle or symmetric quandle with its coset labels and
    the passing report of the conditions it was built under; sq is set only
    at the symmetric level, where quandle is sq.quandle."""
    quandle: Quandle
    presentation: CosetPresentation
    labels: tuple[tuple[int, int], ...]   # element -> (orbit index, coset rep)
    cosets: tuple[CosetSpace, ...]        # one coset space per orbit
    offsets: tuple[int, ...]              # element index of each orbit's first coset
    report: Report
    sq: SymmetricQuandle | None = None

    def label_name(self, k: int) -> str:
        i, x = self.labels[k]
        return f"H{i}[{self.presentation.group.name_of(x)}]"

    def index_of(self, i: int, x: int) -> int:
        """Element index of the coset H_i x (any member x)."""
        return _element_index(self.cosets, self.offsets, i, x)


def _element_index(spaces: tuple[CosetSpace, ...], offsets: tuple[int, ...],
                   i: int, x: int) -> int:
    """Element index of the coset H_i x: the cosets of orbit i come after
    offsets[i] others, in the order of its coset space."""
    return offsets[i] + spaces[i].coset_index[x]


def _assemble(P: CosetPresentation):
    """Coset spaces, element labels, the operation table and the dual table
    from the z_j^-1 formula.

    H_i x * H_j y = H_i (x w) with the twisting element w = y^-1 z_j y.
    The caller has decided C1, which makes this independent of the
    representatives: for y1 = h y with h in H_j, y1^-1 z_j y1 = w iff h
    commutes with z_j. For x1 = h x with h in H_i, H_i (x1 w) = H_i (x w)
    holds in any group by associativity.

    Each orbit gives the point of each coset and the element index at each
    point. When H_i is verified to be the stabilizer of a point q_i of a
    permutation group (autgroup.stabilizer_cosets), H_i x <-> q_i.x, and
    H_i (x w) is the coset at the point w[q_i.x], so w moves the points by
    its permutation. Otherwise the point of H_i x is x itself, moved by one
    product. Column b is the element index at every moved point, orbit by
    orbit; the dual column is the same with w_b^-1. Two orbits may have the
    same points, so each keeps its own index."""
    G = P.group
    listed = [stabilizer_cosets(H) for H in P.subgroups]
    spaces = tuple(ls[0] if ls else right_cosets(G, H)
                   for ls, H in zip(listed, P.subgroups))
    labels = [(i, rep) for i, sp in enumerate(spaces)
              for rep in sp.representatives]
    offsets = tuple(accumulate((sp.count for sp in spaces[:-1]), initial=0))

    # (points, element index at each point, moved by permutation?)
    orbits = []
    for i, (ls, sp) in enumerate(zip(listed, spaces)):
        if ls:
            lab = [-1] * G.degree
            for c, p in enumerate(ls[1]):
                lab[p] = offsets[i] + c
            orbits.append((ls[1], lab, True))
        else:
            orbits.append((sp.representatives,
                           [offsets[i] + c for c in sp.coset_index], False))

    def column(w: int) -> list[int]:
        col: list[int] = []
        for pts, lab, by_point in orbits:
            moved = (perm.compose(pts, G.elements[w]) if by_point
                     else [G.mul(x, w) for x in pts])
            col += perm.compose(moved, lab)
        return col

    twist = [G.conj(P.z[j], y) for j, y in labels]
    op = [list(row) for row in zip(*map(column, twist))]
    dual_direct = [list(row) for row in
                   zip(*(column(G.inv(w)) for w in twist))]
    return spaces, tuple(labels), op, dual_direct, offsets


def _build(P: CosetPresentation, level: str) -> LabeledQuandle:
    """The object of P at the given level, once its conditions pass. At the
    symmetric level rho(H_i x) = H_kappa(i) (r_i x) is read at each coset
    representative, then re-validated as a good involution. It does not
    depend on the representative because C3 passed: for x1 = h x with h in
    H_i, r_i x1 and r_i x lie in one coset of H_kappa(i) iff r_i h r_i^-1
    does, whatever x is."""
    report = validate_presentation(P, level)
    if not report.ok:
        bad = report.failures[0]
        raise PresentationInvalid(bad.name, bad.detail, report)
    G = P.group
    spaces, labels, op, dual_direct, offsets = _assemble(P)
    rho = None
    if level == "symmetric":
        rho = [_element_index(spaces, offsets, P.kappa[i], G.mul(P.r[i], x))
               for (i, x) in labels]

    Q = quandle_from_table(op, allow_rack=(level == "rack"))
    if Q.dual != tuple(tuple(row) for row in dual_direct):
        raise InternalVerificationFailed("dual table disagrees with z^-1 formula")
    sq = attach_involution(Q, rho) if rho is not None else None
    return LabeledQuandle(quandle=Q, presentation=P, labels=labels,
                          cosets=spaces, offsets=offsets, report=report, sq=sq)


def build_rack(P: CosetPresentation) -> LabeledQuandle:
    """Rack on the union of coset spaces; requires only C1."""
    return _build(P, "rack")


def build_quandle(P: CosetPresentation) -> LabeledQuandle:
    """Quandle on the union of coset spaces; requires C1 and C2."""
    return _build(P, "quandle")


def build_symmetric_quandle(P: CosetPresentation) -> LabeledQuandle:
    """Symmetric quandle from the full data; requires all six conditions.
    The result carries the symmetric quandle as sq."""
    return _build(P, "symmetric")
