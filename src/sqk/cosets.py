"""Coset presentations of (symmetric) quandles over a finite group.

The data is a group G, subgroups H_i, elements z_i and r_i, and an
involution kappa on the orbit index set. The underlying set is the disjoint
union of the right coset spaces H_i\\G with

    H_i x * H_j y  =  H_i (x y^-1 z_j y)
    rho(H_i x)     =  H_kappa(i) (r_i x)

Six side conditions make this well defined and a good involution; they are
validated explicitly. Assembly then re-checks the consequences it relies on
as proof obligations, not cell by cell: the twisting element y^-1 z_j y is
the same for every member of H_j y (this is C1), and rho(H_i x) is the same
for every member of H_i x. Independence from the choice of x in the product
holds in any group by associativity. The finished tables are re-validated
against the quandle and good-involution axioms rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    problem = _structural_problems(P)
    if problem is not None:
        raise PresentationInvalid("structure", problem)
    G = P.group
    k = P.orbit_count
    checks: list[Check] = []

    def c1() -> Check:
        for i in range(k):
            if not centralizes(G, P.z[i], P.subgroups[i]):
                h = next(h for h in P.subgroups[i].elements
                         if G.conj(h, P.z[i]) != h)
                return Check("C1", False, f"z_{i} does not centralize h={h}")
        return Check("C1", True)

    def c2() -> Check:
        for i in range(k):
            if P.z[i] not in P.subgroups[i]:
                return Check("C2", False, f"z_{i} not in H_{i}")
        return Check("C2", True)

    def c3() -> Check:
        for i in range(k):
            Hk = set(P.subgroups[P.kappa[i]].elements)
            ri = P.r[i]
            for h in P.subgroups[i].elements:
                if G.mul(G.mul(ri, h), G.inv(ri)) not in Hk:
                    return Check("C3", False,
                                 f"r_{i} h r_{i}^-1 escapes H_{P.kappa[i]} at h={h}")
        return Check("C3", True)

    def c4() -> Check:
        for i in range(k):
            if G.mul(P.r[P.kappa[i]], P.r[i]) not in P.subgroups[i]:
                return Check("C4", False, f"r_kappa({i}) r_{i} not in H_{i}")
        return Check("C4", True)

    def c5() -> Check:
        for i in range(k):
            lhs = G.inv(P.z[i])
            rhs = G.mul(G.mul(G.inv(P.r[i]), P.z[P.kappa[i]]), P.r[i])
            if lhs != rhs:
                return Check("C5", False, f"z_{i}^-1 != r_{i}^-1 z_kappa({i}) r_{i}")
        return Check("C5", True)

    def c6() -> Check:
        for i in range(k):
            if P.kappa[P.kappa[i]] != i:
                return Check("C6", False, f"kappa^2({i}) = {P.kappa[P.kappa[i]]}")
        return Check("C6", True)

    checks.append(c1())
    if level in ("quandle", "symmetric"):
        checks.append(c2())
    if level == "symmetric":
        checks.extend([c3(), c4(), c5(), c6()])
    return Report(tuple(checks))


@dataclass(frozen=True)
class LabeledQuandle:
    """A built rack, quandle or symmetric quandle with its coset labels; sq
    is set only at the symmetric level, where quandle is sq.quandle."""
    quandle: Quandle
    presentation: CosetPresentation
    labels: tuple[tuple[int, int], ...]   # element -> (orbit index, coset rep)
    cosets: tuple[CosetSpace, ...]        # one coset space per orbit
    sq: SymmetricQuandle | None = None

    def label_name(self, k: int) -> str:
        i, x = self.labels[k]
        return f"H{i}[{self.presentation.group.name_of(x)}]"

    def index_of(self, i: int, x: int) -> int:
        """Element index of the coset H_i x (any member x)."""
        rep = self.cosets[i].representatives[self.cosets[i].coset_index[x]]
        return self.labels.index((i, rep))


def _require(P: CosetPresentation, level: str) -> None:
    report = validate_presentation(P, level)
    if not report.ok:
        bad = report.failures[0]
        raise PresentationInvalid(bad.name, bad.detail, report)


def _assemble(P: CosetPresentation):
    """Coset spaces, element labels, the operation table and the dual table
    from the z_j^-1 formula.

    H_i x * H_j y = H_i (x w) with the twisting element w = y^-1 z_j y.
    That this does not depend on the representatives is checked as a proof
    obligation, in O(|G|) products per orbit rather than per cell. For
    y1 = h y with h in H_j, y1^-1 z_j y1 = w iff h commutes with z_j, which
    is C1, so w is recomputed from every member of H_j y. For x1 = h x with
    h in H_i, H_i (x1 w) = H_i (x w) holds in any group by associativity, so
    that side needs no check.

    When every H_i is verified to be the stabilizer of a point q_i of a
    permutation group (autgroup.stabilizer_cosets), H_i x <-> q_i.x, and
    H_i (x w) is the coset at the point w[q_i.x]: each column is filled by
    the point action of its twisting element, one permutation per column
    (_fill_by_points). Otherwise each cell costs one product. Either way
    the result is the same table, checked the same way by the builders."""
    G = P.group
    k = P.orbit_count
    listed = [stabilizer_cosets(H) for H in P.subgroups]
    spaces = tuple(ls[0] if ls else right_cosets(G, H)
                   for ls, H in zip(listed, P.subgroups))
    labels: list[tuple[int, int]] = []
    offset = []
    for i in range(k):
        offset.append(len(labels))
        labels.extend((i, rep) for rep in spaces[i].representatives)

    def global_index(i: int, g: int) -> int:
        return offset[i] + spaces[i].coset_index[g]

    # the twisting element of each column, the same for every member y1
    twist = []
    for q, (j, y) in enumerate(labels):
        w = G.conj(P.z[j], y)
        for y1 in spaces[j].cosets[spaces[j].coset_index[y]]:
            if G.conj(P.z[j], y1) != w:
                raise InternalVerificationFailed(
                    f"column {q} depends on the coset representative "
                    f"(z_{j} does not commute with H_{j})")
        twist.append(w)

    if all(listed):
        op, dual_direct = _fill_by_points(G, [ls[1] for ls in listed],
                                          offset, twist)
    else:
        twist_inv = [G.inv(w) for w in twist]
        op = [[global_index(i, G.mul(x, w)) for w in twist]
              for (i, x) in labels]
        # y^-1 z_j^-1 y = w^-1; the builders compare this with the dual
        # read off op by inverting its columns
        dual_direct = [[global_index(i, G.mul(x, w)) for w in twist_inv]
                       for (i, x) in labels]
    return spaces, tuple(labels), op, dual_direct, global_index


def _fill_by_points(G, points: list[tuple[int, ...]], offset: list[int],
                    twist: list[int]):
    """op and the dual of point-stabilizer orbits by the point action.

    points[i][c] is the point q_i.x of coset c of orbit i, so the row of
    H_i x has point p = q_i.x and (x w)[q_i] = w[p]. With lab_i[p] the
    element index of the coset at p, column b is lab_i[w_b[p]] over the
    rows' points, and the dual column is the same with w_b^-1 (as in the
    product path). Orbits are filled apart, since two orbits may be the
    same points."""
    compose = perm.compose
    labs = []
    for i, pts in enumerate(points):
        lab = [-1] * G.degree
        for c, p in enumerate(pts):
            lab[p] = offset[i] + c
        labs.append(lab)

    def column(w: perm.Perm) -> list[int]:
        col: list[int] = []
        for pts, lab in zip(points, labs):
            col += compose(compose(pts, w), lab)
        return col

    ws = [G.elements[w] for w in twist]
    op = [list(row) for row in zip(*map(column, ws))]
    dual = [list(row) for row in
            zip(*(column(perm.inverse(w)) for w in ws))]
    return op, dual


def _build(P: CosetPresentation, level: str) -> LabeledQuandle:
    """The object of P at the given level, once its conditions pass. At the
    symmetric level rho(H_i x) = H_kappa(i) (r_i x) is checked independent
    of the representative, then re-validated as a good involution."""
    _require(P, level)
    G = P.group
    spaces, labels, op, dual_direct, global_index = _assemble(P)

    rho = None
    if level == "symmetric":
        rho = [global_index(P.kappa[i], G.mul(P.r[i], x)) for (i, x) in labels]
        for p, (i, x) in enumerate(labels):
            for x1 in spaces[i].cosets[spaces[i].coset_index[x]]:
                if global_index(P.kappa[i], G.mul(P.r[i], x1)) != rho[p]:
                    raise InternalVerificationFailed(
                        f"rho at element {p} depends on the coset representative")

    Q = quandle_from_table(op, allow_rack=(level == "rack"))
    if Q.dual != tuple(tuple(row) for row in dual_direct):
        raise InternalVerificationFailed("dual table disagrees with z^-1 formula")
    sq = attach_involution(Q, rho) if rho is not None else None
    return LabeledQuandle(quandle=Q, presentation=P, labels=labels,
                          cosets=spaces, sq=sq)


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
