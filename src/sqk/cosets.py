"""Coset presentations of (symmetric) quandles over a finite group.

The data is a group G, subgroups H_i, elements z_i and r_i, and an
involution kappa on the orbit index set. The underlying set is the disjoint
union of the right coset spaces H_i\\G with

    H_i x * H_j y  =  H_i (x y^-1 z_j y)
    rho(H_i x)     =  H_kappa(i) (r_i x)

Six side conditions make this well defined and a good involution. They are
decided in one place, validate_presentation, once per build, before any
table is assembled.

Representative independence: for y1 = h y with h in H_j, the twisting
element y1^-1 z_j y1 is y^-1 z_j y iff h commutes with z_j, so the product
does not depend on the representative of H_j y exactly when C1 holds, and
changing x within H_i x cannot change H_i (x w), by associativity. r_i h x
and r_i x lie in one coset of H_kappa(i) iff r_i h r_i^-1 lies in
H_kappa(i), so rho does not depend on the representative of H_i x exactly
when C3 holds. So the tables are read at one representative per coset.

The dual H_i x *^-1 H_j y = H_i (x y^-1 z_j^-1 y) is the column inverse of
*, so it is not assembled: Quandle.dual derives it from op on first read.
assemble makes the Quandle (and the SymmetricQuandle) once. The builders
raise its verdict (Quandle.violation, or SymmetricQuandle.violation at the
symmetric level), and decompose proves it through an isomorphism onto its
validated input (see assemble); either proof covers the derived dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from . import perm
from .autgroup import PointCosets, Stabilizer
from .errors import FormatError, InternalVerificationFailed, PresentationInvalid
from .groups import CosetSpace, GroupLike, Subgroup, centralizes, right_cosets
from .quandle import Quandle
from .report import Check, Report
from .symmetric import SymmetricQuandle

LEVELS = ("rack", "quandle", "symmetric")


@dataclass(frozen=True)
class CosetPresentation:
    group: GroupLike
    subgroups: tuple[Subgroup | Stabilizer, ...]
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


def _by_points(P: CosetPresentation) -> bool:
    """Every H_i is the stabilizer of a point q_i in the permutation group G
    (autgroup.Stabilizer), so the conditions are decided on generators and
    points, and the cosets are listed by point."""
    return all(isinstance(H, Stabilizer) for H in P.subgroups)


def validate_presentation(P: CosetPresentation, level: str = "symmetric") -> Report:
    """Per-condition report for the requested level.

    rack: C1 (z_i centralizes H_i). quandle: adds C2 (z_i in H_i).
    symmetric: adds C3 (r_i H_i r_i^-1 in H_kappa(i)), C4 (r_kappa(i) r_i
    in H_i), C5 (z_i^-1 = r_i^-1 z_kappa(i) r_i), C6 (kappa involutive).
    C1 and C3 make the tables independent of the representatives (see the
    module docstring). Each condition is one test of a single orbit i,
    which returns the failure detail or None; a level takes a prefix of
    the table, and each check reports the first failing orbit.

    When every H_i is the stabilizer of q_i in a permutation group, C1
    asks whether H_i lies in the centralizer of z_i, and C3 whether it
    lies in the stabilizer of s = r_i[q_kappa(i)]. Both are subgroups, so
    least_outside on H_i's chain decides each and names the witness of
    the element scan, the least h in index order, without listing G. C2
    and C4 are point tests, and C5 reads z_kappa(i) r_i z_i = r_i.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    problem = _structural_problems(P)
    if problem is not None:
        raise PresentationInvalid("structure", problem)
    G, H, z, r, kappa = P.group, P.subgroups, P.z, P.r, P.kappa

    c1_detail = "z_{0} does not centralize h={1}".format
    c2_detail = "z_{0} not in H_{0}".format
    c3_detail = "r_{0} h r_{0}^-1 escapes H_{1} at h={2}".format
    c4_detail = "r_kappa({0}) r_{0} not in H_{0}".format
    c5_detail = "z_{0}^-1 != r_{0}^-1 z_kappa({0}) r_{0}".format

    def c1_scan(i: int) -> str | None:
        h = next((h for h in H[i].elements if G.mul(h, z[i]) != G.mul(z[i], h)),
                 None)
        return None if h is None else c1_detail(i, h)

    def c3_scan(i: int) -> str | None:
        Hk = set(H[kappa[i]].elements)
        ri_inv = G.inv(r[i])
        h = next((h for h in H[i].elements
                  if G.mul(G.mul(r[i], h), ri_inv) not in Hk), None)
        return None if h is None else c3_detail(i, kappa[i], h)

    if _by_points(P):
        compose = perm.compose
        q = [Hi.point for Hi in H]
        zp = [G.element(x) for x in z]
        rp = [G.element(x) for x in r]

        def c1(i: int) -> str | None:
            zi = zp[i]
            h = H[i].least_outside(lambda h: compose(h, zi) == compose(zi, h))
            return None if h is None else c1_detail(i, G.index_of(h))

        def c3(i: int) -> str | None:
            s = rp[i][q[kappa[i]]]
            h = H[i].least_outside(lambda h: h[s] == s)
            return None if h is None else c3_detail(i, kappa[i], G.index_of(h))

        conditions = (
            ("C1", c1),
            ("C2", lambda i: None if zp[i][q[i]] == q[i] else c2_detail(i)),
            ("C3", c3),
            ("C4", lambda i: None if rp[i][rp[kappa[i]][q[i]]] == q[i]
             else c4_detail(i)),
            ("C5", lambda i: None if compose(compose(zp[kappa[i]], rp[i]), zp[i])
             == rp[i] else c5_detail(i)),
        )
    else:
        conditions = (
            ("C1", lambda i: None if centralizes(G, z[i], H[i]) else c1_scan(i)),
            ("C2", lambda i: None if z[i] in H[i] else c2_detail(i)),
            ("C3", c3_scan),
            ("C4", lambda i: None if G.mul(r[kappa[i]], r[i]) in H[i]
             else c4_detail(i)),
            ("C5", lambda i: None if G.inv(z[i]) == G.conj(z[kappa[i]], r[i])
             else c5_detail(i)),
        )
    conditions += (("C6", lambda i: None if kappa[kappa[i]] == i
                    else f"kappa^2({i}) = {kappa[kappa[i]]}"),)
    checks = []
    for name, test in conditions[:(1, 2, 6)[LEVELS.index(level)]]:
        detail = next(filter(None, map(test, range(P.orbit_count))), None)
        checks.append(Check(name, detail is None, detail or ""))
    return Report(tuple(checks))


@dataclass(frozen=True)
class LabeledQuandle:
    """A built rack, quandle or symmetric quandle with its coset spaces and
    the passing report of the conditions it was built under; sq is set only
    at the symmetric level, where quandle is sq.quandle. The cosets of
    orbit i are elements offsets[i], offsets[i] + 1, ..., in the order of
    its coset space."""
    quandle: Quandle
    presentation: CosetPresentation
    cosets: tuple[CosetSpace | PointCosets, ...]   # one coset space per orbit
    offsets: tuple[int, ...]              # element index of each orbit's first coset
    report: Report
    sq: SymmetricQuandle | None = None

    @cached_property
    def labels(self) -> tuple[tuple[int, int], ...]:
        """element -> (orbit index, index of the least coset member)"""
        return tuple((i, rep) for i, sp in enumerate(self.cosets)
                     for rep in sp.representatives)

    def label_names(self) -> list[str]:
        """The name H<i>[<least member>] of every element, in order."""
        return [f"H{i}[{sp.name(c)}]" for i, sp in enumerate(self.cosets)
                for c in range(sp.count)]

    def index_of(self, i: int, x: int) -> int:
        """Element index of the coset H_i x (any member x)."""
        return self.offsets[i] + self.cosets[i].coset_index[x]


def _assemble(P: CosetPresentation):
    """Coset spaces, the offset of each orbit and the operation table
    H_i x * H_j y = H_i (x w), w = y^-1 z_j y, read at one representative
    per coset (C1, see the module docstring).

    When every H_i is the stabilizer of a point q_i (_by_points),
    H_i x <-> q_i.x, and H_i (x w) is the coset at the point w[q_i.x], so
    a column moves the points by the permutation w, made from each least
    representative y and the y^-1 its descent returned. Otherwise a
    column moves each least member x by one product x w."""
    G, compose = P.group, perm.compose
    by_points = _by_points(P)
    if by_points:
        spaces = tuple(H.cosets for H in P.subgroups)
    else:
        spaces = tuple(right_cosets(G, H) for H in P.subgroups)
    offsets = tuple(accumulate((sp.count for sp in spaces[:-1]), initial=0))

    if by_points:
        orbits = []
        for i, sp in enumerate(spaces):
            lab = [-1] * G.degree
            for c, p in enumerate(sp.points):
                lab[p] = offsets[i] + c
            orbits.append((sp.points, lab))
        z = [G.element(x) for x in P.z]
        twists = (compose(compose(y_inv, z[j]), y) for j, sp in enumerate(spaces)
                  for y, y_inv in zip(sp.reps, sp.rep_invs))

        def column(w: perm.Perm) -> list[int]:
            col: list[int] = []
            for pts, lab in orbits:
                col += compose(compose(pts, w), lab)
            return col
    else:
        twists = (G.conj(P.z[j], y) for j, sp in enumerate(spaces)
                  for y in sp.representatives)

        def column(w: int) -> list[int]:
            col: list[int] = []
            for i, sp in enumerate(spaces):
                col += [offsets[i] + sp.coset_index[G.mul(x, w)]
                        for x in sp.representatives]
            return col

    op = [list(row) for row in zip(*map(column, twists))]
    return spaces, offsets, op


def _involution(P: CosetPresentation, spaces, offsets) -> list[int]:
    """rho(H_i x) = H_kappa(i) (r_i x) at the least member x of each coset
    (C3, see the module docstring). On points, the coset of r_i x is the
    one at (r_i x)[q_kappa(i)] = x[r_i[q_kappa(i)]]."""
    G, kappa = P.group, P.kappa
    rho: list[int] = []
    for i, sp in enumerate(spaces):
        k = kappa[i]
        if isinstance(sp, PointCosets):
            s = G.element(P.r[i])[spaces[k].subgroup.point]
            rho += [offsets[k] + spaces[k].slot[y[s]] for y in sp.reps]
        else:
            rho += [offsets[k] + spaces[k].coset_index[G.mul(P.r[i], x)]
                    for x in sp.representatives]
    return rho


def assemble(P: CosetPresentation, level: str) -> LabeledQuandle:
    """The step every build shares; it proves no axiom. It decides the
    level's conditions, assembles the tables at one representative per
    coset (see the module docstring), checks op's entries and, at the
    symmetric level, that rho is a permutation; either failing is a bug
    (InternalVerificationFailed), not malformed input. The builders close
    the proof with the axioms (_build).
    decompose and conj_presentation close it with a bijection psi onto a
    validated S with psi(a*b) = psi(a)*psi(b) and psi rho = rho psi: then
    s_b = psi^-1 s_psi(b) psi, so op is a quandle, its dual (the column
    inverse, derived on first read) maps to S's dual, and rho is a good
    involution."""
    report = validate_presentation(P, level)
    if not report.ok:
        bad = report.failures[0]
        raise PresentationInvalid(bad.name, bad.detail, report)
    spaces, offsets, op = _assemble(P)
    try:
        op = perm.square_rows(op)
    except FormatError as exc:
        raise InternalVerificationFailed(f"built table {exc}")
    Q, sq = Quandle(op), None
    if level == "symmetric":
        rho = tuple(_involution(P, spaces, offsets))
        if sorted(rho) != list(range(Q.order)):
            raise InternalVerificationFailed("rho is not a permutation of the cosets")
        sq = SymmetricQuandle(quandle=Q, rho=rho)
    return LabeledQuandle(quandle=Q, presentation=P, cosets=spaces,
                          offsets=offsets, report=report, sq=sq)


def _build(P: CosetPresentation, level: str) -> LabeledQuandle:
    """The object of P at the given level: assemble, closed by the verdict
    of the objects it made, the symmetric quandle's at the symmetric level
    and the quandle's otherwise. At the rack level a failing Q1 is
    accepted (rack_only)."""
    built = assemble(P, level)
    bad = (built.quandle if built.sq is None else built.sq).violation
    if bad is not None and not (level == "rack" and built.quandle.rack_only):
        raise bad
    return built


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
