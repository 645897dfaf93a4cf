"""Decompose a finite symmetric quandle into a coset presentation over its
inner (default) or full symmetric automorphism group, with an explicit,
re-verified isomorphism.

The recipe: take the orbit decomposition of the group action, fix the
minimal representative q_i of each orbit, and put H_i = stabilizer(q_i),
z_i = the translation by q_i, kappa(i) = the orbit of rho(q_i), and r_i =
the least group element carrying q_kappa(i) to rho(q_i). The cosets are
listed by the orbit-stabilizer bijection H_i x <-> q_i . x and read at one
representative each (see the cosets module). psi(H_i x) = q_i . x is then
checked to be a symmetric quandle isomorphism onto the input, which also
proves the built tables a symmetric quandle (cosets.assemble). No element
of the group is listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .autgroup import (
    OrbitDecomposition,
    PermGroup,
    inner_group,
    orbits,
    stabilizer,
    symmetric_aut_group,
)
from .catalog import conj_symmetric_quandle
from .cosets import (
    CosetPresentation,
    LabeledQuandle,
    assemble,
    validate_presentation,
)
from .errors import InternalVerificationFailed, NoInversionClosedTransversal
from .groups import FiniteGroup, centralizer, conjugacy_classes
from .quandle import Isomorphism, product_violation
from .report import Check, Report
from .symmetric import DEFAULT_MAX_N, SymmetricQuandle

GROUP_CHOICES = ("inn", "aut")


@dataclass(frozen=True)
class DecompositionResult:
    presentation: CosetPresentation
    built: LabeledQuandle       # at the symmetric level
    psi: Isomorphism            # built -> input
    group_choice: str
    verification: Report
    orbits: OrbitDecomposition  # of the group on the input's points


def decompose(S: SymmetricQuandle, group_choice: str = "inn",
              max_n: int = DEFAULT_MAX_N) -> DecompositionResult:
    """Produce a coset presentation of S together with the isomorphism psi.

    group_choice "inn" uses the closure of the translations and needs no
    search bound; "aut" uses the full symmetric automorphism group and is
    subject to max_n. Before either is built, S.violation names a fault of
    the input, which is raised as InternalVerificationFailed.
    """
    if group_choice not in GROUP_CHOICES:
        raise ValueError(f"group_choice must be one of {GROUP_CHOICES}")
    bad = S.violation
    if bad is not None:
        raise InternalVerificationFailed(str(bad)) from bad
    G: PermGroup = (inner_group(S) if group_choice == "inn"
                    else symmetric_aut_group(S, max_n))
    dec = orbits(G)
    q = dec.representatives
    subgroups = tuple(stabilizer(G, qi) for qi in q)
    kappa = tuple(dec.orbit_index[S.rho[qi]] for qi in q)
    z = []
    for qi in q:
        zi = G.index_of(S.quandle.columns[qi])    # sifts the translation
        if zi is None:
            raise InternalVerificationFailed(
                f"translation by {qi} is missing from the chosen group")
        z.append(zi)
    # r_i is the least representative of the coset of H_kappa(i) at rho(q_i)
    r = []
    for i, qi in enumerate(q):
        listed = subgroups[kappa[i]].cosets
        c = listed.slot[S.rho[qi]]
        if c < 0:
            raise InternalVerificationFailed(
                f"rho({qi}) not reachable from the orbit representative")
        r.append(G.index_of(listed.reps[c]))

    P = CosetPresentation(group=G, subgroups=subgroups, z=tuple(z), r=tuple(r),
                          kappa=kappa)
    # assemble decided the six conditions; the psi checks prove the rest
    built = assemble(P, "symmetric")
    # psi(H_i x) = q_i . x is the point each coset was listed by
    psi_map = tuple(p for sp in built.cosets for p in sp.points)
    report = Report(built.report.checks + _psi_checks(built, S, psi_map))
    if not report.ok:
        raise InternalVerificationFailed(
            "; ".join(c.line() for c in report.failures))
    psi = Isomorphism(source=built.sq, target=S, map=psi_map)
    return DecompositionResult(presentation=P, built=built, psi=psi,
                               group_choice=group_choice,
                               verification=report, orbits=dec)


def _psi_checks(built: LabeledQuandle, target: SymmetricQuandle,
                f: Sequence[int]) -> tuple[Check, ...]:
    """That f: built.sq -> target is a bijection and then that it is a
    quandle homomorphism intertwining the involutions, with one coset per
    element of target."""
    source, n = built.sq, target.order
    if not (len(f) == source.order == n and sorted(f) == list(range(n))):
        return (Check("psi bijective", False, "not a bijection onto the input"),)
    hom = product_violation(source.quandle.op, target.quandle.op, f)
    eq = next((a for a in range(n) if f[source.rho[a]] != target.rho[f[a]]), None)
    total = sum(sp.count for sp in built.cosets)
    return (Check("psi bijective", True),
            Check("psi homomorphism", hom is None,
                  "" if hom is None else f"fails at {hom}"),
            Check("psi intertwines rho", eq is None,
                  "" if eq is None else f"fails at {eq}"),
            Check("coset count", total == n,
                  "" if total == n else f"{total} cosets for {n} elements"))


def verify_decomposition(S: SymmetricQuandle, D: DecompositionResult) -> Report:
    """Re-check everything: the six presentation conditions, validated
    afresh since D may come from anywhere, and that psi is a bijective
    quandle homomorphism intertwining the involutions."""
    conditions = validate_presentation(D.presentation, "symmetric")
    return Report(conditions.checks + _psi_checks(D.built, S, D.psi.map))


def conj_presentation(G: FiniteGroup) -> CosetPresentation:
    """Presentation of the conjugation symmetric quandle of G from a system
    of conjugacy class representatives closed under inversion.

    Classes are processed by ascending minimal element. A class equal to its
    own inverse class forces a representative with g*g = e; paired classes
    get a representative g and hand g^-1 to the partner. If an ambivalent
    class has no involution the search fails, and no system at all exists.
    """
    classes = conjugacy_classes(G)
    class_of = {}
    for idx, cls in enumerate(classes):
        for m in cls:
            class_of[m] = idx
    k = len(classes)
    reps: list[int | None] = [None] * k
    kappa = [0] * k
    for i, cls in enumerate(classes):
        if reps[i] is not None:
            continue
        j = class_of[G.inv(cls[0])]
        kappa[i], kappa[j] = j, i
        if i == j:
            g = next((g for g in cls if G.mul(g, g) == G.identity), None)
            if g is None:
                raise NoInversionClosedTransversal(cls)
            reps[i] = g
        else:
            reps[i] = cls[0]
            reps[j] = G.inv(cls[0])

    subgroups = tuple(centralizer(G, g) for g in reps)
    z = tuple(reps)
    r = tuple(G.identity for _ in range(k))
    P = CosetPresentation(group=G, subgroups=subgroups, z=z, r=r,
                          kappa=tuple(kappa))

    # proved by agreeing with Conj(G) under psi(H_i x) = x^-1 g_i x
    built = assemble(P, "symmetric")
    psi = tuple(G.conj(z[i], x) for (i, x) in built.labels)
    failures = [c for c in _psi_checks(built, conj_symmetric_quandle(G), psi)
                if not c.passed]
    if failures:
        raise InternalVerificationFailed(
            "conjugation " + "; ".join(c.line() for c in failures))
    return P
