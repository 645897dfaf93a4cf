import dataclasses

import pytest

from conftest import catalog_symmetric_quandles, relabelled, transposition_quandle
from helpers import all_quandle_tables, bf_dual, bf_inversion_closed_transversal_exists
from sqk import (
    antipodal,
    attach_involution,
    build_quandle,
    build_symmetric_quandle,
    centralizes,
    conj_presentation,
    conj_symmetric_quandle,
    cosets,
    cyclic_group,
    decompose,
    dihedral_group,
    dihedral_quandle,
    enumerate_good_involutions,
    find_symmetric_isomorphism,
    inner_group,
    orbits,
    quandle_from_table,
    quaternion_group,
    right_cosets,
    single_orbit_presentation,
    stabilizer,
    Subgroup,
    subgroup_closure,
    symmetric_group,
    trivial_quandle,
    verify_decomposition,
)
from sqk.errors import NoInversionClosedTransversal
from sqk.quandle import Isomorphism


def test_decompose_r4_inn(anti4):
    d = decompose(anti4, "inn")
    P = d.presentation
    assert P.orbit_count == 2
    assert P.group.order == 4
    assert [H.order for H in P.subgroups] == [2, 2]
    assert P.kappa == (0, 1)
    assert P.group.elements[P.r[0]] == (2, 1, 0, 3)
    assert d.verification.ok
    assert d.psi.map == (0, 2, 1, 3)


def test_decompose_r4_aut(anti4):
    d = decompose(anti4, "aut")
    P = d.presentation
    assert P.orbit_count == 1
    assert P.group.order == 8
    assert P.subgroups[0].order == 2
    assert d.verification.ok


def test_decompose_trivial_singleton():
    S = attach_involution(trivial_quandle(1), [0])
    d = decompose(S, "inn")
    assert d.presentation.orbit_count == 1
    assert d.presentation.group.order == 1
    assert d.psi.map == (0,)
    assert d.verification.ok


def test_decompose_proof_step_identities(anti4, conj_s3):
    for S in (anti4, conj_s3):
        d = decompose(S, "inn")
        P = d.presentation
        G = P.group
        for i in range(P.orbit_count):
            assert P.z[i] in P.subgroups[i]
            assert centralizes(G, P.z[i], P.subgroups[i])
            Hk = set(P.subgroups[P.kappa[i]].elements)
            for h in P.subgroups[i].elements:
                assert G.mul(G.mul(P.r[i], h), G.inv(P.r[i])) in Hk
            assert G.mul(P.r[P.kappa[i]], P.r[i]) in P.subgroups[i]
            rhs = G.mul(G.mul(G.inv(P.r[i]), P.z[P.kappa[i]]), P.r[i])
            assert G.inv(P.z[i]) == rhs


def test_decompose_coset_count_matches_order():
    for name, S in catalog_symmetric_quandles(10):
        d = decompose(S, "inn")
        total = sum(d.presentation.group.order // H.order
                    for H in d.presentation.subgroups)
        assert total == S.order, name


def test_round_trip_over_enumerated_involutions():
    corpus = [dihedral_quandle(n) for n in range(1, 7)]
    corpus.append(conj_symmetric_quandle(symmetric_group(3)).quandle)
    for Q in corpus:
        for rho in enumerate_good_involutions(Q):
            S = attach_involution(Q, rho)
            d = decompose(S, "inn")
            assert verify_decomposition(S, d).ok


def test_round_trip_over_aut_small():
    # same round trip over the full symmetric automorphism group
    for name, S in catalog_symmetric_quandles(6):
        d = decompose(S, "aut")
        assert verify_decomposition(S, d).ok, name


def test_round_trip_over_every_small_symmetric_quandle():
    # every labelled symmetric quandle of order at most 5, under both groups:
    # decompose proves the built object through psi alone, so the axioms are
    # run on it here, and the written presentation builds back to the input
    count = 0
    for n in range(1, 6):
        for table in all_quandle_tables(n):
            Q = quandle_from_table(table)
            for rho in enumerate_good_involutions(Q):
                S = attach_involution(Q, rho)
                for choice in ("inn", "aut"):
                    d = decompose(S, choice)
                    built = d.built.sq
                    ref = quandle_from_table(built.quandle.op)
                    assert (built.quandle.op, built.quandle.dual) == \
                        (ref.op, ref.dual), (table, rho, choice)
                    attach_involution(ref, built.rho)
                    again = build_symmetric_quandle(d.presentation).sq
                    assert find_symmetric_isomorphism(again, S) is not None, \
                        (table, rho, choice)
                    count += 1
    assert count == 2180


def test_homogeneous_gives_single_orbit(anti4):
    from sqk import is_homogeneous

    S5 = attach_involution(trivial_quandle(5), list(range(5)))
    for S in (anti4, S5):
        assert is_homogeneous(S)
        assert decompose(S, "aut").presentation.orbit_count == 1


def test_verify_rejects_tampered_psi(anti4):
    from sqk.symmetric import is_symmetric_isomorphism_map

    d = decompose(anti4, "inn")
    # swapping the images of 0 and 1 composes psi with an automorphism of the
    # built object, so swap 0 and 2 instead, which genuinely breaks the map
    m = list(d.psi.map)
    m[0], m[2] = m[2], m[0]
    assert not is_symmetric_isomorphism_map(d.built.sq, anti4, m)
    tampered = dataclasses.replace(
        d, psi=Isomorphism(source=d.psi.source, target=d.psi.target, map=tuple(m)))
    report = verify_decomposition(anti4, tampered)
    assert not report.ok
    assert not report["psi homomorphism"].passed or \
        not report["psi intertwines rho"].passed


def test_verify_stated_psi_against_antipodal(anti4):
    # the quaternion presentation with psi = {H1e->0, H1b->2, H2e->1, H2a->3}
    from sqk import paper_example_presentation

    built = build_symmetric_quandle(paper_example_presentation())
    psi = (0, 2, 1, 3)
    n = 4
    op_b, op_t = built.sq.quandle.op, anti4.quandle.op
    assert all(psi[op_b[a][b]] == op_t[psi[a]][psi[b]]
               for a in range(n) for b in range(n))
    assert all(psi[built.sq.rho[a]] == anti4.rho[psi[a]] for a in range(n))


def test_conj_presentation_z4():
    G = cyclic_group(4)
    P = conj_presentation(G)
    assert P.orbit_count == 4
    assert P.kappa == (0, 3, 2, 1)
    assert all(H.order == 4 for H in P.subgroups)
    built = build_symmetric_quandle(P)
    target = conj_symmetric_quandle(G)
    assert find_symmetric_isomorphism(built.sq, target) is not None


def test_conj_presentation_z2():
    P = conj_presentation(cyclic_group(2))
    assert P.kappa == (0, 1)
    assert P.z == (0, 1)


def test_conj_presentation_s3_fails(s3):
    with pytest.raises(NoInversionClosedTransversal) as exc:
        conj_presentation(s3)
    # the 3-cycle class, which has no involution
    assert len(exc.value.class_elements) == 2
    assert not bf_inversion_closed_transversal_exists(s3)


def test_conj_presentation_q8_fails(quat):
    with pytest.raises(NoInversionClosedTransversal):
        conj_presentation(quat)
    assert not bf_inversion_closed_transversal_exists(quat)


def test_conj_presentation_matches_exhaustive_search():
    groups = [cyclic_group(n) for n in range(1, 9)]
    groups += [symmetric_group(3), quaternion_group()]
    for G in groups:
        exists = bf_inversion_closed_transversal_exists(G)
        try:
            conj_presentation(G)
            assert exists
        except NoInversionClosedTransversal:
            assert not exists


# the point action against the product path

def _decompose_cases():
    """(id, S, group choice, max_n): the catalog over inn and aut, and
    seeded relabellings of larger quandles over both."""
    cases = [(f"{name} {choice}", S, choice, 12)
             for name, S in catalog_symmetric_quandles(12)
             for choice in ("inn", "aut")]
    for name, S in [("R_8", antipodal(8)), ("R_12", antipodal(12)),
                    ("T_4", transposition_quandle(4)),
                    ("T_5", transposition_quandle(5)),
                    ("Conj(D12)", conj_symmetric_quandle(dihedral_group(12)))]:
        for seed in range(2):
            R = relabelled(S, seed)
            cases += [(f"{name} seed {seed} {choice}", R, choice, 24)
                      for choice in ("inn", "aut")]
    return cases


DECOMPOSE_CASES = [pytest.param(S, choice, max_n, id=name)
                   for name, S, choice, max_n in _decompose_cases()]


@pytest.mark.parametrize("S,choice,max_n", DECOMPOSE_CASES)
def test_decompose_reports_what_verify_decomposition_finds(S, choice, max_n):
    # decompose reuses the builder's report of the six conditions;
    # verify_decomposition validates the presentation afresh
    d = decompose(S, choice, max_n)
    assert d.verification.lines() == verify_decomposition(S, d).lines()


def _product_path(P):
    """Coset spaces, labels, op, dual and rho of P by right_cosets and one
    group product per cell, as the paper's formulas read."""
    G = P.group
    spaces = [right_cosets(G, H) for H in P.subgroups]
    labels, offset = [], []
    for i, sp in enumerate(spaces):
        offset.append(len(labels))
        labels += [(i, x) for x in sp.representatives]

    def index(i, g):
        return offset[i] + spaces[i].coset_index[g]

    twist = [G.conj(P.z[j], y) for j, y in labels]
    op = [[index(i, G.mul(x, w)) for w in twist] for i, x in labels]
    dual = [[index(i, G.mul(x, G.inv(w))) for w in twist] for i, x in labels]
    rho = [index(P.kappa[i], G.mul(P.r[i], x)) for i, x in labels]
    return spaces, labels, op, dual, rho


def _same_spaces(got, ref):
    return [(sp.cosets, sp.representatives, sp.coset_index) for sp in got] == \
        [(sp.cosets, sp.representatives, sp.coset_index) for sp in ref]


@pytest.mark.parametrize("S,choice,max_n", DECOMPOSE_CASES)
def test_point_path_matches_product_path(S, choice, max_n):
    P = decompose(S, choice, max_n).presentation
    # every subgroup is a point stabilizer, so the point path runs
    assert cosets._by_points(P)
    spaces, _, op = cosets._assemble(P)
    built = build_symmetric_quandle(P)
    ref_spaces, ref_labels, ref_op, ref_dual, ref_rho = _product_path(P)
    assert list(built.labels) == ref_labels
    assert _same_spaces(spaces, ref_spaces)
    assert _same_spaces(built.cosets, ref_spaces)
    assert op == ref_op
    assert built.sq.quandle.op == tuple(map(tuple, ref_op))
    assert built.sq.quandle.dual == tuple(map(tuple, ref_dual))
    assert built.sq.rho == tuple(ref_rho)


def test_dual_is_derived_only_when_read():
    # nothing on the decompose path reads the dual, so it is never made
    d = decompose(conj_symmetric_quandle(symmetric_group(4)), "inn")
    assert "dual" not in vars(d.built.quandle)
    # Conj(S3) is not a kei: the dual is the column inverse of op
    Q = decompose(conj_symmetric_quandle(symmetric_group(3)), "inn").built.quandle
    assert "dual" not in vars(Q)
    assert Q.dual == tuple(tuple(bf_dual(Q.op, a, b) for b in range(Q.order))
                           for a in range(Q.order))
    assert Q.dual != Q.op
    # R_8 is a kei: the dual is op itself
    K = decompose(antipodal(8), "inn").built.quandle
    assert K.dual is K.op


@pytest.mark.parametrize("S,choice,max_n", DECOMPOSE_CASES)
def test_orbits_from_generators_match_an_element_scan(S, choice, max_n):
    d = decompose(S, choice, max_n)
    G = d.presentation.group
    scan = sorted({tuple(sorted({p[a] for p in G.elements}))
                   for a in range(G.degree)})
    dec = orbits(G)
    assert list(dec.orbits) == scan
    assert dec.representatives == tuple(orb[0] for orb in scan)
    assert all(a in dec.orbits[dec.orbit_index[a]] for a in range(G.degree))
    assert d.orbits == dec


def test_subgroup_smaller_than_the_stabilizer_takes_the_product_path():
    S = transposition_quandle(5)
    G = inner_group(S)
    z = G.index_of(S.quandle.column(0))
    small = subgroup_closure(G, [z])
    assert small.order < stabilizer(G, 0).order
    assert all(G.elements[h][0] == 0 for h in small.elements)
    P = single_orbit_presentation(G, small, z)
    assert not cosets._by_points(P)
    built = build_quandle(P)
    spaces, labels, op, _, _ = _product_path(P)
    assert len(labels) == G.order // small.order
    assert built.labels == tuple(labels)
    assert _same_spaces(built.cosets, spaces)
    assert built.quandle.op == tuple(map(tuple, op))


def test_stabilizer_elements_without_their_point_take_the_product_path():
    # a Stabilizer derives its generators from its point; the same elements
    # as a plain subgroup are listed by products, with the same result
    S = transposition_quandle(4)
    G = inner_group(S)
    H = stabilizer(G, 0)
    z = G.index_of(S.quandle.column(0))
    by_point = single_orbit_presentation(G, H, z)
    by_product = single_orbit_presentation(G, Subgroup(G, H.elements), z)
    assert cosets._by_points(by_point) and not cosets._by_points(by_product)
    right, moved = build_quandle(by_point), build_quandle(by_product)
    assert moved.labels == right.labels
    assert moved.quandle.op == right.quandle.op
    # Stab((0 1)) moves (0 2): the stabilizer of another point is that
    # point's, not a relabelled copy of the first
    other = dataclasses.replace(H, point=1)
    assert any(G.elements[h][1] != 1 for h in H.elements)
    assert all(h[1] == 1 for h in other.generators)
    assert other.elements == tuple(i for i, p in enumerate(G.elements) if p[1] == 1)
