import random

import pytest

from conftest import catalog_symmetric_quandles
from helpers import bf_automorphisms, compose_then, relabel
from sqk import (
    antipodal,
    attach_involution,
    aut_group,
    autgroup,
    conj_symmetric_quandle,
    dihedral_group,
    dihedral_quandle,
    inner_group,
    is_homogeneous,
    orbits,
    quandle,
    quandle_from_table,
    stabilizer,
    symmetric_aut_group,
    symmetric_group,
    transporter,
    trivial_quandle,
)
from sqk.autgroup import PermGroup, mulclose
from sqk.errors import InternalVerificationFailed, SizeBoundExceeded
from sqk.perm import identity, inverse
from sqk.quandle import _MapSearch, all_automorphism_maps

INNER_R4 = ((0, 1, 2, 3), (0, 3, 2, 1), (2, 1, 0, 3), (2, 3, 0, 1))


@pytest.fixture(scope="module")
def inn_r4(anti4):
    return inner_group(anti4)


def test_aut_r4(r4):
    G = aut_group(r4)
    assert G.order == 8
    assert set(G.elements) == set(bf_automorphisms(r4.op))


def test_aut_trivial_is_symmetric_group():
    for n in (1, 2, 3, 4):
        G = aut_group(trivial_quandle(n))
        import math

        assert G.order == math.factorial(n)


def test_aut_conj_s3(conj_s3):
    G = aut_group(conj_s3.quandle)
    assert G.order == 6
    assert set(G.elements) == set(bf_automorphisms(conj_s3.quandle.op))


def test_aut_size_bound():
    with pytest.raises(SizeBoundExceeded):
        aut_group(dihedral_quandle(13))


def test_symmetric_aut_r4(r4, anti4):
    assert symmetric_aut_group(anti4).order == 8
    S_id = attach_involution(r4, [0, 1, 2, 3])
    assert symmetric_aut_group(S_id).order == 8


def test_symmetric_aut_trivial3():
    S = attach_involution(trivial_quandle(3), [1, 0, 2])
    G = symmetric_aut_group(S)
    # centralizer of a transposition in S_3
    assert G.order == 2
    assert set(G.elements) == {(0, 1, 2), (1, 0, 2)}


def test_inner_r4(inn_r4):
    assert inn_r4.elements == INNER_R4
    assert inn_r4.order == 4
    assert set(mulclose(inn_r4.elements)) == set(inn_r4.elements)


def test_inner_trivial():
    S = attach_involution(trivial_quandle(4), [0, 1, 2, 3])
    assert inner_group(S).elements == (identity(4),)


def test_inner_conj_s3(conj_s3):
    assert inner_group(conj_s3).order == 6


def test_inner_subgroup_of_symmetric_aut():
    for name, S in catalog_symmetric_quandles(8):
        inn = set(inner_group(S).elements)
        aut = set(symmetric_aut_group(S).elements)
        assert inn <= aut, name
        for t in S.quandle.translations():
            assert t in inn, name


def test_product_convention(inn_r4):
    G = inn_r4
    for x in range(G.order):
        for y in range(G.order):
            xy = G.mul(x, y)
            for a in range(G.degree):
                assert G.elements[xy][a] == G.elements[y][G.elements[x][a]]


def test_orbits_inner_r4(inn_r4):
    dec = orbits(inn_r4)
    assert dec.orbits == ((0, 2), (1, 3))
    assert dec.representatives == (0, 1)


def test_orbits_aut_r4(anti4):
    dec = orbits(symmetric_aut_group(anti4))
    assert dec.orbits == ((0, 1, 2, 3),)


def test_orbits_trivial_group():
    from sqk.autgroup import PermGroup

    G = PermGroup(5, [identity(5)])
    assert orbits(G).orbits == ((0,), (1,), (2,), (3,), (4,))


def test_stabilizer(inn_r4):
    H = stabilizer(inn_r4, 0)
    assert tuple(inn_r4.elements[i] for i in H.elements) == \
        ((0, 1, 2, 3), (0, 3, 2, 1))
    assert H.order == 2


def test_orbit_stabilizer():
    for name, S in catalog_symmetric_quandles(8):
        G = inner_group(S)
        dec = orbits(G)
        for q in range(S.order):
            orb = dec.orbits[dec.orbit_index[q]]
            assert len(orb) * stabilizer(G, q).order == G.order, name


def test_transporter(inn_r4):
    t = transporter(inn_r4, 0, 2)
    assert inn_r4.elements[t] == (2, 1, 0, 3)
    assert transporter(inn_r4, 0, 0) == inn_r4.identity
    assert transporter(inn_r4, 0, 1) is None
    # post-hoc: a found transporter indeed moves the point
    for frm in range(4):
        for to in range(4):
            i = transporter(inn_r4, frm, to)
            if i is not None:
                assert inn_r4.elements[i][frm] == to


def test_rho_maps_orbits_to_orbits():
    for name, S in catalog_symmetric_quandles(10):
        dec = orbits(inner_group(S))
        kappa = [dec.orbit_index[S.rho[q]] for q in dec.representatives]
        for i, orb in enumerate(dec.orbits):
            for a in orb:
                assert dec.orbit_index[S.rho[a]] == kappa[i], name
        assert all(kappa[kappa[i]] == i for i in range(dec.count)), name


def test_translation_conjugation_identity():
    # s_{a.f} = f^-1 s_a f for every symmetric automorphism f
    for name, S in catalog_symmetric_quandles(8):
        cols = S.quandle.translations()
        G = symmetric_aut_group(S)
        for f in G.elements:
            fi = inverse(f)
            for a in range(S.order):
                assert cols[f[a]] == compose_then(compose_then(fi, cols[a]), f), name


def test_is_homogeneous(anti4, conj_s3):
    assert is_homogeneous(anti4)
    S = attach_involution(trivial_quandle(5), [0, 1, 2, 3, 4])
    assert is_homogeneous(S)
    # Conj(S3): every automorphism fixes the identity element, so the
    # action cannot be transitive
    assert not is_homogeneous(conj_s3)


def _transposition_quandle(m):
    """T_m: the transpositions of S_m under conjugation, with rho = id."""
    ts = []
    for i in range(m):
        for j in range(i + 1, m):
            t = list(range(m))
            t[i], t[j] = j, i
            ts.append(tuple(t))
    table = [[ts.index(compose_then(compose_then(b, a), b)) for b in ts]
             for a in ts]
    return attach_involution(quandle_from_table(table), list(range(len(ts))))


def _relabelled(S, seed):
    """S transported along a uniformly random bijection."""
    p = list(range(S.order))
    random.Random(seed).shuffle(p)
    rho = [0] * S.order
    for a in range(S.order):
        rho[p[a]] = p[S.rho[a]]
    return attach_involution(quandle_from_table(relabel(S.quandle.op, p)), rho)


def _reference_group(S, symmetric):
    """Every automorphism listed by backtracking (filtered by rho), with the
    greedy generators recomputing the closure from scratch for each one."""
    maps = all_automorphism_maps(S.quandle)
    if symmetric:
        maps = [f for f in maps
                if all(f[S.rho[a]] == S.rho[f[a]] for a in range(S.order))]
    gens = []
    closure = {identity(S.order)}
    for f in maps:
        if f not in closure:
            gens.append(f)
            closure = autgroup.mulclose(gens)
    return PermGroup(S.order, maps, gens)


def _differential_cases():
    cases = [(name, S) for name, S in catalog_symmetric_quandles(12)]
    for name, S in [("R_8", antipodal(8)), ("R_12", antipodal(12)),
                    ("Conj(S3)", conj_symmetric_quandle(symmetric_group(3))),
                    ("Conj(D4)", conj_symmetric_quandle(dihedral_group(4))),
                    ("T_4", _transposition_quandle(4))]:
        cases += [(f"{name} seed {seed}", _relabelled(S, seed))
                  for seed in range(3)]
    return cases


@pytest.mark.parametrize("S", [pytest.param(S, id=name)
                               for name, S in _differential_cases()])
def test_chain_matches_listing_every_automorphism(S):
    for symmetric, G in ((False, aut_group(S.quandle)),
                         (True, symmetric_aut_group(S))):
        ref = _reference_group(S, symmetric)
        assert G.elements == ref.elements, symmetric
        assert G.generators == ref.generators, symmetric
        assert orbits(G) == orbits(ref), symmetric


def test_map_search_in_any_order_finds_every_automorphism():
    for name, S in _differential_cases():
        if S.order > 6:
            continue
        op = S.quandle.op
        expected = bf_automorphisms(op)
        assert all_automorphism_maps(S.quandle) == expected, name
        order = list(range(S.order))
        random.Random(S.order).shuffle(order)
        found = _MapSearch(op, op, order=order).run(find_all=True)
        assert sorted(found) == expected, name


def test_aut_group_complete_map_checks_are_few(monkeypatch):
    # listing Aut(Conj(D_12)) leaf by leaf checks all 768 complete maps.
    # The chain checks only the generators it keeps, and each one moves k
    # outside the orbit of the earlier ones, so it at least doubles the
    # group they generate: at most log2(768) < 10 of them
    calls = []
    checked = quandle.product_violation

    def counted(*args):
        calls.append(args)
        return checked(*args)

    monkeypatch.setattr(quandle, "product_violation", counted)
    G = aut_group(conj_symmetric_quandle(dihedral_group(12)).quandle, 24)
    assert G.order == 768
    assert 1 <= len(calls) <= 9


def test_closure_missing_an_element_is_caught(monkeypatch):
    closure = autgroup.mulclose

    def lossy(perms):
        els = closure(perms)
        els.discard(max(els))
        return els

    monkeypatch.setattr(autgroup, "mulclose", lossy)
    with pytest.raises(InternalVerificationFailed):
        aut_group(dihedral_quandle(6))


def test_chain_missing_a_generator_is_caught(monkeypatch):
    run = _MapSearch.run
    dropped = []

    def lossy(self, prefix=(), find_all=False):
        hits = run(self, prefix, find_all)
        if hits and not dropped:
            dropped.append(hits[0])
            return []
        return hits

    monkeypatch.setattr(_MapSearch, "run", lossy)
    with pytest.raises(InternalVerificationFailed):
        aut_group(trivial_quandle(3))
    assert dropped == [(0, 2, 1)]
