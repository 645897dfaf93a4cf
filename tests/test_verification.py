"""The verification layer bites: corrupted presentations, tables, involutions,
isomorphisms and translations are rejected, and coset assembly stays within
a product budget that a cell-by-cell re-check would exceed."""

import dataclasses
from itertools import combinations

import pytest

from conftest import catalog_symmetric_quandles, relabelled, transposition_quandle
from sqk import (
    PermGroup,
    Quandle,
    SymmetricQuandle,
    antipodal,
    attach_involution,
    autgroup,
    build_rack,
    build_symmetric_quandle,
    conj_symmetric_quandle,
    decompose,
    inner_group,
    paper_example_presentation,
    quandle_from_table,
    symmetric_group,
    validate_presentation,
    verify_decomposition,
)
from sqk import cosets, perm
from sqk.autgroup import mulclose
from sqk.errors import InternalVerificationFailed, SqkError
from sqk.perm import identity
from sqk.quandle import Isomorphism


def presentations():
    conj_s3 = conj_symmetric_quandle(symmetric_group(3))
    return [("paper example", paper_example_presentation()),
            ("Conj(S3) over inn", decompose(conj_s3, "inn").presentation),
            ("T4 over inn", decompose(transposition_quandle(4), "inn").presentation)]


def commutes_with_subgroup(G, z, H):
    return all(G.mul(z, h) == G.mul(h, z) for h in H.elements)


@pytest.mark.parametrize("name,P", presentations())
def test_assemble_rejects_every_c1_failure(name, P):
    # _assemble is called directly, past the C1 gate in _require; it must
    # raise exactly for the z that do not commute with their subgroup
    G = P.group
    failures = 0
    for j in range(P.orbit_count):
        for z in range(G.order):
            bad = dataclasses.replace(P, z=P.z[:j] + (z,) + P.z[j + 1:])
            if commutes_with_subgroup(G, z, P.subgroups[j]):
                cosets._assemble(bad)
                continue
            failures += 1
            assert not validate_presentation(bad, "rack")["C1"].passed
            with pytest.raises(InternalVerificationFailed):
                cosets._assemble(bad)
    assert failures > 0


def test_build_rejects_every_c3_failure(monkeypatch):
    # past the C3 gate in _require, the rho obligation must raise exactly
    # for the r that conjugate H_j out of H_kappa(j)
    monkeypatch.setattr(cosets, "_require", lambda P, level: None)
    failures = 0
    for _, P in presentations():
        G = P.group
        for j in range(P.orbit_count):
            Hk = P.subgroups[P.kappa[j]]
            for r in range(G.order):
                bad = dataclasses.replace(P, r=P.r[:j] + (r,) + P.r[j + 1:])
                if all(G.mul(G.mul(r, h), G.inv(r)) in Hk
                       for h in P.subgroups[j].elements):
                    try:
                        build_symmetric_quandle(bad)
                    except InternalVerificationFailed as exc:
                        assert "rho" not in str(exc)
                    except SqkError:
                        pass
                    continue
                failures += 1
                with pytest.raises(InternalVerificationFailed, match="rho"):
                    build_symmetric_quandle(bad)
    assert failures > 0


def _corrupting(monkeypatch, which, p, q):
    """Make _assemble return a table with cell (p, q) moved by one."""
    real = cosets._assemble

    def corrupted(P):
        spaces, labels, op, dual_direct, global_index = real(P)
        table = op if which == "op" else dual_direct
        table[p][q] = (table[p][q] + 1) % len(labels)
        return spaces, labels, op, dual_direct, global_index

    monkeypatch.setattr(cosets, "_assemble", corrupted)


@pytest.mark.parametrize("name,P", presentations())
def test_flipped_table_cell_is_rejected(name, P, monkeypatch):
    n = build_symmetric_quandle(P).sq.order
    for p in range(n):
        for q in range(n):
            with monkeypatch.context() as m:
                _corrupting(m, "op", p, q)
                with pytest.raises(SqkError):
                    build_symmetric_quandle(P)
                with pytest.raises(SqkError):
                    build_rack(P)


@pytest.mark.parametrize("name,P", presentations())
def test_flipped_dual_cell_is_rejected(name, P, monkeypatch):
    n = build_symmetric_quandle(P).sq.order
    for p in range(n):
        for q in range(n):
            with monkeypatch.context() as m:
                _corrupting(m, "dual", p, q)
                with pytest.raises(InternalVerificationFailed, match="dual"):
                    build_symmetric_quandle(P)


@pytest.mark.parametrize("name,P", presentations())
def test_flipped_rho_entry_is_rejected(name, P):
    sq = build_symmetric_quandle(P).sq
    n = sq.order
    for a in range(n):
        for v in range(n):
            if v == sq.rho[a]:
                continue
            rho = list(sq.rho)
            rho[a] = v
            with pytest.raises(SqkError):
                attach_involution(sq.quandle, rho)


def _is_symmetric_iso(op1, rho1, op2, rho2, f):
    n = len(op1)
    return sorted(f) == list(range(n)) and \
        all(f[op1[a][b]] == op2[f[a]][f[b]] for a in range(n) for b in range(n)) and \
        all(f[rho1[a]] == rho2[f[a]] for a in range(n))


def test_corrupted_psi_is_reported():
    S = conj_symmetric_quandle(symmetric_group(3))
    d = decompose(S, "inn")
    built = d.built.sq
    n = S.order

    def report_for(m):
        psi = Isomorphism(source=d.psi.source, target=d.psi.target, map=tuple(m))
        return verify_decomposition(S, dataclasses.replace(d, psi=psi))

    for k in range(n):
        for v in range(n):
            if v == d.psi.map[k]:
                continue
            m = list(d.psi.map)
            m[k] = v
            report = report_for(m)
            assert not report.ok
            assert not report["psi bijective"].passed
    # swaps keep psi bijective: the report fails exactly when the swapped
    # map is not a symmetric isomorphism
    caught = 0
    for a, b in combinations(range(n), 2):
        m = list(d.psi.map)
        m[a], m[b] = m[b], m[a]
        still_iso = _is_symmetric_iso(built.quandle.op, built.rho,
                                      S.quandle.op, S.rho, m)
        assert report_for(m).ok == still_iso
        caught += not still_iso
    assert caught > 0


def _unchecked(op, rho):
    """A SymmetricQuandle that skipped validation."""
    n = len(op)
    dual = [[0] * n for _ in range(n)]
    for b in range(n):
        for a in range(n):
            dual[op[a][b]][b] = a
    Q = Quandle(order=n, op=tuple(map(tuple, op)),
                dual=tuple(map(tuple, dual)))
    return SymmetricQuandle(quandle=Q, rho=tuple(rho))


@pytest.mark.parametrize("S", [conj_symmetric_quandle(symmetric_group(3)),
                               transposition_quandle(4)],
                         ids=["Conj(S3)", "T4"])
def test_inner_group_rejects_a_corrupted_translation(S):
    # swap two entries of one column: the column stays a bijection, and
    # inner_group must raise exactly when some column stops being a
    # symmetric automorphism of the corrupted table
    n = S.order
    caught = 0
    for b in range(n):
        for a1, a2 in combinations(range(n), 2):
            op = [list(row) for row in S.quandle.op]
            op[a1][b], op[a2][b] = op[a2][b], op[a1][b]
            cols = [tuple(op[a][c] for a in range(n)) for c in range(n)]
            sound = all(_is_symmetric_iso(op, S.rho, op, S.rho, t) for t in cols)
            if sound:
                inner_group(_unchecked(op, S.rho))
                continue
            caught += 1
            with pytest.raises(InternalVerificationFailed):
                inner_group(_unchecked(op, S.rho))
    assert caught > 0


def _count_mul(monkeypatch):
    calls = [0]
    real = PermGroup.mul

    def counting(self, x, y):
        calls[0] += 1
        return real(self, x, y)

    monkeypatch.setattr(PermGroup, "mul", counting)
    return calls


def test_decompose_product_budget(monkeypatch):
    # decompose(T_5, "inn") makes about 500 group products; re-checking
    # every cell over every pair of coset representatives made about 44,000
    S = transposition_quandle(5)
    calls = _count_mul(monkeypatch)
    d = decompose(S, "inn")
    assert d.verification.ok
    assert d.presentation.group.order == 120
    assert calls[0] <= 2000


def test_decompose_fills_columns_by_the_point_action(monkeypatch):
    # one group product per cell of op and of the dual made 8,940 calls on
    # R_64; with the point action about 600 remain, for the C1 and rho
    # obligations
    calls = _count_mul(monkeypatch)
    d = decompose(antipodal(64), "inn")
    assert d.verification.ok
    assert d.presentation.group.order == 64
    assert calls[0] <= 1000


def test_decompose_makes_inverses_on_demand(monkeypatch):
    # a full inverse table and the C1 and rho checks on every coset member
    # made 735 perm.inverse and 2,595 PermGroup.mul calls on T_6
    inverses = [0]
    real = perm.inverse

    def counting(p):
        inverses[0] += 1
        return real(p)

    monkeypatch.setattr(perm, "inverse", counting)
    calls = _count_mul(monkeypatch)
    d = decompose(transposition_quandle(6), "inn")
    assert d.verification.ok
    assert d.presentation.group.order == 720
    assert inverses[0] <= 100
    assert calls[0] <= 1000
    G = d.presentation.group
    assert all(perm.compose(G.elements[x], G.elements[G.inv(x)]) ==
               identity(G.degree) for x in range(G.order))


def test_inner_group_checks_only_spanning_translations(monkeypatch):
    # R_64 has 32 distinct translations; two of them span
    checks = [0]
    real = autgroup.is_symmetric_isomorphism_map

    def counting(*args):
        checks[0] += 1
        return real(*args)

    monkeypatch.setattr(autgroup, "is_symmetric_isomorphism_map", counting)
    G = inner_group(antipodal(64))
    assert G.order == 64
    assert len(G.generators) == 32
    assert checks[0] <= 2


def _inner_cases():
    cases = list(catalog_symmetric_quandles(12))
    for name, S in [("R_8", antipodal(8)), ("T_4", transposition_quandle(4)),
                    ("Conj(S3)", conj_symmetric_quandle(symmetric_group(3)))]:
        cases += [(f"{name} seed {seed}", relabelled(S, seed))
                  for seed in range(3)]
    return cases


@pytest.mark.parametrize("S", [pytest.param(S, id=name)
                               for name, S in _inner_cases()])
def test_inner_group_equals_the_closure_of_every_translation(S):
    distinct = list(dict.fromkeys(S.quandle.translations()))
    ref = PermGroup(S.order, mulclose(distinct + [identity(S.order)]), distinct)
    G = inner_group(S)
    assert G.elements == ref.elements
    assert G.generators == ref.generators


def test_translation_missing_from_the_closure_is_reported(monkeypatch):
    # with only the first translation closed, the others are missing
    monkeypatch.setattr(perm, "spanning_points", lambda maps: [0])
    for S in (transposition_quandle(4), antipodal(8)):
        with pytest.raises(InternalVerificationFailed, match="missing"):
            inner_group(S)
