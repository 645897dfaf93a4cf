"""The verification layer bites: corrupted presentations, tables, involutions,
isomorphisms and translations are rejected, and coset assembly stays within
a product budget that a cell-by-cell re-check would exceed."""

import copy
import dataclasses
from itertools import combinations

import pytest

from conftest import catalog_symmetric_quandles, relabelled, transposition_quandle
from sqk import (
    PermGroup,
    Quandle,
    Subgroup,
    SymmetricQuandle,
    antipodal,
    attach_involution,
    autgroup,
    build_quandle,
    build_rack,
    build_symmetric_quandle,
    conj_presentation,
    conj_symmetric_quandle,
    cyclic_group,
    decompose,
    inner_group,
    paper_example_presentation,
    quandle_from_table,
    symmetric_group,
    validate_presentation,
    verify_decomposition,
)
from sqk import cosets, decomposition, fileio, perm
from sqk.autgroup import mulclose
from sqk.errors import InternalVerificationFailed, PresentationInvalid, SqkError
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
    # C1 is decided once, by the validator inside every builder; a rack is
    # built exactly for the z that commute with their subgroup
    G = P.group
    failures = 0
    for j in range(P.orbit_count):
        for z in range(G.order):
            bad = dataclasses.replace(P, z=P.z[:j] + (z,) + P.z[j + 1:])
            if commutes_with_subgroup(G, z, P.subgroups[j]):
                build_rack(bad)
                continue
            failures += 1
            assert not validate_presentation(bad, "rack")["C1"].passed
            for build in (build_rack, build_quandle, build_symmetric_quandle):
                with pytest.raises(PresentationInvalid) as exc:
                    build(bad)
                assert exc.value.condition == "C1"
    assert failures > 0


def test_build_rejects_every_c3_failure():
    # C3 is decided once, by the validator inside the builder; it fails
    # exactly for the r that conjugate H_j out of H_kappa(j)
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
                    except PresentationInvalid as exc:
                        assert exc.condition != "C3"
                    continue
                failures += 1
                with pytest.raises(PresentationInvalid) as exc:
                    build_symmetric_quandle(bad)
                assert exc.value.condition == "C3"
    assert failures > 0


def _element_form(P):
    """P with each point stabilizer given by its elements, which the
    validator decides element by element."""
    return dataclasses.replace(P, subgroups=tuple(
        Subgroup(P.group, H.elements) for H in P.subgroups))


@pytest.mark.parametrize("S,choice", [
    pytest.param(transposition_quandle(4), "inn", id="T_4 inn"),
    pytest.param(transposition_quandle(4), "aut", id="T_4 aut"),
    pytest.param(conj_symmetric_quandle(symmetric_group(3)), "inn", id="Conj(S3) inn"),
    pytest.param(relabelled(antipodal(8), 1), "aut", id="R_8 seed 1 aut")])
def test_generator_form_rejects_what_the_element_form_rejects(S, choice):
    # every z_j and every r_j over all of G: C1 and C3 decided on the
    # generators of point stabilizers fail exactly where the element scans
    # fail, and name the same witness
    P = decompose(S, choice, S.order).presentation
    E = _element_form(P)
    assert cosets._by_points(P) and not cosets._by_points(E)
    rejected = {"C1": 0, "C3": 0}
    for j in range(P.orbit_count):
        for x in range(P.group.order):
            for field in ("z", "r"):
                values = getattr(P, field)
                change = {field: values[:j] + (x,) + values[j + 1:]}
                got = validate_presentation(dataclasses.replace(P, **change))
                want = validate_presentation(dataclasses.replace(E, **change))
                assert got.lines() == want.lines(), (j, field, x)
                for name in rejected:
                    rejected[name] += not got[name].passed
    assert all(rejected.values()), rejected


def _corrupting(monkeypatch, p, q):
    """Make _assemble return an operation table with cell (p, q) moved by
    one."""
    real = cosets._assemble

    def corrupted(P):
        spaces, offsets, op = real(P)
        op[p][q] = (op[p][q] + 1) % len(op)
        return spaces, offsets, op

    monkeypatch.setattr(cosets, "_assemble", corrupted)


@pytest.mark.parametrize("name,P", presentations())
def test_flipped_table_cell_is_rejected(name, P, monkeypatch):
    n = build_symmetric_quandle(P).sq.order
    for p in range(n):
        for q in range(n):
            with monkeypatch.context() as m:
                _corrupting(m, p, q)
                with pytest.raises(SqkError):
                    build_symmetric_quandle(P)
                with pytest.raises(SqkError):
                    build_rack(P)


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


def _decompose_cases():
    return [pytest.param(conj_symmetric_quandle(symmetric_group(3)), "inn",
                         id="Conj(S3) inn"),
            pytest.param(transposition_quandle(4), "inn", id="T4 inn"),
            pytest.param(relabelled(antipodal(8), 1), "aut", id="R_8 seed 1 aut")]


def _assembled_with(monkeypatch, edit):
    """Make decompose and conj_presentation see assemble's output with op,
    rho and the coset points (psi's values) passed through edit."""
    real = cosets.assemble

    def edited(P, level):
        built = real(P, level)
        op = [list(row) for row in built.quandle.op]
        rho = list(built.sq.rho)
        spaces = [copy.copy(sp) for sp in built.cosets]
        edit(op, rho, spaces)
        Q = dataclasses.replace(built.quandle, op=tuple(map(tuple, op)))
        return dataclasses.replace(built, quandle=Q, cosets=tuple(spaces),
                                   sq=SymmetricQuandle(quandle=Q, rho=tuple(rho)))

    monkeypatch.setattr(decomposition, "assemble", edited)


@pytest.mark.parametrize("S,choice", _decompose_cases())
def test_decompose_rejects_a_moved_op_entry(S, choice, monkeypatch):
    # the entry passed every table check of assemble; only the psi
    # homomorphism check can see it
    n = S.order
    for p in range(n):
        for q in range(n):
            def edit(op, rho, spaces):
                op[p][q] = (op[p][q] + 1) % n
            with monkeypatch.context() as m:
                _assembled_with(m, edit)
                with pytest.raises(InternalVerificationFailed,
                                   match="psi homomorphism"):
                    decompose(S, choice)


def test_conj_presentation_rejects_a_moved_op_entry(monkeypatch):
    G = cyclic_group(4)
    for p in range(G.order):
        for q in range(G.order):
            def edit(op, rho, spaces):
                op[p][q] = (op[p][q] + 1) % len(op)
            with monkeypatch.context() as m:
                _assembled_with(m, edit)
                with pytest.raises(InternalVerificationFailed, match="conjugation"):
                    conj_presentation(G)


@pytest.mark.parametrize("S,choice", _decompose_cases())
def test_decompose_rejects_a_moved_rho_entry(S, choice, monkeypatch):
    # every other value of 0..n, and right[a] - n, which indexes the right
    # coset from the end
    right = decompose(S, choice).built.sq.rho
    n = len(right)
    real = cosets._involution
    for a in range(n):
        for v in [v for v in range(n + 1) if v != right[a]] + [right[a] - n]:
            def corrupted(P, spaces, offsets):
                rho = real(P, spaces, offsets)
                rho[a] = v
                return rho
            with monkeypatch.context() as m:
                m.setattr(cosets, "_involution", corrupted)
                with pytest.raises(InternalVerificationFailed):
                    decompose(S, choice)


@pytest.mark.parametrize("S,choice", _decompose_cases())
def test_decompose_rejects_a_moved_psi_entry(S, choice, monkeypatch):
    # one point of one coset space, the value psi takes there, moved to
    # every other point
    n = S.order
    counts = [sp.count for sp in decompose(S, choice).built.cosets]
    for i, count in enumerate(counts):
        for c in range(count):
            for shift in range(1, n):
                def edit(op, rho, spaces):
                    points = list(spaces[i].points)
                    points[c] = (points[c] + shift) % n
                    spaces[i].points = tuple(points)
                with monkeypatch.context() as m:
                    _assembled_with(m, edit)
                    with pytest.raises(InternalVerificationFailed, match="psi"):
                        decompose(S, choice)


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
    Q = Quandle(order=len(op), op=tuple(map(tuple, op)))
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


def _count_calls(monkeypatch, name, *modules):
    """Count calls of the function name, replaced in each of modules."""
    calls = [0]
    real = getattr(modules[0], name)

    def counting(*args):
        calls[0] += 1
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_each_condition_is_decided_once(monkeypatch):
    # decompose of Conj(S_4) validated its presentation twice and made 15
    # centralizes calls; a build of the emitted presentation made 10. C1 and
    # C3 are decided once per orbit: by one descent on each point stabilizer
    # in decompose, on the elements of each subgroup of the written table
    validations = _count_calls(monkeypatch, "validate_presentation",
                               cosets, decomposition)
    centralizing = _count_calls(monkeypatch, "centralizes", cosets)
    descents = _count_calls(monkeypatch, "least_outside", autgroup._Chain)
    d = decompose(conj_symmetric_quandle(symmetric_group(4)), "inn")
    assert d.presentation.orbit_count == 5
    assert (validations[0], centralizing[0], descents[0]) == (1, 0, 10)
    descents[0] = 0
    assert validate_presentation(d.presentation, "rack").ok
    assert descents[0] == 5
    P = fileio.parse_prs(fileio.format_prs(d.presentation))
    validations[0] = centralizing[0] = descents[0] = 0
    assert build_symmetric_quandle(P).report.ok
    assert (validations[0], centralizing[0], descents[0]) == (1, 5, 0)


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
    distinct = list(dict.fromkeys(S.quandle.columns))
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
