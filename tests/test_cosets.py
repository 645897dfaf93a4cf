from dataclasses import replace

import pytest

from conftest import transposition_quandle
from helpers import ref_presentation_lines
from sqk import (
    antipodal,
    build_quandle,
    build_rack,
    build_symmetric_quandle,
    conj_symmetric_quandle,
    cyclic_group,
    decompose,
    find_symmetric_isomorphism,
    inner_group,
    paper_example_presentation,
    single_orbit_presentation,
    stabilizer,
    subgroup_closure,
    subgroup_from_elements,
    symmetric_group,
    validate_presentation,
)
from sqk import cosets, perm
from sqk.cosets import CosetPresentation
from sqk.errors import PresentationInvalid
from sqk.fileio import format_prs, parse_prs


def test_an_unknown_level_is_refused():
    with pytest.raises(ValueError, match="unknown level 'bogus'"):
        validate_presentation(paper_example_presentation(), "bogus")


def test_paper_example_all_conditions(quat):
    P = paper_example_presentation()
    report = validate_presentation(P, "symmetric")
    assert report.ok
    assert [c.name for c in report.checks] == ["C1", "C2", "C3", "C4", "C5", "C6"]


def test_paper_example_with_trivial_r_fails_c5(quat):
    P = paper_example_presentation()
    e = quat.identity
    bad = CosetPresentation(group=P.group, subgroups=P.subgroups, z=P.z,
                            r=(e, e), kappa=P.kappa)
    report = validate_presentation(bad, "symmetric")
    assert not report.ok
    assert not report["C5"].passed
    # a has order 4, so a^-1 != a
    with pytest.raises(PresentationInvalid) as exc:
        build_symmetric_quandle(bad)
    assert exc.value.condition == "C5"


def test_degenerate_full_subgroup(quat):
    H = subgroup_from_elements(quat, range(8))
    P = single_orbit_presentation(quat, H, quat.identity)
    assert validate_presentation(P, "symmetric").ok
    built = build_symmetric_quandle(P)
    assert built.sq.order == 1
    assert built.sq.quandle.op == ((0,),)


def test_paper_example_products():
    built = build_symmetric_quandle(paper_example_presentation())
    # element order: H0[e], H0[b], H1[e], H1[a]
    assert built.labels == ((0, 0), (0, 4), (1, 0), (1, 1))
    op = built.sq.quandle.op
    h1e, h1b, h2e, h2a = 0, 1, 2, 3
    assert op[h1e][h1b] == h1e
    assert op[h1e][h2e] == h1b
    assert op[h2e][h2a] == h2e
    assert op[h2e][h1e] == h2a
    assert built.sq.rho[h1e] == h1b
    assert built.sq.rho[h2e] == h2a


def test_paper_example_is_antipodal_4():
    built = build_symmetric_quandle(paper_example_presentation())
    iso = find_symmetric_isomorphism(built.sq, antipodal(4))
    assert iso is not None
    assert iso.map == (0, 2, 1, 3)


def test_rack_but_not_quandle():
    # G = Z4, H = {0, 2}, z = 1: C1 holds (abelian) but z is not in H
    G = cyclic_group(4)
    H = subgroup_from_elements(G, [0, 2])
    P = single_orbit_presentation(G, H, 1)
    rack_report = validate_presentation(P, "rack")
    assert rack_report.ok
    quandle_report = validate_presentation(P, "quandle")
    assert not quandle_report["C2"].passed
    labeled = build_rack(P)
    assert labeled.quandle.rack_only
    assert labeled.quandle.op == ((1, 1), (0, 0))
    with pytest.raises(PresentationInvalid) as exc:
        build_quandle(P)
    assert exc.value.condition == "C2"


@pytest.mark.parametrize("build", [build_rack, build_quandle,
                                   build_symmetric_quandle])
def test_a_build_checks_its_table_once_and_keeps_what_assemble_made(
        build, monkeypatch):
    # the builders validated the assembled table again in a second Quandle
    # (quandle_from_table), running perm.square_rows twice
    P = paper_example_presentation()
    rows = [0]
    made = []
    real_rows, real_assemble = perm.square_rows, cosets.assemble

    def square_rows(table):
        rows[0] += 1
        return real_rows(table)

    def assemble(P, level):
        made.append(real_assemble(P, level))
        return made[-1]

    monkeypatch.setattr(perm, "square_rows", square_rows)
    monkeypatch.setattr(cosets, "assemble", assemble)
    built = build(P)
    assert rows[0] == 1
    assert len(made) == 1
    assert built.quandle is made[0].quandle
    assert built.sq is made[0].sq


def test_trivial_subgroup_gives_trivial_quandle():
    # H = {e}, z = e: a*b = a b^-1 e b = a
    G = cyclic_group(5)
    H = subgroup_from_elements(G, [0])
    P = single_orbit_presentation(G, H, 0)
    labeled = build_quandle(P)
    assert labeled.quandle.order == 5
    assert labeled.quandle.op == tuple(tuple(a for _ in range(5)) for a in range(5))


def test_single_orbit_from_inner_group(anti4):
    # H = stab(0) in Inn(R4, antipodal), z = s_0, r = (0 2): the two cosets
    # form a quandle isomorphic to the sub-kei {0, 2} of R4
    G = inner_group(anti4)
    H = stabilizer(G, 0)
    z = G.index_of((0, 3, 2, 1))
    r = G.index_of((2, 1, 0, 3))
    P = single_orbit_presentation(G, H, z, r)
    assert validate_presentation(P, "symmetric").ok
    built = build_symmetric_quandle(P)
    assert built.sq.quandle.op == ((0, 0), (1, 1))
    assert built.sq.rho == (1, 0)


def test_element_count_is_coset_count(quat):
    P = paper_example_presentation()
    built = build_symmetric_quandle(P)
    expected = sum(P.group.order // H.order for H in P.subgroups)
    assert built.sq.order == expected == 4


def test_well_definedness_is_checked_exhaustively():
    # recompute every cell of the quaternion example with every pair of
    # alternative representatives
    P = paper_example_presentation()
    built = build_symmetric_quandle(P)
    G = P.group
    labels = built.labels
    for p, (i, _) in enumerate(labels):
        space_i = built.cosets[i]
        members_p = space_i.cosets[space_i.coset_index[labels[p][1]]]
        for q, (j, _) in enumerate(labels):
            space_j = built.cosets[j]
            members_q = space_j.cosets[space_j.coset_index[labels[q][1]]]
            for x in members_p:
                for y in members_q:
                    g = G.mul(x, G.mul(G.mul(G.inv(y), P.z[j]), y))
                    assert built.index_of(i, g) == built.sq.quandle.op[p][q]
        for x in members_p:
            g = G.mul(P.r[i], x)
            assert built.index_of(P.kappa[i], g) == built.sq.rho[p]


def test_dual_matches_inverse_z_formula():
    P = paper_example_presentation()
    built = build_symmetric_quandle(P)
    G = P.group
    labels = built.labels
    for p, (i, x) in enumerate(labels):
        for q, (j, y) in enumerate(labels):
            g = G.mul(x, G.mul(G.mul(G.inv(y), G.inv(P.z[j])), y))
            assert built.index_of(i, g) == built.sq.quandle.dual[p][q]


def test_structurally_bad_presentation(quat):
    H = subgroup_closure(quat, {1})
    P = CosetPresentation(group=quat, subgroups=(H,), z=(1,), r=(4, 1),
                          kappa=(0,))
    with pytest.raises(PresentationInvalid) as exc:
        validate_presentation(P, "symmetric")
    assert exc.value.condition == "structure"


@pytest.mark.parametrize("change,detail", [
    ({"subgroups": (subgroup_closure(cyclic_group(8), {1}),)},
     "subgroup 0 does not live in the presentation group"),
    ({"z": (8,)}, "z_0 out of range"),
    ({"z": (-1,)}, "z_0 out of range"),
    ({"r": (8,)}, "r_0 out of range"),
    ({"kappa": (1,)}, "kappa(0) out of range"),
], ids=["foreign subgroup", "z high", "z negative", "r high", "kappa high"])
def test_structural_problems_of_a_presentation_built_in_python(quat, change,
                                                               detail):
    # parse_prs rejects each of these in a file (FormatError, exit 2); a
    # presentation made in Python meets this check instead
    P = replace(single_orbit_presentation(quat, subgroup_closure(quat, {1}), 1),
                **change)
    for build in (build_rack, build_quandle, build_symmetric_quandle):
        with pytest.raises(PresentationInvalid) as exc:
            build(P)
        assert exc.value.condition == "structure"
        assert str(exc.value) == ("presentation condition structure fails: "
                                  + detail)


def _report_cases():
    """(name, presentation maker, the conditions some mutant fails)."""
    def inn(S):
        return decompose(S, "inn").presentation

    every = {f"C{n}" for n in range(1, 7)}
    yield "paper example", paper_example_presentation, every
    yield ("Conj(S3) inn", lambda: inn(conj_symmetric_quandle(symmetric_group(3))),
           every)
    # one orbit: kappa is always involutive
    yield "T_4 inn", lambda: inn(transposition_quandle(4)), every - {"C6"}
    # a kappa with a 2-cycle, which tells kappa^2(i) from kappa(i) in C6
    yield "Conj(Z4) inn", lambda: inn(conj_symmetric_quandle(cyclic_group(4))), {"C6"}
    yield "Conj(S4) read back", lambda: parse_prs(format_prs(
        inn(conj_symmetric_quandle(symmetric_group(4))))), every


def _single_field_mutants(P):
    """P, then P with one of z_j, r_j (over all of G) or kappa_j (over all
    orbit indices) replaced."""
    def put(values, j, v):
        return values[:j] + (v,) + values[j + 1:]

    yield P
    for j in range(P.orbit_count):
        for x in range(P.group.order):
            yield replace(P, z=put(P.z, j, x))
            yield replace(P, r=put(P.r, j, x))
        for m in range(P.orbit_count):
            yield replace(P, kappa=put(P.kappa, j, m))


@pytest.mark.parametrize("make,failing", [
    pytest.param(make, failing, id=name) for name, make, failing in _report_cases()])
def test_report_matches_per_condition_loops(make, failing):
    """Every detail string of the report, at every level, on every
    single-field mutant of the presentation."""
    P = make()
    failed = set()
    for M in _single_field_mutants(P):
        for level in ("rack", "quandle", "symmetric"):
            lines = validate_presentation(M, level).lines()
            assert lines == ref_presentation_lines(M, level), (M, level)
            failed.update(line.split(":")[0] for line in lines if "fail" in line)
    assert failed == failing
