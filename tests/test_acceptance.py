"""Acceptance suite. One test per criterion; each prints a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

from helpers import (
    all_involutions,
    bf_automorphisms,
    bf_good_involutions,
    bf_inversion_closed_transversal_exists,
    compose_then,
)
from sqk import (
    antipodal,
    attach_involution,
    aut_group,
    build_symmetric_quandle,
    conj_presentation,
    conj_symmetric_quandle,
    cyclic_group,
    decompose,
    dihedral_group,
    dihedral_quandle,
    enumerate_good_involutions,
    find_symmetric_isomorphism,
    inner_group,
    paper_example_presentation,
    quaternion_group,
    symmetric_aut_group,
    symmetric_group,
    trivial_quandle,
    validate_presentation,
    verify_decomposition,
)
from sqk.cli import run
from sqk.errors import NoInversionClosedTransversal
from sqk.fileio import format_qnd, parse_qnd
from sqk.perm import inverse
from sqk.symmetric import is_symmetric_isomorphism_map


def _corpus_groups():
    return ([cyclic_group(n) for n in range(2, 7)]
            + [symmetric_group(3), dihedral_group(4), quaternion_group()])


def test_criterion_1_quaternion_example_end_to_end():
    start = time.perf_counter()
    P = paper_example_presentation()
    report = validate_presentation(P, "symmetric")
    assert report.ok and len(report.checks) == 6
    built = build_symmetric_quandle(P)
    h1e, h1b, h2e, h2a = 0, 1, 2, 3
    assert built.labels == ((0, 0), (0, 4), (1, 0), (1, 1))
    op = built.sq.quandle.op
    assert op[h1e][h1b] == h1e
    assert op[h1e][h2e] == h1b
    assert op[h2e][h2a] == h2e
    assert op[h2e][h1e] == h2a
    iso = find_symmetric_isomorphism(built.sq, antipodal(4))
    assert iso is not None
    assert iso.map == (0, 2, 1, 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\ncriterion 1: PASS (quaternion example end-to-end, {elapsed:.3f}s)")


def test_criterion_2_decomposition_round_trip():
    start = time.perf_counter()
    quandles = [dihedral_quandle(n) for n in range(1, 11)]
    quandles += [conj_symmetric_quandle(G).quandle for G in _corpus_groups()]
    total = 0
    for Q in quandles:
        for rho in enumerate_good_involutions(Q):
            S = attach_involution(Q, rho)
            d = decompose(S, "inn")
            assert verify_decomposition(S, d).ok
            total += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\ncriterion 2: PASS (round trip on {total} symmetric quandles, "
          f"{elapsed:.1f}s)")


def test_criterion_3_homogeneous_case():
    S = antipodal(4)
    d_aut = decompose(S, "aut")
    assert d_aut.presentation.orbit_count == 1
    assert d_aut.presentation.group.order == 8
    assert [H.order for H in d_aut.presentation.subgroups] == [2]
    d_inn = decompose(S, "inn")
    assert d_inn.presentation.orbit_count == 2
    assert d_inn.presentation.group.order == 4
    assert [H.order for H in d_inn.presentation.subgroups] == [2, 2]
    print("\ncriterion 3: PASS (aut: 1 orbit |G|=8 |H|=2; inn: 2 orbits "
          "|G|=4 |H_i|=2)")


def test_criterion_4_good_involution_enumeration_oracle():
    r4 = dihedral_quandle(4)
    got = enumerate_good_involutions(r4)
    expected = [(0, 1, 2, 3), (0, 3, 2, 1), (2, 1, 0, 3), (2, 3, 0, 1)]
    assert got == expected
    assert len(all_involutions(4)) == 10
    assert bf_good_involutions(r4.op) == expected
    t3 = trivial_quandle(3)
    assert enumerate_good_involutions(t3) == all_involutions(3)
    assert len(enumerate_good_involutions(t3)) == 4
    print("\ncriterion 4: PASS (R4: 4 good involutions vs 10 candidates; "
          "trivial(3): all 4 involutions)")


def test_criterion_5_automorphism_oracles():
    corpus = [dihedral_quandle(n) for n in range(1, 7)]
    corpus += [trivial_quandle(n) for n in range(1, 7)]
    corpus += [conj_symmetric_quandle(symmetric_group(3)).quandle]
    checked = 0
    for Q in corpus:
        if Q.order > 6:
            continue
        G = aut_group(Q)
        assert sorted(G.elements) == sorted(bf_automorphisms(Q.op))
        checked += 1
    print(f"\ncriterion 5: PASS (backtracking == brute force on {checked} "
          "quandles of order <= 6)")


def test_criterion_6_translation_identities():
    from conftest import catalog_symmetric_quandles

    for name, S in catalog_symmetric_quandles(12):
        cols = S.quandle.columns
        # part (2): s_rho(a) = s_a^-1
        for a in range(S.order):
            assert cols[S.rho[a]] == inverse(cols[a]), name
        # part (1): s_{a.f} = f^-1 s_a f
        G = symmetric_aut_group(S) if S.order <= 8 else inner_group(S)
        for f in G.elements:
            fi = inverse(f)
            for a in range(S.order):
                assert cols[f[a]] == compose_then(compose_then(fi, cols[a]), f), name
    print("\ncriterion 6: PASS (both translation identities on every "
          "catalog symmetric quandle up to order 12)")


def test_criterion_7_well_definedness_fuzz():
    presentations = [paper_example_presentation()]
    S = antipodal(4)
    for choice in ("inn", "aut"):
        presentations.append(decompose(S, choice).presentation)
    cells = 0
    for P in presentations:
        built = build_symmetric_quandle(P)
        G = P.group
        labels = built.labels
        members = []
        for p, (i, _) in enumerate(labels):
            sp = built.cosets[i]
            members.append(sp.cosets[sp.coset_index[labels[p][1]]])
        for p, (i, _) in enumerate(labels):
            for q, (j, _) in enumerate(labels):
                want = built.sq.quandle.op[p][q]
                for x in members[p]:
                    for y in members[q]:
                        g = G.mul(x, G.mul(G.mul(G.inv(y), P.z[j]), y))
                        assert built.index_of(i, g) == want
                        cells += 1
            want = built.sq.rho[p]
            for x in members[p]:
                assert built.index_of(P.kappa[i], G.mul(P.r[i], x)) == want
    print(f"\ncriterion 7: PASS (operation and rho independent of "
          f"representatives on {cells} recomputed cells)")


def test_criterion_8_conjugation_example():
    for n in range(1, 9):
        G = cyclic_group(n)
        P = conj_presentation(G)
        built = build_symmetric_quandle(P)
        target = conj_symmetric_quandle(G)
        iso = find_symmetric_isomorphism(built.sq, target)
        assert iso is not None
        assert is_symmetric_isomorphism_map(built.sq, target, iso.map)
    for G in (symmetric_group(3), quaternion_group()):
        try:
            conj_presentation(G)
            raise AssertionError("expected NoInversionClosedTransversal")
        except NoInversionClosedTransversal:
            pass
        assert not bf_inversion_closed_transversal_exists(G)
    for n in range(1, 9):
        assert bf_inversion_closed_transversal_exists(cyclic_group(n))
    print("\ncriterion 8: PASS (conj presentations of Z1..Z8 verified; "
          "S3 and Q8 refused, matching exhaustive search)")


def test_criterion_9_cli_determinism_and_round_trip(tmp_path):
    specs = [
        ("r3.qnd", ["catalog", "dihedral-quandle", "3"]),
        ("r4.qnd", ["catalog", "dihedral-quandle", "4"]),
        ("r5.qnd", ["catalog", "dihedral-quandle", "5"]),
        ("r6.qnd", ["catalog", "dihedral-quandle", "6"]),
        ("a4.qnd", ["catalog", "antipodal", "4"]),
        ("a6.qnd", ["catalog", "antipodal", "6"]),
        ("cz3.qnd", ["catalog", "conj", "cyclic", "3"]),
        ("cs3.qnd", ["catalog", "conj", "sym", "3"]),
        ("cq8.qnd", ["catalog", "conj", "quaternion"]),
        ("cd4.qnd", ["catalog", "conj", "dihedral-group", "4"]),
        ("q8.grp", ["catalog", "quaternion"]),
        ("pe.prs", ["catalog", "paper-example"]),
    ]
    paths = {}
    for fname, args in specs:
        target = tmp_path / fname
        code1, text1 = run(args)
        code2, text2 = run(args)
        assert code1 == code2 == 0
        assert text1 == text2  # byte-identical reruns
        target.write_text(text1)
        paths[fname] = target

    round_tripped = 0
    for fname, path in paths.items():
        if not fname.endswith(".qnd"):
            continue
        qf = parse_qnd(path.read_text())
        from sqk import attach_involution as att, quandle_from_table as qft

        obj = qft(qf.table, allow_rack=(qf.kind == "rack"))
        if qf.rho is not None:
            obj = att(obj, qf.rho)
        emitted = format_qnd(obj)
        assert parse_qnd(emitted) == qf
        round_tripped += 1

    # build twice from the .prs fixture: identical bytes, and re-parsing the
    # built file reproduces the in-memory object
    out1, out2 = tmp_path / "b1.qnd", tmp_path / "b2.qnd"
    assert run(["build", str(paths["pe.prs"]), "-o", str(out1)])[0] == 0
    assert run(["build", str(paths["pe.prs"]), "-o", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    built = build_symmetric_quandle(paper_example_presentation())
    qf = parse_qnd(out1.read_text())
    assert qf.table == built.sq.quandle.op
    assert qf.rho == built.sq.rho
    round_tripped += 1

    assert round_tripped + len([f for f in paths if not f.endswith(".qnd")]) >= 10
    print(f"\ncriterion 9: PASS ({len(specs)} fixtures, byte-identical "
          f"reruns, {round_tripped} parse/emit round trips)")
