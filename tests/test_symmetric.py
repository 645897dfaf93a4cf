import pytest

from conftest import catalog_symmetric_quandles
from helpers import all_involutions, bf_good_involutions, compose_then
from sqk import (
    antipodal,
    attach_involution,
    aut_group,
    conj_symmetric_quandle,
    dihedral_quandle,
    enumerate_good_involutions,
    find_symmetric_isomorphism,
    is_good_involution,
    paper_example_presentation,
    build_symmetric_quandle,
    symmetric_group,
    trivial_quandle,
)
from sqk.errors import (
    NotDualCompatible,
    NotEquivariant,
    NotInvolution,
    SizeBoundExceeded,
    SqkError,
)
from sqk.perm import inverse

R4_GOOD = [(0, 1, 2, 3), (0, 3, 2, 1), (2, 1, 0, 3), (2, 3, 0, 1)]


def test_attach_antipodal(r4):
    S = attach_involution(r4, [2, 3, 0, 1])
    assert S.rho == (2, 3, 0, 1)


def test_identity_good_on_kei():
    for n in range(1, 9):
        Q = dihedral_quandle(n)
        attach_involution(Q, list(range(n)))


def test_identity_not_good_on_conj_s3(conj_s3):
    with pytest.raises(NotDualCompatible):
        attach_involution(conj_s3.quandle, list(range(6)))


def test_not_involution(r4):
    with pytest.raises(NotInvolution) as exc:
        attach_involution(r4, [1, 2, 3, 0])
    assert exc.value.a == 0


def test_not_equivariant(conj_s3):
    # swap the identity element with a transposition: an involution, but it
    # does not commute with the translations
    rho = [1, 0, 2, 3, 4, 5]
    with pytest.raises(NotEquivariant) as exc:
        attach_involution(conj_s3.quandle, rho)
    a, b = exc.value.pair
    op = conj_s3.quandle.op
    assert rho[op[a][b]] != op[rho[a]][b]
    first = next((x, y) for x in range(6) for y in range(6)
                 if rho[op[x][y]] != op[rho[x]][y])
    assert (a, b) == first


def test_rack_rejected():
    from sqk import quandle_from_table

    R = quandle_from_table([[1, 1], [0, 0]], allow_rack=True)
    with pytest.raises(SqkError):
        attach_involution(R, [0, 1])


def test_enumerate_r4(r4):
    assert enumerate_good_involutions(r4) == R4_GOOD
    assert bf_good_involutions(r4.op) == R4_GOOD


def test_enumerate_trivial_is_all_involutions():
    for n in (2, 3, 4):
        T = trivial_quandle(n)
        assert enumerate_good_involutions(T) == all_involutions(n)
    assert len(enumerate_good_involutions(trivial_quandle(3))) == 4


def test_enumerate_conj_s3(conj_s3):
    invs = enumerate_good_involutions(conj_s3.quandle)
    assert invs == [conj_s3.rho]
    assert invs == bf_good_involutions(conj_s3.quandle.op)


def test_enumerate_matches_brute_force_on_small_corpus():
    corpus = [dihedral_quandle(n) for n in range(1, 7)]
    corpus += [trivial_quandle(n) for n in range(1, 5)]
    corpus.append(conj_symmetric_quandle(symmetric_group(3)).quandle)
    for Q in corpus:
        assert enumerate_good_involutions(Q) == bf_good_involutions(Q.op)


def test_enumerate_size_bound():
    with pytest.raises(SizeBoundExceeded):
        enumerate_good_involutions(dihedral_quandle(13))
    assert enumerate_good_involutions(dihedral_quandle(13), max_n=13)


def test_attach_iff_enumerated(r4, conj_s3):
    for Q in (r4, trivial_quandle(3), conj_s3.quandle):
        good = set(enumerate_good_involutions(Q))
        for rho in all_involutions(Q.order):
            assert is_good_involution(Q, rho) == (rho in good)


def test_symmetric_iso_identity(anti4):
    iso = find_symmetric_isomorphism(anti4, anti4)
    assert iso.map == (0, 1, 2, 3)


def test_symmetric_iso_with_coset_object(anti4):
    built = build_symmetric_quandle(paper_example_presentation())
    iso = find_symmetric_isomorphism(built.sq, anti4)
    assert iso is not None


def test_symmetric_iso_not_found(r4, anti4):
    S_id = attach_involution(r4, [0, 1, 2, 3])
    assert find_symmetric_isomorphism(S_id, anti4) is None


def test_symmetric_iso_implies_quandle_iso(anti4):
    from sqk import find_quandle_isomorphism

    built = build_symmetric_quandle(paper_example_presentation())
    assert find_symmetric_isomorphism(built.sq, anti4) is not None
    assert find_quandle_isomorphism(built.sq.quandle, anti4.quandle) is not None


def test_translation_of_rho_is_inverse_translation():
    # s_rho(a) = s_a^-1 on every catalog symmetric quandle
    for name, S in catalog_symmetric_quandles(12):
        cols = S.quandle.translations()
        for a in range(S.order):
            assert cols[S.rho[a]] == inverse(cols[a]), name


def test_good_involutions_closed_under_aut_conjugation():
    for Q in (dihedral_quandle(4), trivial_quandle(3),
              conj_symmetric_quandle(symmetric_group(3)).quandle):
        good = set(enumerate_good_involutions(Q))
        G = aut_group(Q, max_n=8)
        for rho in good:
            for f in G.elements:
                conj = compose_then(compose_then(inverse(f), rho), f)
                assert tuple(conj) in good


def test_antipodal_6_passes_validation():
    S = antipodal(6)
    assert S.rho == (3, 4, 5, 0, 1, 2)


def test_rack_has_no_good_involutions():
    # the search alone would report both involutions of this rack
    from sqk import quandle_from_table

    R = quandle_from_table([[1, 1], [0, 0]], allow_rack=True)
    assert not any(is_good_involution(R, rho) for rho in all_involutions(2))
    with pytest.raises(SqkError, match="rack"):
        enumerate_good_involutions(R)
