import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import R4_TABLE, shallow_stack
from helpers import bf_dual, relabel
from sqk import (
    build_symmetric_quandle,
    dihedral_quandle,
    find_quandle_isomorphism,
    is_kei,
    paper_example_presentation,
    quandle_from_table,
    trivial_quandle,
)
from sqk.errors import AxiomQ1Violated, AxiomQ2Violated, AxiomQ3Violated, FormatError
from sqk.quandle import product_violation

# satisfies Q2 and Q3 but not Q1 (coset rack of Z4 over {0,2} with z=1)
RACK2 = [[1, 1], [0, 0]]


def test_r4_table(r4):
    assert r4.op == R4_TABLE
    assert not r4.rack_only


def test_singleton():
    Q = quandle_from_table([[0]])
    assert Q.order == 1 and is_kei(Q)


def test_q2_violation():
    with pytest.raises(AxiomQ2Violated) as exc:
        quandle_from_table([[0, 0], [0, 1]])
    assert exc.value.b == 0


def test_q3_violation():
    with pytest.raises(AxiomQ3Violated) as exc:
        quandle_from_table([[0, 1], [1, 0]], allow_rack=True)
    a, b, c = exc.value.triple
    # the reported triple really is a violation, and the first one
    t = [[0, 1], [1, 0]]
    assert t[t[a][b]][c] != t[t[a][c]][t[b][c]]
    assert (a, b, c) == (0, 0, 1)


def test_q1_violation_and_rack_flag():
    with pytest.raises(AxiomQ1Violated) as exc:
        quandle_from_table(RACK2)
    assert exc.value.a == 0
    Q = quandle_from_table(RACK2, allow_rack=True)
    assert Q.rack_only


def test_bad_shape():
    with pytest.raises(FormatError):
        quandle_from_table([[0, 1, 2], [1, 2, 0]])


def test_dual_r4(r4):
    # solve 2*0 - x = 1 mod 4 by scanning column 0
    assert bf_dual(R4_TABLE, 1, 0) == 3
    assert r4.dual[1][0] == 3
    for a in range(4):
        for b in range(4):
            assert r4.dual[a][b] == bf_dual(R4_TABLE, a, b)


def test_dual_defining_property(r4, conj_s3):
    for Q in (r4, conj_s3.quandle):
        n = Q.order
        for a in range(n):
            for b in range(n):
                assert Q.op[Q.dual[a][b]][b] == a
                assert Q.dual[Q.op[a][b]][b] == a


def test_dual_equals_op_on_kei(r4):
    assert r4.dual == r4.op


def test_translation(r4):
    assert r4.columns[0] == (0, 3, 2, 1)
    assert r4.columns[1] == (2, 1, 0, 3)
    T = trivial_quandle(5)
    for b in range(5):
        assert T.columns[b] == (0, 1, 2, 3, 4)


def test_is_kei(r4, conj_s3):
    assert is_kei(r4)
    assert is_kei(trivial_quandle(3))
    assert not is_kei(conj_s3.quandle)


def test_iso_identity(r4):
    iso = find_quandle_isomorphism(r4, r4)
    assert iso.map == (0, 1, 2, 3)


def test_iso_with_coset_quandle(r4):
    built = build_symmetric_quandle(paper_example_presentation())
    iso = find_quandle_isomorphism(built.sq.quandle, r4)
    assert iso is not None
    assert product_violation(built.sq.quandle.op, r4.op, iso.map) is None


def test_iso_not_found(r4):
    assert find_quandle_isomorphism(r4, trivial_quandle(4)) is None


def test_iso_rechecked(r4):
    built = build_symmetric_quandle(paper_example_presentation())
    iso = find_quandle_isomorphism(built.sq.quandle, r4)
    n = r4.order
    for a in range(n):
        for b in range(n):
            lhs = iso.map[built.sq.quandle.op[a][b]]
            assert lhs == r4.op[iso.map[a]][iso.map[b]]


SMALL_QUANDLES = st.sampled_from(["r3", "r4", "r5", "t4", "cs3"])


def _quandle(tag, conj_s3_obj=None):
    from sqk import conj_symmetric_quandle, symmetric_group

    return {"r3": lambda: dihedral_quandle(3), "r4": lambda: dihedral_quandle(4),
            "r5": lambda: dihedral_quandle(5), "t4": lambda: trivial_quandle(4),
            "cs3": lambda: conj_symmetric_quandle(symmetric_group(3)).quandle}[tag]()


@given(SMALL_QUANDLES, st.data())
def test_relabeled_quandle_is_isomorphic(tag, data):
    Q = _quandle(tag)
    p = tuple(data.draw(st.permutations(list(range(Q.order)))))
    Q2 = quandle_from_table(relabel([list(r) for r in Q.op], p))
    iso = find_quandle_isomorphism(Q, Q2)
    assert iso is not None
    assert product_violation(Q.op, Q2.op, iso.map) is None


@given(st.integers(1, 12))
def test_dihedral_quandles_validate(n):
    Q = dihedral_quandle(n)
    assert is_kei(Q)
    for b in range(n):
        assert sorted(Q.columns[b]) == list(range(n))


def test_deep_isomorphism_search_needs_no_recursion():
    # the search assigns one element per level; R_101 has 101 of them
    Q = dihedral_quandle(101)
    with shallow_stack(50):
        iso = find_quandle_isomorphism(Q, Q)
    assert iso.map == tuple(range(101))
