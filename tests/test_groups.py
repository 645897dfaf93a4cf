from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import bf_conjugacy_classes, bf_subgroup
from sqk import (
    centralizes,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    group_from_table,
    quaternion_group,
    right_cosets,
    subgroup_closure,
    subgroup_from_elements,
    symmetric_group,
)
from sqk.cli import run
from sqk.errors import (
    FormatError,
    IndexOutOfRange,
    NoIdentity,
    NotAssociative,
    NotASubgroup,
    NotLatinSquare,
)

# quaternion indices, in the element order (e, a, a2, a3, b, ab, a2b, a3b)
E, A, A2, A3, B, AB, A2B, A3B = range(8)

# a Latin square with identity 0 that is not associative (1*1 = 0 forces an
# order-2 element, impossible in a group of order 5)
NONASSOC5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]

# Latin square without identity: x*y = 2x + 2y mod 3
NOID3 = [[(2 * x + 2 * y) % 3 for y in range(3)] for x in range(3)]


def test_trivial_group():
    G = group_from_table([[0]])
    assert G.order == 1 and G.identity == 0 and G.inverse == (0,)


def test_quaternion_is_a_group(quat):
    assert quat.order == 8
    assert quat.identity == E
    assert quat.mul(B, A) == A3B
    assert quat.inv(A) == A3


def test_not_latin_square():
    with pytest.raises(NotLatinSquare) as exc:
        group_from_table([[0, 1], [1, 1]])
    assert exc.value.axis == "row" and exc.value.index == 1


def test_no_identity():
    with pytest.raises(NoIdentity):
        group_from_table(NOID3)


def test_not_associative():
    with pytest.raises(NotAssociative):
        group_from_table(NONASSOC5)


def test_bad_shape():
    with pytest.raises(FormatError):
        group_from_table([[0, 1], [1, 0], [0, 1]])
    with pytest.raises(FormatError):
        group_from_table([[0, 2], [2, 0]])


def test_repeated_name_is_rejected(tmp_path):
    # one label named both elements: build printed "# 0: H0[a]" and
    # "# 1: H0[a]" and exited 0
    with pytest.raises(FormatError, match="name 'a' given to elements 0 and 1"):
        group_from_table([[0, 1], [1, 0]], ["a", "a"])
    with pytest.raises(FormatError, match="'b' given to elements 1 and 3"):
        group_from_table(cyclic_group(4).product, ["e", "b", "c", "b"])
    path = tmp_path / "dup.prs"
    path.write_text("presentation 1\ngroup 2\n0 1\n1 0\nnames: a a\n"
                    "orbit 0: H = 0 ; z = 0 ; r = 0 ; kappa = 0\n")
    assert run(["build", str(path)]) == \
        (2, "error: name 'a' given to elements 0 and 1\n")


def test_wrong_names_count_is_rejected(tmp_path):
    # the CLI reads a names line through group_from_table's own check
    with pytest.raises(FormatError, match="3 names for 2 elements"):
        group_from_table([[0, 1], [1, 0]], ["a", "b", "c"])
    path = tmp_path / "names.prs"
    path.write_text("presentation 1\ngroup 2\n0 1\n1 0\nnames: a b c\n"
                    "orbit 0: H = 0 ; z = 0 ; r = 0 ; kappa = 0\n")
    assert run(["build", str(path)]) == (2, "error: 3 names for 2 elements\n")


def test_subgroup_closure_quaternion(quat):
    H1 = subgroup_closure(quat, {A})
    assert H1.elements == (E, A, A2, A3)
    # closing {b} by hand: b^2 = a^2, b^3 = a^2 b, b^4 = e
    H2 = subgroup_closure(quat, {B})
    assert H2.elements == (E, A2, B, A2B)
    assert H1.order == H2.order == 4


def test_subgroup_closure_empty(quat):
    assert subgroup_closure(quat, set()).elements == (E,)


def test_subgroup_closure_idempotent(quat):
    H = subgroup_closure(quat, {B})
    assert subgroup_closure(quat, H.elements).elements == H.elements


@pytest.mark.parametrize("make", [lambda: cyclic_group(6),
                                  lambda: symmetric_group(3),
                                  lambda: dihedral_group(4), quaternion_group,
                                  lambda: symmetric_group(4)],
                         ids=["Z6", "S3", "D4", "Q8", "S4"])
def test_subgroup_closure_matches_two_sided_closure(make):
    G = make()
    singles = [(g,) for g in range(G.order)]
    for gens in singles + list(combinations(range(G.order), 2)):
        assert subgroup_closure(G, gens).elements == bf_subgroup(G, gens), gens


def test_subgroup_closure_out_of_range(quat):
    with pytest.raises(IndexOutOfRange):
        subgroup_closure(quat, {8})


def test_right_cosets_quaternion(quat):
    H1 = subgroup_closure(quat, {A})
    cs = right_cosets(quat, H1)
    assert cs.count == 2
    assert cs.cosets == ((E, A, A2, A3), (B, AB, A2B, A3B))
    assert cs.representatives == (E, B)


def test_right_cosets_extremes(quat):
    assert right_cosets(quat, subgroup_closure(quat, {A, B})).count == 1
    singletons = right_cosets(quat, subgroup_closure(quat, set()))
    assert singletons.count == 8
    assert all(len(c) == 1 for c in singletons.cosets)


def test_right_cosets_lagrange(quat, s3):
    for G, gens in [(quat, {A}), (quat, {B}), (s3, {1}), (s3, {3})]:
        H = subgroup_closure(G, gens)
        cs = right_cosets(G, H)
        assert sum(len(c) for c in cs.cosets) == G.order
        assert G.order % H.order == 0
        assert cs.count == G.order // H.order
        for c, rep in zip(cs.cosets, cs.representatives):
            assert min(c) == rep
            assert set(c) == {G.mul(h, rep) for h in H.elements}


def test_not_a_subgroup(quat):
    with pytest.raises(NotASubgroup):
        right_cosets(quat, [E, A])  # a^2 missing
    with pytest.raises(NotASubgroup):
        subgroup_from_elements(quat, [A, A2, A3])  # identity missing


def test_centralizes(quat):
    H1 = subgroup_closure(quat, {A})
    assert centralizes(quat, A, H1)
    assert centralizes(quat, E, H1)
    assert centralizes(quat, E, subgroup_closure(quat, {B}))
    # b^-1 a b = a^-1 != a
    assert not centralizes(quat, B, H1)


def test_conjugacy_classes_abelian():
    G = cyclic_group(4)
    assert conjugacy_classes(G) == ((0,), (1,), (2,), (3,))


def test_conjugacy_classes_quaternion(quat):
    classes = conjugacy_classes(quat)
    assert classes == ((E,), (A, A3), (A2,), (B, A2B), (AB, A3B))
    assert classes == tuple(bf_conjugacy_classes(quat))


def test_conjugacy_classes_s3(s3):
    classes = conjugacy_classes(s3)
    assert sorted(len(c) for c in classes) == [1, 2, 3]
    assert classes == tuple(bf_conjugacy_classes(s3))
    # invariance under conjugation by everything
    for cls in classes:
        for g in cls:
            for x in range(s3.order):
                assert s3.conj(g, x) in cls


GROUPS = st.sampled_from(["q8", "s3", "s4", "z5", "z6", "d3", "d4"])


def _group(tag):
    return {"q8": quaternion_group, "s3": lambda: symmetric_group(3),
            "s4": lambda: symmetric_group(4), "z5": lambda: cyclic_group(5),
            "z6": lambda: cyclic_group(6), "d3": lambda: dihedral_group(3),
            "d4": lambda: dihedral_group(4)}[tag]()


@given(GROUPS, st.data())
def test_inverse_antihomomorphism(tag, data):
    G = _group(tag)
    x = data.draw(st.integers(0, G.order - 1))
    y = data.draw(st.integers(0, G.order - 1))
    assert G.inv(G.mul(x, y)) == G.mul(G.inv(y), G.inv(x))


@given(GROUPS)
def test_group_axioms_hold(tag):
    G = _group(tag)
    e = G.identity
    for x in range(G.order):
        assert G.mul(x, e) == G.mul(e, x) == x
        assert G.mul(x, G.inv(x)) == e
