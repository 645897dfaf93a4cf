import pytest

from conftest import R4_TABLE
from sqk import (
    antipodal,
    conj_symmetric_quandle,
    cyclic_group,
    dihedral_group,
    dihedral_quandle,
    inner_group,
    is_kei,
    orbits,
    symmetric_group,
    trivial_quandle,
)
from sqk.catalog import MAX_ORDER, build_entry
from sqk.errors import OddOrder, ParameterOutOfRange


def test_dihedral_quandle_tables():
    assert dihedral_quandle(4).op == R4_TABLE
    assert dihedral_quandle(1).op == ((0,),)
    # 2*2 - 1 = 3 = 0 mod 3
    assert dihedral_quandle(3).op[1][2] == 0


def test_dihedral_quandle_always_kei():
    for n in range(1, 13):
        assert is_kei(dihedral_quandle(n))


def test_antipodal():
    S = antipodal(4)
    assert S.rho == (2, 3, 0, 1)
    S2 = antipodal(2)
    assert S2.rho == (1, 0)
    assert S2.quandle.op == ((0, 0), (1, 1))  # R_2 is trivial
    assert antipodal(6).rho == (3, 4, 5, 0, 1, 2)


def test_antipodal_odd_rejected():
    with pytest.raises(OddOrder):
        antipodal(3)


def test_conj_z3():
    S = conj_symmetric_quandle(cyclic_group(3))
    assert S.quandle.op == trivial_quandle(3).op
    assert S.rho == (0, 2, 1)


def test_conj_s3_not_kei(conj_s3):
    assert not is_kei(conj_s3.quandle)
    assert conj_s3.order == 6


def test_conj_quaternion_orbit_classes(quat):
    S = conj_symmetric_quandle(quat)
    assert S.order == 8
    # translation orbits = conjugacy classes: 5 of them
    assert orbits(inner_group(S)).count == 5


def test_quaternion_relations(quat):
    e, a, b = 0, 1, 4
    c = quat.mul(a, b)
    assert quat.names[c] == "ab"
    assert quat.mul(b, c) == a
    assert quat.mul(c, a) == b
    a2 = quat.mul(a, a)
    assert quat.mul(b, b) == a2 == quat.mul(c, c)
    assert quat.mul(quat.mul(a, b), c) == a2
    assert quat.mul(a2, a2) == e
    assert quat.mul(b, a) == 7  # ba = a3b


def test_cyclic_group():
    G = cyclic_group(1)
    assert G.order == 1
    G6 = cyclic_group(6)
    assert all(G6.mul(x, y) == G6.mul(y, x)
               for x in range(6) for y in range(6))


def test_dihedral_group():
    D4 = dihedral_group(4)
    assert D4.order == 8
    r, s = 1, 4
    assert D4.mul(s, s) == 0
    assert D4.mul(D4.mul(s, r), s) == D4.inv(r)
    assert D4.names[D4.mul(r, s)] == "rs"


def test_symmetric_group():
    S3 = symmetric_group(3)
    assert S3.order == 6
    S4 = symmetric_group(4)
    assert S4.order == 24
    with pytest.raises(ParameterOutOfRange):
        symmetric_group(5)


def test_parameter_errors():
    with pytest.raises(ParameterOutOfRange):
        cyclic_group(0)
    with pytest.raises(ParameterOutOfRange):
        dihedral_quandle(0)


def test_table_order_bound():
    # refused before any table is allocated, so a huge order fails at once
    assert MAX_ORDER == 1024
    for make, n, order in [(dihedral_group, 513, 1026),
                           (dihedral_quandle, 1025, 1025),
                           (trivial_quandle, 1025, 1025),
                           (antipodal, 1026, 1026),
                           (cyclic_group, 1025, 1025),
                           (cyclic_group, 100000, 100000)]:
        with pytest.raises(ParameterOutOfRange,
                           match=f"table order {order} exceeds the catalog bound"):
            make(n)


def test_build_entry_dispatch():
    kind, obj = build_entry("dihedral-quandle", ["4"])
    assert kind == "quandle" and obj.op == R4_TABLE
    kind, obj = build_entry("conj", ["cyclic", "3"])
    assert kind == "symmetric_quandle" and obj.rho == (0, 2, 1)
    kind, obj = build_entry("quaternion", [])
    assert kind == "group" and obj.order == 8
    kind, obj = build_entry("paper-example", [])
    assert kind == "presentation" and obj.orbit_count == 2
    with pytest.raises(ParameterOutOfRange):
        build_entry("nonsense", [])
    with pytest.raises(ParameterOutOfRange):
        build_entry("cyclic", ["x"])
