from types import SimpleNamespace

import pytest

from sqk import (
    PermGroup,
    Subgroup,
    antipodal,
    attach_involution,
    build_symmetric_quandle,
    conj_symmetric_quandle,
    cyclic_group,
    inner_group,
    paper_example_presentation,
    quandle_from_table,
    quaternion_group,
    symmetric_aut_group,
    symmetric_group,
    validate_presentation,
)
from sqk import catalog, cli, fileio, groups, perm
from sqk.cosets import CosetPresentation
from sqk.errors import FormatError, InternalVerificationFailed
from sqk.fileio import (
    format_grp,
    format_prs,
    format_qnd,
    group_to_table,
    parse_grp,
    parse_prs,
    parse_qnd,
)


def test_grp_round_trip(quat):
    text = format_grp(quat)
    G = parse_grp(text)
    assert G == quat
    assert format_grp(G) == text


def test_grp_comments_and_blanks(quat):
    text = format_grp(quat)
    noisy = "# header comment\n\n" + text.replace("group 8", "group 8  # size")
    assert parse_grp(noisy) == quat


def test_grp_without_names():
    G = cyclic_group(3)
    bare = format_grp(G).split("names:")[0]
    parsed = parse_grp(bare)
    assert parsed.product == G.product
    assert parsed.names is None


def test_qnd_round_trip_plain(r4):
    text = format_qnd(r4)
    qf = parse_qnd(text)
    assert qf.kind == "quandle" and qf.rho is None
    assert quandle_from_table(qf.table) == r4
    assert format_qnd(quandle_from_table(qf.table)) == text


def test_qnd_round_trip_with_rho(anti4):
    text = format_qnd(anti4)
    qf = parse_qnd(text)
    assert qf.rho == anti4.rho
    S = attach_involution(quandle_from_table(qf.table), qf.rho)
    assert S == anti4


def test_qnd_rack_header():
    R = quandle_from_table([[1, 1], [0, 0]], allow_rack=True)
    text = format_qnd(R)
    assert text.startswith("rack 2")
    qf = parse_qnd(text)
    assert qf.kind == "rack"


def test_qnd_label_comments_ignored():
    built = build_symmetric_quandle(paper_example_presentation())
    text = format_qnd(built)
    assert "# 0: H0[e]" in text
    qf = parse_qnd(text)
    assert qf.table == built.sq.quandle.op
    assert qf.rho == built.sq.rho


@pytest.mark.parametrize("bad", [
    "",
    "quandle\n",
    "quandle 2\n0 1\n",                    # missing row
    "quandle 2\n0 1 0\n1 0\n",             # wrong row length
    "quandle 2\n0 3\n1 0\n",               # entry out of range
    "quandle 2\n0 x\n1 0\n",               # not an integer
    "quandle 2\n0 0\n1 1\nrho: 1\n",       # rho wrong length
    "quandle 2\n0 0\n1 1\nrho: 1 1\n",     # rho not a permutation
    "quandle 2\n0 0\n1 1\nextra\n",        # trailing junk
    "ring 2\n0 0\n1 1\n",                  # bad keyword
])
def test_qnd_malformed(bad):
    with pytest.raises(FormatError):
        parse_qnd(bad)


def test_prs_round_trip_inline():
    P = paper_example_presentation()
    text = format_prs(P)
    P3 = parse_prs(text)
    assert P3.z == P.z and P3.r == P.r and P3.kappa == P.kappa
    assert [H.elements for H in P3.subgroups] == [H.elements for H in P.subgroups]
    assert P3.group == P.group
    assert format_prs(P3) == text


def test_prs_group_by_path(tmp_path):
    G = quaternion_group()
    (tmp_path / "q8.grp").write_text(format_grp(G))
    text = ("presentation 1\n"
            "group q8.grp\n"
            "orbit 0: H = 0 1 2 3 ; z = 1 ; r = 4 ; kappa = 0\n")
    P = parse_prs(text, str(tmp_path))
    assert P.group == G
    assert P.subgroups[0].elements == (0, 1, 2, 3)
    assert validate_presentation(P, "symmetric").ok


def test_prs_missing_group_file(tmp_path):
    text = "presentation 1\ngroup nowhere.grp\norbit 0: H = 0 ; z = 0 ; r = 0 ; kappa = 0\n"
    with pytest.raises(FormatError):
        parse_prs(text, str(tmp_path))


@pytest.mark.parametrize("bad", [
    "presentation 1\n",
    "presentation 1\ngroup 1\n0\n",                      # no orbit lines
    "presentation 1\ngroup 1\n0\norbit 1: H = 0 ; z = 0 ; r = 0 ; kappa = 0\n",
    "presentation 1\ngroup 1\n0\norbit 0: H = 0 ; z = 0 ; r = 0\n",
    "presentation 1\ngroup 1\n0\norbit 0: H = 0 ; z = 0 ; r = 0 ; kappa = 0 ; x = 1\n",
])
def test_prs_malformed(bad):
    with pytest.raises(FormatError):
        parse_prs(bad)


def test_group_to_table_preserves_indices(anti4):
    from sqk import inner_group

    G = inner_group(anti4)
    T = group_to_table(G)
    assert T.order == G.order
    for x in range(G.order):
        for y in range(G.order):
            assert T.mul(x, y) == G.mul(x, y)
    assert T.names == tuple(G.name_of(x) for x in range(G.order))


def test_decomposition_presentation_survives_prs(anti4):
    from sqk import decompose

    d = decompose(anti4, "inn")
    text = format_prs(d.presentation)
    P = parse_prs(text)
    rebuilt = build_symmetric_quandle(P)
    assert rebuilt.sq.quandle.op == d.built.sq.quandle.op
    assert rebuilt.sq.rho == d.built.sq.rho


def _perm_groups():
    return [inner_group(antipodal(8)), symmetric_aut_group(antipodal(8)),
            inner_group(conj_symmetric_quandle(symmetric_group(4))),
            symmetric_aut_group(antipodal(24), 24)]


_CATALOG_GROUPS = [["quaternion"], ["cyclic", "1"], ["cyclic", "5"],
                   ["dihedral-group", "1"], ["dihedral-group", "6"],
                   *(["sym", str(n)] for n in range(1, 5))]


@pytest.mark.parametrize("G", [
    *(pytest.param(catalog.build_entry(spec[0], spec[1:])[1], id=" ".join(spec))
      for spec in _CATALOG_GROUPS),
    *(pytest.param(group_to_table(G), id=f"perm group {i}")
      for i, G in enumerate(_perm_groups()))])
def test_grp_round_trip_keeps_the_names(G):
    assert parse_grp(format_grp(G)).names == G.names


@pytest.mark.parametrize("G", _perm_groups())
def test_group_to_table_of_a_perm_group_is_its_product_table(G, monkeypatch):
    n = G.order
    product = tuple(tuple(G.mul(x, y) for y in range(n)) for x in range(n))
    names = tuple(G.name_of(x) for x in range(n))
    calls = [0]
    real = PermGroup.mul

    def counting(self, x, y):
        calls[0] += 1
        return real(self, x, y)

    monkeypatch.setattr(PermGroup, "mul", counting)
    T = group_to_table(G)
    assert T.product == product
    assert T.names == names
    assert T.identity == G.identity
    # one product per element and generator, not one per cell
    assert calls[0] == n * len(G.generators)
    # no generators stands for every element
    assert group_to_table(PermGroup(G.degree, G.elements)).product == product
    # a reader proves the written table and reads back the same group
    e = G.identity
    P = CosetPresentation(group=G, subgroups=(Subgroup(G, (e,)),), z=(e,),
                          r=(e,), kappa=(0,))
    R = parse_prs(format_prs(P)).group
    assert (R.product, R.names, R.identity, R.inverse) == \
        (product, names, e, T.inverse)


def test_emit_prs_writes_the_table_unvalidated_and_build_proves_it(tmp_path,
                                                                  monkeypatch):
    qnd, prs = str(tmp_path / "r8.qnd"), str(tmp_path / "r8.prs")
    with open(qnd, "w", encoding="utf-8") as fh:
        fh.write(format_qnd(antipodal(8)))
    calls = [0]
    real = groups.group_from_table

    def counting(*args):
        calls[0] += 1
        return real(*args)

    for module in (groups, fileio, catalog):
        monkeypatch.setattr(module, "group_from_table", counting)
    assert cli.run(["decompose", qnd, "--group", "aut", "--emit-prs", prs])[0] == 0
    assert calls[0] == 0
    assert cli.run(["build", prs, "-o", str(tmp_path / "r8b.qnd")])[0] == 0
    assert calls[0] == 1


def test_group_to_table_rejects_a_misplaced_column(monkeypatch):
    # the second column gathered is a copy of the one it is gathered from,
    # so that column is written at a second index
    G = inner_group(antipodal(8))
    calls = [0]

    def misplacing(p, q):
        calls[0] += 1
        return p if calls[0] == 2 else perm.compose(p, q)

    monkeypatch.setattr(fileio, "perm", SimpleNamespace(compose=misplacing))
    with pytest.raises(InternalVerificationFailed, match="written at"):
        group_to_table(G)


def test_group_to_table_rejects_generators_that_miss_elements():
    G = inner_group(antipodal(8))
    one = PermGroup(G.degree, G.elements, [G.elements[G.generators[0]]])
    with pytest.raises(InternalVerificationFailed, match="reach"):
        group_to_table(one)
