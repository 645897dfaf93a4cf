"""Every verb answers any input file with an exit code in {0, 1, 2, 3} and
lets no exception escape. Files are built from the format's own tokens
(headers of size -1..6, rows, rho:, names: and orbit lines) and junk, on
their own or edited into small valid files, so no example starts large
work."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqk import (
    attach_involution,
    conj_symmetric_quandle,
    cyclic_group,
    decompose,
    dihedral_quandle,
    fileio,
    symmetric_group,
    trivial_quandle,
)
from sqk.cli import run

R3 = attach_involution(dihedral_quandle(3), [0, 1, 2])
T2 = attach_involution(trivial_quandle(2), [1, 0])
CS3 = conj_symmetric_quandle(symmetric_group(3))
SEEDS = [[]] + [text.splitlines() for text in (
    fileio.format_qnd(R3), fileio.format_qnd(T2), fileio.format_qnd(CS3),
    fileio.format_qnd(R3.quandle), fileio.format_grp(cyclic_group(3)),
    fileio.format_prs(decompose(R3, "inn").presentation),
    fileio.format_prs(decompose(T2, "aut").presentation))]

VERBS = [["check"], ["involutions"], ["aut"], ["aut", "--symmetric"],
         ["inn"], ["orbits", "--group", "aut"],
         ["decompose", "--group", "inn"], ["decompose", "--group", "aut"]]

entry = st.integers(-1, 7).map(str)
row = st.lists(entry, max_size=7).map(" ".join)
line = st.one_of(
    st.builds("{} {}".format,
              st.sampled_from(["group", "quandle", "rack", "presentation"]),
              st.integers(-1, 6)),
    row,
    row.map("rho: {}".format),
    st.lists(st.sampled_from(["a", "b", "e", "0", "x"]), max_size=7)
    .map(lambda names: "names: " + " ".join(names)),
    st.builds("orbit {}: H = {} ; z = {} ; r = {} ; kappa = {}".format,
              st.integers(-1, 3), row, entry, entry, entry),
    st.text(alphabet="0123456789 -+_:;=#abcgHzr", max_size=12))
token = st.one_of(entry, st.sampled_from(["", "a", ":", ";", "=", "#", "rho:"]))


@st.composite
def files(draw):
    """A seed file (or none) with a few edits: one token changed, a line
    inserted, replaced or deleted."""
    lines = list(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["token", "insert", "replace", "delete"]))
        if edit == "token" and at < len(lines):
            tokens = lines[at].split()
            i = draw(st.integers(0, len(tokens)))
            tokens[i:i + 1] = [draw(token)]
            lines[at] = " ".join(tokens)
            continue
        if edit != "insert" and at < len(lines):
            del lines[at]
        if edit != "delete":
            lines.insert(at, draw(line))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(deadline=None)
@given(text=files())
def test_every_verb_exits_with_a_documented_code(work_dir, text):
    path = work_dir / "input"
    path.write_text(text)
    src, dst = str(path), str(work_dir / "output")
    for argv in [[*verb, src] for verb in VERBS] + [
            ["iso", src, src], ["iso", "--symmetric", src, src],
            ["build", src, "-o", dst]]:
        code, out = run(argv)
        assert code in (0, 1, 2, 3), (argv, out)
