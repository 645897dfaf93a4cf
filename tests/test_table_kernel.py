"""Tables are parsed and validated in whole-row and whole-column passes;
the per-cell loops run only to name a witness. These tests hold every
verdict, witness and error message to the per-cell reference loops in
helpers.py, on inputs mutated one or two cells at a time."""

import random
from itertools import permutations, product

import pytest

from conftest import transposition_quandle
from helpers import (
    ref_group_from_table,
    ref_parse_grp,
    ref_parse_qnd_table,
    ref_quandle_from_table,
    ref_rows,
    relabel,
)
from sqk import (
    conj_symmetric_quandle,
    cyclic_group,
    dihedral_group,
    dihedral_quandle,
    group_from_table,
    is_kei,
    quandle_from_table,
    quaternion_group,
    symmetric_group,
    trivial_quandle,
)
from sqk.errors import (
    AxiomQ1Violated,
    AxiomQ2Violated,
    AxiomQ3Violated,
    FormatError,
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    SqkError,
)
from sqk.fileio import format_grp, format_qnd, parse_grp, parse_qnd

QUANDLES = {
    "trivial 1": trivial_quandle(1).op,
    "trivial 2": trivial_quandle(2).op,
    "R_3": dihedral_quandle(3).op,
    "R_8": dihedral_quandle(8).op,
    "R_12": dihedral_quandle(12).op,
    "T_4": transposition_quandle(4).quandle.op,
    "Conj(S3)": conj_symmetric_quandle(symmetric_group(3)).quandle.op,
    "Conj(D4)": conj_symmetric_quandle(dihedral_group(4)).quandle.op,
}

# a Latin square with identity 0 that is not associative: a loop, not a group
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
         (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))

GROUPS = {
    "Z1": cyclic_group(1).product,
    "Z2": cyclic_group(2).product,
    "S3": symmetric_group(3).product,
    "Q8": quaternion_group().product,
    "Z12": cyclic_group(12).product,
    "loop 5": LOOP5,
}


def outcome(fn, *args):
    """fn(*args), or the class and message of the SqkError it raises."""
    try:
        return fn(*args)
    except SqkError as exc:
        return type(exc), str(exc)


def _quandle_parts(table, allow_rack=False):
    Q = quandle_from_table(table, allow_rack)
    return Q.op, Q.dual, Q.rack_only


def _group_parts(G):
    return G.product, G.identity, G.inverse


def _cells(n, rng):
    """The first cell, the last cell and two seeded ones."""
    return sorted({(0, 0), (n - 1, n - 1),
                   (rng.randrange(n), rng.randrange(n)),
                   (rng.randrange(n), rng.randrange(n))})


def _token_spellings(v, n):
    """Replacements for the token of a cell holding v: out of range,
    negative, junk, other spellings int() accepts, and a cell dropped
    from (short row) or added to (long row) the row."""
    return [str(n), str(n + 5), "-1", "x", "1.0", "0x1", "+3", "007", "1_0",
            f"+{v}", f"00{v}", f"{v // 10}_{v % 10}" if v >= 10 else f"0_{v}",
            "", f"{v} 0"]


def text_mutants(table, rng):
    """Texts of the rows of table with one or two tokens replaced."""
    n = len(table)
    rows = [list(map(str, row)) for row in table]
    out = []
    for a, b in _cells(n, rng):
        for tok in _token_spellings(table[a][b], n):
            mutated = [list(row) for row in rows]
            mutated[a][b] = tok
            out.append(mutated)
    # two mutations, so the witness must be the first row's
    for _ in range(20):
        mutated = [list(row) for row in rows]
        for _ in range(2):
            a, b = rng.randrange(n), rng.randrange(n)
            mutated[a][b] = rng.choice(_token_spellings(table[a][b], n))
        out.append(mutated)
    return ["\n".join(" ".join(row) for row in t) for t in out]


def table_mutants(table, rng):
    """Library tables with one or two cells replaced (by out-of-range
    values, a bool, a float, a string, or a value of another cell of the
    same column), a row shortened or lengthened, two cells of a row
    swapped, or two rows or two columns swapped."""
    n = len(table)
    out = []
    for a, b in _cells(n, rng):
        for v in (n, -1, True, False, 1.0, "1", None, table[(a + 1) % n][b]):
            t = [list(row) for row in table]
            t[a][b] = v
            out.append(t)
        t = [list(row) for row in table]
        t[a] = t[a][:-1]
        out.append(t)
        t = [list(row) for row in table]
        t[a] = t[a] + [0]
        out.append(t)
        t = [list(row) for row in table]
        t[a][a], t[a][b] = t[a][b], t[a][a]
        out.append(t)
        t = [list(row) for row in table]
        t[a], t[b] = t[b], t[a]
        out.append(t)
        t = [[row[b] if y == a else row[a] if y == b else v
              for y, v in enumerate(row)] for row in table]
        out.append(t)
    for _ in range(20):
        t = [list(row) for row in table]
        for _ in range(2):
            a, b = rng.randrange(n), rng.randrange(n)
            t[a][b] = t[rng.randrange(n)][b]
        out.append(t)
    return out


@pytest.mark.parametrize("name", QUANDLES)
def test_qnd_parse_matches_the_per_token_loop(name):
    table = QUANDLES[name]
    header = f"quandle {len(table)}\n"
    texts = text_mutants(table, random.Random(name))
    for body in texts:
        text = header + body + "\n"
        # parse_qnd reads the shape; the entries are quandle_from_table's
        assert outcome(lambda: parse_qnd(text).table) == \
            outcome(ref_rows, text, "table"), text
        for allow_rack in (False, True):
            assert outcome(lambda: _quandle_parts(parse_qnd(text).table,
                                                  allow_rack)) == \
                outcome(ref_parse_qnd_table, text, allow_rack), text


@pytest.mark.parametrize("name", GROUPS)
def test_grp_parse_matches_the_per_token_loop(name):
    table = GROUPS[name]
    header = f"group {len(table)}\n"
    for body in text_mutants(table, random.Random(name)):
        text = header + body + "\n"
        assert outcome(lambda: _group_parts(parse_grp(text))) == \
            outcome(ref_parse_grp, text), text


def _respelled(v):
    return f"+{v}" if v % 3 == 0 else f"00{v}" if v % 3 == 1 else \
        f"{v // 10}_{v % 10}" if v >= 10 else f"0_{v}"


def test_other_integer_spellings_are_still_read():
    # +v, 00v and 1_1 are what int() reads as v and 11
    Q = dihedral_quandle(12)
    body = "\n".join(" ".join(map(_respelled, row)) for row in Q.op)
    assert "1_1" in body and "+3" in body and "007" in body
    assert parse_qnd(f"quandle 12\n{body}\n").table == Q.op
    G = cyclic_group(12)
    body = "\n".join(" ".join(map(_respelled, row)) for row in G.product)
    assert parse_grp(f"group 12\n{body}\n").product == G.product


@pytest.mark.parametrize("name", QUANDLES)
def test_quandle_from_table_matches_the_per_cell_loop(name):
    for t in table_mutants(QUANDLES[name], random.Random(name)):
        for allow_rack in (False, True):
            assert outcome(_quandle_parts, t, allow_rack) == \
                outcome(ref_quandle_from_table, t, allow_rack), t


@pytest.mark.parametrize("name", GROUPS)
def test_group_from_table_matches_the_per_cell_loop(name):
    for t in table_mutants(GROUPS[name], random.Random(name)):
        assert outcome(lambda: _group_parts(group_from_table(t))) == \
            outcome(ref_group_from_table, t), t


def _verdicts(validate, tables):
    """The error class (None when accepted) of validate on every mutant,
    with the axis of each NotLatinSquare."""
    out = set()
    for name, table in tables.items():
        for t in table_mutants(table, random.Random(name)):
            try:
                validate(t)
                out.add(None)
            except NotLatinSquare as exc:
                out.add((NotLatinSquare, exc.axis))
            except SqkError as exc:
                out.add(type(exc))
    return out


def test_mutants_reach_every_verdict():
    assert _verdicts(quandle_from_table, QUANDLES) == {
        None, FormatError, AxiomQ1Violated, AxiomQ2Violated, AxiomQ3Violated}
    assert _verdicts(group_from_table, GROUPS) == {
        None, FormatError, (NotLatinSquare, "row"), (NotLatinSquare, "column"),
        NoIdentity, NotAssociative}


def test_library_tables_accept_bools_only():
    # isinstance(True, int) holds, so a bool is an entry, as it always was
    Q = quandle_from_table([[False, False], [True, True]])
    assert Q.op == ((0, 0), (1, 1))
    for bad in (1.0, "1"):
        with pytest.raises(SqkError, match=f"entry {bad!r} in row 1"):
            quandle_from_table([[0, 0], [bad, 1]])
        with pytest.raises(SqkError, match=f"entry {bad!r} in row 0"):
            group_from_table([[0, bad], [1, 0]])


# Latin rows, column 1 = (1, 2, 1), and no row equal to (0, 1, 2)
ROWS_ONLY = ((1, 2, 0), (2, 0, 1), (0, 2, 1))
# the same kind of table with the identity 0; it cannot be associative
ROWS_AND_IDENTITY = ((0, 1, 2), (1, 2, 0), (2, 1, 0))


@pytest.mark.parametrize("table,error", [
    (ROWS_ONLY, NotLatinSquare), (ROWS_AND_IDENTITY, NotLatinSquare),
    (LOOP5, NotAssociative)])
def test_columns_are_scanned_before_a_failed_identity_or_light_test(table, error):
    # the column scan is skipped only when the identity and Light's test
    # pass; otherwise it still decides first
    got = outcome(lambda: _group_parts(group_from_table(table)))
    assert got == outcome(ref_group_from_table, table)
    assert got[0] is error


def test_every_table_of_degree_3_with_latin_rows_matches_the_per_cell_loop():
    # a Latin square of order below 5 with an identity is a group, so
    # NotAssociative needs LOOP5
    verdicts = set()
    for table in product(permutations(range(3)), repeat=3):
        got = outcome(lambda: _group_parts(group_from_table(table)))
        assert got == outcome(ref_group_from_table, table), table
        verdicts.add(got[0] if isinstance(got[0], type) else None)
    assert verdicts == {None, NotLatinSquare, NoIdentity}


@pytest.mark.parametrize("table", [[[0]], [[False]]])
def test_degree_1_tables_are_written_and_read_back(table):
    # itemgetter returns a bare item, not a tuple, for one key
    G = group_from_table(table)
    assert format_grp(G) == "group 1\n0\n"
    assert parse_grp(format_grp(G)).product == G.product == ((0,),)
    Q = quandle_from_table(table)
    assert format_qnd(Q) == "quandle 1\n0\n"
    assert parse_qnd(format_qnd(Q)).table == Q.op == ((0,),)


def test_bool_tables_are_written_as_points_and_read_back():
    Q = quandle_from_table([[False, False], [True, True]])
    assert format_qnd(Q) == "quandle 2\n0 0\n1 1\n"
    assert parse_qnd(format_qnd(Q)).table == Q.op
    G = group_from_table([[False, True], [True, False]])
    assert format_grp(G) == "group 2\n0 1\n1 0\n"
    assert parse_grp(format_grp(G)).product == G.product


DUAL_CASES = {
    "R_8": dihedral_quandle(8),
    "T_4": transposition_quandle(4).quandle,
    "Conj(S3)": conj_symmetric_quandle(symmetric_group(3)).quandle,
    "Conj(D4)": conj_symmetric_quandle(dihedral_group(4)).quandle,
    "Conj(D6)": conj_symmetric_quandle(dihedral_group(6)).quandle,
}


def _with_relabelled_copies():
    for name, Q in DUAL_CASES.items():
        yield name, Q
        p = list(range(Q.order))
        random.Random(name).shuffle(p)
        yield f"{name} relabelled", quandle_from_table(relabel(Q.op, p))


@pytest.mark.parametrize("name,Q", list(_with_relabelled_copies()))
def test_dual_is_the_per_column_inverse(name, Q):
    op, dual, _ = ref_quandle_from_table(Q.op)
    assert Q.dual == dual
    assert is_kei(Q) == (dual == op)


def test_dual_cases_hold_keis_and_non_keis():
    keis = {name: is_kei(Q) for name, Q in DUAL_CASES.items()}
    assert keis == {"R_8": True, "T_4": True, "Conj(S3)": False,
                    "Conj(D4)": True, "Conj(D6)": False}
