import pytest

from conftest import catalog_symmetric_quandles, shallow_stack
from helpers import (
    all_involutions,
    all_quandle_tables,
    bf_dual,
    bf_good_involutions,
    compose_then,
)
from sqk import (
    antipodal,
    attach_involution,
    aut_group,
    conj_symmetric_quandle,
    dihedral_group,
    dihedral_quandle,
    enumerate_good_involutions,
    find_symmetric_isomorphism,
    is_good_involution,
    is_kei,
    paper_example_presentation,
    build_symmetric_quandle,
    quandle_from_table,
    quaternion_group,
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
from sqk import perm, symmetric
from sqk.perm import involution_lines, inverse, perm_line
from sqk.quandle import Quandle

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


def test_malformed_rho_entry_is_named(r4):
    with pytest.raises(SqkError, match=r"^entry 4 of rho not in 0\.\.3$"):
        attach_involution(r4, (4, 1, 2, 3))
    with pytest.raises(SqkError, match=r"^entry 1\.0 of rho not in 0\.\.3$"):
        attach_involution(r4, (2, 3, 0, 1.0))
    assert not is_good_involution(r4, (9, 1, 2, 3))


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


def _small_corpus():
    corpus = [dihedral_quandle(n) for n in range(1, 7)]
    corpus += [trivial_quandle(n) for n in range(1, 8)]
    corpus += [conj_symmetric_quandle(G).quandle
               for G in (symmetric_group(3), dihedral_group(4), quaternion_group())]
    corpus.append(antipodal(8).quandle)
    # large enough that an involution carried over too few translations
    # is not equivariant
    corpus += [dihedral_quandle(16), dihedral_quandle(20)]
    # not faithful: s_0 = s_1 = s_2 = id and s_3 = (0 2), so the orbit
    # map from rho(0) = 1 takes 2 to 1 as well, and is not injective
    corpus.append(quandle_from_table([[0, 0, 0, 2], [1, 1, 1, 1],
                                      [2, 2, 2, 0], [3, 3, 3, 3]]))
    # orbits {0}, {1, 2}, {3} under s_3 = (1 2): rho(0) = 1 does not
    # commute with s_3, and would pair a one-point orbit with a two-point
    # one
    corpus.append(quandle_from_table([[0, 0, 0, 0], [1, 1, 1, 2],
                                      [2, 2, 2, 1], [3, 3, 3, 3]]))
    # the orbit {0, 1, 2} under s_3 = (0 1 2): rho(0) = 1 extends to the
    # orbit map (0 1 2), which commutes with s_3 but is no involution
    corpus.append(quandle_from_table([[0, 0, 0, 1, 2], [1, 1, 1, 2, 0],
                                      [2, 2, 2, 0, 1], [3, 3, 3, 3, 3],
                                      [4, 4, 4, 4, 4]]))
    return corpus


def test_enumerate_matches_brute_force_on_small_corpus():
    for Q in _small_corpus():
        assert enumerate_good_involutions(Q, max_n=Q.order) == \
            bf_good_involutions(Q.op)


def test_enumerate_matches_brute_force_on_every_small_table():
    # every labelled quandle table of order at most 5
    tables = [t for n in range(1, 6) for t in all_quandle_tables(n)]
    assert len(tables) == 447
    for table in tables:
        Q = quandle_from_table(table)
        assert enumerate_good_involutions(Q) == bf_good_involutions(table), table


def test_quandle_table_helper_filters_every_column_choice():
    from itertools import permutations, product

    for n in range(1, 5):
        fixing = [[p for p in permutations(range(n)) if p[b] == b]
                  for b in range(n)]
        tables = [tuple(tuple(col[a] for col in cols) for a in range(n))
                  for cols in product(*fixing)]
        assert all_quandle_tables(n) == [
            t for t in tables
            if all(t[t[a][b]][c] == t[t[a][c]][t[b][c]]
                   for a in range(n) for b in range(n) for c in range(n))]


def test_involution_lines_are_perm_lines_on_the_corpus():
    for Q in _small_corpus() + [conj_symmetric_quandle(dihedral_group(12)).quandle]:
        invs = enumerate_good_involutions(Q, max_n=Q.order)
        assert involution_lines(invs, Q.order) == list(map(perm_line, invs))


def test_brute_force_involution_helpers_filter_all_permutations():
    from itertools import permutations

    from helpers import bf_dual

    def involutions(n):
        return [p for p in permutations(range(n))
                if all(p[p[a]] == a for a in range(n))]

    for n in range(8):
        assert all_involutions(n) == involutions(n)
    for Q in _small_corpus():
        if Q.order > 7:
            continue
        op, n = Q.op, Q.order
        assert bf_good_involutions(op) == [
            rho for rho in involutions(n)
            if all(rho[op[a][b]] == op[rho[a]][b] and
                   op[a][rho[b]] == bf_dual(op, a, b)
                   for a in range(n) for b in range(n))]


def test_conj_d12_has_64_good_involutions():
    Q = conj_symmetric_quandle(dihedral_group(12)).quandle
    invs = enumerate_good_involutions(Q, max_n=24)
    assert len(invs) == 64
    for rho in invs:
        assert attach_involution(Q, rho).rho == rho


@pytest.mark.parametrize("n, count", [(8, 32), (16, 128), (32, 2048)])
def test_conj_dihedral_involutions_past_brute_force(n, count):
    Q = conj_symmetric_quandle(dihedral_group(n)).quandle
    invs = enumerate_good_involutions(Q, max_n=2 * n)
    assert len(invs) == count
    assert all(a < b for a, b in zip(invs, invs[1:]))
    for rho in invs:
        attach_involution(Q, rho)


def _bf_equivariance_witness(op, rho):
    n = len(op)
    return next(((a, b) for a in range(n) for b in range(n)
                 if rho[op[a][b]] != op[rho[a]][b]), None)


def test_not_equivariant_names_the_first_pair_on_every_involution():
    for Q in _small_corpus():
        if Q.order > 8:
            continue
        for rho in all_involutions(Q.order):
            witness = _bf_equivariance_witness(Q.op, rho)
            try:
                attach_involution(Q, rho)
            except NotEquivariant as exc:
                assert exc.pair == witness
                continue
            except NotDualCompatible:
                pass
            assert witness is None, (Q.op, rho)


@pytest.mark.parametrize("Q", [antipodal(8).quandle, dihedral_quandle(6)],
                         ids=["antipodal(8)", "R_6"])
def test_dropping_one_spanning_translation_accepts_a_bad_involution(monkeypatch, Q):
    # the proof of equivariance needs every spanning translation: without
    # any one of them a non-equivariant involution gets through
    gens = symmetric._spanning_translations(Q)
    good = enumerate_good_involutions(Q)
    assert len(gens) >= 2
    for k in range(len(gens)):
        dropped = gens[:k] + gens[k + 1:]
        with monkeypatch.context() as m:
            m.setattr(symmetric, "_spanning_translations", lambda Q: dropped)
            bad = [rho for rho in enumerate_good_involutions(Q) if rho not in good]
            assert bad, k
        for rho in bad:
            with pytest.raises(NotEquivariant) as exc:
                attach_involution(Q, rho)
            assert exc.value.pair == _bf_equivariance_witness(Q.op, rho)


def _small_tables():
    """Every labelled quandle of order at most 5, validated."""
    return [quandle_from_table(t) for n in range(1, 6) for t in all_quandle_tables(n)]


def _scan_verdict(op, rho):
    """The error class and witness of a cell-by-cell scan of involutivity,
    equivariance and dual compatibility, in that order; None for a good
    involution."""
    n = len(op)
    for a in range(n):
        if rho[rho[a]] != a:
            return NotInvolution, a
    for a in range(n):
        for b in range(n):
            if rho[op[a][b]] != op[rho[a]][b]:
                return NotEquivariant, (a, b)
    for a in range(n):
        for b in range(n):
            if op[a][rho[b]] != bf_dual(op, a, b):
                return NotDualCompatible, (a, b)
    return None


def _attach_verdict(Q, rho):
    """What attach_involution raises, as _scan_verdict gives it."""
    try:
        attach_involution(Q, rho)
    except NotInvolution as exc:
        return NotInvolution, exc.a
    except (NotEquivariant, NotDualCompatible) as exc:
        return type(exc), exc.pair
    return None


def _every_column_an_involution(op):
    n = len(op)
    return all(op[op[a][b]][b] == a for a in range(n) for b in range(n))


def test_spanning_point_proofs_match_a_cell_by_cell_scan():
    small = _small_tables()
    for Q in small + _small_corpus():
        assert is_kei(Q) == _every_column_an_involution(Q.op), Q.op
    for Q in small + [Q for Q in _small_corpus() if Q.order <= 8]:
        for rho in all_involutions(Q.order):
            assert _attach_verdict(Q, rho) == _scan_verdict(Q.op, rho), (Q.op, rho)


def test_dropping_one_spanning_point_lets_a_wrong_verdict_through(monkeypatch):
    # each proof at the spanning points needs all of them: for every
    # position k, dropping the k-th point lets a wrong verdict of each
    # proof through on some table of order at most 5
    wrong = {"equivariance": set(), "dual compatibility": set(), "kei": set()}
    longest = 0
    for Q in _small_tables():
        span = Q.spanning_points
        longest = max(longest, len(span))
        for k in range(len(span)):
            dropped = span[:k] + span[k + 1:]
            with monkeypatch.context() as m:
                m.setattr(perm, "spanning_points", lambda cols: dropped)
                R = Quandle(order=Q.order, op=Q.op)
                if is_kei(R) and not _every_column_an_involution(Q.op):
                    wrong["kei"].add(k)
                for rho in all_involutions(Q.order):
                    want = _scan_verdict(Q.op, rho)
                    if want is None:
                        continue
                    got = _attach_verdict(R, rho)
                    if want[0] is NotEquivariant and \
                            (got is None or got[0] is not NotEquivariant):
                        wrong["equivariance"].add(k)
                    if want[0] is NotDualCompatible and got is None:
                        wrong["dual compatibility"].add(k)
    assert longest == 5
    assert wrong == dict.fromkeys(wrong, set(range(longest)))


def test_deep_involution_search_needs_no_recursion():
    # the search assigns one element per level; R_101 has 101 of them
    Q = dihedral_quandle(101)
    with shallow_stack(50):
        invs = enumerate_good_involutions(Q, max_n=101)
    assert invs == [tuple(range(101))]


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
        cols = S.quandle.columns
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
    R = quandle_from_table([[1, 1], [0, 0]], allow_rack=True)
    assert not any(is_good_involution(R, rho) for rho in all_involutions(2))
    with pytest.raises(SqkError, match="rack"):
        enumerate_good_involutions(R)
