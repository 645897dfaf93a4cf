import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import catalog_symmetric_quandles, relabelled, transposition_quandle
from helpers import bf_automorphisms, bf_closure, bf_isomorphisms, compose_then
from sqk import (
    antipodal,
    attach_involution,
    aut_group,
    autgroup,
    Subgroup,
    conj_symmetric_quandle,
    decompose,
    dihedral_group,
    dihedral_quandle,
    fileio,
    find_quandle_isomorphism,
    find_symmetric_isomorphism,
    inner_group,
    is_homogeneous,
    orbits,
    perm,
    quandle,
    stabilizer,
    symmetric_aut_group,
    symmetric_group,
    transporter,
    trivial_quandle,
    validate_presentation,
)
from sqk.autgroup import PermGroup, mulclose
from sqk.cli import run
from sqk.errors import IndexOutOfRange, InternalVerificationFailed, SizeBoundExceeded
from sqk.perm import identity, inverse
from sqk.quandle import _MapSearch, all_automorphism_maps

INNER_R4 = ((0, 1, 2, 3), (0, 3, 2, 1), (2, 1, 0, 3), (2, 3, 0, 1))


@pytest.fixture(scope="module")
def inn_r4(anti4):
    return inner_group(anti4)


def test_aut_r4(r4):
    G = aut_group(r4)
    assert G.order == 8
    assert set(G.elements) == set(bf_automorphisms(r4.op))


def test_aut_trivial_is_symmetric_group():
    for n in (1, 2, 3, 4):
        G = aut_group(trivial_quandle(n))
        import math

        assert G.order == math.factorial(n)


def test_aut_conj_s3(conj_s3):
    G = aut_group(conj_s3.quandle)
    assert G.order == 6
    assert set(G.elements) == set(bf_automorphisms(conj_s3.quandle.op))


def test_aut_size_bound():
    with pytest.raises(SizeBoundExceeded):
        aut_group(dihedral_quandle(13))


def test_symmetric_aut_r4(r4, anti4):
    assert symmetric_aut_group(anti4).order == 8
    S_id = attach_involution(r4, [0, 1, 2, 3])
    assert symmetric_aut_group(S_id).order == 8


def test_symmetric_aut_trivial3():
    S = attach_involution(trivial_quandle(3), [1, 0, 2])
    G = symmetric_aut_group(S)
    # centralizer of a transposition in S_3
    assert G.order == 2
    assert set(G.elements) == {(0, 1, 2), (1, 0, 2)}


def test_inner_r4(inn_r4):
    assert inn_r4.elements == INNER_R4
    assert inn_r4.order == 4
    assert set(mulclose(inn_r4.elements)) == set(inn_r4.elements)


def test_inner_trivial():
    S = attach_involution(trivial_quandle(4), [0, 1, 2, 3])
    assert inner_group(S).elements == (identity(4),)


def test_inner_conj_s3(conj_s3):
    assert inner_group(conj_s3).order == 6


def test_inner_subgroup_of_symmetric_aut():
    for name, S in catalog_symmetric_quandles(8):
        inn = set(inner_group(S).elements)
        aut = set(symmetric_aut_group(S).elements)
        assert inn <= aut, name
        for t in S.quandle.columns:
            assert t in inn, name


def test_product_convention(inn_r4):
    G = inn_r4
    for x in range(G.order):
        for y in range(G.order):
            xy = G.mul(x, y)
            for a in range(G.degree):
                assert G.elements[xy][a] == G.elements[y][G.elements[x][a]]


def test_orbits_inner_r4(inn_r4):
    dec = orbits(inn_r4)
    assert dec.orbits == ((0, 2), (1, 3))
    assert dec.representatives == (0, 1)


def test_orbits_aut_r4(anti4):
    dec = orbits(symmetric_aut_group(anti4))
    assert dec.orbits == ((0, 1, 2, 3),)


def test_orbits_trivial_group():
    from sqk.autgroup import PermGroup

    G = PermGroup(5, [identity(5)])
    assert orbits(G).orbits == ((0,), (1,), (2,), (3,), (4,))


def test_stabilizer(inn_r4):
    H = stabilizer(inn_r4, 0)
    assert tuple(inn_r4.elements[i] for i in H.elements) == \
        ((0, 1, 2, 3), (0, 3, 2, 1))
    assert H.order == 2


def test_orbit_stabilizer():
    for name, S in catalog_symmetric_quandles(8):
        G = inner_group(S)
        dec = orbits(G)
        for q in range(S.order):
            orb = dec.orbits[dec.orbit_index[q]]
            assert len(orb) * stabilizer(G, q).order == G.order, name


def test_transporter(inn_r4):
    t = transporter(inn_r4, 0, 2)
    assert inn_r4.elements[t] == (2, 1, 0, 3)
    assert transporter(inn_r4, 0, 0) == inn_r4.identity
    assert transporter(inn_r4, 0, 1) is None
    # post-hoc: a found transporter indeed moves the point
    for frm in range(4):
        for to in range(4):
            i = transporter(inn_r4, frm, to)
            if i is not None:
                assert inn_r4.elements[i][frm] == to


def test_a_point_out_of_range_is_refused(inn_r4):
    n = inn_r4.degree
    calls = [lambda: stabilizer(inn_r4, n), lambda: stabilizer(inn_r4, -1),
             lambda: transporter(inn_r4, n, 0), lambda: transporter(inn_r4, 0, n),
             lambda: transporter(inn_r4, -1, 0), lambda: transporter(inn_r4, 0, -1)]
    for call in calls:
        with pytest.raises(IndexOutOfRange):
            call()


def test_rho_maps_orbits_to_orbits():
    for name, S in catalog_symmetric_quandles(10):
        dec = orbits(inner_group(S))
        kappa = [dec.orbit_index[S.rho[q]] for q in dec.representatives]
        for i, orb in enumerate(dec.orbits):
            for a in orb:
                assert dec.orbit_index[S.rho[a]] == kappa[i], name
        assert all(kappa[kappa[i]] == i for i in range(dec.count)), name


def test_translation_conjugation_identity():
    # s_{a.f} = f^-1 s_a f for every symmetric automorphism f
    for name, S in catalog_symmetric_quandles(8):
        cols = S.quandle.columns
        G = symmetric_aut_group(S)
        for f in G.elements:
            fi = inverse(f)
            for a in range(S.order):
                assert cols[f[a]] == compose_then(compose_then(fi, cols[a]), f), name


def test_is_homogeneous(anti4, conj_s3):
    assert is_homogeneous(anti4)
    S = attach_involution(trivial_quandle(5), [0, 1, 2, 3, 4])
    assert is_homogeneous(S)
    # Conj(S3): every automorphism fixes the identity element, so the
    # action cannot be transitive
    assert not is_homogeneous(conj_s3)


def _reference_group(S, symmetric):
    """Every automorphism listed by backtracking (filtered by rho), with the
    greedy generators recomputing the closure from scratch for each one."""
    maps = all_automorphism_maps(S.quandle)
    if symmetric:
        maps = [f for f in maps
                if all(f[S.rho[a]] == S.rho[f[a]] for a in range(S.order))]
    gens = []
    closure = {identity(S.order)}
    for f in maps:
        if f not in closure:
            gens.append(f)
            closure = autgroup.mulclose(gens)
    return PermGroup(S.order, maps, gens)


def _differential_cases():
    cases = [(name, S) for name, S in catalog_symmetric_quandles(12)]
    for name, S in [("R_8", antipodal(8)), ("R_12", antipodal(12)),
                    ("Conj(S3)", conj_symmetric_quandle(symmetric_group(3))),
                    ("Conj(D4)", conj_symmetric_quandle(dihedral_group(4))),
                    ("T_4", transposition_quandle(4))]:
        cases += [(f"{name} seed {seed}", relabelled(S, seed))
                  for seed in range(3)]
    return cases


@pytest.mark.parametrize("S", [pytest.param(S, id=name)
                               for name, S in _differential_cases()])
def test_chain_matches_listing_every_automorphism(S):
    for symmetric, G in ((False, aut_group(S.quandle)),
                         (True, symmetric_aut_group(S))):
        ref = _reference_group(S, symmetric)
        assert G.elements == ref.elements, symmetric
        assert G.generators == ref.generators, symmetric
        assert orbits(G) == orbits(ref), symmetric


def test_map_search_finds_every_automorphism():
    for name, S in _differential_cases():
        if S.order > 6:
            continue
        assert all_automorphism_maps(S.quandle) == \
            bf_automorphisms(S.quandle.op), name


def test_map_search_records_products_at_generating_points_only():
    # R_8 is generated by 0 and 1: 8 * 2 products of the 64
    op = dihedral_quandle(8).op
    assert sum(map(len, _MapSearch(op, op).products)) == 8 * 2


def test_aut_group_complete_map_checks_are_few(monkeypatch):
    # listing Aut(Conj(D_12)) leaf by leaf checks all 768 complete maps.
    # The chain checks only the generators it keeps, and each one moves k
    # outside the orbit of the earlier ones, so it at least doubles the
    # group they generate: at most log2(768) < 10 of them
    calls = []
    checked = quandle.product_violation

    def counted(*args):
        calls.append(args)
        return checked(*args)

    monkeypatch.setattr(quandle, "product_violation", counted)
    G = aut_group(conj_symmetric_quandle(dihedral_group(12)).quandle, 24)
    assert G.order == 768
    assert 1 <= len(calls) <= 9


def _counting_consistent(call, *args, limit=None):
    """call(*args) and the number of _MapSearch consistency checks it made.
    Past limit checks the hook raises, so a search that has lost its
    pruning fails at once instead of running to its end."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "consistent" \
                and frame.f_code.co_filename == quandle.__file__:
            calls += 1
            if limit is not None and calls > limit:
                raise AssertionError(f"more than {limit} consistency checks")

    sys.setprofile(count)
    try:
        result = call(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def test_aut_group_tries_only_derived_images():
    # on the catalog labelling of Conj(D_12) most positions of the search
    # order hold a product of earlier points, so only one image is tried
    # there; trying every candidate of the same key made 11,014
    # consistency checks
    Q = conj_symmetric_quandle(dihedral_group(12)).quandle
    G, calls = _counting_consistent(aut_group, Q, 24, limit=6000)
    assert G.order == 768
    assert calls > 0


def _least_first_cases():
    trivial = attach_involution(trivial_quandle(4), [1, 0, 2, 3])
    for name, S in [("R_6", antipodal(6)), ("R_8", antipodal(8)),
                    ("R_10", antipodal(10)),
                    ("Conj(S3)", conj_symmetric_quandle(symmetric_group(3))),
                    ("Conj(D4)", conj_symmetric_quandle(dihedral_group(4))),
                    ("T_4", transposition_quandle(4)), ("trivial 4", trivial)]:
        for seed in range(2):
            yield pytest.param(S, seed, id=f"{name} seed {seed}")


@pytest.mark.parametrize("S,seed", list(_least_first_cases()))
def test_map_searches_answer_least_first_under_any_labelling(S, seed):
    """The searches run in the generation order of the relabelled copy, not
    in label order; their answers are still the lexicographically least:
    every automorphism in order, and the least isomorphism to the original
    with and without rho, as the brute-force scans of all n! maps give."""
    R = relabelled(S, seed)
    op = R.quandle.op
    assert all_automorphism_maps(R.quandle) == bf_automorphisms(op)
    assert find_quandle_isomorphism(R.quandle, S.quandle).map == \
        next(bf_isomorphisms(op, S.quandle.op))
    assert find_symmetric_isomorphism(R, S).map == \
        next(bf_isomorphisms(op, S.quandle.op, R.rho, S.rho))


@pytest.mark.parametrize("seed", range(12))
def test_automorphism_listing_work_does_not_swing_with_the_labelling(seed):
    # in label order these copies of R_20 took from 3,760 to 3,512,880
    # consistency checks; in the generation order 4,240 to 6,160
    Q = relabelled(antipodal(20), seed).quandle
    maps, _ = _counting_consistent(all_automorphism_maps, Q, limit=10_000)
    assert len(maps) == 160


def _relabelled_pairs():
    for name, S in [("R_8", antipodal(8)), ("R_12", antipodal(12)),
                    ("Conj(S3)", conj_symmetric_quandle(symmetric_group(3))),
                    ("Conj(D4)", conj_symmetric_quandle(dihedral_group(4))),
                    ("T_4", transposition_quandle(4))]:
        for seed in range(3):
            yield pytest.param(S, relabelled(S, seed), id=f"{name} seed {seed}")
    S = conj_symmetric_quandle(dihedral_group(12))
    yield pytest.param(S, relabelled(S, 1), id="Conj(D12) seed 1")


def _maps(op1, op2, rho1=None, rho2=None, derive=True):
    search = _MapSearch(op1, op2, rho1, rho2)
    if not derive:
        search.derived = [None] * len(op1)
    return search.run(find_all=True)


@pytest.mark.parametrize("S,R", list(_relabelled_pairs()))
def test_derived_images_find_the_same_maps(S, R):
    """Trying only the derived image at a derived position finds the maps
    that trying every candidate finds, in the same order: isomorphisms
    S -> R with and without rho, and automorphisms of R with rho, as the
    chain searches them."""
    op1, op2 = S.quandle.op, R.quandle.op
    for args in ((op1, op2), (op1, op2, S.rho, R.rho),
                 (op2, op2, R.rho, R.rho)):
        assert any(_MapSearch(*args).derived)
        maps = _maps(*args)
        assert maps and maps == _maps(*args, derive=False)


def _run_counting_consistent(search, prefix):
    """search.run(prefix) and the number of consistency checks it made."""
    return _counting_consistent(search.run, prefix, True)


def test_map_search_refuses_a_repeated_prefix_value():
    op = dihedral_quandle(5).op
    # only the first position is checked: the second image is taken
    assert _run_counting_consistent(_MapSearch(op, op), (1, 1)) == ([], 1)
    # a leading fixed point of a search against itself needs no check
    assert _run_counting_consistent(_MapSearch(op, op), (0, 0)) == ([], 0)


def test_map_search_checks_the_prefix_after_its_fixed_points():
    # only the leading fixed points are skipped: 0 -> 0, then 1 -> 2 is
    # checked, and so is 2 -> 2 after it
    op = dihedral_quandle(5).op
    maps, calls = _run_counting_consistent(_MapSearch(op, op), (0, 2, 2))
    assert (maps, calls) == ([], 1)
    maps, calls = _run_counting_consistent(_MapSearch(op, op), (0, 2))
    assert maps == [(0, 2, 4, 1, 3)] and calls > 0


def test_map_search_refuses_a_prefix_value_of_another_key():
    op = conj_symmetric_quandle(symmetric_group(3)).quandle.op
    search = _MapSearch(op, op)
    # element 0 is the identity of S_3, whose translation is trivial
    assert search.key2[1] != search.key1[0]
    assert _run_counting_consistent(search, (1,)) == ([], 0)


def test_map_search_refuses_a_prefix_inconsistent_at_its_last_position():
    op = dihedral_quandle(5).op
    search = _MapSearch(op, op)
    assert op[0][1] == 2 and search.run((0, 1))
    # 0*1 = 2 must go to 0*1 = 2, not 3; 3 is unused and of the same key.
    # 0 and 1 are leading fixed points of a search of op against itself, so
    # only the last position is checked; against a copy of op, all three
    assert _run_counting_consistent(search, (0, 1, 3)) == ([], 1)
    copy = _MapSearch(op, [list(row) for row in op])
    assert _run_counting_consistent(copy, (0, 1, 3)) == ([], 3)


def _drop_first_new_generator(monkeypatch):
    """Make _Chain.extend ignore the first generator that would grow its
    group; returns the list that records it."""
    extend = autgroup._Chain.extend
    dropped = []

    def lossy(self, g):
        if not dropped and g not in self:
            dropped.append(g)
            return
        extend(self, g)

    monkeypatch.setattr(autgroup._Chain, "extend", lossy)
    return dropped


def test_chain_dropping_a_strong_generator_is_caught(monkeypatch):
    dropped = _drop_first_new_generator(monkeypatch)
    with pytest.raises(InternalVerificationFailed, match="order"):
        aut_group(dihedral_quandle(6))
    assert dropped


def test_chain_with_a_corrupt_transversal_entry_is_caught(monkeypatch):
    add_gen = autgroup._Level.add_gen
    corrupted = []

    def lossy(self, s, s_inv):
        add_gen(self, s, s_inv)
        if not corrupted and len(self.orbit) > 2:
            w = self.orbit[-1]
            self.trans[w] = self.trans[self.base]
            corrupted.append(w)

    monkeypatch.setattr(autgroup._Level, "add_gen", lossy)
    with pytest.raises(InternalVerificationFailed):
        aut_group(dihedral_quandle(6))
    assert corrupted


def test_translation_that_does_not_sift_is_caught(monkeypatch):
    # R_8 has two spanning translations; the chain of one of them misses
    # the other
    dropped = _drop_first_new_generator(monkeypatch)
    with pytest.raises(InternalVerificationFailed, match="missing"):
        inner_group(antipodal(8))
    assert dropped


def test_chain_missing_a_generator_is_caught(monkeypatch):
    run = _MapSearch.run
    dropped = []

    def lossy(self, prefix=(), find_all=False):
        hits = run(self, prefix, find_all)
        if hits and not dropped:
            dropped.append(hits[0])
            return []
        return hits

    monkeypatch.setattr(_MapSearch, "run", lossy)
    with pytest.raises(InternalVerificationFailed):
        aut_group(trivial_quandle(3))
    assert dropped == [(0, 2, 1)]


def _subquandle(S, points, rho):
    """Brute force: points, grown by every product, dual product and (when
    given) rho image until nothing new appears."""
    op, dual = S.quandle.op, S.quandle.dual
    els = set(points)
    while True:
        new = {t[x][y] for t in (op, dual) for x in els for y in els}
        if rho is not None:
            new |= {rho[x] for x in els}
        if new <= els:
            return els
        els |= new


@pytest.mark.parametrize("S", [pytest.param(S, id=name)
                               for name, S in _differential_cases()])
def test_generation_order_prefixes_are_the_generated_subquandles(S):
    cols = list(S.quandle.columns)
    for rho in (None, S.rho):
        order, bases = quandle._generation_order(S.quandle.op, rho)
        assert sorted(order) == list(range(S.order))
        if rho is None:
            assert bases == perm.spanning_points(cols)
        for k in range(S.order):
            generated = _subquandle(S, range(k), rho)
            assert (k in bases) == (k not in generated), (rho, k)
            if k in bases:
                assert set(order[:order.index(k)]) == generated, (rho, k)


def test_closure_products_reach_a_rebound_compose(monkeypatch):
    # counting products by rebinding perm.compose must see the closures'
    # products, so they look compose up when called
    calls = [0]
    real = perm.compose

    def counting(p, q):
        calls[0] += 1
        return real(p, q)

    monkeypatch.setattr(perm, "compose", counting)
    # S_3 from a 3-cycle and a transposition: one product per element and
    # generator
    assert len(mulclose([(1, 2, 0), (1, 0, 2)])) == 6
    assert calls[0] == 12
    # the chain's sifting and its lexicographic walk: the listing makes one
    # product per element at least
    calls[0] = 0
    G = aut_group(dihedral_quandle(6))
    assert G.order == 12 and calls[0] > 0
    calls[0] = 0
    assert len(G.elements) == 12
    assert calls[0] >= G.order


def test_perm_group_without_generators_is_generated_by_every_element():
    els = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    assert PermGroup(3, els).generators == (0, 1, 2)
    assert PermGroup(3, els, [els[1]]).generators == (1,)


# The stabilizer chain against brute force: the group generated by the same
# permutations, listed by bf_closure and scanned in sorted order.

def _bf_greedy(els):
    """Scan the sorted elements and keep each one outside the closure of
    those kept; els[0] is the identity."""
    kept, reached = [], {els[0]}
    for x in els:
        if x not in reached:
            kept.append(x)
            reached = bf_closure(reached, kept, compose_then)
    return kept


def _chain_cases():
    cases = _differential_cases()
    cases += [("T_5 seed 1", relabelled(transposition_quandle(5), 1)),
              ("Conj(D12) seed 1",
               relabelled(conj_symmetric_quandle(dihedral_group(12)), 1))]
    return cases


@pytest.mark.parametrize("S", [pytest.param(S, id=name)
                               for name, S in _chain_cases()])
def test_chain_matches_brute_force(S):
    n = S.order
    translations = list(dict.fromkeys(S.quandle.columns))
    for kind, G, gens in (
            ("aut", aut_group(S.quandle, n), None),
            ("symmetric aut", symmetric_aut_group(S, n), None),
            ("inn", inner_group(S), translations)):
        ref = sorted(bf_closure([identity(n)], gens or G.generator_perms,
                                compose_then))
        assert G.order == len(ref), kind
        assert G.elements == tuple(ref), kind
        assert all(p in G.chain for p in ref), kind
        members = set(ref)
        for a in range(n):
            for b in range(a + 1, n):
                t = list(range(n))
                t[a], t[b] = b, a
                assert (tuple(t) in G.chain) == (tuple(t) in members), (kind, a, b)
        greedy = _bf_greedy(ref)
        assert G.chain.greedy_generators() == greedy, kind
        if gens is None:
            assert list(G.generator_perms) == (greedy or [identity(n)]), kind
        scan = sorted({tuple(sorted({p[a] for p in ref})) for a in range(n)})
        assert list(orbits(G).orbits) == scan, kind
        first = {}
        for i, p in enumerate(ref):
            for a in range(n):
                first.setdefault((a, p[a]), i)
        for q in range(n):
            assert stabilizer(G, q).elements == \
                tuple(i for i, p in enumerate(ref) if p[q] == q), (kind, q)
            for v in range(n):
                assert transporter(G, q, v) == first.get((q, v)), (kind, q, v)


@pytest.mark.parametrize("S", [pytest.param(S, id=name)
                               for name, S in _chain_cases()])
def test_least_outside_matches_brute_force(S):
    """The least element outside the stabilizer of each point and outside
    the centralizer of each generator, over the whole group and over the
    group of the levels from 1, against the sorted listing."""
    n = S.order
    for kind, G in (("aut", aut_group(S.quandle, n)),
                    ("symmetric aut", symmetric_aut_group(S, n)),
                    ("inn", inner_group(S))):
        chain = G.chain
        ref = sorted(bf_closure([identity(n)], G.generator_perms, compose_then))
        starts = [(0, ref)]
        if chain.levels:
            b = chain.levels[0].base
            starts.append((1, [p for p in ref if p[b] == b]))
        for start, els in starts:
            tests = [(("fixes", a), lambda h, a=a: h[a] == a) for a in range(n)]
            tests += [(("commutes", g), lambda h, g=g:
                       compose_then(h, g) == compose_then(g, h))
                      for g in G.generator_perms]
            for name, ok in tests:
                want = next((p for p in els if not ok(p)), None)
                assert chain.least_outside(ok, start) == want, \
                    (kind, start, name)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.permutations(list(range(n))).map(tuple), max_size=3)
    .map(lambda gens: (n, gens))))
def test_greedy_generators_match_the_sorted_scan(case):
    n, gens = case
    ref = sorted(bf_closure([identity(n)], gens, compose_then))
    assert autgroup._Chain(n, gens).greedy_generators() == _bf_greedy(ref)


def _s8_chain():
    return autgroup._Chain(8, [(1, 0, *range(2, 8)), (*range(1, 8), 0)])


@pytest.mark.parametrize("make", [
    lambda: aut_group(conj_symmetric_quandle(dihedral_group(12)).quandle,
                      24).chain,
    _s8_chain], ids=["Aut(Conj(D12))", "S_8"])
def test_greedy_generators_build_and_sift_nothing(make, monkeypatch):
    # the greedy generators were kept in a second chain, one sift per level
    # and kept generator
    chain = make()
    want = chain.greedy_generators()
    calls = {"__init__": 0, "sift": 0}
    for name in calls:
        real = getattr(autgroup._Chain, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(autgroup._Chain, name, counting)
    assert chain.greedy_generators() == want
    assert calls == {"__init__": 0, "sift": 0}


def test_greedy_generators_check_each_kept_element():
    # the first element taken is the least transporter of the deepest level;
    # made the identity, it leaves the base point inside the kept orbit
    chain = _s8_chain()
    L = chain.levels[-1]
    L.trans[min(set(L.orbit) - {L.base})] = chain.identity
    with pytest.raises(InternalVerificationFailed, match="greedy generator"):
        chain.greedy_generators()


def test_walk_makes_each_element_as_it_is_taken(monkeypatch):
    # the walk built each first-level subtree as a list: the first element
    # of Inn(T_8) cost 2,472 products
    chain = inner_group(transposition_quandle(8)).chain
    calls = [0]
    real = perm.compose

    def counting(p, q):
        calls[0] += 1
        return real(p, q)

    monkeypatch.setattr(perm, "compose", counting)
    assert next(chain.walk()) == chain.identity
    assert calls[0] <= len(chain.levels)


@pytest.mark.parametrize("S", [pytest.param(S, id=name)
                               for name, S in _differential_cases()])
def test_descent_matches_element_scans(S):
    """Ranks, least transporters with their inverses, stabilizer orders and
    generators, and least coset representatives, read off the chain,
    against the group listed by bf_closure and scanned in sorted order."""
    n = S.order
    for kind, G in (("inn", inner_group(S)),
                    ("symmetric aut", symmetric_aut_group(S, n))):
        ref = sorted(bf_closure([identity(n)], G.generator_perms, compose_then))
        assert [G.index_of(p) for p in ref] == list(range(len(ref))), kind
        assert [G.element(x) for x in range(len(ref))] == ref, kind
        members = set(ref)
        for a in range(n - 1):
            swap = (*range(a), a + 1, a, *range(a + 2, n))
            assert (G.index_of(swap) is None) == (swap not in members), kind
        for q in range(n):
            least = {}
            for g in ref:
                least.setdefault(g[q], g)
            found = G.chain.transporters(q, range(n))
            assert found == [(least[p], inverse(least[p])) if p in least else None
                             for p in range(n)], (kind, q)
            H = stabilizer(G, q)
            fixing = {g for g in ref if g[q] == q}
            assert H.order == len(fixing), (kind, q)
            assert all(h[q] == q for h in H.generators), (kind, q)
            assert bf_closure([identity(n)], H.generators, compose_then) == fixing
            reps = sorted(least.values())
            cos = H.cosets
            assert list(cos.reps) == reps, (kind, q)
            assert cos.rep_invs == tuple(map(inverse, reps)), (kind, q)
            assert cos.points == tuple(x[q] for x in reps), (kind, q)
            assert cos.representatives == tuple(map(ref.index, reps)), (kind, q)


def test_aut_group_product_budget(monkeypatch):
    # closing Aut(Conj(D_12)) by mulclose, then closing it again for the
    # greedy generators, made 11,088 perm.compose calls
    calls = [0]
    real = perm.compose

    def counting(p, q):
        calls[0] += 1
        return real(p, q)

    monkeypatch.setattr(perm, "compose", counting)
    G = aut_group(conj_symmetric_quandle(dihedral_group(12)).quandle, 24)
    assert G.order == 768
    assert calls[0] <= 3000


@pytest.mark.parametrize("argv", [
    ["aut", "--max-n", "24"], ["aut", "--symmetric", "--max-n", "24"],
    ["inn"], ["orbits", "--group", "aut", "--max-n", "24"]])
def test_report_verbs_never_list_the_group(argv, tmp_path, monkeypatch):
    path = str(tmp_path / "conj_d12.qnd")
    assert run(["catalog", "conj", "dihedral-group", "12", "-o", path])[0] == 0
    _refuse_the_walk(monkeypatch)
    code, text = run([argv[0], path, *argv[1:]])
    assert code == 0, text
    assert "orbits (" in text
    assert not is_homogeneous(conj_symmetric_quandle(dihedral_group(12)), 24)


def _refuse_the_walk(monkeypatch):
    def refuse(self):
        raise AssertionError("the group was listed")

    monkeypatch.setattr(PermGroup, "iter_elements", refuse)
    monkeypatch.setattr(autgroup._Chain, "walk", refuse)


def _transpositions_file(tmp_path, m):
    path = tmp_path / f"t{m}.qnd"
    path.write_text(fileio.format_qnd(transposition_quandle(m)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("m,args,order", [
    (8, ["--group", "inn"], 40320),
    (8, ["--group", "aut", "--max-n", "28"], 40320),
    (10, ["--group", "inn"], 3628800)])
def test_decompose_never_lists_the_group(m, args, order, tmp_path, monkeypatch):
    path = _transpositions_file(tmp_path, m)
    _refuse_the_walk(monkeypatch)
    code, text = run(["decompose", path, *args])
    assert code == 0, text
    assert f"\ngroup order: {order}\n" in text
    assert text.endswith("\nresult: ok\n")


def _with_each_translation(m, field):
    """The T_m inn presentation with z_0 or r_0 replaced by each spanning
    translation in turn, on a group made for it."""
    P = decompose(transposition_quandle(m), "inn").presentation
    G = P.group
    return [dataclasses.replace(P, **{field: (G.index_of(g),) + getattr(P, field)[1:]})
            for g in G.generator_perms]


@pytest.mark.parametrize("m", [5, 6, 7, 8])
@pytest.mark.parametrize("field,condition", [("z", "C1"), ("r", "C3")])
def test_failed_condition_names_its_witness_without_listing_the_group(
        m, field, condition, monkeypatch):
    # the element scan lists G to name the least failing h; one descent on
    # H_0's chain names the same h
    want = [validate_presentation(dataclasses.replace(P, subgroups=tuple(
        Subgroup(P.group, H.elements) for H in P.subgroups))).lines()
        for P in _with_each_translation(m, field)]
    assert any(line.startswith(f"{condition}: fail (") for lines in want
               for line in lines)
    _refuse_the_walk(monkeypatch)
    assert [validate_presentation(P).lines()
            for P in _with_each_translation(m, field)] == want


@pytest.mark.parametrize("field,detail", [
    ("z", "C1: fail (z_0 does not centralize h=362880)"),
    ("r", "C3: fail (r_0 h r_0^-1 escapes H_0 at h=362880)")], ids=["C1", "C3"])
def test_failed_condition_on_t12_names_its_witness(field, detail, monkeypatch):
    # |H_0| = 7,257,600; walking it to the witness took seconds and +200 MB
    _refuse_the_walk(monkeypatch)
    P = next(P for P in _with_each_translation(12, field)
             if not validate_presentation(P).ok)
    assert detail in validate_presentation(P).lines()


def test_emit_prs_refuses_a_group_above_the_table_bound(tmp_path, monkeypatch):
    # |Inn(T_7)| = 5,040: the table would have 25,401,600 cells
    path = _transpositions_file(tmp_path, 7)
    out = tmp_path / "t7.prs"
    _refuse_the_walk(monkeypatch)
    code, text = run(["decompose", path, "--emit-prs", str(out)])
    assert (code, text) == (3, "error: order 5040 exceeds the table bound 1024\n")
    assert not out.exists()
