from hypothesis import given
from hypothesis import strategies as st

from helpers import bf_closure
from sqk import perm


def perms(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(list(range(n))).map(tuple))


def test_identity():
    assert perm.identity(3) == (0, 1, 2)
    assert perm.cycle_string(perm.identity(4)) == "()"
    assert perm.cycle_token(perm.identity(4)) == "id"


def test_compose_convention():
    # apply left, then right
    p = (1, 0, 2)
    q = (0, 2, 1)
    assert perm.compose(p, q) == (2, 0, 1)
    assert all(perm.compose(p, q)[a] == q[p[a]] for a in range(3))


@given(perms())
def test_inverse(p):
    n = len(p)
    assert perm.compose(p, perm.inverse(p)) == perm.identity(n)
    assert perm.compose(perm.inverse(p), p) == perm.identity(n)


@given(perms())
def test_cycles_partition(p):
    cyc = perm.cycles(p)
    flat = sorted(x for c in cyc for x in c)
    assert flat == list(range(len(p)))
    assert sum(perm.cycle_type(p)) == len(p)


def test_cycle_string():
    assert perm.cycle_string((2, 3, 0, 1)) == "(0 2)(1 3)"
    assert perm.cycle_string((0, 3, 2, 1)) == "(1 3)"
    assert perm.cycle_token((2, 3, 0, 1)) == "(0,2)(1,3)"
    assert perm.array_string((0, 3, 2, 1)) == "[0 3 2 1]"


def point_families(max_n=7, max_maps=4):
    """A degree n and up to max_maps permutations of 0..n-1."""
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.permutations(list(range(n))).map(tuple), max_size=max_maps))


def _reached_in_order(out, start, gens, act):
    # every element after the start is an image of an earlier one
    assert len(set(out)) == len(out)
    assert out[:len(start)] == start
    for i in range(len(start), len(out)):
        assert any(act(x, g) == out[i] for x in out[:i] for g in gens)


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), max_size=4),
    st.lists(st.permutations(list(range(n))).map(tuple), max_size=3))))
def test_closure_of_points_is_the_brute_force_closure(case):
    start, gens = case
    out = perm.closure(start, gens, perm.image)
    assert set(out) == bf_closure(start, gens, perm.image)
    _reached_in_order(out, list(dict.fromkeys(start)), gens, perm.image)


@given(point_families(max_n=4, max_maps=3))
def test_closure_of_perms_is_the_generated_semigroup(gens):
    out = perm.closure(gens, gens, perm.compose)
    assert set(out) == bf_closure(gens, gens, perm.compose)
    _reached_in_order(out, list(dict.fromkeys(gens)), gens, perm.compose)


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.permutations(list(range(n))).map(tuple),
             min_size=n, max_size=n),
    st.lists(st.permutations(list(range(n))).map(tuple), max_size=1))))
def test_greedy_span_keeps_exactly_the_points_not_reached(case):
    maps, gens = case
    n = len(maps)
    kept, reached = perm.greedy_span(range(n), maps, perm.image, gens=gens)
    assert len(set(reached)) == len(reached)
    for c in range(n):
        earlier = [k for k in kept if k < c]
        before = bf_closure(earlier, gens + [maps[k] for k in earlier],
                            perm.image)
        # kept iff outside the closure of the earlier kept candidates
        assert (c in kept) == (c not in before)
    assert set(reached) == bf_closure(kept, gens + [maps[k] for k in kept],
                                      perm.image) == set(range(n))
    if not gens:
        assert perm.spanning_points(maps) == kept


@given(point_families(max_n=5, max_maps=3))
def test_greedy_span_over_a_group_keeps_generators(gens):
    n = len(gens[0]) if gens else 1
    ident = perm.identity(n)
    els = sorted(bf_closure([ident], gens, perm.compose))
    kept, reached = perm.greedy_span(els, els, perm.compose, [ident])
    for j, c in enumerate(kept):
        earlier = [els[k] for k in kept[:j]]
        assert els[c] not in bf_closure([ident], earlier, perm.compose)
    assert set(reached) == bf_closure([ident], [els[c] for c in kept],
                                      perm.compose) == set(els)


# The printed forms, as first written: every cycle built and the 1-cycles
# dropped, each point named by str(). The formatters must keep these bytes.
def _old_cycle_string(p):
    parts = ["(" + " ".join(map(str, c)) + ")" for c in perm.cycles(p) if len(c) > 1]
    return "".join(parts) if parts else "()"


def _old_cycle_token(p):
    parts = ["(" + ",".join(map(str, c)) + ")" for c in perm.cycles(p) if len(c) > 1]
    return "".join(parts) if parts else "id"


def _old_array_string(p):
    return "[" + " ".join(map(str, p)) + "]"


def _pinned_perms():
    import random

    rng = random.Random(0)
    out = []
    for n in (0, 1, 2, 10, 11):
        out.append(perm.identity(n))
        if n:
            out.append(tuple(range(n - 1, -1, -1)))
    for k in range(120):
        n = rng.randrange(0, 40)
        p = list(range(n))
        if k % 10:
            rng.shuffle(p)
        out.append(tuple(p))
    # involutions with fixed points: the walk rule settles every 2-cycle
    # without a walk
    for _ in range(60):
        n = rng.randrange(2, 41)
        points = list(range(n))
        rng.shuffle(points)
        p = list(range(n))
        for i in range(0, 2 * rng.randrange(1, n // 2 + 1), 2):
            a, b = points[i], points[i + 1]
            p[a], p[b] = b, a
        out.append(tuple(p))
    # 2-cycles mixed with longer cycles, some of whose later points have
    # p[a] > a, so the seen marks must skip them
    for _ in range(60):
        n = rng.randrange(5, 41)
        points = list(range(n))
        rng.shuffle(points)
        p = list(range(n))
        i = 0
        while i < n:
            size = rng.choice((1, 2, 2, 3, 4, rng.randrange(2, n + 1)))
            cyc = points[i:i + size]
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                p[a] = b
            i += size
        out.append(tuple(p))
    out += [(1, 0, 3, 4, 2), (2, 3, 4, 0, 1), (1, 0, 3, 2, 5, 6, 7, 4),
            (3, 2, 1, 4, 0)]
    return out


def test_printed_forms_keep_their_bytes():
    perms_ = _pinned_perms()
    assert {len(p) for p in perms_} >= {0, 1, 2, 10, 11}
    for p in perms_:
        assert perm.cycle_string(p) == _old_cycle_string(p), p
        assert perm.cycle_token(p) == _old_cycle_token(p), p
        assert perm.array_string(p) == _old_array_string(p), p
        assert perm.perm_line(p) == \
            f"{_old_cycle_string(p)}  {_old_array_string(p)}", p
        assert perm.cycle_type(p) == \
            tuple(sorted(map(len, perm.cycles(p)))), p
    assert perm.array_string(()) == "[]"
    assert perm.cycle_string(()) == "()"
    assert perm.cycle_token((0,)) == "id"
