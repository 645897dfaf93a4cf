"""Permutations of 0..n-1 as tuples.

The product convention throughout the package is "apply left, then right":
compose(p, q)[a] = q[p[a]].
"""

from __future__ import annotations

from operator import itemgetter

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p then q, as a tuple: compose(p, q)[a] = q[p[a]].

    Any maps given as index sequences compose this way; q may be longer
    than p. The gather runs in C through itemgetter, which returns a bare
    item rather than a tuple for one index, so degrees 0 and 1 take the
    Python path.
    """
    if len(p) > 1:
        return itemgetter(*p)(q)
    return tuple(q[a] for a in p)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for a, v in enumerate(p):
        inv[v] = a
    return tuple(inv)


def spanning_points(maps: list[Perm]) -> list[int]:
    """Greedy generating points for a family of permutations of 0..n-1.

    maps[c] is the permutation attached to point c. Scanning c = 0, 1, ...
    in order, c is kept when the points reached so far do not contain it;
    the reached set is the closure of the kept points under their maps.
    Returns the kept points S, whose closure under {maps[s] : s in S} is
    every point. A finite set closed under a permutation is closed under
    its inverse too, so that closure also contains every image under an
    inverse map.
    """
    n = len(maps)
    seen = [False] * n
    reached: list[int] = []
    kept: list[int] = []
    for c in range(n):
        if seen[c]:
            continue
        # the points reached so far are closed under the old maps, so only
        # the new map is applied to them; new points get every map
        old = len(reached)
        new_map = maps[c]
        kept.append(c)
        seen[c] = True
        reached.append(c)
        for i in range(old):
            y = new_map[reached[i]]
            if not seen[y]:
                seen[y] = True
                reached.append(y)
        gens = [maps[s] for s in kept]
        i = old
        while i < len(reached):
            x = reached[i]
            for m in gens:
                y = m[x]
                if not seen[y]:
                    seen[y] = True
                    reached.append(y)
            i += 1
    return kept


def is_involution(p: Perm) -> bool:
    return all(p[p[a]] == a for a in range(len(p)))


def cycles(p: Perm) -> list[list[int]]:
    """Cycle decomposition; cycles ordered by least element, 1-cycles included."""
    seen = [False] * len(p)
    out = []
    for a in range(len(p)):
        if seen[a]:
            continue
        cyc = [a]
        seen[a] = True
        b = p[a]
        while b != a:
            cyc.append(b)
            seen[b] = True
            b = p[b]
        out.append(cyc)
    return out


def cycle_type(p: Perm) -> tuple[int, ...]:
    return tuple(sorted(len(c) for c in cycles(p)))


def cycle_string(p: Perm) -> str:
    """Nontrivial cycles only; the identity prints as "()"."""
    parts = ["(" + " ".join(map(str, c)) + ")" for c in cycles(p) if len(c) > 1]
    return "".join(parts) if parts else "()"


def cycle_token(p: Perm) -> str:
    """Whitespace-free variant of cycle_string, usable as a display name."""
    parts = ["(" + ",".join(map(str, c)) + ")" for c in cycles(p) if len(c) > 1]
    return "".join(parts) if parts else "id"


def array_string(p: Perm) -> str:
    return "[" + " ".join(map(str, p)) + "]"


def perm_line(p: Perm) -> str:
    """Cycle notation followed by array notation, as used in reports."""
    return f"{cycle_string(p)}  {array_string(p)}"
