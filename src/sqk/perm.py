"""Permutations of 0..n-1 as tuples.

The product convention throughout the package is "apply left, then right":
compose(p, q)[a] = q[p[a]].
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
from typing import Callable, Iterable, Sequence

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


def image(a: int, p: Perm) -> int:
    """The point action a.p = p[a], as an act for closure and greedy_span."""
    return p[a]


def _grow(reached: list, seen: set, i: int, gens, act) -> None:
    """Append to reached everything act reaches from reached[i:] by gens."""
    while i < len(reached):
        x = reached[i]
        for g in gens:
            y = act(x, g)
            if y not in seen:
                seen.add(y)
                reached.append(y)
        i += 1


def closure(start: Iterable, gens: Sequence, act: Callable) -> list:
    """The orbit algorithm (Holt, Eick and O'Brien 2005): start, then
    everything reached by act(x, g) for g in gens, in the order reached.

    The result is closed under every x -> act(x, g). When each of those is
    a permutation of a finite set, it is closed under their inverses too.
    """
    reached = list(dict.fromkeys(start))
    _grow(reached, set(reached), 0, gens, act)
    return reached


def greedy_span(candidates: Sequence, maps: Sequence, act: Callable,
                reached: Iterable = (),
                gens: Iterable = ()) -> tuple[list[int], list]:
    """Greedy generators: scan candidates in order and keep each one not
    reached yet.

    The reached list starts as reached, which must be closed under gens.
    Keeping candidates[c] appends it to the list and maps[c] to the
    generators, and closes the list again, so the list is always the
    closure of reached and the kept candidates under gens and the kept
    maps. The points reached before are closed under the old generators,
    so only the new map is applied to them; new points get every
    generator. Returns the kept positions and the reached list, in the
    order reached.
    """
    reached = list(reached)
    seen = set(reached)
    gens = list(gens)
    kept: list[int] = []
    for c, x in enumerate(candidates):
        if x in seen:
            continue
        kept.append(c)
        gens.append(maps[c])
        old = len(reached)
        seen.add(x)
        reached.append(x)
        for i in range(old):
            y = act(reached[i], maps[c])
            if y not in seen:
                seen.add(y)
                reached.append(y)
        _grow(reached, seen, old, gens, act)
    return kept, reached


def spanning_points(maps: list[Perm]) -> list[int]:
    """Greedy generating points for a family of permutations of 0..n-1.

    maps[c] is the permutation attached to point c. Scanning c = 0, 1, ...,
    c is kept when the closure of the kept points under their maps does not
    contain it (greedy_span under the point action). The kept points S
    reach every point under {maps[s] : s in S}, and also under the inverse
    maps, since a finite set closed under a permutation is closed under
    its inverse.
    """
    return greedy_span(range(len(maps)), maps, image)[0]


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


@cache
def _names(n: int) -> tuple[str, ...]:
    """The decimal names of 0..n-1, kept for each degree printed."""
    return tuple(map(str, range(n)))


def _cycle_parts(p: Perm, sep: str) -> list[str]:
    """Each nontrivial cycle in parentheses, by least element; fixed
    points are skipped, not built as 1-cycles."""
    names = _names(len(p))
    seen = bytearray(len(p))
    parts = []
    for a, b in enumerate(p):
        if b == a or seen[a]:
            continue
        cyc = [names[a]]
        while b != a:
            seen[b] = 1
            cyc.append(names[b])
            b = p[b]
        parts.append("(" + sep.join(cyc) + ")")
    return parts


def cycle_string(p: Perm) -> str:
    """Nontrivial cycles only; the identity prints as "()"."""
    return "".join(_cycle_parts(p, " ")) or "()"


def cycle_token(p: Perm) -> str:
    """Whitespace-free variant of cycle_string, usable as a display name."""
    return "".join(_cycle_parts(p, ",")) or "id"


def array_string(p: Perm) -> str:
    """The images in order, their names gathered in C as compose does."""
    names = _names(len(p))
    items = itemgetter(*p)(names) if len(p) > 1 else [names[a] for a in p]
    return "[" + " ".join(items) + "]"


def perm_line(p: Perm) -> str:
    """Cycle notation followed by array notation, as used in reports."""
    return f"{cycle_string(p)}  {array_string(p)}"
