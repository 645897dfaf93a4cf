"""Permutations of 0..n-1 as tuples.

The product convention throughout the package is "apply left, then right":
compose(p, q)[a] = q[p[a]].
"""

from __future__ import annotations

from functools import cache
from operator import getitem, itemgetter
from typing import Callable, Iterable, Sequence

from .errors import FormatError

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


def compose_each(p: Perm, qs: Iterable[Perm]) -> list[Perm]:
    """[compose(p, q) for q in qs], with the gather for p built once."""
    if len(p) > 1:
        return list(map(itemgetter(*p), qs))
    return [compose(p, q) for q in qs]


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
    everything reached by act(x, g) for g in gens, in the order reached,
    which is closed under every x -> act(x, g)."""

    reached = list(dict.fromkeys(start))
    _grow(reached, set(reached), 0, gens, act)
    return reached


def greedy_span(candidates: Sequence, maps: Sequence, act: Callable,
                reached: Iterable = (),
                gens: Iterable = ()) -> tuple[list[int], list]:
    """Greedy generators: scan candidates in order and keep each one not
    reached yet.

    The reached list starts as reached, which must be closed under gens,
    and stays the closure of reached and the kept candidates under gens
    and the kept maps. Points reached before a candidate is kept are
    closed under the old generators, so only the new map is applied to
    them. Returns the kept positions and the reached list, in the order
    reached.
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
    contain it (greedy_span under the point action), so that closure is
    every point. The closure lemma, which every proof at these points
    rests on: a set that holds the kept points s and is closed under each
    maps[s] holds their closure, so it is every point. A finite set closed
    under a permutation is closed under its inverse too. A proof checks
    its condition at the kept points and shows the set where the condition
    holds closed under those maps.
    """
    return greedy_span(range(len(maps)), maps, image)[0]


def square_rows(table: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The rows of a square table of points 0..n-1 (n = len(table)), as
    tuples.

    Each row is checked whole, by its length, the types of its entries
    and their set. A row failing that runs the per-entry loop, which
    names the first bad entry and accepts what isinstance(v, int) accepts
    (bool).
    """
    n = len(table)
    points = set(range(n))
    rows = []
    for a, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            raise FormatError(f"row {a} has {len(row)} entries, expected {n}")
        if set(map(type, row)) != {int} or not points.issuperset(row):
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise FormatError(f"entry {v!r} in row {a} not in 0..{n - 1}")
        rows.append(row)
    return tuple(rows)


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
    """The cycle lengths, 1-cycles included, in increasing order, counted
    by the walk rule of _cycle_parts without building any cycle; the
    points in no cycle counted are fixed."""
    pairs = 0
    longer = []
    seen = None
    for a, b in enumerate(p):
        if b <= a or seen is not None and seen[a]:
            continue
        c = p[b]
        if c == a:
            pairs += 1
            continue
        if seen is None:
            seen = bytearray(len(p))
        length = 2
        while c != a:
            seen[c] = 1
            length += 1
            c = p[c]
        seen[b] = 1
        longer.append(length)
    longer.sort()
    fixed = len(p) - 2 * pairs - sum(longer)
    return (1,) * fixed + (2,) * pairs + tuple(longer)


@cache
def _names(n: int) -> tuple[str, ...]:
    """The decimal names of 0..n-1, kept for each degree printed."""
    return tuple(map(str, range(n)))


def _cycle_parts(p: Perm, sep: str) -> list[str]:
    """Each nontrivial cycle in parentheses, by least element; fixed
    points are skipped, not built as 1-cycles.

    The walk rule: a point a with p[a] <= a is skipped, since it is fixed
    or p[a] is a smaller point of the same cycle, so the cycle was printed
    when the scan passed its least point. A 2-cycle (a p[a]) with p[a] > a
    is printed at once, with no walk and no mark. Only cycles of length 3
    or more are walked, from their least point, marking their points in a
    seen array made on first use; a later point of such a cycle can have
    p[a] > a, and the mark skips it.
    """
    names = _names(len(p))
    seen = None
    parts = []
    for a, b in enumerate(p):
        if b <= a or seen is not None and seen[a]:
            continue
        c = p[b]
        if c == a:
            parts.append(f"({names[a]}{sep}{names[b]})")
            continue
        if seen is None:
            seen = bytearray(len(p))
        seen[b] = 1
        cyc = [names[a], names[b]]
        while c != a:
            seen[c] = 1
            cyc.append(names[c])
            c = p[c]
        parts.append("(" + sep.join(cyc) + ")")
    return parts


def cycle_string(p: Perm) -> str:
    """Nontrivial cycles only; the identity prints as "()"."""
    return "".join(_cycle_parts(p, " ")) or "()"


def cycle_token(p: Perm) -> str:
    """Whitespace-free variant of cycle_string, usable as a display name."""
    return "".join(_cycle_parts(p, ",")) or "id"


def row_string(row: Sequence[int]) -> str:
    """The entries of row, each a point of 0..len(row)-1, as decimal
    names separated by spaces: a table row or a permutation as written.
    The names are gathered from the name table in C, as compose gathers,
    so degrees 0 and 1 take the Python path; an entry True or False is
    printed as 1 or 0, the point it indexes."""
    names = _names(len(row))
    if len(row) > 1:
        return " ".join(itemgetter(*row)(names))
    return " ".join([names[a] for a in row])


def array_string(p: Perm) -> str:
    """The images in order, in brackets."""
    return "[" + row_string(p) + "]"


def perm_line(p: Perm) -> str:
    """Cycle notation followed by array notation, as used in reports."""
    return f"{cycle_string(p)}  {array_string(p)}"


def involution_lines(invs: Iterable[Perm], n: int) -> list[str]:
    """[perm_line(p) for p in invs], for involutions p of degree n.

    The cycles of an involution are its pairs (a b) with b = p[a] > a, so
    its cycle string joins rows[a][p[a]] over the points a, gathered in C:
    "(a b)" when b > a, and "" otherwise. Each text is made when a line
    first needs it and kept for the call, so only the pairs that occur
    are made. Degrees 0 and 1 take perm_line.
    """
    if n < 2:
        return list(map(perm_line, invs))
    names = _names(n)
    rows: list[dict[int, str]] = [{} for _ in range(n)]
    lines = []
    for p in invs:
        try:
            pairs = "".join(map(getitem, rows, p))
        except KeyError:
            for a, b in enumerate(p):
                rows[a][b] = f"({names[a]} {names[b]})" if b > a else ""
            pairs = "".join(map(getitem, rows, p))
        lines.append(f"{pairs or '()'}  [{' '.join(itemgetter(*p)(names))}]")
    return lines
