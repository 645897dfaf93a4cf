"""The three line-oriented text formats.

.grp   line 1: "group <n>"; then n rows of n integers (row x, column y is
       x*y); optional "names: <n tokens>".
.qnd   line 1: "quandle <n>" or "rack <n>"; then n rows (row a, column b is
       a*b); optional "rho: <n integers>".
.prs   line 1: "presentation <k>"; then either "group <path.grp>" or an
       inline group block (the .grp content), inline exactly when int()
       reads the token after "group"; then k lines
       "orbit i: H = <indices> ; z = <index> ; r = <index> ; kappa = <j>".

"#" starts a comment anywhere; blank lines are ignored.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache

from . import perm
from .cosets import CosetPresentation, LabeledQuandle
from .errors import FormatError, IndexOutOfRange, InternalVerificationFailed
from .groups import FiniteGroup, GroupLike, group_from_table, subgroup_from_elements
from .quandle import Quandle
from .symmetric import SymmetricQuandle


def read_text(path: str, what: str = "") -> str:
    """The text of a UTF-8 file. A file that cannot be read or is not UTF-8
    is a FormatError, like malformed content; what names the file's role in
    the message."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {what}{path!r}: {exc}")


def significant_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _ints(line: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise FormatError(f"{what}: expected integers, got {line!r}")


@cache
def _index(n: int) -> dict[str, int]:
    """Token -> point for the decimal names of 0..n-1 (perm._names
    inverted), kept for each degree read."""
    return {name: a for a, name in enumerate(perm._names(n))}


def _named_row(line: str, n: int) -> tuple[int, ...] | None:
    """The points of a table row whose tokens are exactly n decimal names
    of points 0..n-1, gathered from the name table by perm.compose; else
    None, and _rows reads the row with int(), which also reads spellings
    such as +3, 007 or 1_0. The lookup is parsing: the entries are still
    checked by perm.square_rows, like those of any other row."""
    tokens = line.split()
    if len(tokens) == n:
        try:
            return perm.compose(tokens, _index(n))
        except KeyError:
            pass
    return None


def _rows(lines: list[str], pos: int, n: int, kind: str,
          what: str) -> tuple[tuple[int, ...], ...]:
    """The n table rows at lines[pos:], read for their shape only: a row
    in named form by _named_row, any other token by token with int(),
    naming the first bad token or count. The entries are checked by
    perm.square_rows in quandle_from_table or group_from_table."""
    if pos + n > len(lines):
        raise FormatError(f"{kind} table needs {n} rows, file ends early")
    rows = []
    for a, line in enumerate(lines[pos:pos + n]):
        row = _named_row(line, n)
        if row is None:
            row = tuple(_ints(line, f"{what} {a}"))
            if len(row) != n:
                raise FormatError(f"{what} {a} has {len(row)} entries, expected {n}")
        rows.append(row)
    return tuple(rows)


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _read_header(line: str, keywords: tuple[str, ...]) -> tuple[str, int]:
    parts = line.split()
    if len(parts) != 2 or parts[0] not in keywords:
        raise FormatError(
            f"expected '<{'|'.join(keywords)}> <n>' header, got {line!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise FormatError(f"header size {parts[1]!r} is not an integer")
    if n < 1:
        raise FormatError(f"header size must be positive, got {n}")
    return parts[0], n


# .grp

def _parse_group_block(lines: list[str], pos: int) -> tuple[FiniteGroup, int]:
    """Parse a group block starting at lines[pos]; return (group, next pos).
    Validation of the table and the names happens in group_from_table."""
    _, n = _read_header(lines[pos], ("group",))
    table = _rows(lines, pos + 1, n, "group", "group row")
    pos += 1 + n
    names = None
    if pos < len(lines) and lines[pos].startswith("names:"):
        names = lines[pos][len("names:"):].split()
        pos += 1
    return group_from_table(table, names), pos


def parse_grp(text: str) -> FiniteGroup:
    lines = significant_lines(text)
    if not lines:
        raise FormatError("empty group file")
    G, pos = _parse_group_block(lines, 0)
    if pos != len(lines):
        raise FormatError(f"trailing content after group block: {lines[pos]!r}")
    return G


def format_grp(G: FiniteGroup) -> str:
    out = [f"group {G.order}"]
    out += map(perm.row_string, G.product)
    if G.names:
        out.append("names: " + " ".join(G.names))
    return "\n".join(out) + "\n"


# .qnd

@dataclass(frozen=True)
class QndFile:
    kind: str  # "quandle" | "rack"
    table: tuple[tuple[int, ...], ...]
    rho: tuple[int, ...] | None


def parse_qnd(text: str) -> QndFile:
    """Read a .qnd file: its rows (_rows) and rho line, for their shape
    only. The entries and the axioms are left to quandle_from_table."""
    lines = significant_lines(text)
    if not lines:
        raise FormatError("empty quandle file")
    kind, n = _read_header(lines[0], ("quandle", "rack"))
    table = _rows(lines, 1, n, "operation", "table row")
    pos = 1 + n
    rho = None
    if pos < len(lines) and lines[pos].startswith("rho:"):
        rho = _ints(lines[pos][len("rho:"):], "rho line")
        if len(rho) != n:
            raise FormatError(f"rho has {len(rho)} entries, expected {n}")
        if sorted(rho) != list(range(n)):
            raise FormatError("rho line is not a permutation")
        pos += 1
    if pos != len(lines):
        raise FormatError(f"trailing content: {lines[pos]!r}")
    return QndFile(kind=kind, table=table, rho=tuple(rho) if rho else None)


def format_qnd(obj: Quandle | SymmetricQuandle | LabeledQuandle) -> str:
    """A built object is written with its rho line when it has one, and
    with one comment line per element naming its coset."""
    labels = None
    if isinstance(obj, LabeledQuandle):
        labels = obj.label_names()
        obj = obj.sq if obj.sq is not None else obj.quandle
    if isinstance(obj, SymmetricQuandle):
        Q, rho = obj.quandle, obj.rho
    else:
        Q, rho = obj, None
    kind = "rack" if Q.rack_only else "quandle"
    out = [f"{kind} {Q.order}"]
    out += map(perm.row_string, Q.op)
    if rho is not None:
        out.append("rho: " + perm.row_string(rho))
    if labels is not None:
        out += [f"# {k}: {name}" for k, name in enumerate(labels)]
    return "\n".join(out) + "\n"


# .prs

def parse_prs(text: str, base_dir: str = ".") -> CosetPresentation:
    lines = significant_lines(text)
    if not lines:
        raise FormatError("empty presentation file")
    _, k = _read_header(lines[0], ("presentation",))
    if len(lines) < 2:
        raise FormatError("presentation file ends before the group")
    parts = lines[1].split()
    if not parts or parts[0] != "group":
        raise FormatError(f"expected a group line, got {lines[1]!r}")
    if len(parts) == 2 and not _is_int(parts[1]):
        G = parse_grp(read_text(os.path.join(base_dir, parts[1]), "group file "))
        pos = 2
    else:
        G, pos = _parse_group_block(lines, 1)

    if len(lines) - pos != k:
        raise FormatError(f"expected {k} orbit lines, found {len(lines) - pos}")
    subgroups, zs, rs, kappas = [], [], [], []
    for i in range(k):
        line = lines[pos + i]
        head, _, rest = line.partition(":")
        if head.split() != ["orbit", str(i)]:
            raise FormatError(f"expected 'orbit {i}: ...', got {line!r}")
        fields = {}
        for chunk in rest.split(";"):
            key, eq, val = chunk.partition("=")
            if not eq:
                raise FormatError(f"orbit {i}: bad field {chunk.strip()!r}")
            key = key.strip()
            if key in fields:
                raise FormatError(f"orbit {i}: field {key!r} given twice")
            fields[key] = val.strip()
        if set(fields) != {"H", "z", "r", "kappa"}:
            raise FormatError(
                f"orbit {i}: fields must be H, z, r, kappa; got {sorted(fields)}")
        H = _ints(fields["H"], "H")
        try:
            subgroups.append(subgroup_from_elements(G, H))
        except IndexOutOfRange as exc:
            raise FormatError(f"orbit {i} H: {exc}")
        zs.append(_one_index(fields["z"], f"orbit {i} z", "element", G.order))
        rs.append(_one_index(fields["r"], f"orbit {i} r", "element", G.order))
        kappas.append(_one_index(fields["kappa"], f"orbit {i} kappa", "orbit", k))
    return CosetPresentation(group=G, subgroups=tuple(subgroups), z=tuple(zs),
                             r=tuple(rs), kappa=tuple(kappas))


def _one_index(text: str, what: str, kind: str, bound: int) -> int:
    vals = _ints(text, what)
    if len(vals) != 1:
        raise FormatError(f"{what}: expected one integer")
    if not 0 <= vals[0] < bound:
        raise FormatError(f"{what}: {kind} index {vals[0]} not in 0..{bound - 1}")
    return vals[0]


def group_to_table(G: GroupLike) -> FiniteGroup:
    """Re-express any group-like object as an explicit multiplication table.
    Element indices are preserved; permutation elements become name tokens.

    A permutation group's table is built from its generators, column by
    column along a breadth-first spanning tree from the identity. With
    R_g[x] = x g, column y g holds x (y g) = (x y) g = R_g[x y]: column y
    gathered through R_g. That costs one product per element and generator,
    plus one gather per column.

    The table needs no second validation. Each column is x -> x w for the
    product w of the generators along its tree path, gathered through the
    right multiplications of G, and G is a group: its permutation products
    are associative and its chain holds every element. So the table is
    that of a group as soon as each column sits at the index of its w. Its
    identity row reads e w = w, so one look at each column, that column y
    holds y in the identity row, proves it; a column at the wrong index
    raises InternalVerificationFailed. The identity and the names are G's;
    FiniteGroup derives the order and the inverses from the table. A reader
    of the written file proves it again (parse_prs, parse_grp)."""
    if isinstance(G, FiniteGroup):
        return G
    n, e = G.order, G.identity
    right = [[G.mul(x, g) for x in range(n)] for g in G.generators]
    cols: list[tuple[int, ...] | None] = [None] * n
    cols[e] = tuple(range(n))
    reached = [e]
    for y in reached:
        for R in right:
            yg = R[y]
            if cols[yg] is None:
                cols[yg] = perm.compose(cols[y], R)
                reached.append(yg)
    if len(reached) != n:
        raise InternalVerificationFailed(
            f"the generators reach {len(reached)} of {n} group elements")
    for y, col in enumerate(cols):
        if col[e] != y:
            raise InternalVerificationFailed(
                f"the table column of element {col[e]} is written at {y}")
    return FiniteGroup(product=tuple(zip(*cols)), identity=e,
                       names=tuple(G.name_of(x) for x in range(n)))


def format_prs(P: CosetPresentation) -> str:
    """Presentations are written self-contained, with the group inline."""
    G = group_to_table(P.group)
    out = [f"presentation {P.orbit_count}"]
    out.append(format_grp(G).rstrip("\n"))
    for i in range(P.orbit_count):
        H = " ".join(map(str, P.subgroups[i].elements))
        out.append(f"orbit {i}: H = {H} ; z = {P.z[i]} ; r = {P.r[i]} ; "
                   f"kappa = {P.kappa[i]}")
    return "\n".join(out) + "\n"
