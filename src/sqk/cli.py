"""Command line front end.

Verbs: check, involutions, aut, inn, orbits, decompose, build, iso, catalog.
Exit codes: 0 success / true, 1 clean negative (not found, condition fails),
2 malformed input or usage, 3 size bound exceeded. Output is plain text with
stable field order; two runs on identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import catalog, fileio
from .autgroup import PermGroup, aut_group, inner_group, orbits, symmetric_aut_group
from .cosets import build_quandle, build_rack, build_symmetric_quandle
from .decomposition import decompose
from .errors import (
    AxiomQ2Violated,
    AxiomQ3Violated,
    FormatError,
    NotDualCompatible,
    NotEquivariant,
    NotInvolution,
    PresentationInvalid,
    SizeBoundExceeded,
    SqkError,
)
from .perm import perm_line
from .quandle import (
    Quandle,
    find_quandle_isomorphism,
    is_kei,
    q1_violation,
    quandle_from_table,
)
from .symmetric import (
    SymmetricQuandle,
    attach_involution,
    enumerate_good_involutions,
    find_symmetric_isomorphism,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path!r}: {exc}")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_qnd(path: str) -> fileio.QndFile:
    return fileio.parse_qnd(_read(path))


def _quandle(qf: fileio.QndFile) -> Quandle:
    return quandle_from_table(qf.table, allow_rack=(qf.kind == "rack"))


def _symmetric(qf: fileio.QndFile, path: str) -> SymmetricQuandle:
    if qf.rho is None:
        raise FormatError(f"{path} has no rho line")
    return attach_involution(_quandle(qf), qf.rho)


def _print_generators(G: PermGroup, out: list[str], heading: str) -> None:
    gens = G.generators if G.generators else tuple(range(G.order))
    out.append(f"{heading} ({len(gens)}):")
    for g in gens:
        out.append("  " + perm_line(G.elements[g]))


def _print_orbits(G: PermGroup, out: list[str]) -> None:
    dec = orbits(G)
    out.append(f"orbits ({dec.count}):")
    for i, orb in enumerate(dec.orbits):
        out.append(f"  orbit {i}: rep {dec.representatives[i]}, "
                   f"size {len(orb)}: " + " ".join(map(str, orb)))


def _print_group(G: PermGroup, out: list[str], heading: str) -> None:
    out.append(f"group: {heading}")
    out.append(f"degree: {G.degree}")
    out.append(f"order: {G.order}")
    _print_generators(G, out, "generators")
    _print_orbits(G, out)


def cmd_check(args, out: list[str]) -> int:
    qf = _load_qnd(args.file)
    out.append(f"order: {len(qf.table)}")

    # one validation of the table serves every verdict below
    Q = None
    try:
        Q = quandle_from_table(qf.table, allow_rack=True)
    except AxiomQ2Violated as exc:
        out.append(f"rack: no (column {exc.b} is not a bijection)")
    except AxiomQ3Violated as exc:
        out.append(f"rack: no (self-distributivity fails at {exc.triple})")
    else:
        out.append("rack: yes")
    rack_ok = Q is not None
    quandle_ok = rack_ok and not Q.rack_only
    if quandle_ok:
        out.append("quandle: yes")
    elif rack_ok:
        out.append(f"quandle: no (idempotence fails at {q1_violation(Q.op)})")
    else:
        out.append("quandle: no")
    out.append(f"kei: {'yes' if quandle_ok and is_kei(Q) else 'no'}")

    rho_ok = qf.rho is None
    if qf.rho is None:
        out.append("rho: absent")
    else:
        out.append("rho: present")
        if not quandle_ok:
            out.append("good involution: no (table is not a quandle)")
        else:
            try:
                attach_involution(Q, qf.rho)
            except NotInvolution as exc:
                out.append(f"good involution: no (not an involution at {exc.a})")
            except NotEquivariant as exc:
                out.append(f"good involution: no (not equivariant at {exc.pair})")
            except NotDualCompatible as exc:
                out.append("good involution: no (dual compatibility fails "
                           f"at {exc.pair})")
            else:
                rho_ok = True
                out.append("good involution: yes")

    promised = rack_ok if qf.kind == "rack" else quandle_ok
    return 0 if promised and rho_ok else 1


def cmd_involutions(args, out: list[str]) -> int:
    Q = _quandle(_load_qnd(args.file))
    invs = enumerate_good_involutions(Q, args.max_n)
    out.append(f"order: {Q.order}")
    out.append(f"count: {len(invs)}")
    for rho in invs:
        out.append(perm_line(rho))
    return 0


def _aut(qf: fileio.QndFile, path: str, symmetric: bool,
         max_n: int) -> tuple[PermGroup, str]:
    if symmetric:
        return symmetric_aut_group(_symmetric(qf, path), max_n), "aut (symmetric)"
    return aut_group(_quandle(qf), max_n), "aut"


def cmd_aut(args, out: list[str]) -> int:
    G, heading = _aut(_load_qnd(args.file), args.file, args.symmetric, args.max_n)
    _print_group(G, out, heading)
    return 0


def cmd_inn(args, out: list[str]) -> int:
    S = _symmetric(_load_qnd(args.file), args.file)
    _print_group(inner_group(S), out, "inn")
    return 0


def cmd_orbits(args, out: list[str]) -> int:
    qf = _load_qnd(args.file)
    if args.group == "inn":
        G, heading = inner_group(_symmetric(qf, args.file)), "inn"
    else:
        G, heading = _aut(qf, args.file, qf.rho is not None, args.max_n)
    out.append(f"group: {heading}")
    _print_orbits(G, out)
    return 0


def cmd_decompose(args, out: list[str]) -> int:
    S = _symmetric(_load_qnd(args.file), args.file)
    result = decompose(S, args.group, args.max_n)
    G: PermGroup = result.presentation.group
    out.append(f"group: {args.group}")
    out.append(f"group order: {G.order}")
    _print_generators(G, out, "group generators")
    P = result.presentation
    out.append(f"orbits ({P.orbit_count}):")
    dec = result.orbits
    for i in range(P.orbit_count):
        out.append(f"  i={i}: q={dec.representatives[i]}, "
                   f"orbit size {len(dec.orbits[i])}, |H|={P.subgroups[i].order}")
    out.append("kappa: [" + " ".join(map(str, P.kappa)) + "]")
    for i in range(P.orbit_count):
        out.append(f"z_{i} = " + perm_line(G.elements[P.z[i]]))
    for i in range(P.orbit_count):
        out.append(f"r_{i} = " + perm_line(G.elements[P.r[i]]))
    out.append("psi:")
    for k in range(result.built.quandle.order):
        out.append(f"  {result.built.label_name(k)} -> {result.psi.map[k]}")
    out.append("verification:")
    for line in result.verification.lines():
        out.append("  " + line)
    out.append(f"result: {'ok' if result.verification.ok else 'FAILED'}")
    if args.emit_prs:
        _write(args.emit_prs, fileio.format_prs(P))
    return 0 if result.verification.ok else 1


def cmd_build(args, out: list[str]) -> int:
    P = fileio.parse_prs(_read(args.file), os.path.dirname(args.file) or ".")
    # looked up per call, so wrappers bound to these names see the build
    builders = {"rack": build_rack, "quandle": build_quandle,
                "symmetric": build_symmetric_quandle}
    try:
        built = builders[args.level](P)
    except PresentationInvalid as exc:
        # the builder validates once; a failed report is printed whole
        if exc.report is None:
            raise
        out.extend(exc.report.lines())
        return 1
    text = fileio.format_qnd(built)
    if args.output:
        _write(args.output, text)
    else:
        out.append(text.rstrip("\n"))
    return 0


def cmd_iso(args, out: list[str]) -> int:
    qa = _load_qnd(args.a)
    qb = _load_qnd(args.b)
    if args.symmetric:
        iso = find_symmetric_isomorphism(_symmetric(qa, args.a),
                                         _symmetric(qb, args.b))
    else:
        iso = find_quandle_isomorphism(_quandle(qa), _quandle(qb))
    if iso is None:
        out.append("isomorphism: none")
        return 1
    out.append("isomorphism: [" + " ".join(map(str, iso.map)) + "]")
    for a, v in enumerate(iso.map):
        out.append(f"  {a} -> {v}")
    return 0


def cmd_catalog(args, out: list[str]) -> int:
    try:
        produces, obj = catalog.build_entry(args.name, args.params)
    except catalog.ParameterOutOfRange as exc:
        raise _UsageError(str(exc))
    if produces in ("quandle", "symmetric_quandle"):
        text = fileio.format_qnd(obj)
    elif produces == "group":
        text = fileio.format_grp(obj)
    else:
        text = fileio.format_prs(obj)
    if args.output:
        _write(args.output, text)
    else:
        out.append(text.rstrip("\n"))
    return 0


def _size_bound(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(prog="sqk", description=__doc__)
    sub = parser.add_subparsers(dest="verb")

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("check", cmd_check, help="validate a .qnd file: rack/quandle/kei "
            "verdicts, and the rho line if present")
    p.add_argument("file")

    p = add("involutions", cmd_involutions, help="enumerate all good involutions")
    p.add_argument("file")
    p.add_argument("--max-n", type=_size_bound, default=12)

    p = add("aut", cmd_aut, help="automorphism group of a quandle")
    p.add_argument("file")
    p.add_argument("--symmetric", action="store_true",
                   help="automorphisms commuting with rho (requires rho)")
    p.add_argument("--max-n", type=_size_bound, default=12)

    p = add("inn", cmd_inn, help="inner automorphism group (requires rho)")
    p.add_argument("file")

    p = add("orbits", cmd_orbits, help="orbit decomposition under inn or aut")
    p.add_argument("file")
    p.add_argument("--group", choices=("inn", "aut"), default="inn")
    p.add_argument("--max-n", type=_size_bound, default=12)

    p = add("decompose", cmd_decompose,
            help="coset presentation over inn or aut, with verified psi")
    p.add_argument("file")
    p.add_argument("--group", choices=("inn", "aut"), default="inn")
    p.add_argument("--emit-prs", metavar="PATH")
    p.add_argument("--max-n", type=_size_bound, default=12)

    p = add("build", cmd_build, help="build the quandle of a .prs file")
    p.add_argument("file")
    p.add_argument("-o", "--output", metavar="PATH")
    p.add_argument("--level", choices=("rack", "quandle", "symmetric"),
                   default="symmetric")

    p = add("iso", cmd_iso, help="search for an isomorphism between two .qnd files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--symmetric", action="store_true")

    p = add("catalog", cmd_catalog, help="emit a stock object "
            "(dihedral-quandle n, antipodal n, conj <group...>, quaternion, "
            "cyclic n, dihedral-group n, sym n, paper-example)")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output", metavar="PATH")

    return parser


def run(argv: list[str]) -> tuple[int, str]:
    """Parse and execute; returns (exit code, output text)."""
    out: list[str] = []
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        return 2, f"usage error: {exc}\n"
    except SystemExit as exc:  # --help
        return (exc.code or 0), ""
    if not getattr(args, "func", None):
        return 2, "usage error: a command is required (try --help)\n"
    try:
        code = args.func(args, out)
    except _UsageError as exc:
        return 2, f"usage error: {exc}\n"
    except FormatError as exc:
        return 2, f"error: {exc}\n"
    except SizeBoundExceeded as exc:
        return 3, f"error: {exc}\n"
    except SqkError as exc:
        return 1, f"error: {exc}\n"
    return code, "".join(line + "\n" for line in out)


def main() -> None:
    code, text = run(sys.argv[1:])
    if text:
        sys.stdout.write(text)
    sys.exit(code)
