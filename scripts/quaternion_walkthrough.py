#!/usr/bin/env python3
"""Walk through the quaternion-group coset presentation of the antipodal
dihedral quandle of order 4, then decompose that quandle back into coset
form over both its inner and full symmetric automorphism groups.

Run: python3 scripts/quaternion_walkthrough.py
"""

from sqk import (
    antipodal,
    build_symmetric_quandle,
    decompose,
    find_symmetric_isomorphism,
    paper_example_presentation,
    validate_presentation,
)
from sqk.perm import perm_line


def main():
    P = paper_example_presentation()
    G = P.group
    print("presentation over the quaternion group")
    print(f"  |G| = {G.order}, names: {' '.join(G.names)}")
    for i in range(P.orbit_count):
        H = P.subgroups[i]
        print(f"  H_{i} = {{{' '.join(G.name_of(h) for h in H.elements)}}}, "
              f"z_{i} = {G.name_of(P.z[i])}, r_{i} = {G.name_of(P.r[i])}, "
              f"kappa({i}) = {P.kappa[i]}")

    report = validate_presentation(P, "symmetric")
    print("validation:")
    for line in report.lines():
        print("  " + line)

    built = build_symmetric_quandle(P)
    n = built.sq.order
    names = built.label_names()
    print("built symmetric quandle:")
    for a in range(n):
        row = " ".join(names[built.sq.quandle.op[a][b]] for b in range(n))
        print(f"  {names[a]} * (.) = {row}")
    print("  rho: " + " ".join(f"{names[a]}->{names[built.sq.rho[a]]}"
                               for a in range(n)))

    target = antipodal(4)
    iso = find_symmetric_isomorphism(built.sq, target)
    print("isomorphism onto (R_4, antipodal):")
    for a in range(n):
        print(f"  {names[a]} -> {iso.map[a]}")

    for choice in ("inn", "aut"):
        d = decompose(target, choice)
        Pd = d.presentation
        print(f"decomposition of (R_4, antipodal) over {choice}:")
        print(f"  |G| = {Pd.group.order}, orbits = {Pd.orbit_count}, "
              f"|H_i| = {[H.order for H in Pd.subgroups]}")
        for i in range(Pd.orbit_count):
            print(f"  z_{i} = {perm_line(Pd.group.element(Pd.z[i]))}, "
                  f"r_{i} = {perm_line(Pd.group.element(Pd.r[i]))}")
        print(f"  psi = {list(d.psi.map)}, verified: {d.verification.ok}")


if __name__ == "__main__":
    main()
