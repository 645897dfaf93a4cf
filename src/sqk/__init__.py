"""Finite racks, quandles and symmetric quandles: validation, good
involutions, automorphism groups, coset presentations, and decompositions
with self-verified isomorphisms."""

from .autgroup import (
    OrbitDecomposition,
    PermGroup,
    aut_group,
    inner_group,
    is_homogeneous,
    orbits,
    stabilizer,
    symmetric_aut_group,
    transporter,
)
from .catalog import (
    antipodal,
    conj_symmetric_quandle,
    cyclic_group,
    dihedral_group,
    dihedral_quandle,
    paper_example_presentation,
    quaternion_group,
    symmetric_group,
    trivial_quandle,
)
from .cosets import (
    CosetPresentation,
    LabeledQuandle,
    build_quandle,
    build_rack,
    build_symmetric_quandle,
    single_orbit_presentation,
    validate_presentation,
)
from .decomposition import (
    DecompositionResult,
    conj_presentation,
    decompose,
    verify_decomposition,
)
from .groups import (
    CosetSpace,
    FiniteGroup,
    Subgroup,
    centralizer,
    centralizes,
    conjugacy_classes,
    group_from_table,
    right_cosets,
    subgroup_closure,
    subgroup_from_elements,
)
from .quandle import (
    Isomorphism,
    Quandle,
    find_quandle_isomorphism,
    is_kei,
    quandle_from_table,
)
from .report import Check, Report
from .symmetric import (
    SymmetricQuandle,
    attach_involution,
    enumerate_good_involutions,
    find_symmetric_isomorphism,
    is_good_involution,
)

__version__ = "0.1.0"
