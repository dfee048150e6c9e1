"""Exact Verlinde-ring computations for compact Lie groups.

Computes the fusion ring attached to a connected compact Lie group with
torsion-free fundamental group at a non-degenerate twisting level, by exact
integer and cyclotomic arithmetic, and cross-checks the answer against
independent Mayer-Vietoris style computations.
"""

__version__ = "0.2.0"

from .errors import (
    Degenerate,
    GroupTooLarge,
    InvalidCartanData,
    InvariantError,
    NotATorus,
    NotEquivariant,
    NotPrimitive,
    NotTorsionFreePi1,
    SpecParseError,
    VktError,
)
from .zlattice import (
    FiniteAbelianGroup,
    IntMatrix,
    SmithDecomposition,
    cokernel_structure,
    kernel_basis,
    smith_normal_form,
)
from .rootdata import (
    RootDatum,
    WeylElement,
    dominant_representative,
    root_datum_from_spec,
    tensor_decompose,
    weight_multiplicities,
    weyl_dimension,
    weyl_group_elements,
    weyl_numerator,
    weyl_order,
)
from .twist import Twisting, f_epsilon_points, shift_by_dual_coxeter, twisting_from_level
from .affineweyl import (
    AffineElement,
    OrbitReduction,
    act,
    enumerate_basis_orbits,
    orbit_normal_form,
    sign_character,
    stabilizer_generators,
)
from .cyclo import CyclotomicInt, cyclotomic_polynomial, eval_character_at_point
from .fusion import (
    CosetValues,
    FusionRing,
    KClass,
    VerlindeClass,
    class_from_weight,
    delta_eval,
    fusion_product,
    mult_by_U_matrix,
    structure_constants_via_characters,
    torus_pushforward,
    verlinde_classes,
    verlinde_ideal_member,
)
from .mvlaurent import LaurentPoly, SymmetricPoly, mv_s3, mv_su2, mv_u1, rho

__all__ = [
    "__version__",
    # errors
    "VktError", "InvalidCartanData", "NotTorsionFreePi1", "GroupTooLarge",
    "Degenerate", "NotEquivariant", "NotPrimitive", "NotATorus", "SpecParseError",
    "InvariantError",
    # integer lattices
    "IntMatrix", "SmithDecomposition", "FiniteAbelianGroup",
    "smith_normal_form", "cokernel_structure", "kernel_basis",
    # root data
    "RootDatum", "WeylElement", "root_datum_from_spec", "weyl_group_elements",
    "dominant_representative", "weight_multiplicities", "tensor_decompose",
    "weyl_dimension", "weyl_order", "weyl_numerator",
    # twistings
    "Twisting", "twisting_from_level", "shift_by_dual_coxeter", "f_epsilon_points",
    # affine orbits
    "AffineElement", "OrbitReduction", "act", "sign_character",
    "orbit_normal_form", "enumerate_basis_orbits", "stabilizer_generators",
    # cyclotomic arithmetic
    "CyclotomicInt", "cyclotomic_polynomial", "eval_character_at_point",
    # the fusion ring
    "FusionRing", "KClass", "VerlindeClass", "verlinde_classes",
    "class_from_weight", "fusion_product", "verlinde_ideal_member",
    "mult_by_U_matrix", "delta_eval", "CosetValues", "torus_pushforward",
    "structure_constants_via_characters",
    # rank-one cross-checks
    "LaurentPoly", "SymmetricPoly", "rho", "mv_su2", "mv_u1", "mv_s3",
]
