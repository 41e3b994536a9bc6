"""folnerlab: weighted isoperimetry in fusion rings of Kac-type quantum groups.

Certified computations around the Folner condition: boundary decompositions
and Folner certificates in fusion rings, restricted multiplication operators
on coefficient windows, two-sided kernel-dimension estimates, zero-divisor
and Ore-pair searches, and dimension approximation along quotient towers.
"""

from .exactla import ScalarMatrix, nullspace_basis, rank_nullity
from .folner import (ExhaustionReport, FolnerCertificate, ProfileRow,
                     folner_search, isoperimetric_profile, verify_certificate)
from .fusion import (BoundaryData, FusionRing, InvalidLabelError, ball,
                     ball_boundary, boundary_decomposition, check_axioms, conjugate_set,
                     conjugation_closure, ring_from_tag, weighted_size)
from .polalg import (AlgebraElement, AlgebraError, MatrixOverPol, PolAlgebra,
                     RestrictedOperator, algebra_for, full_mult_matrix,
                     restricted_mult_matrix, support)
from .reldim import (DimensionEstimate, exact_mvn_dim_finite,
                     kernel_dim_estimate, relative_dimension)
from .scalars import QQi
from .serialize import (SchemaError, dump_element, element_from_json,
                        element_to_json, load_element, matrix_from_json,
                        matrix_to_json, parse_element)
from .solvers import (NotFoundReport, OrePair, ZeroDivisorCertificate,
                      kernel_dim_sequence, ore_pair, zero_divisor_search)
from .tower import (HaarReport, LevelReport, QuotientMap, QuotientTower,
                    TowerReport, group_quotient_tower, haar_approx_sequence,
                    local_injectivity_check, omega_set, tower_kernel_dims)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "AlgebraError", "BoundaryData", "DimensionEstimate",
    "ExhaustionReport", "FolnerCertificate", "FusionRing", "HaarReport",
    "InvalidLabelError", "LevelReport", "MatrixOverPol", "NotFoundReport",
    "OrePair", "PolAlgebra", "ProfileRow", "QQi", "QuotientMap",
    "QuotientTower", "RestrictedOperator", "ScalarMatrix", "SchemaError",
    "TowerReport", "ZeroDivisorCertificate", "algebra_for", "ball",
    "ball_boundary", "boundary_decomposition", "check_axioms", "conjugate_set",
    "conjugation_closure", "dump_element", "element_from_json",
    "element_to_json", "exact_mvn_dim_finite", "folner_search",
    "full_mult_matrix", "group_quotient_tower", "haar_approx_sequence",
    "isoperimetric_profile", "kernel_dim_estimate", "kernel_dim_sequence",
    "load_element", "local_injectivity_check", "matrix_from_json",
    "matrix_to_json", "nullspace_basis", "omega_set", "ore_pair",
    "parse_element", "rank_nullity", "relative_dimension",
    "restricted_mult_matrix", "ring_from_tag", "support",
    "tower_kernel_dims", "verify_certificate", "weighted_size",
    "zero_divisor_search",
]
