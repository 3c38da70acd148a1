"""Exact-arithmetic cohomology rings of toric bundles.

Three independent models of the same ring (Stanley-Reisner quotient,
self-dual quotient by mixed-integral intersection numbers, differential
operators modulo the annihilator of the self-intersection polynomial) plus
the polyhedral machinery to cross-validate them.  All arithmetic is exact
rational; every identity check is an equality of fractions.
"""

from toricbundle.bundle import (
    BaseData,
    BundleSpec,
    RingReport,
    cross_validate,
    f_gamma,
    ring_via_diff,
    ring_via_sd,
    ring_via_sr,
    verify_bkk,
)
from toricbundle.exactlin import QMatrix, rref, solve
from toricbundle.galg import (
    GradedAlgebra,
    TopFunctional,
    ann_quotient,
    build_quotient,
    check_poincare,
    frobenius_matrix,
    graded_isomorphic,
    sd_quotient,
)
from toricbundle.integrate import (
    integrate_over_polytope,
    i_f_polynomial,
    mixed_integral,
    triangulate,
    volume,
)
from toricbundle.polyhedral import (
    Fan,
    Polytope,
    VirtualPolytope,
    dual_vertex,
    is_complete,
    is_convex_on,
    is_projective,
    is_smooth,
    polytope_from_support,
    validate_fan,
)
from toricbundle.qpoly import QPolynomial

__version__ = "0.1.0"

# Every elimination runs on the one pure-Python integer kernel,
# ``_kernels.gauss_jordan_int``; reports and the benchmark record this name.
kernel_backend = "python"

__all__ = [
    "BaseData",
    "BundleSpec",
    "Fan",
    "GradedAlgebra",
    "Polytope",
    "QMatrix",
    "QPolynomial",
    "RingReport",
    "TopFunctional",
    "VirtualPolytope",
    "ann_quotient",
    "build_quotient",
    "check_poincare",
    "cross_validate",
    "dual_vertex",
    "f_gamma",
    "frobenius_matrix",
    "graded_isomorphic",
    "i_f_polynomial",
    "integrate_over_polytope",
    "is_complete",
    "is_convex_on",
    "is_projective",
    "is_smooth",
    "kernel_backend",
    "mixed_integral",
    "polytope_from_support",
    "ring_via_diff",
    "ring_via_sd",
    "ring_via_sr",
    "rref",
    "sd_quotient",
    "solve",
    "triangulate",
    "validate_fan",
    "verify_bkk",
    "volume",
    "__version__",
]
