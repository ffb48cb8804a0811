"""Measure algebras on commutative hypergroups.

Convolution of finitely supported complex measures, the module action of
continuous functions, moment function sequences of higher rank and the
derivation families they induce, and the Fourier-Laplace transform with its
Taylor reconstruction.
"""

from .config import Tolerance, default_tolerance, set_default_tolerance
from .errors import (
    DecompositionError,
    DomainError,
    HypermomentError,
    PreconditionError,
    SpecError,
)
from .fourier import (
    TransformEval,
    TransformPoly,
    derivative_moments,
    fourier_derivative_identity,
    hat_derivation,
    p_to_monomial,
    poly_residual,
    taylor_reconstruct,
    transform,
    transform_derivatives,
    transform_eval,
    verify_fourier_leibniz,
    verify_transform_multiplicativity,
)
from .hypergroups import (
    FiniteHypergroup,
    Hypergroup,
    PolynomialHypergroup,
    RealLineHypergroup,
    check_axioms,
    chebyshev,
    enumerate_exponentials,
    exponential_function,
    legendre,
    real_line,
    two_point,
)
from .measures import (
    CFunction,
    Measure,
    as_literal,
    convolve,
    dirac,
    measure_residual,
    module_action,
    pair,
)
from .moments import (
    AffineSolutionSet,
    DerivationFamily,
    MomentSequence,
    derivation_from_moments,
    extend_moment_sequence,
    indices_up_to,
    is_multiplicative_hom,
    iterated_extension,
    lower_indices,
    moments_from_derivation,
    multi_binomial,
    poly_derivative_moments,
    rank_lift,
    realline_moments,
    verify_d0_derivation,
    verify_leibniz,
    verify_moment_sequence,
)
from .operators import (
    MeasureOperator,
    identity_operator,
    is_exponential,
    is_module_hom,
    make_module_hom,
    symbol_of,
    zero_operator,
)
from .reports import CheckRecord, Report

__version__ = "0.1.0"


def convolve_points(hg: Hypergroup, x, y) -> Measure:
    """Convolution of the point masses at x and y."""
    return hg.convolve_points(x, y)


def linearization(hg: PolynomialHypergroup, m: int, n: int):
    """Coefficients of P_m * P_n in the P-basis."""
    return hg.linearization(m, n)


def eval_poly_derivative(hg: PolynomialHypergroup, n: int, z: complex, k: int) -> complex:
    """P_n^(k)(z)."""
    return hg.eval_poly_derivative(n, z, k)
