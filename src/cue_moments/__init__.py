"""Exact joint moments of CUE characteristic polynomials and their derivatives.

The package computes the circular-unitary-ensemble averages of
|V|^(2k - two_h) |V'|^two_h exactly for integer and half-integer h
(carried as two_h = 2h), their scaled large-size limits, and checks every
result by independent routes: exact polynomial identities, direct
quadrature of the defining integral, and Monte Carlo over Haar-random
unitaries.
"""

from .coefficients import (
    alternating_binomial_sum,
    binomial_residual,
    coeff_vector,
    hook_content_sum,
    limit_coeff_vector,
    series_coeff,
    series_coeff_bound,
    series_coeff_closed,
    series_coeff_limit,
    two_row_partition_sum,
)
from .moments import (
    ExactScalar,
    LimitResult,
    MomentOrder,
    half_moment_k1_closed,
    keating_snaith,
    limit_moment_half_h,
    limit_moment_integer_h,
    limit_moment_zero,
    moment_half_h,
    moment_integer_h,
)
from .oracles import (
    MCEstimate,
    QuadratureError,
    closed_form_moment_integral,
    mc_moment,
    quad_moment_integral,
)
from .partitions import Partition, hook_product, partitions_of, pochhammer, transpose
from .specfun import (
    LaguerrePolynomial,
    derivative_coeffs,
    laguerre,
    laguerre_eval,
    moment_gen_hankel,
    moment_gen_series,
    moment_gen_wronskian,
    wronskian_at,
)
from .verification import CheckResult, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ExactScalar",
    "LaguerrePolynomial",
    "LimitResult",
    "MCEstimate",
    "MomentOrder",
    "Partition",
    "QuadratureError",
    "alternating_binomial_sum",
    "binomial_residual",
    "closed_form_moment_integral",
    "coeff_vector",
    "derivative_coeffs",
    "half_moment_k1_closed",
    "hook_content_sum",
    "hook_product",
    "keating_snaith",
    "laguerre",
    "laguerre_eval",
    "limit_coeff_vector",
    "limit_moment_half_h",
    "limit_moment_integer_h",
    "limit_moment_zero",
    "mc_moment",
    "moment_gen_hankel",
    "moment_gen_series",
    "moment_gen_wronskian",
    "moment_half_h",
    "moment_integer_h",
    "partitions_of",
    "pochhammer",
    "quad_moment_integral",
    "run_all_checks",
    "series_coeff",
    "series_coeff_bound",
    "series_coeff_closed",
    "series_coeff_limit",
    "transpose",
    "two_row_partition_sum",
    "wronskian_at",
]
