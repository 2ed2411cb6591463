"""Exact joint moments of CUE characteristic polynomials and their derivatives.

The package computes the circular-unitary-ensemble averages of
|V|^(2k - two_h) |V'|^two_h exactly for integer and half-integer h
(carried as two_h = 2h), their scaled large-size limits, and checks every
result by independent routes: exact polynomial identities, direct
quadrature of the defining integral, and Monte Carlo over Haar-random
unitaries.

The top level exports the user API.  Oracles (partition sums,
reduced-polynomial routes, closed forms) are imported from their own
modules; the kernels of the identity suites are private to
:mod:`cue_moments.verification`.
"""

from .coefficients import coeff_vector
from .moments import (
    ExactScalar,
    LimitResult,
    MomentOrder,
    exact_moment,
    keating_snaith,
    limit_moment_half_h,
    limit_moment_zero,
    moment_half_h,
    moment_integer_h,
)
from .oracles import MCEstimate, closed_form_moment_integral, mc_moment, quad_moment_integral
from .verification import CheckResult, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ExactScalar",
    "LimitResult",
    "MCEstimate",
    "MomentOrder",
    "closed_form_moment_integral",
    "coeff_vector",
    "exact_moment",
    "keating_snaith",
    "limit_moment_half_h",
    "limit_moment_zero",
    "mc_moment",
    "moment_half_h",
    "moment_integer_h",
    "quad_moment_integral",
    "run_all_checks",
]
