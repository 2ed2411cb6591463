"""Numerical ground truth, independent of the exact formulas.

Two oracles live here: a Monte Carlo estimator of the joint moments over
the circular unitary ensemble, and a direct quadrature of the defining
Fourier-weighted moment integral at matrix sizes up to QUAD_N_MAX.  By
Andréief's identity that n-fold integral is n! times a Hankel determinant of
one-dimensional moments, which one trapezoid rule along a contour in the
upper half plane computes together, with an error bound that ``tol`` caps.
Neither touches the partition machinery, so agreement with the exact
modules is a real cross-check rather than a tautology.

The Monte Carlo oracle builds no matrix.  By Killip and Nenciu (IMRN 2004)
the characteristic polynomial of an n x n Haar unitary has the law of the
degree-n polynomial Phi_n of Szegő's recursion driven by independent
Verblunsky coefficients alpha_0, ..., alpha_{n-1}: for j < n - 1,
|alpha_j|^2 ~ Beta(1, n - j - 1) with a uniform phase, and alpha_{n-1} is
uniform on the unit circle.  Carrying Phi_j, its reversal Phi*_j and both
derivatives at z = 1 through the recursion yields |V| and |V'| in O(n) work
per trial.  The test suite checks this sampler in distribution against
QR-corrected complex Ginibre matrices (Mezzadri, Notices AMS 2007).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coefficients import coeff_vector
from .moments import MomentOrder, keating_snaith

# Trials drawn, reduced and folded into the running mean and variance at a
# time: _MC_BATCH, or fewer above n = 512 so that a batch of about 2n doubles
# per trial stays near _MC_BATCH_DOUBLES (32 MB) and memory is O(batch) at any n.
_MC_BATCH = 4096
_MC_BATCH_DOUBLES = 2 ** 22
# Largest matrix size quad_moment_integral accepts.  At the default tol 1e-8
# its relative error on the k <= 4, |zeta| <= 30 grid is at most 1.4e-6 at
# n = 4 and 2.9e-5 at n = 5, but 8e-2 at n = 6, where values near 1e-10
# already meet an absolute tol and the comparison shows nothing.
QUAD_N_MAX = 5
# Nodes one trapezoid level may hold.
_QUAD_MAX_NODES = 2 ** 15


class QuadratureError(RuntimeError):
    """The quadrature could not bring its error bound under tol within its node cap."""


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo sample mean with standard error and reproducibility data.

    ``redraws`` counts the non-finite samples (a characteristic polynomial
    vanishing at exactly z = 1) left out of ``mean`` and ``stderr``.
    """

    mean: float
    stderr: float
    trials: int
    seed: int
    redraws: int = 0


def _draw_verblunsky(n: int, seed: int, start: int, count: int) -> np.ndarray:
    """Verblunsky coefficients of trials start, ..., start + count - 1, shape (count, n).

    Trial t owns a fixed window of 4 * ceil((2n - 1) / 4) doubles in the
    Philox stream keyed by ``seed``: n - 1 for the moduli, n for the phases,
    the rest padding.  A Philox counter step yields four doubles, so the
    batch reaches its first window with one ``advance`` and each trial's
    draws depend on (seed, t) alone.
    """
    width = 4 * -(-(2 * n - 1) // 4)
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start * width // 4)
    u = np.random.Generator(bitgen).random((count, width))
    # |alpha_j|^2 ~ Beta(1, m) with m = n - j - 1, by inverting its CDF 1 - (1 - x)^m.
    m = np.arange(n - 1, 0, -1)
    radius = np.sqrt(-np.expm1(np.log1p(-u[:, : n - 1]) / m))
    alpha = np.exp(2j * math.pi * u[:, n - 1 : 2 * n - 1])
    alpha[:, : n - 1] *= radius
    return alpha


def _szego_at_one(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|V| and |V'| for Verblunsky coefficients along the last axis of alpha.

    Runs Szegő's recursion Phi_{j+1}(z) = z Phi_j(z) - conj(alpha_j) Phi*_j(z),
    Phi*_{j+1}(z) = Phi*_j(z) - alpha_j z Phi_j(z), and its derivative, at
    z = 1.  With eigenphases theta, Phi_n'(1) / Phi_n(1) is
    sum 1 / (1 - e^(i theta)) = n/2 + (i/2) sum cot(theta/2), so
    |V| = |Phi_n(1)| and |V'| = |V| |Im(Phi_n'(1) / Phi_n(1))|.  A zero of
    Phi_n at exactly z = 1 makes |V'| non-finite.
    """
    shape = alpha.shape[:-1]
    phi, rev = np.ones(shape, complex), np.ones(shape, complex)
    dphi, drev = np.zeros(shape, complex), np.zeros(shape, complex)
    for j in range(alpha.shape[-1]):
        a = alpha[..., j]
        ac = a.conj()
        phi, rev, dphi, drev = (
            phi - ac * rev,
            rev - a * phi,
            phi + dphi - ac * drev,
            drev - a * (phi + dphi),
        )
    abs_v = np.abs(phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        abs_vp = abs_v * np.abs((dphi / phi).imag)
    return abs_v, abs_vp


def _fold(stats: tuple[int, float, float], block: np.ndarray) -> tuple[int, float, float]:
    # Merge a block into (count, mean, centred sum of squares); Chan, Golub
    # and LeVeque's pairwise update.
    count, mean, m2 = stats
    size = block.size
    block_mean = float(block.mean())
    total = count + size
    delta = block_mean - mean
    block_m2 = float(np.square(block - block_mean).sum())
    return total, mean + delta * size / total, m2 + block_m2 + delta * delta * count * size / total


def mc_moment(n: int, two_h: int, k: int, trials: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the joint moment of order (two_h, k) at size n.

    Averages |V|^(2k - two_h) |V'|^two_h over ``trials`` independent CUE
    samples, each drawn as Verblunsky coefficients and reduced by Szegő's
    recursion at z = 1, max(1, min(4096, 2^21 // n)) trials at a time, so
    one batch holds about 2^22 doubles at any n.  Trial t reads a fixed window
    of the Philox stream keyed by ``seed`` (an integer in [0, 2^64)), so the
    estimate is bit-identical for fixed (seed, trials).  Non-finite samples
    are left out of the mean and standard error and counted in ``redraws``;
    fewer than two finite samples raise ArithmeticError.
    """
    order = MomentOrder(two_h, k)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if trials < 2:
        raise ValueError(f"need trials >= 2 for a standard error, got {trials}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    a = 2 * order.k - order.two_h
    batch = max(1, min(_MC_BATCH, _MC_BATCH_DOUBLES // (2 * n)))
    stats = (0, 0.0, 0.0)
    for start in range(0, trials, batch):
        abs_v, abs_vp = _szego_at_one(_draw_verblunsky(n, seed, start, min(batch, trials - start)))
        with np.errstate(over="ignore", invalid="ignore"):
            values = abs_v ** a * abs_vp ** two_h
        values = values[np.isfinite(values)]
        if values.size:
            stats = _fold(stats, values)
    count, mean, m2 = stats
    if count < 2:
        raise ArithmeticError(f"only {count} of {trials} Monte Carlo samples are finite")
    stderr = math.sqrt(m2 / (count - 1) / count)
    return MCEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed, redraws=trials - count)


def _moment_sums(k: int, n: int, z: float, c: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Sums over the nodes t of the integrands of M_0..M_(2n-2) on
    # x(t) = sinh t + i c cosh t, and of their moduli times their relative
    # rounding error over eps, about 16 + 2(n+k)(1 + |t|) + z|x|: the power
    # of 1 + x^2 (log about 2|t|), exp(i z x), the other products and the sum.
    x = np.sinh(t) + 1j * c * np.cosh(t)
    dx = np.cosh(t) + 1j * c * np.sinh(t)
    f = (1 + x * x) ** -(n + k) * np.exp(1j * z * x) * dx * x ** np.arange(2 * n - 1)[:, None]
    rel = 16 + 2 * (n + k) * (1 + np.abs(t)) + z * np.abs(x)
    return f.sum(axis=1), (np.abs(f) * rel).sum(axis=1)


def quad_moment_integral(k: int, zeta: float, n: int, tol: float) -> float:
    """Numerical quadrature of the defining moment integral at matrix size n <= QUAD_N_MAX.

    The integral of prod_j e^(i zeta x_j) (1 + x_j^2)^(-(n+k)) times the
    squared Vandermonde over R^n is n! det[M_(i+j)]_(i,j<n) by Andréief's
    identity, with M_j = int x^j e^(i zeta x) (1 + x^2)^(-(n+k)) dx; as
    M_j(-zeta) = (-1)^j M_j(zeta) keeps the determinant, z = |zeta| is used.
    The trapezoid rule integrates every M_j at once along
    x(t) = sinh t + i c cosh t, t in [-T, T], where the integrand is analytic
    and decays exponentially, so the rule converges exponentially (Trefethen
    and Weideman, SIAM Review 2014).  The height c = min(1/2, z / (2(n + k)))
    is about that of the integrand's saddle, below the pole at i, so by
    Cauchy's theorem the contour gives the real-line integral (the integrand
    is O(|x|^(-2k-2)), so the closing arcs vanish); it damps e^(i z x) by
    e^(-z c cosh t).  The coarsest step, pi / (1 + z) or less, resolves the phase.

    ``tol`` bounds the absolute error of the returned value.  Each M_j's
    error is the difference of the last two levels (h halves until the bound
    holds), plus the tails beyond +-T, from
    |integrand| <= A cosh(t)^-(2k+1) e^(-z c cosh t), plus a rounding floor
    of about eps times the summed moduli of the terms; the determinant
    carries them to first order, |d det| <= sum |cof_ij| |dM_(i+j)|.  A bound
    still above tol at the node cap raises QuadratureError.
    """
    if not 1 <= n <= QUAD_N_MAX:
        raise ValueError(f"direct quadrature supports 1 <= n <= {QUAD_N_MAX}, got {n}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    if not math.isfinite(zeta):
        raise ValueError(f"zeta must be finite, got {zeta}")
    z = abs(zeta)
    c = min(0.5, z / (2 * (n + k)))
    # Both tails together are at most 2 A 2^m e^(-m T - z c cosh T) / m with
    # m = 2k + 1; T in [1, 80] gives them 2^-20 of tol if it can.  At T the
    # powers stay finite: x^(2n-2) below T = 80, and (1 + x^2)^(n+k), about
    # e^(2T(n+k)), below T = 330 / (n + k).
    m = 2 * k + 1
    log_a = (n - 0.5) * math.log1p(c * c) - (n + k) * math.log1p(-c * c) + m * math.log(2)
    T = min(max((log_a + math.log(2 / m) - math.log(tol) + 20 * math.log(2)) / m, 1.0), 80.0, 330 / (n + k))
    tail = 2 * math.exp(log_a - m * T - z * c * math.cosh(T)) / m
    hankel = np.add.outer(np.arange(n), np.arange(n))
    off = ~np.eye(n, dtype=bool)
    h = 2.0 ** -max(1, math.ceil(math.log2((1 + z) / math.pi)))
    half = math.ceil(min(T / h, _QUAD_MAX_NODES))  # nodes on each side of t = 0
    bound = math.inf
    if 4 * half + 1 <= _QUAD_MAX_NODES:
        sums, weights = _moment_sums(k, n, z, c, h * np.arange(-half, half + 1))
        sums, weights = h * sums, h * weights
    while 4 * half + 1 <= _QUAD_MAX_NODES:
        h, half = h / 2, 2 * half
        fresh, fresh_weights = _moment_sums(k, n, z, c, h * np.arange(1 - half, half, 2))
        previous, sums = sums, sums / 2 + h * fresh
        weights = weights / 2 + h * fresh_weights
        # Each level drops tails of at most `tail`; the one beyond the finer
        # level adds to its error, the two in the level difference to the estimate.
        error = np.abs(sums - previous) + 3 * tail + np.finfo(float).eps * weights
        matrix = sums[hankel]
        minors = np.linalg.det(np.array([[matrix[off[i]][:, off[j]] for j in range(n)] for i in range(n)]))
        bound = math.factorial(n) * float((np.abs(minors) * error[hankel]).sum())
        if bound <= tol:
            return math.factorial(n) * float(np.linalg.det(matrix).real)
    raise QuadratureError(
        f"quadrature error bound {bound:.3g} exceeds tol {tol:.3g} at the cap of {_QUAD_MAX_NODES} trapezoid nodes"
    )


def closed_form_moment_integral(k: int, zeta: float, n: int) -> float:
    """The same integral reconstituted from the exact reduced polynomial.

    The reduced polynomial is keating_snaith(n, k) sum_p c_p |zeta|^p with
    the coefficients c_p of the production engine
    :func:`~cue_moments.coefficients.coeff_vector`, the ones every exact
    moment uses.  So that neither the exact polynomial nor its prefactor
    pi^n n! 2^(-(n+2k-1)n) e^(-n|zeta|) can overflow or underflow before the
    product does, the polynomial becomes a float only as a mantissa in
    [1/2, 2), and its binary exponent, the power of two in the prefactor and
    any power of two split off e^(-n|zeta|) to keep it a normal float are
    applied last.  Scaling by a power of two commutes with rounding, so the
    value equals the plain float product wherever every factor is normal.
    """
    if k < 1 or n < 1:
        raise ValueError(f"need k >= 1 and n >= 1, got {(k, n)}")
    z = abs(zeta)
    exact_z, series = Fraction(z), Fraction(0)
    for c in reversed(coeff_vector(k, n, k * n)):
        series = series * exact_z + c
    exact = keating_snaith(n, k) * series
    e = exact.numerator.bit_length() - exact.denominator.bit_length()
    mantissa = float(exact * Fraction(2) ** -e)
    # e^-x = 2^-j e^-(x - j ln 2), j > 0 only if e^-x < 2^-1022; the min keeps
    # exp finite at huge x, where x - j ln 2 rounds badly and the value is 0.
    x, ln2 = n * z, math.log(2)
    j = max(0, math.ceil(x / ln2) - 1022)
    prefactor = math.pi ** n * math.factorial(n) * math.exp(min(j * ln2 - x, 0.0))
    return math.ldexp(prefactor * mantissa, e - (n + 2 * k - 1) * n - j)
