"""Numerical ground truth, independent of the exact formulas.

Two oracles live here: a Monte Carlo estimator of the joint moments over
the circular unitary ensemble, and a direct adaptive quadrature of the
defining Fourier-weighted moment integral at matrix sizes 1 and 2.  Neither
touches the partition machinery, so agreement with the exact modules is a
real cross-check rather than a tautology.

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
# time, so memory stays O(batch).
_MC_BATCH = 4096
# Simpson panels the quadrature starts from, before adaptive subdivision.
_QUAD_PANELS = 4
_QUAD_MAX_DEPTH = 48
_QUAD_MAX_EVALS = 20_000_000


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within its subdivision budget."""


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
    recursion at z = 1, 4096 trials at a time.  Trial t reads a fixed window
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
    stats = (0, 0.0, 0.0)
    for start in range(0, trials, _MC_BATCH):
        abs_v, abs_vp = _szego_at_one(_draw_verblunsky(n, seed, start, min(_MC_BATCH, trials - start)))
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


def _adaptive_simpson(f, a: float, b: float, tol: float, budget: list[int]) -> float:
    # Budget is a single-element list so recursion can decrement it in place.
    # Starting from a few equal panels, each with its share of tol, keeps one
    # symmetric integrand from passing the convergence test on the whole
    # interval by accident (x^2 cos(0) weights vanish at -pi/2, 0 and pi/2).
    xs = [a + (b - a) * i / (2 * _QUAD_PANELS) for i in range(2 * _QUAD_PANELS)] + [b]
    fs = [f(x) for x in xs]
    budget[0] -= len(xs)
    total = 0.0
    for i in range(0, 2 * _QUAD_PANELS, 2):
        lo, hi = xs[i], xs[i + 2]
        whole = (hi - lo) / 6.0 * (fs[i] + 4.0 * fs[i + 1] + fs[i + 2])
        total += _simpson_rec(
            f, lo, hi, fs[i], fs[i + 1], fs[i + 2], whole, tol / _QUAD_PANELS, budget, depth=0
        )
    return total


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, budget, depth) -> float:
    if budget[0] <= 0:
        raise QuadratureError("subdivision budget exhausted before reaching tolerance")
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm = f(lm)
    frm = f(rm)
    budget[0] -= 2
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        # Richardson extrapolation of the two Simpson estimates.
        return left + right + delta / 15.0
    if depth >= _QUAD_MAX_DEPTH:
        raise QuadratureError(
            f"subdivision depth cap {_QUAD_MAX_DEPTH} hit on [{a!r}, {b!r}] before reaching "
            "tolerance (the evaluation budget was not exhausted)"
        )
    return _simpson_rec(f, a, mid, fa, flm, fm, left, tol / 2.0, budget, depth + 1) + _simpson_rec(
        f, mid, b, fm, frm, fb, right, tol / 2.0, budget, depth + 1
    )


def _weight_integral(k: int, n: int, zeta: float, moment: int, kind: str, tol: float, budget) -> float:
    # 1-d integral of x^moment {cos|sin}(zeta x) / (1 + x^2)^(n + k) after
    # the substitution x = tan(u), which maps the line to (-pi/2, pi/2) and
    # turns the weight into cos(u)^(2n + 2k - 2 - moment) damping.
    exponent = 2 * (n + k) - 2
    osc = math.cos if kind == "cos" else math.sin
    def f(u: float) -> float:
        c = math.cos(u)
        if c == 0.0:
            return 0.0
        x = math.tan(u)
        return x ** moment * osc(zeta * x) * c ** exponent
    return _adaptive_simpson(f, -math.pi / 2.0, math.pi / 2.0, tol, budget)


def quad_moment_integral(k: int, zeta: float, n: int, tol: float) -> float:
    """Direct quadrature of the defining moment integral at matrix size 1 or 2.

    Integrates prod_j e^(i zeta x_j) (1 + x_j^2)^(-(n+k)) times the squared
    Vandermonde over the real line per coordinate (the imaginary part
    vanishes by symmetry).  For n = 2 the squared Vandermonde
    (x2 - x1)^2 = x1^2 - 2 x1 x2 + x2^2 splits the double integral into
    products of one-dimensional integrals of x^m cos/sin(zeta x) against the
    weight.  Raises QuadratureError when the budget of 20 million
    evaluations runs out or a panel still has not converged at the
    subdivision depth cap.
    """
    if n not in (1, 2):
        raise ValueError(f"direct quadrature supports n in {{1, 2}}, got {n}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not math.isfinite(zeta):
        raise ValueError(f"zeta must be finite, got {zeta}")
    budget = [_QUAD_MAX_EVALS]
    if n == 1:
        return _weight_integral(k, 1, zeta, 0, "cos", tol, budget)
    # Sub-integral errors enter through two products; tol/32 per piece keeps
    # the combined error comfortably below tol for these bounded factors.
    piece_tol = tol / 32.0
    even = _weight_integral(k, 2, zeta, 0, "cos", piece_tol, budget)
    odd = _weight_integral(k, 2, zeta, 1, "sin", piece_tol, budget)
    square = _weight_integral(k, 2, zeta, 2, "cos", piece_tol, budget)
    return 2.0 * (even * square + odd * odd)


def closed_form_moment_integral(k: int, zeta: float, n: int) -> float:
    """The same integral reconstituted from the exact reduced polynomial.

    The reduced polynomial is keating_snaith(n, k) sum_p c_p |zeta|^p with
    the coefficients c_p of the production engine
    :func:`~cue_moments.coefficients.coeff_vector`, the ones every exact
    moment uses.  It is multiplied by its transcendental prefactor
    pi^n n! 2^(-(n+2k-1)n) e^(-n|zeta|) in floating point.
    """
    if k < 1 or n < 1:
        raise ValueError(f"need k >= 1 and n >= 1, got {(k, n)}")
    z = abs(zeta)
    exact_z, series = Fraction(z), Fraction(0)
    for c in reversed(coeff_vector(k, n, k * n)):
        series = series * exact_z + c
    reduced = keating_snaith(n, k) * series
    prefactor = (
        math.pi ** n
        * math.factorial(n)
        * 2.0 ** (-(n + 2 * k - 1) * n)
        * math.exp(-n * z)
    )
    return prefactor * float(reduced)
