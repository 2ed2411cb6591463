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
uniform on the unit circle.  As Phi*_j(1) = conj(Phi_j(1)), carrying
Phi_j(1) and the derivatives of Phi_j and Phi*_j at z = 1 through the
recursion yields |V| and |V'| in O(n) work per trial.  The doubles come
from a counter-based SplitMix64 stream (Steele, Lea and Flood, OOPSLA 2014)
written with numpy's integer ufuncs, so the oracle imports nothing beyond
numpy's core, whose random module alone took longer to import than a small
call takes to sample.  Trial t reads its own window of 2n - 1 doubles of
the stream; each phase is the cosine and sine of an eighth of its angle,
squared three times, which costs far less than a complex exponential.  A
call allocates its arrays once and every batch is written into them, so no
batch asks the system for fresh pages.  The test suite checks this sampler
in distribution against QR-corrected complex Ginibre matrices (Mezzadri,
Notices AMS 2007).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache

import numpy as np

from .moments import DECIMAL_CONTEXT, DECIMAL_PI, MomentOrder, to_decimal
from .specfun import moment_gen_engine

# Trials drawn, reduced and folded into the running mean and variance at a
# time: _MC_BATCH, or fewer above n = 512 so that a batch of about 2n doubles
# per trial stays near _MC_BATCH_DOUBLES (32 MB) and memory is O(batch) at any n.
_MC_BATCH = 4096
_MC_BATCH_DOUBLES = 2 ** 22
# Words of the stream mixed at a time: a chunk's counters, its mixed words
# and the part of the window they fill stay in cache through the dozen
# passes of the mix, where a whole batch's words would not.  A full batch at
# n <= 4 is one chunk.
_STREAM_CHUNK = 2 ** 15
# SplitMix64's increment.
_GAMMA = 0x9E3779B97F4A7C15
# Largest matrix size quad_moment_integral accepts.  At the default tol 1e-8
# its relative error on the k <= 4, |zeta| <= 30 grid is at most 1.4e-6 at
# n = 4 and 2.9e-5 at n = 5, but 8e-2 at n = 6, where values near 1e-10
# already meet an absolute tol and the comparison shows nothing.
QUAD_N_MAX = 5
# Nodes one trapezoid level may hold.
_QUAD_MAX_NODES = 2 ** 15
# The spacing of doubles at 1, np.finfo(float).eps.
_EPS = 2.0 ** -52


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


def _mix(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on the uint64 array z, in place; t is scratch of z's shape."""
    np.bitwise_xor(z, np.right_shift(z, np.uint64(30), out=t), out=z)
    np.multiply(z, np.uint64(0xBF58476D1CE4E5B9), out=z)
    np.bitwise_xor(z, np.right_shift(z, np.uint64(27), out=t), out=z)
    np.multiply(z, np.uint64(0x94D049BB133111EB), out=z)
    return np.bitwise_xor(z, np.right_shift(z, np.uint64(31), out=t), out=z)


class _SplitMix64:
    """The SplitMix64 stream of a seed in [0, 2^64).

    Word i is mix(key + (i + 1) gamma mod 2^64), as in Vigna's splitmix64.c,
    with gamma = 0x9E3779B97F4A7C15 and key the first output of state
    ``seed``, so neighbouring seeds do not share a shifted stream.  Its
    double i is (word i >> 11) 2^-53 in [0, 1), as numpy's generators form
    their doubles.  Any window is read without the words before it.  The
    uint64 scratch of one chunk, at most ``size`` words, is allocated once
    and reused by every read.
    """

    def __init__(self, seed: int, size: int) -> None:
        chunk = min(size, _STREAM_CHUNK)
        # Every integer operand is a numpy uint64, and every sum of them that
        # may pass 2^64 is an array or is formed in Python ints mod 2^64:
        # array arithmetic wraps silently, while a numpy scalar that overflows warns.
        self._steps = np.multiply(np.arange(chunk, dtype=np.uint64), np.uint64(_GAMMA))
        self._z = np.empty(chunk, np.uint64)
        self._key = int(_mix(np.array([(seed + _GAMMA) % 2 ** 64], np.uint64), np.empty(1, np.uint64))[0])

    def fill(self, start: int, out: np.ndarray) -> None:
        """Write word i >> 11 for i = start, ..., start + out.size - 1 into the flat float64 array out.

        These are the stream's doubles times 2^53: the reader scales them by
        2^-53 in its first pass over them, which is exact, and saves a pass here.
        """
        chunk = len(self._z)
        for offset in range(0, out.size, chunk):
            size = min(chunk, out.size - offset)
            z, part = self._z[:size], out[offset : offset + size]
            # key + (i + 1) gamma for the chunk's first word i.
            first = np.uint64((self._key + (start + offset + 1) * _GAMMA) % 2 ** 64)
            np.add(self._steps[:size], first, out=z)
            # The part of out this chunk fills is the mix's scratch until then.
            np.right_shift(_mix(z, part.view(np.uint64)), np.uint64(11), out=z)
            # Below 2^53 the words convert exactly, and faster as int64.
            part[...] = z.view(np.int64)


def _verblunsky_batches(n: int, seed: int, trials: int, batch: int) -> Iterator[np.ndarray]:
    """Verblunsky coefficients of trials 0, ..., trials - 1, ``batch`` at a time, shape (count, n).

    Trial t takes doubles t(2n - 1), ..., (t + 1)(2n - 1) - 1 of the
    SplitMix64 stream of ``seed``: n - 1 for the moduli, then n for the
    phases, no padding.  So each trial's coefficients depend on (seed, t)
    alone, whatever the batch.  The phase e^(i theta) is
    (cos + i sin)(theta/8) squared three times: on [0, pi/4) ``np.sin`` is
    fast and the cosine is sqrt(1 - sin^2) without cancellation.  That costs
    about a quarter of a complex exponential and stays within 2e-15 of it;
    |alpha_(n-1)| is 1 within 2e-15.

    The stream window and its uint64 scratch, the coefficients and one row
    of scratch per coefficient are allocated once, and every batch is
    written into them.
    Each yielded array is a view that the next batch overwrites.  It is
    Fortran-ordered, so each coefficient's column is contiguous for
    :func:`_szego_at_one`.
    """
    width = 2 * n - 1
    stream = _SplitMix64(seed, batch * width)
    draws = np.empty((batch, width))
    # Flat, so that a short last batch is contiguous too: numpy squares a
    # strided complex array in another loop, which rounds differently.
    alpha = np.empty(n * batch, complex)
    # theta / 8, then 1 - sin^2, then the moduli.
    scratch = np.empty(n * batch)
    # |alpha_j|^2 ~ Beta(1, m) with m = n - j - 1, by inverting its CDF 1 - (1 - x)^m.
    m = np.arange(n - 1, 0, -1.0)[:, None]
    for start in range(0, trials, batch):
        count = min(batch, trials - start)
        stream.fill(start * width, draws[:count].reshape(-1))
        u = draws[:count].T
        a, part = alpha[: n * count].reshape(n, count), scratch[: n * count].reshape(n, count)
        # u is the stream's doubles times 2^53; scaling by a power of 2 is
        # exact, so each product below equals that of the double bit for bit.
        np.multiply(u[n - 1 :], math.pi / 4 * 2.0 ** -53, out=part)
        np.sin(part, out=a.imag)
        np.subtract(1.0, np.square(a.imag, out=part), out=part)
        np.sqrt(part, out=a.real)
        for _ in range(3):
            np.square(a, out=a)
        radius = part[: n - 1]
        np.log1p(np.multiply(u[: n - 1], -(2.0 ** -53), out=radius), out=radius)
        np.sqrt(np.negative(np.expm1(np.divide(radius, m, out=radius), out=radius), out=radius), out=radius)
        np.multiply(a.real[: n - 1], radius, out=a.real[: n - 1])
        np.multiply(a.imag[: n - 1], radius, out=a.imag[: n - 1])
        yield a.T


def _szego_at_one(alpha: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|V| and |V'| for Verblunsky coefficients along the last axis of alpha.

    Runs Szegő's recursion Phi_{j+1}(z) = z Phi_j(z) - conj(alpha_j) Phi*_j(z),
    Phi*_{j+1}(z) = Phi*_j(z) - alpha_j z Phi_j(z), and its derivative, at
    z = 1.  There Phi*_j(1) = conj(Phi_j(1)), so the recursion carries three
    arrays, Phi_j(1), Phi_j'(1) and Phi*_j'(1), updated in place in ``work``:
    a complex array of shape (5,) + alpha.shape[:-1].
    With eigenphases theta, Phi_n'(1) / Phi_n(1) is
    sum 1 / (1 - e^(i theta)) = n/2 + (i/2) sum cot(theta/2), so
    |V| = |Phi_n(1)| and |V'| = |V| |Im(Phi_n'(1) / Phi_n(1))|.  A zero of
    Phi_n at exactly z = 1 makes |V'| non-finite.
    """
    phi, dphi, drev, lead, prod = (work[i, ...] for i in range(5))
    phi.fill(1.0)
    dphi.fill(0.0)
    drev.fill(0.0)
    for j in range(alpha.shape[-1]):
        a = alpha[..., j]
        np.add(phi, dphi, out=lead)
        # Once lead holds Phi_j + Phi_j', dphi is free to hold conj(alpha_j).
        # Never out= an input of a complex product: on one-element arrays numpy
        # then takes another loop, which rounds differently.
        np.subtract(lead, np.multiply(np.conjugate(a, out=dphi), drev, out=prod), out=dphi)
        np.subtract(drev, np.multiply(a, lead, out=prod), out=drev)
        # conj(alpha_j) Phi*_j(1) = conj(alpha_j Phi_j(1)) bit for bit.
        np.subtract(phi, np.conjugate(np.multiply(a, phi, out=prod), out=prod), out=phi)
    abs_v = np.abs(phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        abs_vp = abs_v * np.abs(np.divide(dphi, phi, out=lead).imag)
    return abs_v, abs_vp


def _fold(stats: tuple[int, float, float], block: np.ndarray) -> tuple[int, float, float]:
    # Merge a block into (count, mean, centred sum of squares); Chan, Golub
    # and LeVeque's pairwise update.  The first block has no cross term: with
    # count 0 it would be inf * 0 = nan once delta * delta overflows.
    count, mean, m2 = stats
    size = block.size
    block_mean = float(block.mean())
    total = count + size
    delta = block_mean - mean
    block_m2 = float(np.square(block - block_mean).sum())
    cross = delta * delta * count * size / total if count else 0.0
    return total, mean + delta * size / total, m2 + block_m2 + cross


def mc_moment(n: int, two_h: int, k: int, trials: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the joint moment of order (two_h, k) at size n.

    Averages |V|^(2k - two_h) |V'|^two_h over ``trials`` independent CUE
    samples, each drawn as Verblunsky coefficients and reduced by Szegő's
    recursion at z = 1, max(1, min(4096, 2^21 // n)) trials at a time, so
    one batch's stream window holds about 2^22 doubles at any n, and all its
    arrays about 2.5 times that.  The stream window, the coefficients and the
    recursion's arrays are allocated once per call and reused by every
    batch.  Trial t reads a fixed window of 2n - 1 doubles of the
    counter-based SplitMix64 stream of ``seed`` (an integer in [0, 2^64)), so
    the estimate is bit-identical for fixed (seed, trials).
    Non-finite samples are left out of the mean and standard error and
    counted in ``redraws``; fewer than two finite samples, or a mean or
    standard error that overflows the float range, raise ArithmeticError.
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
    work = np.empty((5, batch), complex)
    stats = (0, 0.0, 0.0)
    for alpha in _verblunsky_batches(n, seed, trials, batch):
        abs_v, abs_vp = _szego_at_one(alpha, work[:, : len(alpha)])
        with np.errstate(over="ignore", invalid="ignore"):
            values = abs_v ** a * abs_vp ** two_h
            finite = np.isfinite(values)
            if not finite.all():
                values = values[finite]
            if values.size:
                stats = _fold(stats, values)
    count, mean, m2 = stats
    if count < 2:
        raise ArithmeticError(f"only {count} of {trials} Monte Carlo samples are finite")
    stderr = math.sqrt(m2 / (count - 1) / count)
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise ArithmeticError(f"Monte Carlo mean {mean:.3g} or stderr {stderr:.3g} overflows the float range")
    return MCEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed, redraws=trials - count)


@cache
def _quad_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index arrays of size n: the Hankel index i + j, the same index of every cofactor minor, the powers.

    Entry (i, j) of the second is the (n-1) x (n-1) Hankel index with row i
    and column j left out, so one fancy index of the moments yields the
    stack of all n^2 minors.  The third is 0..2n-2 as a column.
    """
    kept = np.array([np.delete(np.arange(n), i) for i in range(n)])
    arrays = (np.add.outer(np.arange(n), np.arange(n)), kept[:, None, :, None] + kept[None, :, None, :],
              np.arange(2 * n - 1)[:, None])
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _moment_sums(k: int, n: int, z: float, c: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Sums over the nodes t of the integrands of M_0..M_(2n-2) on
    # x(t) = sinh t + i c cosh t, and of their moduli times their relative
    # rounding error over eps, about 16 + 2(n+k)(1 + |t|) + z|x|: the power
    # of 1 + x^2 (log about 2|t|), exp(i z x), the other products and the sum.
    sinh, cosh = np.sinh(t), np.cosh(t)
    x = sinh + 1j * c * cosh
    dx = cosh + 1j * c * sinh
    f = (1 + x * x) ** -(n + k) * np.exp(1j * z * x) * dx * x ** _quad_indices(n)[2]
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
    still above tol at the node cap raises QuadratureError.  A level takes
    the Hankel matrix and the stack of its n^2 cofactor minors each by one
    fancy index of the moments, from index arrays formed once per n.
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
    hankel, minor_index, _ = _quad_indices(n)
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
        error = np.abs(sums - previous) + 3 * tail + _EPS * weights
        minors = np.linalg.det(sums[minor_index])
        bound = math.factorial(n) * float((np.abs(minors) * error[hankel]).sum())
        if bound <= tol:
            return math.factorial(n) * float(np.linalg.det(sums[hankel]).real)
    raise QuadratureError(
        f"quadrature error bound {bound:.3g} exceeds tol {tol:.3g} at the cap of {_QUAD_MAX_NODES} trapezoid nodes"
    )


def closed_form_moment_integral(k: int, zeta: float, n: int) -> float:
    """The same integral reconstituted from the exact reduced polynomial.

    The reduced polynomial is :func:`~cue_moments.specfun.moment_gen_engine`
    at the exact rational |zeta|: the zeroth moment times sum_p c_p |zeta|^p
    over the production engine's coefficients, the ones every exact moment
    uses.  Its product with pi^n n! 2^(-(n+2k-1)n) e^(-n|zeta|) starts from
    :func:`~cue_moments.moments.to_decimal`'s quotient of it and is formed in
    the same 40-digit context, where nothing overflows or underflows, and
    rounded to a float once.
    """
    if not math.isfinite(zeta):
        raise ValueError(f"zeta must be finite, got {zeta}")
    z = abs(zeta)
    exact = moment_gen_engine(k, n, Fraction(z))
    with localcontext(DECIMAL_CONTEXT):
        return float(to_decimal(exact) * DECIMAL_PI ** n * math.factorial(n)
                     * (-n * Decimal(z)).exp() / Decimal(2) ** ((n + 2 * k - 1) * n))
