"""Coefficients of the reduced moment polynomial: one exact engine and its oracles.

The reduced moment polynomial of order k at matrix size n, divided by the
zeroth moment, is sum_p c_p zeta^p.  It is the k x k Hankel determinant
det[L^(2k-1)_{n+k-1-i-j}(-2 zeta)], which equals det[f^(i+j)(zeta)] for the
single series f = L^(1)_{n+k-1}(-2 zeta) (up to a constant that cancels in
the ratio); its scaled large-n limit is det[G_{i+j+1}(2 zeta)] with
G_alpha(x) = sum_m x^m / (m! (m + alpha)!), again det[f^(i+j)] for
f = G_1(2 zeta) (Conrey, Rubinstein & Snaith, CMP 2006).

:func:`coeff_numerators` computes these determinants, at size n or, for
n None, in the limit, fraction-free over integer Hurwitz series (entry
j is j! times the coefficient of zeta^j) by Sylvester's identity (the
condensation behind Bareiss elimination, Math. Comp. 1968): with u_j the
j x j Hankel determinant of derivatives of f, signed so that u_j(0) > 0,
u_{j+1} u_{j-1} = u_j'^2 - u_j u_j'' (Desnanot-Jacobi), so k - 1 exact
series divisions give u_k.  Its integer Hurwitz numerators h_0..h_P give
c_p = h_p / (p! h_0); they are what every moment in
:mod:`cue_moments.moments` recombines.  Level j of the condensation, the
j x j minor of det[f^(i+j)], depends on f and j alone: at size n it is
the order-j polynomial at size n + k - j.  So the condensation is keyed
by the series, not by the order: one state per N = n + k - 1, and one
state for the limit, keeps u_0..u_K for the deepest order K asked of
it, and serves every order k <= K from the levels it holds.  It extends
each level only as far as a caller asks, so a longer prefix or a deeper
order costs only its new terms, and a prefix the state already holds is
returned as stored, with no step through f or any level.  Row j of
Pascal's triangle and the weights that entry j of every level uses
depend on j alone; rows below a fixed bound are formed once and shared
by every level of every state, and above it each level steps its own
row and keeps the last one it used.
The limit's f has rational coefficients.  Its state keeps every level
at one integer scale S, the odd part of T!, T = len(f) + (K - 1)^2:
level j holds S times the Hankel determinant of the unscaled f, whose
entry m has a denominator dividing (m + j^2)!, and every stored entry
has m + j^2 <= T.  When f grows or K deepens, every level is multiplied
by the one ratio of the new S to the old, and nothing stored is
recomputed.
:func:`coeff_vector` forms the Fractions c_p on each call.

``series_coeff(p, k, n)`` and ``series_coeff_limit(p, k)`` are the same
coefficients as sums over partitions of p into at most k parts.  They stay
as an independent oracle: the verification suites and the tests compare
the engine against them, and the identities of
:mod:`cue_moments.verification` check them.
n enters a term only through [-n]; the rest of it, the weight w(lam, k),
is formed once per (lam, k) and shared by every n and the limit, from
the hook product that :mod:`cue_moments.partitions` keeps per partition.
Each coefficient is an integer sum reduced to a Fraction once, with its
power of 2 and its sign in the numerator.  No cache here holds a value
derived from the engine.  :func:`clear_denominators` brings Fractions
over their least common denominator for the integer sums of
:mod:`cue_moments.specfun` and :mod:`cue_moments.verification`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, factorial, lcm, perm, prod
from operator import add, mul
from typing import Sequence

from .partitions import Partition, hook_product, partitions_of, pochhammer


# Pascal rows J < _PASCAL_ROWS with their weights, formed once and in order, and
# shared by every level of every state; 128 rows hold about 0.6 MB.
_PASCAL_ROWS = 128
_PASCAL: list[tuple[list[int], list[int]]] = []


def _pascal(j: int, below: list[int]) -> tuple[list[int], list[int]]:
    """Row j of Pascal's triangle, one Pascal step from row j - 1 (``below``), and its weights.

    The weights are w_x = C(j, x) - 2 C(j, x - 1) + C(j, x - 2) for
    x <= (j + 3) // 2, the second difference of the row padded with zeros.
    A row below ``_PASCAL_ROWS`` is formed once and kept in ``_PASCAL``;
    above it, each caller steps its own row.
    """
    if j < len(_PASCAL):
        return _PASCAL[j]
    row = [1, *map(add, below, below[1:]), 1] if j else [1]
    pad = [0, 0, *row, 0, 0]
    entry = row, [pad[x + 2] - 2 * pad[x + 1] + pad[x] for x in range((j + 3) // 2 + 1)]
    if j == len(_PASCAL) < _PASCAL_ROWS:
        _PASCAL.append(entry)
    return entry


def _extend_level(quo: list[int], cur: list[int], prev: list[int], size: int, below: list[int]) -> list[int]:
    """Extend ``quo`` = (cur'^2 - cur cur'') / prev in place to ``size`` coefficients; return the Pascal row it ends on.

    All three are Hurwitz series: entry j is j! times the coefficient of
    zeta^j, so a derivative is a shift, a product is the binomial
    convolution (a b)_j = sum_i C(j, i) a_i b_{j-i}, and the integer series
    form a ring.  The quotient is known to lie in it, so entry j follows
    from quo[:j], cur[:j + 3] and prev[:j + 1] by one integer division by
    prev[0], which must leave no remainder; an entry past the end of cur or
    prev is a zero that is not stored, so a constant prev (level 0, the
    divisor of level 2) adds no convolution term.  Row j of Pascal's
    triangle and its weights depend on j alone: :func:`_pascal` reads them
    from the shared table, or steps them past its bound from row j - 1.
    The caller keeps the returned row, row len(quo) - 1, and passes it
    back as ``below`` when it resumes; a row of another length (a call cut
    short between an entry and the row's return) is formed again.
    """
    j = len(quo)
    if j >= size:
        return below
    row = below if len(below) == j else [comb(j - 1, i) for i in range(j)]
    # prev's tail, sliced once: entry i >= 1 meets quo[j - i], and map stops at
    # the shorter of row[1:] and tail.  A constant prev (level 0) has none.
    lead, tail = prev[0], prev[1:]
    while True:
        row, w = _pascal(j, row)
        # cur_x cur_y over x + y = j + 2, each unordered pair {x, y} once; its
        # weight in cur cur'' - cur'^2 is w_x; only pairs inside the entries cur holds
        s, h = j + 2, (j + 3) // 2
        lo = max(s + 1 - len(cur), 0)
        num = sum(map(mul, cur[lo:h], map(mul, w[lo:h], cur[s - lo : s - h : -1])))
        if s % 2 == 0 and h < len(cur):
            num += w[h] // 2 * cur[h] ** 2
        if tail:
            num += sum(map(mul, map(mul, row[1:], tail), reversed(quo)))
        q, r = divmod(-num, lead)
        if r:
            raise ArithmeticError("inexact quotient in the Hankel condensation")
        quo.append(q)
        j += 1
        if j == size:
            return row


class _Condensation:
    """The Hankel determinants u_0..u_K of one integer Hurwitz series f, kept between calls.

    u_j = (-1)^(j(j-1)/2) det[f^(a+b)]_{a,b<j}, so u_0 = 1, u_1 = f and,
    by Desnanot-Jacobi, u_{j+1} u_{j-1} = u_j'^2 - u_j u_j''.  The sign
    makes u_j(0) > 0 (the tests check it for j <= 16); the divisors u_j(0)
    are zeroth moments of order j up to a constant, so never zero.  u_j
    depends on f and j alone, so one state serves every order k: level k
    is the numerator vector of order k, and K, the deepest level held,
    grows with the deepest k asked.  Level j is extended only as far as a
    caller asks: u_k to P + 1 terms needs u_j to P + 2(k - j) + 1.

    For N an int, f is L^(1)_N(-2 zeta), with the integer Hurwitz
    coefficients C(N + 1, j + 1) 2^j, and level k is the order-k
    polynomial at size n = N + 1 - k.  u_j has degree j(N + 1 - j), so
    level j stops at j(N + 1 - j) + 1 entries, f at N + 1: every entry past
    the degree is zero and is not stored, and the cap depends on N and j
    alone, whichever order asks.

    For N None, f is G_1(2 zeta), whose coefficients 2^j / (j + 1)! are
    rational.  The state scales f by S, the odd part of T!,
    T = len(f) + (K - 1)^2, and stores level 0 as [S] and level j >= 1 as
    v_j = u_j / S^(j-1), u_j of the scaled f.  u_j is homogeneous of
    degree j in f, so every v_j is S times the u_j of the unscaled f, and
    v_{j+1} v_{j-1} = v_j'^2 - v_j v_j'' keeps the form above.  Every v_j
    is integer: by Leibniz, entry m of the unscaled u_j is a sum of
    multinomials C(m; i_1..i_j) times products of j entries of f's
    derivatives, each 2^(x-1) / x! with x = i + a + b + 1, and the j values
    of x sum to m + j^2.  So the odd part of the denominator divides that
    of (m + j^2)!, and v2(x!) <= x - 1 cancels its powers of 2.  A request
    (k, P) stores entries m <= P + 2(k - j) at level j and makes
    len(f) >= P + 2k - 1, so m + j^2 <= len(f) + (j - 1)^2 <= T, and
    neither len(f) nor K ever shrinks.  With one less than (k - 1)^2 of
    headroom, a single order leaves remainders (at (k, P) = (4, 4), for
    one), which _extend_level's exact division reports.  K, not the order
    asked, sets the headroom: a shallow request that grows f would
    otherwise lower T, and S with it, under the deeper levels.  Growing f
    or deepening K multiplies every level by the same integer ratio r of
    the new S to the old, and no entry is recomputed.
    """

    def __init__(self, N: int | None) -> None:
        self.N = N
        self.levels: list[list[int]] = [[1], []]
        # Level j's last Pascal row, row len(levels[j]) - 1, for _extend_level to resume from
        self.rows: list[list[int]] = [[], []]

    def numerators(self, k: int, P: int) -> list[int]:
        """u_k to P + 1 terms or to its degree: the stored level, which later calls extend (and, for N None, rescale).

        A state that already holds P + 1 entries of u_k, or for N an int
        all k(N + 1 - k) + 1 of them, returns the stored level as it is and
        touches neither f nor any other level, whichever order grew it.
        """
        N, levels = self.N, self.levels
        if k < len(levels):
            top = levels[k]
            if len(top) > P or (N is not None and len(top) == k * (N + 1 - k) + 1):
                return top

        def size(j: int) -> int:
            wanted = P + 2 * (k - j) + 1
            return wanted if N is None else min(wanted, j * (N + 1 - j) + 1)

        self._grow_f(k, size(1))
        for j in range(2, k + 1):
            self.rows[j] = _extend_level(levels[j], levels[j - 1], levels[j - 2], size(j), self.rows[j])
        return levels[k]

    def _grow_f(self, k: int, size: int) -> None:
        """Hold levels 0..k and f to ``size`` terms; for N None, rescale every level to S, the odd part of T!.

        T = len(f) + (K - 1)^2 for the new length of f and the new deepest
        level K.  Level 0 holds the S of the last growth, so every level is
        multiplied by r = S_new / S_old and level 0 becomes [S_new].  New
        levels start empty; their rows are added first, and the rescaled
        and new levels replace the old ones in one assignment, so an
        interrupted call leaves every level at one scale.
        """
        f, depth = self.levels[1], len(self.levels) - 1
        start = len(f)
        if start >= size and depth >= k:
            return
        size, deepest = max(size, start), max(k, depth)
        self.rows += [[] for _ in range(depth, deepest)]
        new = [[] for _ in range(depth, deepest)]
        if self.N is not None:
            f.extend(comb(self.N + 1, j + 1) << j for j in range(start, size))
            self.levels += new
            return
        # S is the odd part of t!, v2(t!) = t - popcount(t); level 0 holds the S of the last growth
        t = size + (deepest - 1) ** 2
        v = t - t.bit_count()
        s = factorial(t) >> v
        r = s // self.levels[0][0]
        grown = [[x * r for x in level] for level in self.levels[1:]]
        grown[0] += [perm(t, t - 1 - i) << i >> v for i in range(start, size)]
        self.levels[:] = [[s], *grown, *new]


@lru_cache(maxsize=None)
def _condensation(N: int | None) -> _Condensation:
    """The one state per series: N = n + k - 1 at size n, None for the limit."""
    return _Condensation(N)


def _ratios(h: tuple[int, ...]) -> tuple[Fraction, ...]:
    """The coefficients c_p = h_p / (p! h_0) of integer Hurwitz numerators."""
    return tuple(Fraction(x, factorial(p) * h[0]) for p, x in enumerate(h))


def coeff_numerators(k: int, n: int | None, P: int) -> tuple[int, ...]:
    """Integer Hurwitz numerators at size n, n None for the limit: c_p = h_p / (p! h_0), h_0 > 0.

    At size n they are h_0..h_min(P, kn): coefficients beyond kn are zero
    and are neither computed nor returned.  The limit's are h_0..h_P, at
    the scale of the limit state when called, so the h_p of two calls may
    differ by a constant factor.  Every argument must be an int (n may be
    None), checked before any state is touched.
    """
    if not all(isinstance(x, int) for x in (k, P, 0 if n is None else n)):
        raise ValueError(f"need integer k, n and P, got {(k, n, P)}")
    if k < 1 or P < 0 or (n is not None and n < 1):
        raise ValueError(f"need k >= 1, n >= 1 or None, P >= 0, got {(k, n, P)}")
    if n is None:
        return tuple(_condensation(None).numerators(k, P)[: P + 1])
    P = min(P, k * n)
    return tuple(_condensation(n + k - 1).numerators(k, P)[: P + 1])


def coeff_vector(k: int, n: int | None, P: int) -> tuple[Fraction, ...]:
    """The coefficients c_0..c_P of the reduced moment polynomial at size n, or of its limit for n None.

    c_p equals ``series_coeff(p, k, n)``, or ``series_coeff_limit(p, k)``
    for n None; at size n coefficients beyond kn are zero and are not
    returned.
    """
    return _ratios(coeff_numerators(k, n, P))


@lru_cache(maxsize=None)
def _common(p: int, k: int) -> int:
    """C_{p,k} = prod_{i<=k} perm(2k - i + p, p), a common multiple of [2k]_lam over the partitions lam of p."""
    return prod(perm(2 * k - i + p, p) for i in range(1, k + 1))


@lru_cache(maxsize=None)
def _weight(lam: Partition, k: int) -> int:
    """The part of a term that n never enters: w(lam, k) = [k]_lam (p!/h_lam)^2 (C_{p,k} / [2k]_lam), p = |lam|."""
    p = sum(lam)
    f = factorial(p) // hook_product(lam)
    return pochhammer(k, lam) * f * f * (_common(p, k) // pochhammer(2 * k, lam))


def _partition_sum(p: int, k: int, n: int | None) -> Fraction:
    """(-2)^p sum of [k] [-n] / ([2k] h^2) over partitions of p into at most k parts (2^p, no [-n], if n is None).

    With n given only partitions inside the k x n box are summed: a part
    above n makes [-n] zero.

    One Fraction for the whole sum: each term is scaled by (p!)^2, so 1/h^2
    becomes the integer f^2 = (p!/h)^2, and brought over the common multiple
    C_{p,k} = prod_{i<=k} perm(2k - i + p, p) of the [2k] symbols (row i of
    [2k], (2k - i + 1) ... (2k - i + lam_i), divides factor i).  The term
    is then the integer weight w(lam, k) = [k] f^2 (C_{p,k} / [2k]), times
    [-n] for finite n; :func:`_weight` keeps one per (lam, k) and
    :func:`_common` one C_{p,k} per (p, k), so every n and the limit share
    them, and a finite n multiplies in only its [-n].  The factor (-2)^p
    or 2^p enters the one Fraction's numerator as a shift by p and, for
    finite n and odd p, a sign flip.
    """
    fp = factorial(p)
    if n is None:
        total = sum(map(_weight, partitions_of(p, k), repeat(k)))
    else:
        total = sum(_weight(lam, k) * pochhammer(-n, lam) for lam in partitions_of(p, k, n))
        if p % 2:
            total = -total
    return Fraction(total << p, fp * fp * _common(p, k))


@lru_cache(maxsize=None)
def series_coeff(p: int, k: int, n: int) -> Fraction:
    """Finite-size coefficient as a partition sum: (-2)^p sum of [k][-n] / ([2k] h^2).

    The sum runs over partitions of p into at most k parts of size at
    most n, so it is 0 when p > k*n.
    """
    if p < 0 or k < 1 or n < 1:
        raise ValueError(f"need p >= 0, k >= 1, n >= 1, got {(p, k, n)}")
    return _partition_sum(p, k, n)


@lru_cache(maxsize=None)
def series_coeff_limit(p: int, k: int) -> Fraction:
    """Limiting coefficient as a partition sum: 2^p sum of [k] / ([2k] h^2) over the same partitions."""
    if p < 0 or k < 1:
        raise ValueError(f"need p >= 0 and k >= 1, got {(p, k)}")
    return _partition_sum(p, k, None)


def clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(d values, d) for the least d >= 1 that makes every value an integer."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d
