"""Reference Haar sampler for the distribution test of the Monte Carlo oracle.

QR-corrected complex Ginibre matrices (Mezzadri, Notices AMS 2007), batched
over draws: a construction independent of the package's Verblunsky-coefficient
sampler, so agreement in distribution is a real check.
"""

from __future__ import annotations

import numpy as np


def haar_v_values(n: int, draws: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """|V| and |V'| at angle zero for ``draws`` Haar unitaries of size n.

    Fixing the phases of the diagonal of R makes the QR factorization unique
    and the Q factor exactly Haar.  From the eigenphases theta,
    |V| = prod 2|sin(theta/2)| and |V'| = |V| |sum cot(theta/2)| / 2.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((draws, n, n)) + 1j * rng.standard_normal((draws, n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    q = q * (d / np.abs(d))[:, None, :]
    half = np.angle(np.linalg.eigvals(q)) / 2.0
    s = np.sin(half)
    abs_v = np.prod(2.0 * np.abs(s), axis=1)
    abs_vp = abs_v * 0.5 * np.abs(np.sum(np.cos(half) / s, axis=1))
    return abs_v, abs_vp
