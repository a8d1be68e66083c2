"""Deterministic low-discrepancy sampling helpers, in numpy alone.

All draws are reproducible: Sobol sequences are unscrambled, and the
golden-angle circle sequence is closed-form, so equal inputs give
byte-equal samples across runs and platforms.

The Sobol points use the Joe & Kuo (2008, SIAM J. Sci. Comput.)
direction numbers for the first SOBOL_MAX_DIM dimensions and the
Gray-code order of Bratley & Fox (1988, ACM TOMS Algorithm 659), with
30-bit integers, built by doubling blocks of points; they equal scipy's
``qmc.Sobol(d, scramble=False)`` after skipping its first point (the
origin). The normal quantile is Wichura's AS241 (PPND16, Applied
Statistics 37, 1988), accurate to about 1e-16 relative.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

__all__ = [
    "SOBOL_MAX_DIM",
    "unit_box_points",
    "sphere_directions",
    "normal_quantile",
]

SOBOL_MAX_DIM = 16
_SOBOL_BITS = 30

# Joe & Kuo primitive polynomials (as integers, leading and trailing
# coefficients included) and initial direction numbers m_1..m_s of
# dimensions 2..SOBOL_MAX_DIM; dimension 1 is the van der Corput sequence.
_POLY = (3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97)
_MINIT = (
    (1,),
    (1, 3),
    (1, 3, 1),
    (1, 1, 1),
    (1, 1, 3, 3),
    (1, 3, 5, 13),
    (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5),
    (1, 1, 7, 11, 19),
    (1, 1, 5, 1, 1),
    (1, 1, 1, 3, 11),
    (1, 3, 5, 5, 31),
    (1, 3, 3, 9, 7, 49),
    (1, 1, 1, 15, 21, 21),
    (1, 3, 1, 13, 27, 49),
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _direction_numbers():
    """(_SOBOL_BITS, SOBOL_MAX_DIM) table: row j holds every dimension's
    direction number v_j = m_j * 2^(bits - j - 1) (j from 0)."""
    bits = _SOBOL_BITS
    cols = [[1 << (bits - 1 - j) for j in range(bits)]]
    for poly, minit in zip(_POLY, _MINIT):
        s = poly.bit_length() - 1  # degree of the polynomial
        m = list(minit)
        for j in range(s, bits):
            new = m[j - s] ^ (m[j - s] << s)
            for k in range(1, s):
                if (poly >> (s - k)) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        cols.append([m[j] << (bits - 1 - j) for j in range(bits)])
    return np.array(cols, dtype=np.int32).T


# Row 0 is v_0 and row t >= 1 is v_t xor v_(t-1): for k < 2^t the Gray
# code of 2^t + k is that of k with bits t and t-1 flipped.
_V = _direction_numbers()
_STEPS = np.vstack([_V[:1], _V[1:] ^ _V[:-1]])


def unit_box_points(n, dim):
    """Points 1..n of the unscrambled Sobol sequence in [0,1)^dim (the
    origin, point 0, is skipped), in Gray-code order."""
    if n < 1 or dim < 1:
        raise InputError("need n >= 1 and dim >= 1")
    if dim > SOBOL_MAX_DIM:
        raise InputError(
            "Sobol sampling supports at most %d dimensions, got %d"
            % (SOBOL_MAX_DIM, dim)
        )
    if n >= 2**_SOBOL_BITS:
        raise InputError(
            "Sobol sampling supports fewer than 2^%d points" % _SOBOL_BITS
        )
    # points 2^t .. 2^(t+1) - 1 are points 0 .. 2^t - 1 xor one step row
    ints = np.empty((n + 1, dim), dtype=np.int32)
    ints[0] = 0
    h = 1
    for step in _STEPS[:, :dim]:
        if h > n:
            break
        m = min(h, n + 1 - h)
        np.bitwise_xor(ints[:m], step, out=ints[h : h + m])
        h *= 2
    return ints[1:] * 2.0**-_SOBOL_BITS


# AS241 coefficients, highest degree first: the central region
# |p - 0.5| <= 0.425, then the tails with r = sqrt(-log(min(p, 1-p)))
# up to 5 and beyond.
_AS241_A = (2.5090809287301226727e3, 3.3430575583588128105e4,
            6.7265770927008700853e4, 4.5921953931549871457e4,
            1.3731693765509461125e4, 1.9715909503065514427e3,
            1.3314166789178437745e2, 3.3871328727963666080e0)
_AS241_B = (5.2264952788528545610e3, 2.8729085735721942674e4,
            3.9307895800092710610e4, 2.1213794301586595867e4,
            5.3941960214247511077e3, 6.8718700749205790830e2,
            4.2313330701600911252e1, 1.0)
_AS241_C = (7.74545014278341407640e-4, 2.27238449892691845833e-2,
            2.41780725177450611770e-1, 1.27045825245236838258e0,
            3.64784832476320460504e0, 5.76949722146069140550e0,
            4.63033784615654529590e0, 1.42343711074968357734e0)
_AS241_D = (1.05075007164441684324e-9, 5.47593808499534494600e-4,
            1.51986665636164571966e-2, 1.48103976427480074590e-1,
            6.89767334985100004550e-1, 1.67638483018380384940e0,
            2.05319162663775882187e0, 1.0)
_AS241_E = (2.01033439929228813265e-7, 2.71155556874348757815e-5,
            1.24266094738807843860e-3, 2.65321895265761230930e-2,
            2.96560571828504891230e-1, 1.78482653991729133580e0,
            5.46378491116411436990e0, 6.65790464350110377720e0)
_AS241_F = (2.04426310338993978564e-15, 1.42151175831644588870e-7,
            1.84631831751005468180e-5, 7.86869131145613259100e-4,
            1.48753612908506148525e-2, 1.36929880922735805310e-1,
            5.99832206555887937690e-1, 1.0)


def _ratio(num, den, r):
    """num(r) / den(r) by Horner's rule."""
    p = np.full_like(r, num[0])
    q = np.full_like(r, den[0])
    for a, b in zip(num[1:], den[1:]):
        p = p * r + a
        q = q * r + b
    return p / q


def normal_quantile(p):
    """Standard normal quantile of an array of probabilities in (0, 1)
    (Wichura's AS241)."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    out = np.empty_like(p)
    mid = np.abs(q) <= 0.425
    qm = q[mid]
    out[mid] = qm * _ratio(_AS241_A, _AS241_B, 0.180625 - qm * qm)
    tail = ~mid
    r = np.sqrt(-np.log(np.minimum(p[tail], 1.0 - p[tail])))
    near = r <= 5.0
    z = np.empty_like(r)
    z[near] = _ratio(_AS241_C, _AS241_D, r[near] - 1.6)
    z[~near] = _ratio(_AS241_E, _AS241_F, r[~near] - 5.0)
    out[tail] = np.where(q[tail] < 0.0, -z, z)
    return out


def sphere_directions(n, dim):
    """n roughly equidistributed unit vectors in R^dim.

    dim 1 alternates +1/-1; dim 2 uses the golden-angle sequence;
    higher dimensions push Sobol points (skipping the centre of the
    cube) through the normal quantile and normalize.
    """
    if n < 1:
        raise InputError("need n >= 1")
    if dim == 1:
        out = np.ones((n, 1))
        out[1::2, 0] = -1.0
        return out
    if dim == 2:
        ang = 2.0 * math.pi * ((np.arange(1, n + 1) * _GOLDEN) % 1.0)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # the first Sobol point after the origin is the centre (0.5, ..., 0.5),
    # which the quantile sends to the zero vector; no later point is
    u = unit_box_points(n + 1, dim)[1:]
    z = normal_quantile(np.clip(u, 1e-12, 1.0 - 1e-12))
    return z / np.linalg.norm(z, axis=1)[:, None]
