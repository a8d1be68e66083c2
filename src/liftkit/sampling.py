"""Deterministic low-discrepancy sampling helpers.

All draws are reproducible: Sobol sequences are unscrambled, and the
golden-angle circle sequence is closed-form, so equal inputs give
byte-equal samples across runs and platforms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import norm, qmc

from .errors import InputError

__all__ = ["unit_box_points", "box_points", "sphere_directions"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def unit_box_points(n, dim, skip_origin=True):
    """n low-discrepancy points in [0,1)^dim (Sobol, unscrambled)."""
    if n < 1 or dim < 1:
        raise InputError("need n >= 1 and dim >= 1")
    eng = qmc.Sobol(d=dim, scramble=False)
    if skip_origin:
        eng.fast_forward(1)
    return eng.random(n)


def box_points(box, n):
    """n low-discrepancy points inside an axis-aligned box."""
    return box.scale(unit_box_points(n, box.dim))


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
    z = norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
    return z / np.linalg.norm(z, axis=1)[:, None]
