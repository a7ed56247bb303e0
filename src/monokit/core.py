"""Primal-dual points, pairings, and extended-real conventions.

Points live in Z = R^n x R^n with n <= 3 at the scales this package targets.
Extended reals are plain floats where +-inf is a legal saturating value.
Empty suprema are -inf throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, ToleranceError, ValidationError

INF = math.inf


def as_vector(v) -> tuple[float, ...]:
    """Coerce a scalar or sequence to a float tuple of dimension >= 1."""
    if isinstance(v, (int, float)):
        return (float(v),)
    t = tuple(float(c) for c in v)
    if not t:
        raise DimensionMismatch("vectors must have dimension >= 1")
    # nan coordinates would make every later comparison silently false
    if any(math.isnan(c) for c in t):
        raise ValidationError("vector components must not be nan")
    return t


class PrimalDualPoint(NamedTuple):
    """A pair z = (x, x*) with both components of the same dimension."""

    x: tuple[float, ...]
    xstar: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.x)


def pdp(x, xstar) -> PrimalDualPoint:
    """Build a PrimalDualPoint from scalars or sequences, checking dimensions."""
    xv, sv = as_vector(x), as_vector(xstar)
    if len(xv) != len(sv):
        raise DimensionMismatch(
            f"primal dimension {len(xv)} != dual dimension {len(sv)}"
        )
    return PrimalDualPoint(xv, sv)


def _dot(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    return sum(ai * bi for ai, bi in zip(a, b))


def coupling(z: PrimalDualPoint) -> float:
    """The duality product <x, x*> of a primal-dual point."""
    return _dot(z.x, z.xstar)


def point_rows(points: Iterable[PrimalDualPoint], n: int) -> np.ndarray:
    """Points as an (N, 2n) float array of [x, x*] rows."""
    return np.array([p.x + p.xstar for p in points],
                    dtype=float).reshape(-1, 2 * n)


def coupling_rows(rows: np.ndarray) -> np.ndarray:
    """coupling of every [x, x*] row, summed coordinate by coordinate in
    _dot's order so each entry equals the scalar coupling bit for bit."""
    n = rows.shape[1] // 2
    out = np.zeros(rows.shape[0])
    for i in range(n):
        out += rows[:, i] * rows[:, n + i]
    return out


def natural_pairing(z: PrimalDualPoint, w: PrimalDualPoint) -> float:
    """The symmetric pairing z . w = <x, w*> + <u, x*> for w = (u, w*)."""
    if z.dimension != w.dimension:
        raise DimensionMismatch(
            f"points of dimension {z.dimension} and {w.dimension}"
        )
    return _dot(z.x, w.xstar) + _dot(w.x, z.xstar)


def monotone_gap(z: PrimalDualPoint, w: PrimalDualPoint) -> float:
    """<x - u, x* - u*>; nonnegative for every pair of a monotone graph.

    Algebraically equals coupling(z) + coupling(w) - natural_pairing(z, w).
    """
    if z.dimension != w.dimension:
        raise DimensionMismatch(
            f"points of dimension {z.dimension} and {w.dimension}"
        )
    return _dot(
        tuple(a - b for a, b in zip(z.x, w.x)),
        tuple(a - b for a, b in zip(z.xstar, w.xstar)),
    )


def supremum(values: Iterable[float]) -> float:
    """max with the convention sup of the empty set = -inf."""
    return max(values, default=-INF)


@dataclass(frozen=True)
class Tolerance:
    """Comparison margins used by every grid-scale verdict.

    eps_eq bounds |a - b| for equality bands, eps_strict is the margin a
    strict inequality must clear, and delta_dom is the proximity radius for
    domain and graph membership. eps_eq <= eps_strict so the strict set
    [f < c - eps_strict] never overlaps the equality band |f - c| <= eps_eq.
    """

    eps_eq: float
    eps_strict: float
    delta_dom: float

    def __post_init__(self):
        if not (self.eps_eq > 0 and self.eps_strict > 0 and self.delta_dom > 0):
            raise ToleranceError("all tolerances must be positive")
        if self.eps_eq > self.eps_strict:
            raise ToleranceError("eps_eq must not exceed eps_strict")


DEFAULT_TOL = Tolerance(eps_eq=1e-9, eps_strict=1e-6, delta_dom=1e-6)
