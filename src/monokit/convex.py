"""Convex function values on Z = R^n x R^n under the natural pairing.

Two representations cover what the calculus needs: maxima of affine pieces
and lower convex envelopes of finite point data (evaluated by an exact LP).
Each is the square conjugate f#(z) = sup(z.z' - f(z')) of the other, so the
conjugate is exact for both.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp
from .core import (INF, PrimalDualPoint, max_pairing_rows, natural_pairing,
                   pdp, point_rows, supremum)
from .errors import DimensionMismatch, LPNumericalError, MonokitError


class ConvexFn:
    """Interface: evaluate(z) returns an extended-real value."""

    dimension: int

    def evaluate(self, z: PrimalDualPoint) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class MaxAffine(ConvexFn):
    """max over pieces of z . slope + intercept; -inf with no pieces."""

    pieces: tuple[tuple[PrimalDualPoint, float], ...]
    dimension: int

    def evaluate(self, z: PrimalDualPoint) -> float:
        _check_dim(self, z)
        return supremum(natural_pairing(z, w) + b for w, b in self.pieces)


@dataclass(frozen=True)
class Envelope(ConvexFn):
    """Lower convex envelope of finite point data (p_i, v_i)."""

    points: tuple[tuple[PrimalDualPoint, float], ...]
    dimension: int

    def evaluate(self, z: PrimalDualPoint) -> float:
        return envelope_eval(self, z)


class ConjugateValue(NamedTuple):
    value: float


def _check_dim(f, z: PrimalDualPoint):
    if z.dimension != f.dimension:
        raise DimensionMismatch(
            f"point dimension {z.dimension} != function dimension {f.dimension}")


def envelope(points, dimension=None) -> Envelope:
    """Build an Envelope from (point, value) pairs."""
    normalized = tuple((p if isinstance(p, PrimalDualPoint) else pdp(*p), float(v))
                       for p, v in points)
    if dimension is None:
        if not normalized:
            raise MonokitError("dimension required for a point-free envelope")
        dimension = normalized[0][0].dimension
    return Envelope(normalized, dimension)


def max_affine_eval_batch(f: MaxAffine, zs: np.ndarray) -> np.ndarray:
    """f.evaluate at every row (x..., xstar...) of zs, bit for bit, in the
    blocked pairing kernel."""
    slopes = point_rows((w for w, _ in f.pieces), f.dimension)
    intercepts = np.array([b for _, b in f.pieces], dtype=float)
    return max_pairing_rows(slopes, intercepts, zs)


def envelope_eval(f: Envelope, z: PrimalDualPoint) -> float:
    """Exact envelope value by LP; +inf outside the convex hull of the data.

    Solver trouble surfaces as LPNumericalError, never as a value.
    """
    _check_dim(f, z)
    if not f.points:
        return INF
    n = f.dimension
    coords = np.array([list(p.x) + list(p.xstar) for p, _ in f.points])
    target = np.array(list(z.x) + list(z.xstar))
    slack = 1e-9
    if ((target < coords.min(axis=0) - slack).any()
            or (target > coords.max(axis=0) + slack).any()):
        return INF
    k = len(f.points)
    mat = np.vstack([coords.T, np.ones((1, k))])
    rhs = np.concatenate([target, [1.0]])
    values = np.array([v for _, v in f.points])
    sol = lp.solve(lp.LPProblem(values, mat, rhs))
    if sol.status is lp.LPStatus.INFEASIBLE:
        return INF
    if sol.status is not lp.LPStatus.OPTIMAL:
        raise LPNumericalError("envelope program reported unbounded")
    return sol.value


def conjugate(f: ConvexFn) -> ConvexFn:
    """Structural square conjugate: swaps MaxAffine and Envelope data."""
    if isinstance(f, MaxAffine):
        return Envelope(tuple((w, -b) for w, b in f.pieces), f.dimension)
    if isinstance(f, Envelope):
        return MaxAffine(tuple((p, -v) for p, v in f.points), f.dimension)
    raise MonokitError(f"no structural conjugate for {type(f).__name__}")


def square_conjugate_eval(f: ConvexFn, z: PrimalDualPoint) -> ConjugateValue:
    """f#(z) = sup(z . z' - f(z')), the structural conjugate at z.

    Exact for Envelope (the sup is attained at the data points) and for
    MaxAffine (whose conjugate is the envelope of its pieces).
    """
    return ConjugateValue(conjugate(f).evaluate(z))
