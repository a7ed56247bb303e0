"""Convex function values on Z = R^n x R^n under the natural pairing.

Two representations cover what the calculus needs: maxima of affine pieces
and lower convex envelopes of finite point data (evaluated by an exact LP).
Each is the square conjugate f#(z) = sup(z.z' - f(z')) of the other, so the
conjugate is exact for both.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import core, lp
from .core import (INF, PrimalDualPoint, max_pairing_rows, natural_pairing,
                   pdp, point_rows, supremum)
from .errors import DimensionMismatch, LPNumericalError, MonokitError


class ConvexFn:
    """Interface: evaluate(z) returns an extended-real value, and
    evaluate_rows(rows) the same value at every [x, x*] row of an (N, 2n)
    array."""

    dimension: int

    def evaluate(self, z: PrimalDualPoint) -> float:
        raise NotImplementedError

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class MaxAffine(ConvexFn):
    """max over pieces of z . slope + intercept; -inf with no pieces."""

    pieces: tuple[tuple[PrimalDualPoint, float], ...]
    dimension: int

    def evaluate(self, z: PrimalDualPoint) -> float:
        _check_dim(self, z)
        return supremum(natural_pairing(z, w) + b for w, b in self.pieces)

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        return max_affine_eval_batch(self, rows)


@dataclass(frozen=True)
class Envelope(ConvexFn):
    """Lower convex envelope of finite point data (p_i, v_i)."""

    points: tuple[tuple[PrimalDualPoint, float], ...]
    dimension: int

    def evaluate(self, z: PrimalDualPoint) -> float:
        return envelope_eval(self, z)

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        return envelope_rows(self, rows)

    @cached_property
    def _lp(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lower, upper, matrix, values): the data's bounding box widened
        by the hull slack, and the LP over convex weights. Kept out of the
        fields, so equality and hashing stay by value."""
        coords = np.array([list(p.x) + list(p.xstar) for p, _ in self.points])
        slack = 1e-9
        matrix = np.vstack([coords.T, np.ones((1, len(self.points)))])
        values = np.array([v for _, v in self.points])
        return (coords.min(axis=0) - slack, coords.max(axis=0) + slack,
                matrix, values)


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


def envelope_rows(f: Envelope, rows: np.ndarray) -> np.ndarray:
    """Exact envelope value at every [x, x*] row of an (N, 2n) array; +inf
    outside the convex hull of the data.

    One bounding-box test covers every row, and the rows inside it go
    through one lockstep LP, so each value is bit for bit the one-row value.
    Solver trouble surfaces as LPNumericalError, never as a value, raised
    for the first failing row in row order.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 2 * f.dimension:
        raise DimensionMismatch(
            f"row shape {rows.shape} != (N, {2 * f.dimension}) for function "
            f"dimension {f.dimension}")
    out = np.full(len(rows), INF)
    if not f.points:
        return out
    lower, upper, matrix, values = f._lp
    inside = np.flatnonzero(~((rows < lower) | (rows > upper)).any(axis=1))
    # Chunks bound the solutions (and their x vectors) held at once.
    step = max(1, core._BLOCK_ELEMS // matrix.size)
    for s in range(0, inside.size, step):
        idx = inside[s:s + step]
        rhs = np.hstack([rows[idx], np.ones((idx.size, 1))])
        for i, sol in zip(idx, lp.solve_rows(values, matrix, rhs)):
            if isinstance(sol, LPNumericalError):
                raise sol
            if sol.status is lp.LPStatus.OPTIMAL:
                out[i] = sol.value
            elif sol.status is not lp.LPStatus.INFEASIBLE:
                raise LPNumericalError("envelope program reported unbounded")
    return out


def envelope_eval(f: Envelope, z: PrimalDualPoint) -> float:
    """Exact envelope value by LP; the one-row call of envelope_rows."""
    _check_dim(f, z)
    return float(envelope_rows(f, point_rows([z], f.dimension))[0])


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
