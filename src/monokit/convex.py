"""Convex function values on Z = R^n x R^n under the natural pairing.

Two representations cover what the calculus needs: maxima of affine pieces
and lower convex envelopes of finite point data (evaluated by an exact LP).
Each is the square conjugate f#(z) = sup(z.z' - f(z')) of the other, so the
conjugate is exact for both.

An envelope is +inf off the convex hull of its data, so envelope_rows sends
a row to the LP only when it passes two cheap tests: the data's bounding
box, then hull cuts, the edges of the 2-D hulls of the data projected onto
each pair of coordinates (Andrew's monotone chain). A row beyond a cut by a
margin far wider than the LP's own feasibility tolerance has no convex
weights, so it keeps +inf without a solve.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import core, lp
from .core import (INF, PrimalDualPoint, first_gap_failure,
                   max_pairing_rows, natural_pairing, pdp, point_rows,
                   supremum)
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

    @cached_property
    def _hull_cuts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pairs, normals, offsets), one entry per cut: for each pair i < j
        of the 2n coordinates, the outward unit normals d of the 2-D hull of
        the data projected onto (i, j), and h = max d . p over every data
        row p, so d . p <= h holds for the data as computed, whatever the
        rounding of the hull itself. Kept out of the fields like _lp."""
        data = self._lp[2][:-1].T
        pairs, normals = [], []
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            for pair in itertools.combinations(range(data.shape[1]), 2):
                d = _hull_normals(data[:, pair])
                pairs += [pair] * len(d)
                normals.append(d)
            pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
            normals = np.vstack(normals)
            return pairs, normals, _cut_values(data, pairs, normals).max(
                axis=0, initial=-INF)

    def _monotone_within(self, eps: float) -> bool:
        """Whether the data is pairwise monotone within eps by the gap
        kernel; one scan per eps, kept with the envelope like _lp."""
        scans = self.__dict__.setdefault("_gap_scans", {})
        if eps not in scans:
            data = self._lp[2][:-1].T
            scans[eps] = first_gap_failure(data, eps) is None
        return scans[eps]


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


def _half_chain(pts: list) -> list:
    """Andrew's monotone chain over points in lexicographic order (or its
    reverse): the hull vertices from the first point to the last, turning
    left only, collinear points dropped."""
    out: list = []
    for px, py in pts:
        while len(out) >= 2:
            (ax, ay), (bx, by) = out[-2], out[-1]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                break
            out.pop()
        out.append((px, py))
    return out


def _hull_normals(xy: np.ndarray) -> np.ndarray:
    """Outward unit normals of the convex hull of the (k, 2) points xy, one
    per edge. A hull that is a segment gives its two normals and its two
    directions, a single point nothing. Only the lowest and the highest
    point of each x can be a vertex, so the chain sees those alone."""
    xy = xy[np.lexsort((xy[:, 1], xy[:, 0]))]
    xy = xy[np.concatenate(([True], (xy[1:] != xy[:-1]).any(axis=1)))]
    step = xy[1:, 0] != xy[:-1, 0]
    ends = np.ones(len(xy), dtype=bool)
    ends[1:-1] = step[1:] | step[:-1]
    pts = xy[ends].tolist()
    if len(pts) < 2:
        return np.empty((0, 2))
    hull = _half_chain(pts)[:-1] + _half_chain(pts[::-1])[:-1]
    edges = [(bx - ax, by - ay)
             for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1])]
    normals = np.array([(ey, -ex) for ex, ey in edges]
                       + (edges if len(hull) == 2 else []))
    return normals / np.hypot(normals[:, 0], normals[:, 1])[:, None]


def _cut_values(rows: np.ndarray, pairs: np.ndarray,
                normals: np.ndarray) -> np.ndarray:
    """d . z on the cut's coordinate pair, for every row z and cut d."""
    return (rows[:, pairs[:, 0]] * normals[:, 0]
            + rows[:, pairs[:, 1]] * normals[:, 1])


def _beyond_hull(f: Envelope, rows: np.ndarray) -> np.ndarray:
    """Mask of the rows z with d . z - h > 1e-6 (1 + |z|_1) max(1, |z|_inf)
    for some hull cut (d, h) of f, in blocks of at most _BLOCK_ELEMS."""
    pairs, normals, offsets = f._hull_cuts
    size = np.abs(rows)
    out = np.zeros(len(rows), dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        margin = (1e-6 * (1.0 + size.sum(axis=1))
                  * np.maximum(1.0, size.max(axis=1)))
        for r, c in core._blocks(len(rows), len(offsets)):
            excess = _cut_values(rows[r], pairs[c], normals[c]) - offsets[c]
            out[r] |= (excess > margin[r, None]).any(axis=1)
    return out


def envelope_rows(f: Envelope, rows: np.ndarray) -> np.ndarray:
    """Exact envelope value at every [x, x*] row of an (N, 2n) array; +inf
    outside the convex hull of the data.

    One bounding-box test covers every row; the rows inside the box that no
    hull cut (Envelope._hull_cuts) rules out go through one lockstep LP, so
    each value is bit for bit the one-row value. Solver trouble surfaces as
    LPNumericalError, never as a value, raised for the first failing row in
    row order.

    The cuts change no value. The LP's phase one finds the row infeasible
    unless its optimum, min |1 - sum w| + |z - sum w_i p_i|_1 over w >= 0,
    is at most eps = 1e-9 max(1, |z|_inf). If the exact optimum were at
    most eps, then w / sum w would be convex weights whose point lies
    within eps (1 + |z|_1) / (1 - eps) <= 2 eps (1 + |z|_1) of z in the
    1-norm, and a unit normal d would give d . z - h <= 2 eps (1 + |z|_1).
    The cut's margin, 1e-6 (1 + |z|_1) max(1, |z|_inf), is 500 times that,
    far beyond the rounding of either test, so a row it rules out has no
    convex weights and +inf either way. Where the LP's pivots on entries
    near 1e-9 would end phase one in a broken basis and raise for such a
    row, the cut answers +inf instead.
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
    if inside.size:
        inside = inside[~_beyond_hull(f, rows[inside])]
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
