"""Primal-dual points, pairings, and extended-real conventions.

Points live in Z = R^n x R^n with n <= 3 at the scales this package targets.
Extended reals are plain floats where +-inf is a legal saturating value.
Empty suprema are -inf throughout.

Graphs, scan lattices and a check's failures are (N, 2n) float arrays of
[x, x*] rows; the public API, the envelope's data and the witnesses take
PrimalDualPoints. row_points and point_rows convert between them exactly.

Every pairwise scan over point rows runs in one of three blocked kernels:
max_pairing_rows (the max of z . w + b_w, which gives the sampled and
finite-graph phi and the max-affine values), pairing_below_rows (whether
every such term stays at or below a per-row threshold, which gives the
envelope's off-band prefilter and stops on a row at its first term above)
and mr_rows (the monotone gap test, which gives mr_batch and the pairwise
monotone scan). All three sum in the scalar pairings' order, so they agree
with them bit for bit, and all tile the product so no temporary exceeds
1 MiB.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, ToleranceError, ValidationError

INF = math.inf


def format_scalar(v: float) -> str:
    """Fixed 12-significant-digit rendering with inf literals."""
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    return format(float(v), ".12g")


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


def require_finite(values, what: str) -> None:
    """Reject operator data with an infinite or nan value: it turns the
    pairings into nan, and every gap test then fails at one point paired
    with itself. Box bounds may be infinite, so as_vector allows inf."""
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"{what} must be finite")


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


def row_points(rows: np.ndarray) -> list[PrimalDualPoint]:
    """The inverse of point_rows: one point per [x, x*] row, in row order."""
    cols = rows.T.tolist()
    n = len(cols) // 2
    return list(map(PrimalDualPoint, zip(*cols[:n]), zip(*cols[n:])))


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse): the index of each distinct row's first occurrence,
    in row order, and for every row the position of its own row in first,
    so rows[first][inverse] == rows. Rows equal under == are one row, as
    they are one key of a dict of points. A stable lexicographic sort
    leads each run of equal rows with its first occurrence."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    heads = order[head]
    run = np.empty(len(rows), dtype=np.intp)
    run[order] = np.cumsum(head) - 1
    return np.sort(heads), np.argsort(np.argsort(heads))[run]


def coupling_rows(rows: np.ndarray) -> np.ndarray:
    """coupling of every [x, x*] row, summed coordinate by coordinate in
    _dot's order so each entry equals the scalar coupling bit for bit."""
    n = rows.shape[1] // 2
    out = np.zeros(rows.shape[0])
    for i in range(n):
        out += rows[:, i] * rows[:, n + i]
    return out


# Cap on the float64 entries of each rows x M temporary in the pairing
# kernels below (1 MiB), so memory stays bounded at every grid resolution.
_BLOCK_ELEMS = 1 << 17


def _blocks(n_rows: int, n_cols: int):
    """(row slice, column slice) tiles of an n_rows x n_cols product, each
    with at most _BLOCK_ELEMS entries."""
    cols = max(1, min(n_cols, _BLOCK_ELEMS))
    rows = max(1, _BLOCK_ELEMS // cols)
    for r0 in range(0, n_rows, rows):
        for c0 in range(0, n_cols, cols):
            yield slice(r0, r0 + rows), slice(c0, c0 + cols)


def max_pairing_rows(ws: np.ndarray, b: np.ndarray,
                     zs: np.ndarray) -> np.ndarray:
    """max over rows w = (u, u*) of ws of z . w + b_w, for every row
    z = (x, x*) of zs; -inf against no rows.

    Each pairing accumulates coordinate by coordinate with elementwise ops
    in _dot's order (no matmul), so every value equals the scalar
    natural_pairing(z, w) + b_w bit for bit.
    """
    n = zs.shape[1] // 2
    out = np.full(zs.shape[0], -INF)
    for r, c in _blocks(zs.shape[0], ws.shape[0]):
        z, w = zs[r], ws[c]
        left = np.zeros((z.shape[0], w.shape[0]))
        right = np.zeros_like(left)
        for i in range(n):
            left += z[:, i, None] * w[None, :, n + i]
            right += w[None, :, i] * z[:, n + i, None]
        left += right
        left += b[None, c]
        np.maximum(out[r], left.max(axis=1), out=out[r])
    return out


# Columns in the first chunk of pairing_below_rows; each later chunk is
# _CHUNK_GROWTH times wider, so rows that fail early cost few terms.
_FIRST_CHUNK = 8
_CHUNK_GROWTH = 4


def pairing_below_rows(ws: np.ndarray, b: np.ndarray, zs: np.ndarray,
                       thr: np.ndarray) -> np.ndarray:
    """Whether z . w + b_w <= thr_z for every row w of ws, for every row z
    of zs; True against no rows.

    Each term sums in max_pairing_rows' order, so the mask equals
    max_pairing_rows(ws, b, zs) <= thr bit for bit. The columns are visited
    in a spread order (every stride-th one first, the stride splitting ws
    into _FIRST_CHUNK runs), in chunks that grow by _CHUNK_GROWTH, and a
    row leaves the scan at the first chunk holding a term above its
    threshold. Three block buffers of at most _BLOCK_ELEMS floats serve
    every chunk through out=, with one boolean buffer for the comparison.
    """
    n = zs.shape[1] // 2
    m = ws.shape[0]
    out = np.ones(zs.shape[0], dtype=bool)
    stride = max(1, -(-m // _FIRST_CHUNK))
    order = np.argsort(np.arange(m) % stride, kind="stable")
    live, z, t = np.arange(zs.shape[0]), zs, np.asarray(thr, dtype=float)
    size = min(_BLOCK_ELEMS, zs.shape[0] * m)
    left, right, prod = (np.empty(size) for _ in range(3))
    below = np.empty(size, dtype=bool)
    start, width = 0, min(_FIRST_CHUNK, _BLOCK_ELEMS)
    while start < m and live.size:
        cols = order[start:start + width]
        w, bw = ws[cols], b[cols]
        keep = np.empty(live.size, dtype=bool)
        for r, _ in _blocks(live.size, cols.size):
            zr = z[r]
            shape = (zr.shape[0], cols.size)
            lt, rt, pr, bl = (a[:shape[0] * shape[1]].reshape(shape)
                              for a in (left, right, prod, below))
            np.multiply(zr[:, 0, None], w[None, :, n], out=lt)
            np.multiply(w[None, :, 0], zr[:, n, None], out=rt)
            for i in range(1, n):
                lt += np.multiply(zr[:, i, None], w[None, :, n + i], out=pr)
                rt += np.multiply(w[None, :, i], zr[:, n + i, None], out=pr)
            lt += rt
            lt += bw[None, :]
            keep[r] = np.less_equal(lt, t[r, None], out=bl).all(axis=1)
        out[live[~keep]] = False
        live, z, t = live[keep], z[keep], t[keep]
        start += cols.size
        width = min(width * _CHUNK_GROWTH, _BLOCK_ELEMS)
    return out


def mr_rows(ws: np.ndarray, zs: np.ndarray, eps: float) -> np.ndarray:
    """Whether <x - u, x* - u*> >= -eps against every row of ws, for every
    row of zs; True against no rows. Same summation order as monotone_gap,
    so the gap is symmetric in z and w bit for bit."""
    n = zs.shape[1] // 2
    out = np.ones(zs.shape[0], dtype=bool)
    for r, c in _blocks(zs.shape[0], ws.shape[0]):
        z, w = zs[r], ws[c]
        gap = np.zeros((z.shape[0], w.shape[0]))
        for i in range(n):
            gap += ((z[:, i, None] - w[None, :, i])
                    * (z[:, n + i, None] - w[None, :, n + i]))
        out[r] &= (gap >= -eps).all(axis=1)
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
