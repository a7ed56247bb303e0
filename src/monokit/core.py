"""Primal-dual points, pairings, and extended-real conventions.

Points live in Z = R^n x R^n with n <= 3 at the scales this package targets.
Extended reals are plain floats where +-inf is a legal saturating value.
Empty suprema are -inf throughout.

Graphs, scan lattices, a check's failures and the data of a convex
function are (N, 2n) float arrays of [x, x*] rows; the public API and the
witnesses take PrimalDualPoints. row_points and point_rows convert between
them exactly.

Every pairwise scan over point rows runs in one of three blocked kernels,
all summing in the scalar pairings' order, so they agree with them bit for
bit, and all tiling the product so no temporary exceeds 1 MiB; each call
reuses its block buffers through out=.
- max_pairing_rows: the max of z . w + b_w, which gives the sampled and
  finite-graph phi and the max-affine values.
- The threshold kernel: whether every term of a row stays at or below a
  per-row threshold. pairing_below_rows asks it of z . w + b_w (the
  strict "phi below the coupling" test of vni and condition (c), and the
  envelope's off-band prefilter); related_rows of minus the monotone gap
  (mr_batch). A large product is visited in growing chunks of spread
  columns, and a row leaves at the first chunk that fails it.
- first_gap_failure: the pairwise monotone scan of a graph, over the upper
  triangle only, in runs of rows whose pairs an interval bound may settle
  without a gap being computed; it returns the first failing pair.
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


# Rows from which row_points shares one tuple per distinct part; below it
# the sort costs more than the garbage collector saves.
_SHARED_ROWS = 4096


def row_points(rows: np.ndarray) -> list[PrimalDualPoint]:
    """The inverse of point_rows: one point per [x, x*] row, in row order.

    A lattice repeats each primal and each dual part over many rows, so
    from _SHARED_ROWS rows on each distinct part (by bit pattern, so -0.0
    stays apart from 0.0) becomes one tuple that all its rows share.
    """
    n = rows.shape[1] // 2
    if len(rows) < _SHARED_ROWS:
        cols = rows.T.tolist()
        return list(map(PrimalDualPoint, zip(*cols[:n]), zip(*cols[n:])))
    return list(map(PrimalDualPoint, _shared_tuples(rows[:, :n]),
                    _shared_tuples(rows[:, n:])))


def _shared_tuples(part: np.ndarray) -> list[tuple[float, ...]]:
    """Each row of part as a tuple, rows with the same bits sharing one."""
    first, inverse = distinct_rows(np.ascontiguousarray(part).view(np.uint64))
    shared = list(map(tuple, part[first].tolist()))
    return list(map(shared.__getitem__, inverse.tolist()))


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


class _Buffers:
    """Three float block buffers and a boolean one of at most _BLOCK_ELEMS
    entries, which every tile of a kernel call reuses through out=."""

    def __init__(self, size: int):
        size = min(size, _BLOCK_ELEMS)
        self.floats = np.empty((3, size))
        self.flags = np.empty(size, dtype=bool)

    def tile(self, rows: int, cols: int):
        """(out, tmp, prod, flags) as rows x cols blocks."""
        k = rows * cols
        out, tmp, prod = self.floats[:, :k].reshape(3, rows, cols)
        return out, tmp, prod, self.flags[:k].reshape(rows, cols)


def _pairing_terms(z, w, b, out, tmp, prod) -> None:
    """out[k, l] = z_k . w_l + b_l for rows z and columns w (the (2n, M)
    transpose of M rows), in _dot's order: the <x, u*> and the <u, x*>
    terms accumulate apart, then add. A zero term may come out -0.0 where
    the scalar sum, which starts from 0, gives 0.0."""
    n = z.shape[1] // 2
    np.multiply(z[:, 0, None], w[None, n], out=out)
    np.multiply(w[None, 0], z[:, n, None], out=tmp)
    for i in range(1, n):
        out += np.multiply(z[:, i, None], w[None, n + i], out=prod)
        tmp += np.multiply(w[None, i], z[:, n + i, None], out=prod)
    out += tmp
    out += b[None, :]


def _negative_gaps(z, w, b, out, tmp, prod) -> None:
    """out[k, l] = -<x_k - u_l, x*_k - u*_l> for rows z and columns w, as
    the sum over i of (u_i - x_i)(x*_i - u*_i) in monotone_gap's order.
    Rounding commutes with negation, so each entry is exactly minus the
    scalar gap (up to the sign of a zero), and the gap of z and w is the
    gap of w and z. b is unused."""
    n = z.shape[1] // 2
    for i in range(n):
        acc = out if i == 0 else prod
        np.subtract(w[None, i], z[:, i, None], out=acc)
        acc *= np.subtract(z[:, n + i, None], w[None, n + i], out=tmp)
        if i:
            out += prod


def max_pairing_rows(ws: np.ndarray, b: np.ndarray,
                     zs: np.ndarray) -> np.ndarray:
    """max over rows w = (u, u*) of ws of z . w + b_w, for every row
    z = (x, x*) of zs; -inf against no rows.

    Each pairing accumulates coordinate by coordinate with elementwise ops
    in _dot's order (no matmul), so every value equals the scalar
    natural_pairing(z, w) + b_w bit for bit; adding 0.0 at the end turns a
    -0.0 maximum back into the scalar 0.0.
    """
    out = np.full(zs.shape[0], -INF)
    bufs = _Buffers(zs.shape[0] * ws.shape[0])
    for r, c in _blocks(zs.shape[0], ws.shape[0]):
        z, w = zs[r], ws[c].T
        terms, tmp, prod, _ = bufs.tile(z.shape[0], w.shape[1])
        _pairing_terms(z, w, b[c], terms, tmp, prod)
        np.maximum(out[r], terms.max(axis=1), out=out[r])
    out += 0.0
    return out


# Columns in the first chunk of a threshold scan; each later chunk is
# _CHUNK_GROWTH times wider, so rows that fail early cost few terms.
_FIRST_CHUNK = 8
_CHUNK_GROWTH = 4


def _one_pass(n_rows: int, n_cols: int) -> bool:
    """Whether a scan takes one plain pass over its whole product: at most
    _BLOCK_ELEMS // _FIRST_CHUNK terms, where ordering columns or bounding
    runs costs more than it saves."""
    return n_rows * n_cols <= _BLOCK_ELEMS // _FIRST_CHUNK


def _all_at_most(terms, ws: np.ndarray, b, zs: np.ndarray,
                 thr: np.ndarray) -> np.ndarray:
    """The threshold kernel: whether every term of row z against the rows
    of ws is <= thr_z, for every row z of zs; True against no rows.
    terms(z, w, b, out, tmp, prod) writes one block of terms.

    A small product (_one_pass) is one plain pass. A larger one visits the
    columns in a spread order (every stride-th one first, the stride
    splitting ws into _FIRST_CHUNK runs), in chunks that grow by
    _CHUNK_GROWTH, and drops a row at the first chunk holding a term above
    its threshold; its block buffers serve every chunk. A conjunction does
    not depend on the order of its terms, so either way the mask is the
    full product's bit for bit.
    """
    m = ws.shape[0]
    if _one_pass(zs.shape[0], m):
        out, tmp, prod = np.empty((3, zs.shape[0], m))
        terms(zs, ws.T, b, out, tmp, prod)
        return (out <= thr[:, None]).all(axis=1)
    out = np.ones(zs.shape[0], dtype=bool)
    bufs = _Buffers(zs.shape[0] * m)
    stride = -(-m // _FIRST_CHUNK)
    order = np.argsort(np.arange(m) % stride, kind="stable")
    live, z, t = np.arange(zs.shape[0]), zs, thr
    start, width = 0, min(_FIRST_CHUNK, _BLOCK_ELEMS)
    while start < m and live.size:
        cols = order[start:start + width]
        w, bw = ws[cols].T.copy(), None if b is None else b[cols]
        keep = np.empty(live.size, dtype=bool)
        for r, _ in _blocks(live.size, cols.size):
            zr = z[r]
            block, tmp, prod, flags = bufs.tile(zr.shape[0], cols.size)
            terms(zr, w, bw, block, tmp, prod)
            keep[r] = np.less_equal(block, t[r, None], out=flags).all(axis=1)
        if not keep.all():
            out[live[~keep]] = False
            live, z, t = live[keep], z[keep], t[keep]
        start += cols.size
        width = min(width * _CHUNK_GROWTH, _BLOCK_ELEMS)
    return out


def pairing_below_rows(ws: np.ndarray, b: np.ndarray, zs: np.ndarray,
                       thr: np.ndarray) -> np.ndarray:
    """Whether z . w + b_w <= thr_z for every row w of ws, for every row z
    of zs; True against no rows. Each term sums in max_pairing_rows'
    order, so the mask equals max_pairing_rows(ws, b, zs) <= thr bit for
    bit."""
    return _all_at_most(_pairing_terms, ws, b, zs,
                        np.asarray(thr, dtype=float))


def related_rows(ws: np.ndarray, zs: np.ndarray, eps: float) -> np.ndarray:
    """Whether <x - u, x* - u*> >= -eps against every row (u, u*) of ws,
    for every row (x, x*) of zs; True against no rows. The gap sums in
    monotone_gap's order."""
    return _all_at_most(_negative_gaps, ws, None, zs,
                        np.full(zs.shape[0], float(eps)))


# Rows per run of the pairwise gap scan: one interval bound covers all the
# gaps between two runs.
_RUN = 64


def _settled_runs(lo: np.ndarray, hi: np.ndarray, a: int,
                  eps: float) -> np.ndarray:
    """Which runs b >= a, given every run's columnwise minima lo and maxima
    hi, have all their gaps against run a at least -eps for certain.

    Over the two runs x_i - u_i lies in [lo_a - hi_b, hi_a - lo_b] and
    x*_i - u*_i likewise, so the sum over i of the least product of the
    interval ends bounds every gap from below (Moore 1966, "Interval
    Analysis"). The rounding of that bound and of the kernel's gaps each
    stay within about (n + 2) 2^-53 sum_i |x_i - u_i| |x*_i - u*_i|, a sum
    the interval ends bound; a run is settled when the bound clears -eps
    by twice the two errors together, (4n + 8) 2^-53 times that sum.
    """
    n = lo.shape[1] // 2
    low, high = lo[a] - hi[a:], hi[a] - lo[a:]
    ends = (low[:, :n] * low[:, n:], low[:, :n] * high[:, n:],
            high[:, :n] * low[:, n:], high[:, :n] * high[:, n:])
    bound = np.minimum.reduce(ends).sum(axis=1)
    size = np.maximum(-low, high)
    scale = (size[:, :n] * size[:, n:]).sum(axis=1)
    return bound - (4 * n + 8) * 2.0 ** -53 * scale >= -eps


def _first_false(ok: np.ndarray):
    """(k, l): the first False of a 2-D mask in row-major order, if any."""
    if ok.all():
        return None
    return divmod(int(ok.argmin()), ok.shape[1])


def _first_failure(z: np.ndarray, w: np.ndarray, eps: float,
                   bufs: _Buffers):
    """The first (k, l) in row-major order whose gap between row z_k and
    column w_l is not >= -eps; None when every one passes."""
    hit = None
    for r, c in _blocks(z.shape[0], w.shape[1]):
        zr, wc = z[r], w[:, c]
        gaps, tmp, prod, flags = bufs.tile(zr.shape[0], wc.shape[1])
        _negative_gaps(zr, wc, None, gaps, tmp, prod)
        kl = _first_false(np.less_equal(gaps, eps, out=flags))
        if kl is not None:
            pair = (r.start + kl[0], c.start + kl[1])
            hit = pair if hit is None else min(hit, pair)
    return hit


def first_gap_failure(rows: np.ndarray, eps: float):
    """The first pair (i, j), i < j in lexicographic order, of rows whose
    gap <x - u, x* - u*> is not >= -eps; None when every pair passes.

    The gap kernel is symmetric bit for bit, so the first row with a
    failing partner is the pair's i, and each of its failing partners
    comes after it. A small graph (_one_pass) takes the whole product in
    one pass; a larger one is cut into runs of _RUN rows, and each run is
    scanned only against itself and the runs after it that _settled_runs
    leaves open.
    """
    m = rows.shape[0]
    if _one_pass(m, m):
        gaps, tmp, prod = np.empty((3, m, m))
        _negative_gaps(rows, rows.T, None, gaps, tmp, prod)
        return _first_false(gaps <= eps)
    starts = np.arange(0, m, _RUN)
    lo = np.minimum.reduceat(rows, starts)
    hi = np.maximum.reduceat(rows, starts)
    run_of = np.arange(m) // _RUN
    bufs = _Buffers(_RUN * m)
    for a, r0 in enumerate(starts.tolist()):
        cols = r0 + np.flatnonzero(
            ~_settled_runs(lo, hi, a, eps)[run_of[r0:] - a])
        hit = _first_failure(rows[r0:r0 + _RUN], rows[cols].T.copy(), eps,
                             bufs)
        if hit is not None:
            return r0 + hit[0], int(cols[hit[1]])
    return None


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
