"""Convex function values on Z = R^n x R^n under the natural pairing.

Two representations cover what the calculus needs: maxima of affine pieces
and lower convex envelopes of finite data (evaluated by an exact LP). Both
hold the data as a (k, 2n) array of [p, p*] rows and a (k,) array of
values; envelope() builds one from (point, value) pairs. Each is the square
conjugate f#(z) = sup(z.z' - f(z')) of the other, so the conjugate is exact
for both: the same rows with the values negated.

envelope_rows takes each row down four routes in turn. An envelope is +inf
off the convex hull of its data, so the first two are cheap tests: the
data's bounding box, then hull cuts, the edges of the 2-D hulls of the data
projected onto each pair of coordinates (Andrew's monotone chain). A row
beyond a cut by a margin far wider than the LP's own feasibility tolerance
has no convex weights, so it keeps +inf without a solve. Third, the facet
table (Envelope._facets): the LP's dual-feasible bases, the lower facets of
the data lifted by its values. A basis that is also primal feasible at a row
is optimal there (Dantzig 1963, "Linear Programming and Extensions"), so a
row whose weights under some basis are all at least -_FEAS_TOL * scale is
answered by one solve with that basis, under the checks the simplex applies
to its own final basis. Last, the lockstep simplex (lp.solve_rows) takes the
rows the table leaves, and every row of an envelope above _FACET_CAP.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import core, lp
from .core import (INF, PrimalDualPoint, first_gap_failure,
                   max_pairing_rows, natural_pairing, pdp, point_rows,
                   row_points, supremum)
from .errors import DimensionMismatch, LPNumericalError, MonokitError

# The facet table enumerates the C(k, r) bases of an envelope LP with k data
# points and a data matrix of rank r only up to C(20, 3); a larger program
# goes to the simplex whole. Measured on a 2-vCPU x86-64 VM, a build costs
# about 0.15 ms + 0.65 us per basis at r = 3 and 0.2 ms + 1.0 us at r = 5,
# 0.8-1.2 ms for the largest tables the cap admits (C(20, 3), C(12, 5)),
# against 0.55-0.65 ms for one lockstep call on a single row. A seed-1
# envelope-lp bench pass took 314 ms with no table, 224 ms at a cap of 560,
# 214 ms at 1140 and 209-210 ms at 2048 and 4096, where one build can cost
# as much as five such calls.
_FACET_CAP = 1140
# A basis enters the table only if |det B| exceeds this times the product of
# the column norms of B. Near 1e-12, on data with entries near 1e-9, a
# basis' value can miss the exact optimum by 1e-8 at a row it holds.
_FACET_COND = 1e-6


class ConvexFn:
    """Interface: evaluate(z) returns an extended-real value, and
    evaluate_rows(rows) the same value at every [x, x*] row of an (N, 2n)
    array."""

    dimension: int

    def evaluate(self, z: PrimalDualPoint) -> float:
        raise NotImplementedError

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class _RowData(ConvexFn):
    """Finite data: a (k, 2n) float array of [p, p*] rows and a (k,) array
    of values, both copied and read-only; equal by value."""

    rows: np.ndarray
    values: np.ndarray
    dimension: int

    def __post_init__(self):
        for name in ("rows", "values"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if (self.values.ndim != 1
                or self.rows.shape != (len(self.values), 2 * self.dimension)):
            raise DimensionMismatch(
                f"data shapes {self.rows.shape}, {self.values.shape} != "
                f"(k, {2 * self.dimension}), (k,)")

    def __eq__(self, other):
        return (type(other) is type(self) and other.dimension == self.dimension
                and np.array_equal(other.rows, self.rows)
                and np.array_equal(other.values, self.values))


class MaxAffine(_RowData):
    """max over data (p_i, v_i) of z . p_i + v_i; -inf with no data."""

    def evaluate(self, z: PrimalDualPoint) -> float:
        _check_rows(self, point_rows([z], z.dimension))
        return supremum(natural_pairing(z, w) + b for w, b in
                        zip(row_points(self.rows), self.values.tolist()))

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        return max_affine_eval_batch(self, rows)


class Envelope(_RowData):
    """Lower convex envelope of finite data (p_i, v_i)."""

    def evaluate(self, z: PrimalDualPoint) -> float:
        return envelope_eval(self, z)

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        return envelope_rows(self, rows)

    @cached_property
    def _lp(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lower, upper, matrix, values): the data's bounding box widened
        by the hull slack, and the LP over convex weights."""
        slack = 1e-9
        matrix = np.vstack([self.rows.T, np.ones((1, len(self.rows)))])
        return (self.rows.min(axis=0) - slack, self.rows.max(axis=0) + slack,
                matrix, self.values)

    @cached_property
    def _hull_cuts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pairs, normals, offsets), one entry per cut: for each pair i < j
        of the 2n coordinates, the outward unit normals d of the 2-D hull of
        the data projected onto (i, j), and h = max d . p over every data
        row p, so d . p <= h holds for the data as computed, whatever the
        rounding of the hull itself. Kept out of the fields like _lp."""
        pairs, normals = [], []
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            for pair in itertools.combinations(range(2 * self.dimension), 2):
                d = _hull_normals(self.rows[:, pair])
                pairs += [pair] * len(d)
                normals.append(d)
            pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
            normals = np.vstack(normals)
            return pairs, normals, _cut_values(self.rows, pairs, normals).max(
                axis=0, initial=-INF)

    @cached_property
    def _facets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, inverses, bases): the dual-feasible bases of the LP, the
        lower facets of the data lifted by its values.

        rows are the r rows of the data matrix that span its row space
        (_spanning_rows). A basis holds r data columns, whose r x r block
        B on those rows has |det B| above _FACET_COND times the product of
        its column norms, and the artificial column of every other row;
        inverses holds each B^-1. Only bases whose reduced costs
        c_j - y . a_j (B^T y = c_B) are all at least -lp._COST_TOL, the
        simplex's own optimality test, are kept, in the lexicographic order
        of their columns. Empty when C(k, r) exceeds _FACET_CAP. Built on
        first use, in blocks of at most _BLOCK_ELEMS, and kept like _lp."""
        _, _, matrix, values = self._lp
        m, k = matrix.shape
        rows = _spanning_rows(matrix)
        r = rows.size
        sub = matrix[rows]
        inverses, bases = [np.empty((0, r, r))], [np.empty((0, m), np.intp)]
        if math.comb(k, r) <= _FACET_CAP:
            norms = np.sqrt((sub * sub).sum(axis=0))
            combos = _combinations(k, r)
            step = max(1, core._BLOCK_ELEMS // (r * max(r, k)))
            for s in range(0, len(combos), step):
                cols = combos[s:s + step].astype(np.intp)
                transposed = sub.T[cols]
                with np.errstate(divide="ignore"):  # log 0 in det: det 0
                    det = np.linalg.det(transposed)
                good = np.abs(det) > _FACET_COND * norms[cols].prod(axis=1)
                cols, transposed = cols[good], transposed[good]
                y = np.linalg.solve(transposed, values[cols][:, :, None])
                reduced = values - y[:, 0] * sub[0]
                for i in range(1, r):
                    reduced -= y[:, i] * sub[i]
                dual = (reduced >= -lp._COST_TOL).all(axis=1)
                basis = np.tile(k + np.arange(m), (int(dual.sum()), 1))
                basis[:, rows] = cols[dual]
                inverses.append(_inverses(transposed[dual]))
                bases.append(basis)
        return rows, np.concatenate(inverses), np.concatenate(bases)

    def _gap_failure(self, eps: float):
        """The first pair of data rows whose gap is below -eps, as
        first_gap_failure finds it, or None when the data is pairwise
        monotone within eps; one scan per eps, kept with the envelope like
        _lp."""
        scans = self.__dict__.setdefault("_gap_scans", {})
        if eps not in scans:
            scans[eps] = first_gap_failure(self.rows, eps)
        return scans[eps]


def _check_rows(f, rows) -> np.ndarray:
    """rows as a float array, or DimensionMismatch unless shaped (N, 2n)."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 2 * f.dimension:
        raise DimensionMismatch(
            f"row shape {rows.shape} != (N, {2 * f.dimension}) for function "
            f"dimension {f.dimension}")
    return rows


def envelope(points, dimension=None) -> Envelope:
    """Build an Envelope from (point, value) pairs."""
    pairs = [(p if isinstance(p, PrimalDualPoint) else pdp(*p), v)
             for p, v in points]
    if dimension is None:
        if not pairs:
            raise MonokitError("dimension required for a point-free envelope")
        dimension = pairs[0][0].dimension
    for p, _ in pairs:
        if p.dimension != dimension:
            raise DimensionMismatch(f"point dimension {p.dimension} != "
                                    f"envelope dimension {dimension}")
    rows = [p.x + p.xstar for p, _ in pairs] or np.empty((0, 2 * dimension))
    return Envelope(rows, [v for _, v in pairs], dimension)


def max_affine_eval_batch(f: MaxAffine, zs: np.ndarray) -> np.ndarray:
    """f.evaluate at every row (x..., xstar...) of zs, bit for bit, in the
    blocked pairing kernel."""
    return max_pairing_rows(f.rows, f.values, _check_rows(f, zs))


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


@lru_cache(maxsize=64)
def _combinations(k: int, r: int) -> np.ndarray:
    """The r-subsets of range(k) as rows, in lexicographic order; shared
    read-only by every envelope of that size. Stored in the narrowest
    unsigned type that holds k - 1: as intp, the 20 tables a seed-1
    envelope-lp pass keeps held 116 KiB."""
    out = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(k), r)),
        dtype=np.min_scalar_type(k - 1)).reshape(-1, r)
    out.flags.writeable = False
    return out


def _inverses(transposed: np.ndarray) -> np.ndarray:
    """B^-1 for each B^T of a stack, one row of B^-1 per solve against a
    unit vector, all in one call. Not np.linalg.inv, nor a solve against
    the identity: LAPACK's many-right-hand-side routines added about 0.2
    MiB to the resident size of a process that loads them."""
    n, r, _ = transposed.shape
    units = np.broadcast_to(np.eye(r)[:, :, None], (n, r, r, 1))
    return np.linalg.solve(np.repeat(transposed, r, axis=0),
                           units.reshape(n * r, r, 1)).reshape(n, r, r)


def _spanning_rows(matrix: np.ndarray) -> np.ndarray:
    """The ascending indices of rows of matrix that span its row space: the
    last row (the envelope's row of ones), then each other row in turn whose
    part orthogonal to the rows kept (Gram-Schmidt, projected twice) is
    longer than 1e-12 times the row. Not an SVD: its LAPACK routines alone
    added 0.8 MiB to the resident size of a process that loads them."""
    keep, ortho = [], np.empty((0, matrix.shape[1]))
    for i in [len(matrix) - 1, *range(len(matrix) - 1)]:
        v = matrix[i]
        for _ in range(2):
            v = v - (ortho @ v) @ ortho
        size = np.sqrt(v @ v)
        if size > 1e-12 * np.sqrt(matrix[i] @ matrix[i]):
            keep.append(i)
            ortho = np.vstack([ortho, v / size])
    return np.array(sorted(keep), dtype=np.intp)


def _facet_rows(f: Envelope, rhs: np.ndarray):
    """(answered, values): the mask of the LP rows [z, 1] of rhs that the
    facet table answers, and their values in row order.

    A row's weights under a basis are B^-1 b, for b its entries on the
    table's spanning rows, summed coordinate by coordinate so the bits
    never depend on the rows beside it. The row takes the basis whose least
    weight is largest (the first such), if that weight is at least
    -_FEAS_TOL * scale: primal and dual feasible, the basis is optimal, and
    a row inside the cone of any basis of the table takes one of those.
    Its value comes from lp._outcomes, the final solve and acceptance
    checks the simplex applies to its own final basis. A row they reject,
    or that no basis certifies, is left to the simplex. Blocks hold at most
    _BLOCK_ELEMS weights.
    """
    rows, inverses, bases = f._facets
    answered = np.zeros(len(rhs), dtype=bool)
    if not len(bases):
        return answered, np.empty(0)
    _, _, matrix, values = f._lp
    pick = np.full(len(rhs), -1)
    scale = np.maximum(1.0, np.abs(rhs).max(axis=1))
    b, bound = rhs[:, rows], -lp._FEAS_TOL * scale
    step = max(1, core._BLOCK_ELEMS // (len(bases) * rows.size))
    for s in range(0, len(rhs), step):
        bs = b[s:s + step]
        least = np.full((len(bs), len(bases)), INF)
        for j in range(rows.size):
            w = inverses[:, j, 0] * bs[:, :1]
            for i in range(1, rows.size):
                w += inverses[:, j, i] * bs[:, i:i + 1]
            np.minimum(least, w, out=least)
        best = least.argmax(axis=1)
        ok = least[np.arange(len(bs)), best] >= bound[s:s + step]
        pick[s:s + step] = np.where(ok, best, -1)
    hit = np.flatnonzero(pick >= 0)
    out = []
    for i, sol in zip(hit, lp._outcomes(values, matrix, rhs[hit],
                                        bases[pick[hit]], 0.0, scale[hit])):
        if not isinstance(sol, LPNumericalError):
            answered[i] = True
            out.append(sol.value)
    return answered, np.array(out, dtype=float)


def envelope_rows(f: Envelope, rows: np.ndarray) -> np.ndarray:
    """Exact envelope value at every [x, x*] row of an (N, 2n) array; +inf
    outside the convex hull of the data.

    One bounding-box test covers every row; the rows inside the box that no
    hull cut (Envelope._hull_cuts) rules out go to the facet table
    (_facet_rows), and the rows it leaves through one lockstep LP. Each
    route depends on the row alone, so each value is bit for bit the
    one-row value. Solver trouble surfaces as LPNumericalError, never as a
    value, raised for the first failing row in row order.

    A row the table answers within the LP's tolerance of a basis, but
    outside every basis it holds, takes the optimum of the program relaxed
    by that tolerance, as scipy's linprog does: where the data has entries
    near 1e-9 that can be below the exact optimum, which the simplex might
    find or raise on.

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
    rows = _check_rows(f, rows)
    out = np.full(len(rows), INF)
    if not len(f.rows):
        return out
    lower, upper, matrix, values = f._lp
    inside = np.flatnonzero(~((rows < lower) | (rows > upper)).any(axis=1))
    if inside.size:
        inside = inside[~_beyond_hull(f, rows[inside])]
    # Chunks bound the solutions (and their x vectors) held at once.
    step = max(1, core._BLOCK_ELEMS // matrix.size)
    left = [inside[:0]]
    for s in range(0, inside.size, step):
        idx = inside[s:s + step]
        answered, vals = _facet_rows(f, _lp_rhs(rows[idx]))
        out[idx[answered]] = vals
        left.append(idx[~answered])
    left = np.concatenate(left)
    for s in range(0, left.size, step):
        idx = left[s:s + step]
        for i, sol in zip(idx, lp.solve_rows(values, matrix,
                                             _lp_rhs(rows[idx]))):
            if isinstance(sol, LPNumericalError):
                raise sol
            if sol.status is lp.LPStatus.OPTIMAL:
                out[i] = sol.value
            elif sol.status is not lp.LPStatus.INFEASIBLE:
                raise LPNumericalError("envelope program reported unbounded")
    return out


def _lp_rhs(rows: np.ndarray) -> np.ndarray:
    """The LP's right-hand sides [z, 1] for the rows z."""
    return np.hstack([rows, np.ones((len(rows), 1))])


def envelope_eval(f: Envelope, z: PrimalDualPoint) -> float:
    """Exact envelope value by LP; the one-row call of envelope_rows."""
    return float(envelope_rows(f, point_rows([z], z.dimension))[0])


def conjugate(f: ConvexFn) -> ConvexFn:
    """Structural square conjugate: the same rows with negated values, a
    MaxAffine for an Envelope and an Envelope for a MaxAffine."""
    swap = {MaxAffine: Envelope, Envelope: MaxAffine}.get(type(f))
    if swap is None:
        raise MonokitError(f"no structural conjugate for {type(f).__name__}")
    return swap(f.rows, -f.values, f.dimension)


def square_conjugate_eval(f: ConvexFn, z: PrimalDualPoint) -> float:
    """f#(z) = sup(z . z' - f(z')), the structural conjugate at z.

    Exact for Envelope (the sup is attained at the data points) and for
    MaxAffine (whose conjugate is the envelope of its pieces).
    """
    return conjugate(f).evaluate(z)
