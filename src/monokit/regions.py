"""Convex regions of R^n and the sampling grids laid over them.

Boxes carry per-axis open/closed flags so the difference between (0,1) and
[0,1] survives all the way into membership tests and lattice placement.
Infinite bounds are allowed and are treated as open; sampling clips them to a
configured ambient box. Half-spaces and symbolic intersections cover the
remaining shapes the calculus needs.

Points are (N, n) float arrays of rows. Each shape answers membership and
the Chebyshev distance to its closure for many rows at once (contains_rows,
distance_inf_rows), which reject rows of another width than the region's
dimension; the scalar contains is a one-row call.
Every lattice is built as rows by lattice_rows, at the grid's resolution
per axis, and grid_sample and GridSpec.dual_lattice are tuple views of
those arrays. GridSpec.dual_rows builds the clipped dual box's lattice from
its one axis, as lattice_rows would at dual_resolution, at each call;
nothing is kept between calls.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .core import INF, as_vector, format_scalar
from .errors import DimensionMismatch, RegionError


class Region:
    """Abstract convex region: membership, distance, closure and the
    bounding box that lattice_rows samples."""

    dimension: int

    def contains(self, x) -> bool:
        """Membership of one point: a one-row call of contains_rows."""
        return bool(self.contains_rows(np.array([as_vector(x)]))[0])

    def contains_rows(self, xs: np.ndarray) -> np.ndarray:
        """Boolean mask: which rows of an (N, n) array lie in the region."""
        return self._contains_rows(self._checked(xs))

    def _contains_rows(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _checked(self, xs: np.ndarray) -> np.ndarray:
        if xs.shape[1] != self.dimension:
            raise DimensionMismatch("point dimension does not match region")
        return xs

    def closure(self) -> "Region":
        raise NotImplementedError

    def is_empty(self) -> bool:
        raise NotImplementedError

    def distance_inf_rows(self, xs: np.ndarray) -> np.ndarray:
        """Chebyshev distance from every row of an (N, n) array to the
        closure; +inf when the region is empty."""
        return self._distance_inf_rows(self._checked(xs))

    def _distance_inf_rows(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bounding_box(self, clip: "Box") -> "Box":
        """A closed finite box containing region-intersect-clip."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


def _clip_axis(lo, hi, lo_open, hi_open, clo, chi, clo_open, chi_open):
    """One axis of a box cut by another, both as (lower, upper, lower_open,
    upper_open): on each side the tighter bound with its own openness, open
    at a tie if either is (the value kept is the first's). An empty axis is
    normalized to the recognizable (0, 0, open, open)."""
    if lo < clo:
        lo, lo_open = clo, clo_open
    elif lo == clo:
        lo_open = lo_open or clo_open
    if hi > chi:
        hi, hi_open = chi, chi_open
    elif hi == chi:
        hi_open = hi_open or chi_open
    if lo > hi:
        return 0.0, 0.0, True, True
    return lo, hi, lo_open, hi_open


def _axis_token(lo, hi, lo_open, hi_open):
    lb = "(" if lo_open else "["
    rb = ")" if hi_open else "]"
    return f"{lb}{format_scalar(lo)}, {format_scalar(hi)}{rb}"


@dataclass(frozen=True)
class Box(Region):
    """Product of intervals, each side open, closed, or infinite."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    lower_open: tuple[bool, ...]
    upper_open: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.lower)
        if n < 1 or len(self.upper) != n or len(self.lower_open) != n \
                or len(self.upper_open) != n:
            raise RegionError("box axis descriptions disagree in length")
        for lo, hi in zip(self.lower, self.upper):
            if math.isnan(lo) or math.isnan(hi):
                raise RegionError("box bounds must not be nan")
            if lo > hi:
                raise RegionError(f"lower bound {lo} exceeds upper bound {hi}")
        # Infinite bounds are open by construction.
        object.__setattr__(self, "lower_open", tuple(
            o or math.isinf(l) for o, l in zip(self.lower_open, self.lower)))
        object.__setattr__(self, "upper_open", tuple(
            o or math.isinf(u) for o, u in zip(self.upper_open, self.upper)))

    @property
    def dimension(self) -> int:
        return len(self.lower)

    def is_empty(self) -> bool:
        return any(
            lo == hi and (lo_o or hi_o)
            for lo, hi, lo_o, hi_o in zip(
                self.lower, self.upper, self.lower_open, self.upper_open)
        )

    def _contains_rows(self, xs):
        out = np.ones(len(xs), dtype=bool)
        for i, (lo, hi, lo_o, hi_o) in enumerate(zip(
                self.lower, self.upper, self.lower_open, self.upper_open)):
            x = xs[:, i]
            out &= (x > lo) if lo_o else (x >= lo)
            out &= (x < hi) if hi_o else (x <= hi)
        return out

    def closure(self) -> "Box":
        return Box(self.lower, self.upper,
                   tuple(math.isinf(l) for l in self.lower),
                   tuple(math.isinf(u) for u in self.upper))

    def interior(self) -> "Box":
        n = self.dimension
        return Box(self.lower, self.upper, (True,) * n, (True,) * n)

    @property
    def is_closed(self) -> bool:
        return all(o == math.isinf(l) for o, l in zip(self.lower_open, self.lower)) \
            and all(o == math.isinf(u) for o, u in zip(self.upper_open, self.upper))

    @property
    def is_whole_space(self) -> bool:
        return all(l == -INF for l in self.lower) and all(u == INF for u in self.upper)

    def support(self, direction) -> float:
        if self.is_empty():
            return -INF
        d = as_vector(direction)
        if len(d) != self.dimension:
            raise DimensionMismatch("direction dimension does not match region")
        total = 0.0
        for di, lo, hi in zip(d, self.lower, self.upper):
            if di > 0:
                if hi == INF:
                    return INF
                total += di * hi
            elif di < 0:
                if lo == -INF:
                    return INF
                total += di * lo
        return total

    def support_rows(self, directions: np.ndarray) -> np.ndarray:
        """support at every row of an (N, n) array, equal to support with
        ==: each axis adds d_i times the bound it picks in the same order,
        and a zero direction adds a zero, which leaves the sum unchanged."""
        if self.is_empty():
            return np.full(directions.shape[0], -INF)
        total = np.zeros(directions.shape[0])
        for i, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            d = directions[:, i]
            total += d * np.where(d > 0, hi, np.where(d < 0, lo, 0.0))
        return total

    def _distance_inf_rows(self, xs):
        """The largest excess over a bound, axis by axis; 0 inside."""
        if self.is_empty():
            return np.full(len(xs), INF)
        worst = np.zeros(len(xs))
        for i, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            x, gap = xs[:, i], np.zeros(len(xs))
            np.subtract(lo, x, out=gap, where=x < lo)
            np.subtract(x, hi, out=gap, where=x > hi)
            np.maximum(worst, gap, out=worst)
        return worst

    def intersect(self, other: "Box") -> "Box":
        if other.dimension != self.dimension:
            raise DimensionMismatch("box dimensions differ")
        axes = [_clip_axis(*mine, *theirs)
                for mine, theirs in zip(self._axes(), other._axes())]
        return Box(*zip(*axes))

    def _axes(self):
        """Per axis (lower, upper, lower_open, upper_open)."""
        return zip(self.lower, self.upper, self.lower_open, self.upper_open)

    def bounding_box(self, clip: "Box") -> "Box":
        return self.closure().intersect(clip.closure())

    def describe(self) -> str:
        return " x ".join(
            _axis_token(lo, hi, lo_o, hi_o)
            for lo, hi, lo_o, hi_o in zip(
                self.lower, self.upper, self.lower_open, self.upper_open))


@dataclass(frozen=True)
class HalfSpace(Region):
    """{x : <normal, x> <= offset}, strict when closed is False."""

    normal: tuple[float, ...]
    offset: float
    closed: bool = True

    def __post_init__(self):
        if all(c == 0.0 for c in self.normal):
            raise RegionError("half-space normal must be nonzero")

    @property
    def dimension(self) -> int:
        return len(self.normal)

    def is_empty(self) -> bool:
        return False

    def _values(self, xs: np.ndarray) -> np.ndarray:
        """<normal, x> at every row, summed axis by axis."""
        out = np.zeros(len(xs))
        for i, a in enumerate(self.normal):
            out += a * xs[:, i]
        return out

    def _contains_rows(self, xs):
        val = self._values(xs)
        return val <= self.offset if self.closed else val < self.offset

    def closure(self) -> "HalfSpace":
        return HalfSpace(self.normal, self.offset, True)

    def _distance_inf_rows(self, xs):
        excess = self._values(xs) - self.offset
        return np.where(excess <= 0, 0.0,
                        excess / sum(abs(c) for c in self.normal))

    def bounding_box(self, clip: "Box") -> "Box":
        return clip.closure()

    def describe(self) -> str:
        coords = ", ".join(format_scalar(c) for c in self.normal)
        op = "<=" if self.closed else "<"
        return f"halfspace ({coords}) {op} {format_scalar(self.offset)}"


@dataclass(frozen=True)
class Intersection(Region):
    """Intersection of two regions kept symbolic; membership is the AND."""

    first: Region
    second: Region

    def __post_init__(self):
        if self.first.dimension != self.second.dimension:
            raise DimensionMismatch("intersected regions disagree in dimension")

    @property
    def dimension(self) -> int:
        return self.first.dimension

    def is_empty(self) -> bool:
        return self.first.is_empty() or self.second.is_empty()

    def _contains_rows(self, xs):
        return self.first.contains_rows(xs) & self.second.contains_rows(xs)

    def closure(self) -> "Region":
        return Intersection(self.first.closure(), self.second.closure())

    def _distance_inf_rows(self, xs):
        # Lower bound: the true distance to the intersection can be larger.
        return np.maximum(self.first.distance_inf_rows(xs),
                          self.second.distance_inf_rows(xs))

    def bounding_box(self, clip: "Box") -> "Box":
        return self.first.bounding_box(clip).intersect(
            self.second.bounding_box(clip))

    def describe(self) -> str:
        return f"({self.first.describe()}) & ({self.second.describe()})"


def intersect_regions(a: Region, b: Region) -> Region:
    """Intersection, simplified to a Box whenever both inputs are boxes."""
    if isinstance(a, Box) and isinstance(b, Box):
        return a.intersect(b)
    return Intersection(a, b)


def interval(lo, hi, lo_open=False, hi_open=False) -> Box:
    return Box((float(lo),), (float(hi),), (bool(lo_open),), (bool(hi_open),))


def closed_box(lower, upper) -> Box:
    lo, hi = as_vector(lower), as_vector(upper)
    n = len(lo)
    return Box(lo, hi, (False,) * n, (False,) * n)

def open_box(lower, upper) -> Box:
    lo, hi = as_vector(lower), as_vector(upper)
    n = len(lo)
    return Box(lo, hi, (True,) * n, (True,) * n)


def whole_space(n: int) -> Box:
    return Box((-INF,) * n, (INF,) * n, (True,) * n, (True,) * n)


_AXIS_RE = re.compile(
    r"^\s*([\[(])\s*([^,\s]+)\s*,\s*([^,\s\])]+)\s*([\])])\s*$")


def _parse_bound(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise RegionError(f"bad bound literal {text!r}") from exc


def box_from_literal(text: str) -> Box:
    """Parse interval products like '(0, 1) x [-1, 1]' into a Box.

    Parentheses mark open ends, brackets closed ends; inf/-inf are accepted.
    """
    axes = text.split("x")
    lower, upper, lo_open, hi_open = [], [], [], []
    for axis in axes:
        m = _AXIS_RE.match(axis)
        if not m:
            raise RegionError(f"bad interval literal {axis.strip()!r}")
        lo = _parse_bound(m.group(2))
        hi = _parse_bound(m.group(3))
        lower.append(lo)
        upper.append(hi)
        lo_open.append(m.group(1) == "(")
        hi_open.append(m.group(4) == ")")
    return Box(tuple(lower), tuple(upper), tuple(lo_open), tuple(hi_open))


@dataclass(frozen=True)
class GridSpec:
    """Sampling density for primal lattices and the clipped dual grid.

    resolution is the per-axis point count on primal boxes, dual_bound the
    half-width of the dual clip box [-dual_bound, dual_bound]^n sampled with
    dual_resolution points per axis, and ambient_bound the half-width of the
    box that stands in for unbounded primal directions.
    """

    resolution: int = 41
    dual_bound: float = 10.0
    dual_resolution: int = 41
    ambient_bound: float = 10.0

    def __post_init__(self):
        if not all(isinstance(r, (int, np.integer))
                   for r in (self.resolution, self.dual_resolution)):
            raise RegionError("grid resolutions must be integers")
        if self.resolution < 2 or self.dual_resolution < 2:
            raise RegionError("grid resolutions must be at least 2")
        if self.dual_bound <= 0 or self.ambient_bound <= 0:
            raise RegionError("grid bounds must be positive")
        if not (self.dual_bound < INF and self.ambient_bound < INF):
            raise RegionError("grid bounds must be finite")

    def primal_clip(self, n: int) -> Box:
        return closed_box((-self.ambient_bound,) * n, (self.ambient_bound,) * n)

    def dual_box(self, n: int) -> Box:
        return closed_box((-self.dual_bound,) * n, (self.dual_bound,) * n)

    def dual_rows(self, n: int) -> np.ndarray:
        """The dual lattice as a (D, n) array: lattice_rows of the dual
        box at dual_resolution, which the ambient box clips, taken
        straight from the one closed axis [-c, c] that clipping leaves."""
        c = min(self.dual_bound, self.ambient_bound)
        axis = _axis_lattice(-c, c, False, False, self.dual_resolution)
        return _product_rows([axis] * n)

    def dual_lattice(self, n: int) -> list[tuple[float, ...]]:
        return list(map(tuple, self.dual_rows(n).tolist()))


def _axis_lattice(lo, hi, lo_open, hi_open, k) -> np.ndarray:
    """k uniform samples of one interval, stepped inward from open ends.

    Closed-closed uses the endpoints; each open end shifts the lattice one
    step inside, so an open span is sampled with step span / (k + 1).
    Sample i is lo + span * (i + lo_open) / (k - 1 + open ends), divided
    last, so a point such as 0 lands exactly. A closed upper end is pinned
    to hi, which the last sample can round past.
    """
    if lo == hi:
        return np.array([lo])
    n_open = int(lo_open) + int(hi_open)
    out = lo + (hi - lo) * (np.arange(k) + int(lo_open)) / (k - 1 + n_open)
    if not hi_open:
        out[-1] = hi
    return out


def _product_rows(axes) -> np.ndarray:
    """The product of per-axis values as float rows, first axis slowest,
    the order of itertools.product."""
    sizes = [len(a) for a in axes]
    out = np.empty((math.prod(sizes), len(axes)))
    inner = out.shape[0]
    for i, a in enumerate(axes):
        inner //= sizes[i]
        # Splitting the one axis of a column is always a view.
        out[:, i].reshape(-1, sizes[i], inner)[...] = \
            np.asarray(a, dtype=float)[:, None]
    return out


def lattice_rows(region: Region, g: GridSpec) -> np.ndarray:
    """The lattice over a region with g.resolution samples per axis, as an
    (N, n) array of rows, lexicographic in the axes; the one lattice
    builder.

    Boxes are sampled per axis with the open-end offset rule; unbounded axes
    are clipped to the ambient box first. Other shapes sample their clipped
    bounding box and keep the rows that contains_rows admits.
    """
    n, k = region.dimension, g.resolution
    empty = np.empty((0, n))
    if region.is_empty():
        return empty
    if isinstance(region, Box):
        # Box.intersect's rule against the closed ambient box, per axis.
        c = float(g.ambient_bound)
        axes = [_clip_axis(*axis, -c, c, False, False)
                for axis in region._axes()]
        if any(lo == hi and (lo_o or hi_o) for lo, hi, lo_o, hi_o in axes):
            return empty
        return _product_rows([_axis_lattice(*axis, k) for axis in axes])
    bbox = region.bounding_box(g.primal_clip(n))
    if bbox.is_empty():
        return empty
    rows = _product_rows([_axis_lattice(bbox.lower[i], bbox.upper[i],
                                        False, False, k) for i in range(n)])
    return rows[region.contains_rows(rows)]


def grid_sample(region: Region, spec: GridSpec) -> list[tuple[float, ...]]:
    """lattice_rows as point tuples. Every returned point satisfies
    contains()."""
    return list(map(tuple, lattice_rows(region, spec).tolist()))

