"""Operator graphs in Z = R^n x R^n and their pointwise calculus.

Each handle answers the same questions: the dual fiber T(x) as dual boxes,
its graph at a declared sampling density, and the restricted Fitzpatrick
value

    phi_{T|V}(z) = sup { z . w - <u, u*> : w = (u, u*) in graph(T), u in V }.

A graph has one format: graph_rows, an (M, 2n) array of [u, u*] rows that
each kind builds from the lattice arrays in its own sampling order.
enumerate_graph is those rows as points, for the public API and the
witnesses; every check reads the rows. A PairSum keeps what it built for
the last joint window and grid it was asked: its two summands' pools and
its graph rows, read-only, so a gate, a check and the split-dual minimum
on one sum read one build. No other kind keeps a graph.

Membership is asked of many rows at once. Each kind answers fiber_rows, its
fiber boxes at an (N, n) array of primals; graph_contains_rows,
domain_contains_rows and domain_closure_contains_rows derive from it, and
the point and the restriction override the graph test where the closure of
a fiber says too much. The scalar graph_contains and domain_contains are
one-row calls, which reject a point whose dimension differs from the
operator's; enumeration, phi and mr_batch reject a window of another
dimension.

phi is computed on rows: phi_batch takes an (N, 2n) array of [x, x*] rows,
below_batch asks whether phi < thr at each and mr_batch whether each is
monotonically related to the graph. _closed_route is the one place that
picks their route. When phi_is_exact(V) holds and the graph is not finite
they use the kind's array closed form _phi_closed; otherwise they scan the
graph rows built once at an explicit grid, or handed in by a caller that
holds them (a lower bound): phi_batch in core's max kernel, below_batch
and mr_batch in its early-exit threshold kernel. The scalar phi is a
one-row call of phi_batch. For the box normal cone N_C the closed form is
the support function of C-intersect-V. The pairwise monotone scan is
core's half-product gap scan. The structural zero of the dust tolerance
below guards float noise in boundary comparisons, nothing more.

KINDS describes every kind a description may name once: its constructor
and its fields in order, each with its format. build_operator and the spec
parser both read an operator against it, so neither has a branch per kind.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import core
from .core import (DEFAULT_TOL, INF, PrimalDualPoint, Tolerance, as_vector,
                   coupling_rows, first_gap_failure, max_pairing_rows,
                   pairing_below_rows, point_rows, related_rows,
                   require_finite, row_points)
from .errors import (DimensionMismatch, MonokitError, ValidationError)
from .regions import (Box, GridSpec, Region, box_from_literal, closed_box,
                      intersect_regions, interval, lattice_rows, whole_space)
from .verdicts import Property, Verdict

_DUST = 1e-12

# The primal radius at which PairSum matches the summands' points.
_MATCH_TOL = DEFAULT_TOL.delta_dom

DEFAULT_GRID = GridSpec()


def with_defaults(g: GridSpec | None,
                  tol: Tolerance | None) -> tuple[GridSpec, Tolerance]:
    """The grid and tolerances a checker was given, or the defaults."""
    return (g or DEFAULT_GRID), (tol or DEFAULT_TOL)


def _window(n: int, V: Region | None) -> Region:
    return whole_space(n) if V is None else V


def _constant_boxes(owner: np.ndarray, low, up):
    """One box (low, up) for every row in owner, as fiber_rows returns."""
    shape = (len(owner), len(low))
    return (owner, np.broadcast_to(np.array(low, dtype=float), shape),
            np.broadcast_to(np.array(up, dtype=float), shape))


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs starts[k], ..., starts[k] + counts[k] - 1 for every k,
    concatenated."""
    ends = np.cumsum(counts)
    return (np.repeat(starts - (ends - counts), counts)
            + np.arange(ends[-1] if len(ends) else 0))


def _expand(lists, pick: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(take, values): each position k of pick repeated once for every
    value of lists[pick[k]], and those values in turn."""
    sizes = np.array([len(v) for v in lists])
    counts = sizes[pick]
    values = np.concatenate(lists).astype(float)
    return (np.repeat(np.arange(len(pick)), counts),
            values[_runs((np.cumsum(sizes) - sizes)[pick], counts)])


class OperatorHandle:
    """Common query surface for every operator kind."""

    dimension: int

    @property
    def enumeration_exact(self) -> bool:
        """True when graph_rows returns the whole graph, not a sample."""
        return False

    def domain_region(self) -> Region | None:
        """The domain as a region when it has one; None for point clouds."""
        return None

    def fiber_rows(self, xs: np.ndarray, tol: Tolerance
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """T at every row of an (N, n) array of primals, up to closure, as
        dual boxes (owner, lower, upper): box k belongs to row owner[k] and
        spans lower[k] to upper[k]. Bounds may be +-inf, and a point is a
        box with lower == upper. owner ascends, and a row's boxes come in
        the kind's order."""
        raise NotImplementedError

    def _one_row(self, x) -> np.ndarray:
        """x as a (1, n) array, checked against the operator's dimension."""
        v = as_vector(x)
        if len(v) != self.dimension:
            raise DimensionMismatch("point dimension does not match operator")
        return np.array([v])

    def graph_contains_rows(self, rows: np.ndarray,
                            tol: Tolerance) -> np.ndarray:
        """Boolean mask over [x, x*] rows: whether some box of the fiber at
        x holds x* within delta_dom on every axis."""
        n = rows.shape[1] // 2
        owner, low, up = self.fiber_rows(rows[:, :n], tol)
        s = rows[owner, n:]
        with np.errstate(invalid="ignore"):
            below, above = low - s, s - up
        # max(below, above) as Python takes it, so a nan excess fails.
        near = (np.where(above > below, above, below)
                <= tol.delta_dom).all(axis=1)
        out = np.zeros(len(rows), dtype=bool)
        out[owner[near]] = True
        return out

    def domain_contains_rows(self, xs: np.ndarray,
                             tol: Tolerance) -> np.ndarray:
        """Boolean mask over primal rows: whether the fiber is nonempty."""
        out = np.zeros(len(xs), dtype=bool)
        out[self.fiber_rows(xs, tol)[0]] = True
        return out

    def domain_closure_contains_rows(self, xs: np.ndarray,
                                     tol: Tolerance) -> np.ndarray:
        """Boolean mask over primal rows: within delta_dom of the domain
        region, or in the domain when there is no region."""
        region = self.domain_region()
        if region is None:
            return self.domain_contains_rows(xs, tol)
        return region.distance_inf_rows(xs) <= tol.delta_dom

    def graph_contains(self, z: PrimalDualPoint, tol: Tolerance) -> bool:
        """A one-row call of graph_contains_rows."""
        row = np.hstack([self._one_row(z.x), self._one_row(z.xstar)])
        return bool(self.graph_contains_rows(row, tol)[0])

    def domain_contains(self, x, tol: Tolerance) -> bool:
        """A one-row call of domain_contains_rows."""
        return bool(self.domain_contains_rows(self._one_row(x), tol)[0])

    def graph_rows(self, V: Region | None, g: GridSpec) -> np.ndarray:
        """The graph over V at the density of g as an (M, 2n) array of
        [u, u*] rows, in the kind's sampling order."""
        raise NotImplementedError

    def enumerate_graph(self, V: Region | None,
                        g: GridSpec) -> list[PrimalDualPoint]:
        """graph_rows as points, in row order."""
        return row_points(self.graph_rows(V, g))

    def phi(self, V: Region | None, z: PrimalDualPoint,
            g: GridSpec | None = None) -> float:
        """phi_{T|V}(z): a one-row call of phi_batch."""
        return float(self.phi_batch(V, point_rows([z], z.dimension), g)[0])

    def phi_is_exact(self, V: Region | None) -> bool:
        return False

    def phi_batch(self, V: Region | None, rows: np.ndarray,
                  g: GridSpec | None, graph: np.ndarray | None = None
                  ) -> np.ndarray:
        """phi at every [x, x*] row of an (N, 2n) array, in row order: the
        kind's closed form, or the sup over _sup_graph in the blocked
        kernel."""
        graph = self._sup_graph(V, g, graph)
        if graph is None:
            return self._phi_closed(V, rows)
        return self._phi_enumerated(V, rows, g, graph)

    def below_batch(self, V: Region | None, rows: np.ndarray,
                    thr: np.ndarray, g: GridSpec | None,
                    graph: np.ndarray | None = None) -> np.ndarray:
        """Boolean mask: whether phi < thr at every [x, x*] row, for
        thresholds above -inf, on phi_batch's route. Over the graph rows
        phi < thr exactly when every term is at most the float just below
        thr, which the threshold kernel asks, leaving a row at its first
        term above it."""
        graph = self._sup_graph(V, g, graph)
        if graph is None:
            return self._phi_closed(V, rows) < thr
        return pairing_below_rows(graph, -coupling_rows(graph), rows,
                                  np.nextafter(thr, -INF))

    def mr_batch(self, V: Region | None, rows: np.ndarray, tol: Tolerance,
                 g: GridSpec | None, graph: np.ndarray | None = None
                 ) -> np.ndarray:
        """Boolean mask: which [x, x*] rows are monotonically related to
        every graph point over V (see mr_test): phi <= coupling + eps_eq
        on the closed form, else the gap test over the graph rows in the
        threshold kernel."""
        graph = self._sup_graph(V, g, graph)
        if graph is None:
            return (self._phi_closed(V, rows)
                    <= coupling_rows(rows) + tol.eps_eq)
        return related_rows(graph, rows, tol.eps_eq)

    def _closed_route(self, V: Region | None) -> bool:
        """The one place that picks the route of phi and the questions
        asked of it: the kind's closed form where it is exact for V and
        the graph is not finite, else the graph rows over V. A finite
        graph's sup over its own points is its closed form."""
        self._check_window(V)
        return self.phi_is_exact(V) and not self.enumeration_exact

    def _sup_graph(self, V: Region | None, g: GridSpec | None,
                   graph: np.ndarray | None = None) -> np.ndarray | None:
        """None on the closed route; otherwise the graph rows over V that
        phi is the sup of, enumerated once at g. A caller that holds the
        graph rows of the graph route (a classify scan, which asks
        _closed_route itself) hands them in, and they are used as given."""
        if graph is not None:
            return graph
        if self._closed_route(V):
            return None
        return self._enumerate(V, g)

    def _phi_closed(self, V, rows) -> np.ndarray:
        """The closed form at every row; called only when phi_is_exact(V)."""
        raise NotImplementedError

    def _check_window(self, V: Region | None) -> None:
        """Raise DimensionMismatch for a window of another dimension."""
        if V is not None and V.dimension != self.dimension:
            raise DimensionMismatch("window dimension does not match operator")

    def _enumerate(self, V, g) -> np.ndarray:
        """graph_rows; a sampled graph needs an explicit grid."""
        self._check_window(V)
        if g is None and not self.enumeration_exact:
            raise ValidationError(f"{self.describe()} is sampled: pass a grid")
        return self.graph_rows(V, g)

    def _phi_enumerated(self, V, rows, g, graph=None) -> np.ndarray:
        """The sup over the graph rows, built once at g unless given, for
        every row."""
        if graph is None:
            graph = self._enumerate(V, g)
        return max_pairing_rows(graph, -coupling_rows(graph), rows)

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteGraph(OperatorHandle):
    """An explicit finite set of graph points."""

    points: tuple[PrimalDualPoint, ...]
    # The dimension of an empty graph, kept by restrict from its source.
    _n: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = {p.dimension for p in self.points}
        if len(dims) > 1:
            raise DimensionMismatch("graph points disagree in dimension")
        if len(set(self.points)) != len(self.points):
            raise ValidationError("graph points must be pairwise distinct")
        for p in self.points:
            require_finite(p.x + p.xstar, "graph points")

    @property
    def dimension(self) -> int:
        if self.points:
            return self.points[0].dimension
        if self._n is None:
            raise MonokitError("empty graph has no dimension")
        return self._n

    @property
    def enumeration_exact(self) -> bool:
        return True

    @cached_property
    def _rows(self) -> np.ndarray:
        # The points as read-only rows, kept out of the fields like _m.
        rows = point_rows(self.points, self.dimension)
        rows.flags.writeable = False
        return rows

    def fiber_rows(self, xs, tol):
        """Every point whose primal lies within delta_dom of the row's,
        in point order, the rows taken in 1 MiB blocks."""
        n = xs.shape[1]
        hits = np.empty((0, 2), dtype=int)
        if self.points:
            pts = self._rows[:, :n]
            step = max(1, core._BLOCK_ELEMS // pts.size)
            hits = np.concatenate([hits] + [
                np.argwhere(np.abs(xs[s:s + step, None] - pts).max(axis=2)
                            <= tol.delta_dom) + (s, 0)
                for s in range(0, len(xs), step)])
        duals = self._rows[hits[:, 1], n:] if self.points else \
            np.empty((0, n))
        return hits[:, 0], duals, duals

    def graph_rows(self, V, g):
        rows = self._rows
        if V is not None:
            rows = rows[V.contains_rows(rows[:, :self.dimension])]
        return np.array(rows)

    def phi_is_exact(self, V):
        return True

    def describe(self) -> str:
        return f"finite graph ({len(self.points)} points)"


@dataclass(frozen=True)
class Flat(OperatorHandle):
    """Graph R x {wstar}: one dual value over a whole primal region."""

    region: Region
    wstar: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "wstar", as_vector(self.wstar))
        require_finite(self.wstar, "wstar")
        if self.region.dimension != len(self.wstar):
            raise DimensionMismatch("region and dual value disagree in dimension")

    @property
    def dimension(self) -> int:
        return self.region.dimension

    def domain_region(self):
        return self.region

    def fiber_rows(self, xs, tol):
        return _constant_boxes(np.flatnonzero(self.region.contains_rows(xs)),
                               self.wstar, self.wstar)

    def graph_rows(self, V, g):
        dom = self.region if V is None else intersect_regions(self.region, V)
        xs = lattice_rows(dom, g)
        return np.hstack([xs, np.broadcast_to(self.wstar, xs.shape)])

    def phi_is_exact(self, V):
        return isinstance(self.region, Box) and (V is None or isinstance(V, Box))

    def _phi_closed(self, V, rows):
        # sup over u in R and V of <x, w*> + <u, x* - w*>.
        n = self.dimension
        sup = self.region.intersect(_window(n, V)).support_rows(
            rows[:, n:] - np.array(self.wstar))
        base = np.zeros(rows.shape[0])
        for i, w in enumerate(self.wstar):
            base += rows[:, i] * w
        return base + sup

    def describe(self) -> str:
        ws = ", ".join(format(c, ".12g") for c in self.wstar)
        return f"flat {self.region.describe()} with dual ({ws})"


@dataclass(frozen=True)
class NormalConeBox(OperatorHandle):
    """The normal cone operator of a closed finite box."""

    box: Box

    def __post_init__(self):
        if not isinstance(self.box, Box):
            raise ValidationError("normal cones require a box region")
        if not self.box.is_closed:
            raise ValidationError("normal cones require a closed box")
        if any(math.isinf(b) for b in self.box.lower + self.box.upper):
            raise ValidationError("normal cones require finite bounds")
        if self.box.is_empty():
            raise ValidationError("normal cones require a nonempty box")

    @property
    def dimension(self) -> int:
        return self.box.dimension

    def domain_region(self):
        return self.box

    def _faces(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whether each row lies on the lower and on the upper face of each
        axis, as two (N, n) masks."""
        return (np.abs(xs - np.array(self.box.lower)) <= _DUST,
                np.abs(xs - np.array(self.box.upper)) <= _DUST)

    def fiber_rows(self, xs, tol):
        """An axis is unbounded below at a lower face and above at an upper
        face, and pinned to 0 elsewhere."""
        owner = np.flatnonzero(self.box.contains_rows(xs))
        at_lo, at_hi = self._faces(xs[owner])
        return (owner, np.where(at_lo, -INF, 0.0),
                np.where(at_hi, INF, 0.0))

    def graph_rows(self, V, g):
        """Each distinct lattice primal, in order, with the product of its
        axes' duals, first axis slowest: 0, plus the sampled magnitudes
        below at a lower face and above at an upper face, ascending. Each
        face pattern's products are formed once; a lattice has few."""
        n = self.dimension
        dom = self.box if V is None else intersect_regions(self.box, V)
        # The distinct primals as dict keys, the first of equal rows kept.
        xs = dict.fromkeys(map(tuple, lattice_rows(dom, g).tolist()))
        mags = np.linspace(0.0, g.dual_bound, g.dual_resolution).tolist()
        neg = [-m for m in mags]
        duals = [sorted({0.0, *(neg if lo else ()), *(mags if hi else ())})
                 for lo in (False, True) for hi in (False, True)]
        at_lo, at_hi = self._faces(np.array(list(xs)).reshape(-1, n))
        faces = list(map(tuple, (2 * at_lo + at_hi).tolist()))
        combos = {f: list(itertools.product(*(duals[k] for k in f)))
                  for f in set(faces)}
        return np.array([x + c for x, f in zip(xs, faces) for c in combos[f]],
                        dtype=float).reshape(-1, 2 * n)

    def phi_is_exact(self, V):
        return V is None or isinstance(V, Box)

    def _phi_closed(self, V, rows):
        """Exact restricted value: the support of C-intersect-V at x*.

        The cone is constant on the relative interior of each face, so the
        sup over the faces that meet V takes each axis's best bound, which
        is the support of the cut. It is +inf instead when x lies beyond a
        bound of C that the cut keeps, where the normal ray runs off.
        """
        n, box = self.dimension, self.box
        cut = box.intersect(_window(n, V))
        runs_off = np.zeros(rows.shape[0], dtype=bool)
        for i in range(n):
            if cut.lower[i] == box.lower[i] and not cut.lower_open[i]:
                runs_off |= rows[:, i] < box.lower[i] - _DUST
            if cut.upper[i] == box.upper[i] and not cut.upper_open[i]:
                runs_off |= rows[:, i] > box.upper[i] + _DUST
        sup = cut.support_rows(rows[:, n:])
        # An empty cut is -inf on every row, wherever x lies.
        return np.where(runs_off & (sup > -INF), INF, sup)

    def describe(self) -> str:
        return f"normal cone of {self.box.describe()}"


@dataclass(frozen=True)
class AbsSubdiff(OperatorHandle):
    """Subdifferential of a|.| on the line: sign duals and a pivot segment."""

    slope: float

    def __post_init__(self):
        if not self.slope > 0:
            raise ValidationError("slope must be positive")
        require_finite((self.slope,), "slope")

    @property
    def dimension(self) -> int:
        return 1

    def domain_region(self):
        return whole_space(1)

    def fiber_rows(self, xs, tol):
        """a right of the kink, -a left of it, [-a, a] at it."""
        x, a = xs[:, :1], self.slope
        return (np.arange(len(xs)), np.where(x > _DUST, a, -a),
                np.where(x < -_DUST, -a, a))

    def graph_rows(self, V, g):
        """The sign dual off the kink; at it, +-a and the dual lattice
        between them, ascending."""
        a = self.slope
        kink = sorted({-a, a}.union(
            v for v in g.dual_rows(1)[:, 0].tolist() if -a < v < a))
        x = lattice_rows(_window(1, V), g)[:, 0]
        pick = np.where(x > _DUST, 2, np.where(x < -_DUST, 0, 1))
        take, duals = _expand([[-a], kink, [a]], pick)
        return np.stack([x[take], duals], axis=1)

    def phi_is_exact(self, V):
        return V is None or isinstance(V, Box)

    def _phi_closed(self, V, rows):
        """The best of the two open half-lines, where the dual is +-a, and
        the kink at 0, where it spans [-a, a]; ties keep the earlier one."""
        a, win = self.slope, _window(1, V)
        x, s = rows[:, 0], rows[:, 1:]
        cands = [sign * a * x + half.support_rows(s - sign * a)
                 for sign, half in (
                     (1.0, win.intersect(interval(0.0, INF, True, True))),
                     (-1.0, win.intersect(interval(-INF, 0.0, True, True))))
                 if not half.is_empty()]
        if win.contains((0.0,)):
            cands.append(a * np.abs(x))
        out = np.full(rows.shape[0], -INF)
        for c in cands:
            out = np.where(c > out, c, out)
        return out

    def describe(self) -> str:
        return f"subdifferential of {format(self.slope, '.12g')}|x|"


@dataclass(frozen=True)
class PointComplement(OperatorHandle):
    """Graph {x0} x (dual space minus the origin)."""

    anchor: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "anchor", as_vector(self.anchor))
        require_finite(self.anchor, "anchor")

    @property
    def dimension(self) -> int:
        return len(self.anchor)

    def domain_region(self):
        n = self.dimension
        return Box(self.anchor, self.anchor, (False,) * n, (False,) * n)

    def _at_anchor(self, xs: np.ndarray) -> np.ndarray:
        return np.abs(xs - np.array(self.anchor)).max(axis=1) <= _DUST

    def fiber_rows(self, xs, tol):
        # The closure of the dual space minus the origin is the whole space.
        n = self.dimension
        return _constant_boxes(np.flatnonzero(self._at_anchor(xs)),
                               (-INF,) * n, (INF,) * n)

    def graph_contains_rows(self, rows, tol):
        # The dual must be nonzero exactly: the origin is the excluded point.
        n = self.dimension
        return self._at_anchor(rows[:, :n]) & (rows[:, n:] != 0.0).any(axis=1)

    def graph_rows(self, V, g):
        duals = g.dual_rows(self.dimension)
        if V is not None and not V.contains(self.anchor):
            duals = duals[:0]
        duals = duals[(duals != 0.0).any(axis=1)]
        return np.hstack([np.broadcast_to(self.anchor, duals.shape), duals])

    def phi_is_exact(self, V):
        return True

    def _phi_closed(self, V, rows):
        if V is not None and not V.contains(self.anchor):
            return np.full(rows.shape[0], -INF)
        at = self._at_anchor(rows[:, :self.dimension])
        return np.where(at, coupling_rows(rows), INF)

    def describe(self) -> str:
        a = ", ".join(format(c, ".12g") for c in self.anchor)
        return f"all nonzero duals over ({a})"


@dataclass(frozen=True)
class Linear(OperatorHandle):
    """x maps to M x; requires M + M^T positive semidefinite up to 1e-9."""

    matrix: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = self.matrix
        # Checked row by row first: numpy rejects ragged rows with its own
        # error.
        if len(rows) == 0 or any(np.ndim(row) != 1 or len(row) != len(rows)
                                 for row in rows):
            raise ValidationError("matrix must be square")
        m = np.array(rows, dtype=float)
        require_finite(m.ravel(), "matrix entries")
        sym = (m + m.T) / 2.0
        if np.linalg.eigvalsh(sym).min() < -1e-9:
            raise ValidationError(
                "matrix fails monotonicity: M + M^T has a negative eigenvalue")
        object.__setattr__(self, "matrix",
                           tuple(tuple(float(c) for c in row) for row in m))

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    @cached_property
    def _m(self) -> np.ndarray:
        # Kept out of the fields, so equality and hashing stay by value.
        return np.array(self.matrix, dtype=float)

    def domain_region(self):
        return whole_space(self.dimension)

    def _images(self, xs: np.ndarray) -> np.ndarray:
        # Stacked, each product sums as m @ x does; xs @ m.T may not.
        return (self._m[None] @ xs[:, :, None])[:, :, 0]

    def fiber_rows(self, xs, tol):
        mx = self._images(xs)
        return np.arange(len(xs)), mx, mx

    def graph_rows(self, V, g):
        xs = lattice_rows(_window(self.dimension, V), g)
        return np.hstack([xs, self._images(xs)])

    def phi_is_exact(self, V):
        return V is None or (isinstance(V, Box) and V.is_whole_space)

    def _phi_closed(self, V, rows):
        """On the whole space the sup is a quadratic maximization:
        sup_u <M^T x + x*, u> - <u, M u>, solved by (M + M^T) u = M^T x + x*,
        one least-squares solve with every row as a right-hand side. A row
        whose system is inconsistent at its own scale runs away to +inf."""
        n, m = self.dimension, self._m
        s = m + m.T
        b = (rows[:, :n] @ m + rows[:, n:]).T
        u = np.linalg.lstsq(s, b, rcond=None)[0]
        residual = np.abs(s @ u - b).max(axis=0)
        scale = np.maximum(1.0, np.abs(b).max(axis=0))
        return np.where(residual > 1e-9 * scale, INF,
                        0.5 * (b * u).sum(axis=0))

    def describe(self) -> str:
        return f"linear map of dimension {self.dimension}"


@dataclass(frozen=True)
class Restriction(OperatorHandle):
    """A base operator viewed through a primal window."""

    base: OperatorHandle
    window: Region

    def __post_init__(self):
        self.base._check_window(self.window)

    @property
    def dimension(self) -> int:
        return self.base.dimension

    @property
    def enumeration_exact(self) -> bool:
        return self.base.enumeration_exact

    def _inner(self, V: Region | None) -> Region:
        return self.window if V is None else intersect_regions(self.window, V)

    def domain_region(self):
        base = self.base.domain_region()
        if base is None:
            return None
        return intersect_regions(base, self.window)

    def domain_closure_contains_rows(self, xs, tol):
        region = self.domain_region()
        if region is None:
            out = self.window.closure().contains_rows(xs)
            out[out] = self.base.domain_closure_contains_rows(xs[out], tol)
            return out
        return region.distance_inf_rows(xs) <= tol.delta_dom

    def fiber_rows(self, xs, tol):
        inside = np.flatnonzero(self.window.contains_rows(xs))
        owner, low, up = self.base.fiber_rows(xs[inside], tol)
        return inside[owner], low, up

    def graph_contains_rows(self, rows, tol):
        # The base's own test, which may exclude more than its fibers do.
        out = self.window.contains_rows(rows[:, :self.dimension])
        out[out] = self.base.graph_contains_rows(rows[out], tol)
        return out

    def graph_rows(self, V, g):
        return self.base.graph_rows(self._inner(V), g)

    def phi_is_exact(self, V):
        return self.base.phi_is_exact(self._inner(V))

    def _phi_closed(self, V, rows):
        return self.base._phi_closed(self._inner(V), rows)

    def describe(self) -> str:
        return f"{self.base.describe()} restricted to {self.window.describe()}"


@dataclass(frozen=True)
class PairSum(OperatorHandle):
    """Pointwise sum of two operators on primal matches within _MATCH_TOL."""

    first: OperatorHandle
    second: OperatorHandle

    def __post_init__(self):
        if self.first.dimension != self.second.dimension:
            raise DimensionMismatch("summands disagree in dimension")

    @property
    def dimension(self) -> int:
        return self.first.dimension

    def domain_region(self):
        ra = self.first.domain_region()
        rb = self.second.domain_region()
        if ra is None or rb is None:
            return None
        return intersect_regions(ra, rb)

    def fiber_rows(self, xs, tol):
        """Minkowski sums of each row's first-summand boxes with its
        second-summand boxes, first-summand box by box."""
        oa, la, ua = self.first.fiber_rows(xs, tol)
        ob, lb, ub = self.second.fiber_rows(xs, tol)
        nb = np.bincount(ob, minlength=len(xs))[oa]
        ia = np.repeat(np.arange(len(oa)), nb)
        ib = _runs(np.searchsorted(ob, oa), nb)
        return oa[ia], la[ia] + lb[ib], ua[ia] + ub[ib]

    def _joint_window(self, V: Region | None) -> Region | None:
        """The window cut down to both domains, so the summands sample one
        shared lattice and primal matching is exact rather than accidental."""
        win = V
        for r in (self.first.domain_region(), self.second.domain_region()):
            if r is not None:
                win = r if win is None else intersect_regions(win, r)
        return win

    def _build(self, V: Region | None, g: GridSpec) -> dict:
        """What the sum built for (joint window of V, g), kept on the sum
        for the last such key asked: the two summands' pools, sampled once
        per key, and the graph rows, matched once when graph_rows asks.
        Keys compare with ==, so windows that differ only in the sign of a
        zero bound share a build."""
        self._check_window(V)
        key = (self._joint_window(V), g)
        slot = self.__dict__.get("_slot")
        if slot is None or slot["key"] != key:
            slot = self.__dict__["_slot"] = {
                "key": key, "rows": None,
                "pools": (_Pool(self.first, *key), _Pool(self.second, *key))}
        return slot

    def graph_rows(self, V, g):
        """Each first-summand row plus the second's partners at its primal
        (_Pool.partners), then each unmatched second-summand primal plus the
        first summand sampled there. Equal sums keep their first row. The
        rows are read-only, matched once per joint window and grid (_build)."""
        slot = self._build(V, g)
        if slot["rows"] is None:
            slot["rows"] = self._match(*slot["pools"], g)
            slot["rows"].flags.writeable = False
        return slot["rows"]

    def _match(self, a: "_Pool", b: "_Pool", g: GridSpec) -> np.ndarray:
        """graph_rows from the two pools; partners sampled off their
        lattices are appended to them."""
        n = self.dimension
        at = {x: b.partners(x, g)[0] for x in dict.fromkeys(a.primals)}
        picks = [(x, i, j) for i, x in enumerate(a.primals) for j in at[x]]
        # Second-summand primals that matched were summed above.
        for x, js in b.groups.items():
            found, matched = a.partners(x, g)
            if not matched:
                picks += [(x, i, j) for j in js for i in found]
        xs, ia, ib = (list(c) for c in zip(*picks)) if picks else ([],) * 3
        out = np.hstack([np.reshape(xs, (-1, n)),
                         a.rows[ia, n:] + b.rows[ib, n:]])
        firsts = dict.fromkeys(map(tuple, out.tolist()))
        return np.array(list(firsts), dtype=float).reshape(-1, 2 * n)

    def describe(self) -> str:
        return f"sum of {self.first.describe()} and {self.second.describe()}"


class _Pool:
    """One summand's graph rows over a window, grouped by primal for
    PairSum's matching. own is the summand's graph_rows over the window;
    rows holds them and, appended, the rows sampled off that lattice."""

    def __init__(self, op: OperatorHandle, V: Region | None, g: GridSpec):
        self.op = op
        self.own = self.rows = op.graph_rows(V, g)
        self.primals = list(map(tuple, self.rows[:, :op.dimension].tolist()))
        self.groups: dict[tuple[float, ...], list[int]] = {}
        for j, x in enumerate(self.primals):
            self.groups.setdefault(x, []).append(j)
        self.keys = sorted(self.groups)

    def partners(self, x, g: GridSpec) -> tuple[list[int], bool]:
        """The rows at primal x, and whether they are the pool's own: at x
        exactly, else at every primal within _MATCH_TOL in sorted order.
        Off that lattice (a point cloud, say) op is sampled at x itself."""
        found = self.groups.get(x) or [
            j for key in self.keys
            if max(abs(u - v) for u, v in zip(key, x)) <= _MATCH_TOL
            for j in self.groups[key]]
        if found:
            return found, True
        extra = self.op.graph_rows(closed_box(x, x), g)
        self.rows = np.vstack([self.rows, extra])
        return list(range(len(self.rows) - len(extra), len(self.rows))), False


def SumNormalCone(summand: OperatorHandle, box: Box) -> PairSum:
    """A + N_C: the pair sum of the summand and the box normal cone."""
    return PairSum(summand, NormalConeBox(box))


def restrict(T: OperatorHandle, V: Region) -> OperatorHandle:
    """T viewed through the primal window V.

    Finite graphs filter eagerly (an empty result is legal and keeps the
    dimension); a flat piece over a box shrinks its region; everything else
    wraps in a Restriction. Restricting twice intersects.
    """
    T._check_window(V)
    if isinstance(T, FiniteGraph):
        keep = V.contains_rows(T._rows[:, :T.dimension]).tolist()
        out = FiniteGraph(tuple(p for p, k in zip(T.points, keep) if k))
        object.__setattr__(out, "_n", T.dimension)
        return out
    if isinstance(T, Flat) and isinstance(T.region, Box) and isinstance(V, Box):
        return Flat(T.region.intersect(V), T.wstar)
    if isinstance(T, Restriction):
        return Restriction(T.base, intersect_regions(T.window, V))
    return Restriction(T, V)


def meets_domain(T: OperatorHandle, V: Region, g: GridSpec) -> bool:
    """Whether the window V meets the domain of T: exactly when both are
    boxes, else on V's lattice or among T's graph rows."""
    T._check_window(V)
    region = T.domain_region()
    if region is not None:
        cut = intersect_regions(region, V)
        if isinstance(cut, Box):
            return not cut.is_empty()
        return len(lattice_rows(cut, g)) > 0
    xs = T.graph_rows(None, g)[:, :T.dimension]
    return bool(V.contains_rows(xs).any())


def _pair_points(rows: np.ndarray, pair) -> list:
    """The pair (i, j) of rows as a one-pair witness list; [] for None."""
    return [] if pair is None else [tuple(row_points(rows[list(pair)]))]


def _pairwise_gap_failures(rows: np.ndarray, eps: float):
    """The first lexicographic pair of graph rows with a negative gap, as
    points, if any: first_gap_failure's half-product scan."""
    return _pair_points(rows, first_gap_failure(rows, eps))


def is_monotone(T: OperatorHandle, tol: Tolerance,
                g: GridSpec | None = None,
                V: Region | None = None) -> Verdict:
    """Pairwise gap check over the graph rows; witness pair on failure."""
    return _monotone_verdict(T, T._enumerate(V, g), tol, g, V)


def _monotone_verdict(T: OperatorHandle, graph: np.ndarray, tol: Tolerance,
                      g: GridSpec | None, V: Region | None,
                      failures: list | None = None) -> Verdict:
    """is_monotone over graph, the rows of T over V; its witness is a pair.
    failures, the witness list of a scan the caller has made already
    (_pair_points of its first failing pair), takes the scan's place."""
    if failures is None:
        failures = _pairwise_gap_failures(graph, tol.eps_eq)
    failures = tuple(failures)
    return Verdict(Property.MONOTONE, not failures, witnesses=failures,
                   approximate=not T.enumeration_exact, grid=g, tol=tol,
                   region_ids=() if V is None else (V.describe(),),
                   witness_count=len(failures))


def mr_test(T: OperatorHandle, V: Region | None, z: PrimalDualPoint,
            tol: Tolerance, g: GridSpec | None = None) -> bool:
    """Whether z is monotonically related to every graph point of T over V.

    Uses the closed-form phi when exact for this window and the graph is
    not finite (phi <= coupling + eps_eq); otherwise checks pairwise gaps
    against the graph enumerated at g, which must then be given unless the
    enumeration is exact. A finite graph is thus judged by the gap kernel,
    as is_monotone judges it: the pairing form, algebraically the same
    test, cancels at large coordinates. A one-row call of mr_batch.
    """
    return bool(T.mr_batch(V, point_rows([z], z.dimension), tol, g)[0])


def _as_region(value) -> Region:
    if isinstance(value, Region):
        return value
    if isinstance(value, str):
        return box_from_literal(value)
    raise ValidationError(f"cannot interpret {value!r} as a region")


def _as_rows(value) -> tuple[tuple[float, ...], ...]:
    """A list of number lists, as float tuples."""
    return tuple(tuple(float(c) for c in row) for row in value)


def _as_operator(value) -> OperatorHandle:
    """An operator as given, or built from its kind/field mapping."""
    if isinstance(value, OperatorHandle):
        return value
    return build_operator(value)


def _graph_of_rows(rows) -> FiniteGraph:
    """A finite graph from flat [x..., xstar...] rows."""
    if any(len(row) % 2 or not row for row in rows):
        raise ValidationError(
            "finite_graph rows are flat [x..., xstar...] lists")
    return FiniteGraph(tuple(PrimalDualPoint(r[:len(r) // 2], r[len(r) // 2:])
                             for r in rows))


# Every operator kind: its constructor and the fields it takes in order,
# each with its format (rows, a list of number lists; region; vector, a
# number or a number list; number; operator, a nested kind/field mapping
# or an operator already built).
# build_operator and the spec parser read operators against this table.
KINDS = {
    "finite_graph": (_graph_of_rows, {"points": "rows"}),
    "flat": (Flat, {"region": "region", "wstar": "vector"}),
    "normal_cone_box": (NormalConeBox, {"box": "region"}),
    "abs_subdiff": (AbsSubdiff, {"slope": "number"}),
    "point_complement": (PointComplement, {"anchor": "vector"}),
    "linear": (Linear, {"matrix": "rows"}),
    "restriction": (restrict, {"operator": "operator", "region": "region"}),
    "sum_normal_cone": (SumNormalCone, {"operator": "operator",
                                        "box": "region"}),
    "pair_sum": (PairSum, {"first": "operator", "second": "operator"}),
}


def build_operator(spec: dict) -> OperatorHandle:
    """Construct a handle from a kind/field mapping: each field is read by
    its format in KINDS, a value that format cannot read raising
    ValidationError, and handed to the kind's constructor in order."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError("operator description needs a 'kind' field")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValidationError(f"unknown operator kind {kind!r}")
    make, fields = KINDS[kind]
    missing = [f for f in fields if f not in spec]
    if missing:
        raise ValidationError(
            f"operator kind {kind!r} missing fields: {', '.join(missing)}")
    extra = sorted(set(spec) - set(fields) - {"kind"})
    if extra:
        raise ValidationError(
            f"operator kind {kind!r} got unknown fields: {', '.join(extra)}")
    values = []
    for f, fmt in fields.items():
        try:
            values.append(_READERS[fmt](spec[f]))
        except (TypeError, ValueError):
            raise ValidationError(f"operator kind {kind!r} cannot read "
                                  f"field {f!r} as {fmt}") from None
    return make(*values)


# How build_operator reads a value of each field format.
_READERS = {"rows": _as_rows, "region": _as_region, "vector": as_vector,
            "number": float, "operator": _as_operator}
