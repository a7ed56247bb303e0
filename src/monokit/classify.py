"""Grid-scale deciders for localized operator properties.

Each check quantifies over the finite lattice of a primal window times the
clipped dual box and returns a Verdict recording the grid, tolerances, and
the first few counterexamples in scan order. Positive answers are statements
about the grid; they are flagged approximate whenever a consumed value came
from a sampled rather than closed-form source.

Every window check reads a scan (_Scan) of the operator over one window
at one grid and tolerances, which computes each of its parts at most once,
when a check first asks for it: the lattice, as the (N, 2n) array of
[x, x*] rows from scan_rows, and its couplings; the graph rows over the
window; phi at every row, in the kind's closed form where that is exact
and else the sup over the graph; and two selections of rows. The rows
below (phi < coupling - eps_strict) feed vni and condition_c, and the rows
related to every graph point (phi <= coupling + eps_eq on the closed form,
the gap test over the graph otherwise) feed locates, identifies and
maximal_on_grid. Over a graph both selections come from below_batch and
mr_batch, which run core's early-exit threshold kernel on the scan's
graph, so a row is dropped at the first graph row that settles it. Each
check masks the failures among its selected rows with the operator's row
membership tests or the target's contains_rows, and hands those rows to
finish, which makes the witness points. v_representable reads the scan's
graph and lattice, and unique_extension its graph and phi.

A public check builds its own scan. A classify run (cli) builds one scan
per window and hands it to every property it asks, so the run builds each
window's lattice, phi and graph once. A scan is an ordinary object owned by
the call or run that made it: nothing of it is kept on the operator, the
window or the grid, and the next call builds its own. The
low-representability scan masks the band rows that still lack a
representable family member.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .core import PrimalDualPoint, Tolerance, coupling_rows, row_points
from .errors import ToleranceError, UnsatisfiedHypothesis
from .fitzpatrick import (_band_rows, _coupling_envelope, _representative,
                          scan_rows)
from .operators import (OperatorHandle, _monotone_verdict, _pair_points,
                        meets_domain, with_defaults)
from .regions import Box, GridSpec, Region, whole_space
from .verdicts import Property, Verdict, finish


class _once:
    """A method read as an attribute and computed once, on the first read,
    into the instance's __dict__, which later reads find first. It is
    functools.cached_property without the lock that Python before 3.12
    takes on every first read; a scan is not shared between threads."""

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class _Scan:
    """T over the window V at grid g and tolerances tol, as the window
    checks read it. Each part is computed when first asked and then kept:
    the scan_rows lattice and its couplings; the graph over V; phi at every
    row, closed form on T's closed route and else the sup over that graph;
    the rows below (phi < coupling - eps_strict) and the rows related to
    the graph (phi <= coupling + eps_eq, or the gap kernel on the graph
    route); and the monotone verdict of the graph. A scan with V None
    stands for the whole graph, and only its graph and monotone verdict
    are read.
    """

    def __init__(self, T: OperatorHandle, V: Region | None, g: GridSpec,
                 tol: Tolerance):
        self.T, self.V, self.g, self.tol = T, V, g, tol

    @_once
    def rows(self) -> np.ndarray:
        return scan_rows(self.V, self.g)

    @_once
    def coupling(self) -> np.ndarray:
        return coupling_rows(self.rows)

    @_once
    def graph(self) -> np.ndarray:
        return self.T._enumerate(self.V, self.g)

    @_once
    def sup_graph(self) -> np.ndarray | None:
        """None on phi's closed route, else the graph."""
        return None if self.T._closed_route(self.V) else self.graph

    @_once
    def phi(self) -> np.ndarray:
        return self.T.phi_batch(self.V, self.rows, self.g, self.sup_graph)

    @_once
    def below(self) -> np.ndarray:
        """The rows where phi < coupling - eps_strict, in row order."""
        thr = self.coupling - self.tol.eps_strict
        if self.sup_graph is None:
            return self.rows[self.phi < thr]
        return self.rows[self.T.below_batch(self.V, self.rows, thr, self.g,
                                            self.sup_graph)]

    @_once
    def related(self) -> np.ndarray:
        """The rows monotonically related to every graph point over V, in
        row order."""
        rows = self.rows
        if self.sup_graph is None:
            return rows[self.phi <= self.coupling + self.tol.eps_eq]
        return rows[self.T.mr_batch(self.V, rows, self.tol, self.g,
                                    self.sup_graph)]

    @_once
    def monotone(self) -> Verdict:
        """is_monotone of T over V."""
        return _monotone_verdict(self.T, self.graph, self.tol, self.g,
                                 self.V)


def _window_verdict(prop: Property, s: _Scan, selected: np.ndarray, fails,
                    vacuous_if_none: bool = False) -> Verdict:
    """Verdict over the selected scan rows of s (s.below or s.related):
    fails(rows) masks the failures among them, which finish receives.
    vacuous_if_none marks a verdict over no selected row."""
    return finish(prop, selected[fails(selected)],
                  approximate=not s.T.phi_is_exact(s.V), grid=s.g,
                  tol=s.tol, region_ids=(s.V.describe(),),
                  vacuous=vacuous_if_none and not len(selected))


def check_vni(T: OperatorHandle, V: Region, g: GridSpec | None = None,
              tol: Tolerance | None = None) -> Verdict:
    """phi of the restriction stays above coupling - eps_strict on the grid.

    A window that misses the domain yields a vacuous positive: the
    restriction is empty and the check ranges over nothing meaningful.
    """
    return _vni(_Scan(T, V, *with_defaults(g, tol)))


def _vni(s: _Scan) -> Verdict:
    if not meets_domain(s.T, s.V, s.g):
        return Verdict(Property.VNI, True,
                       approximate=not s.T.phi_is_exact(s.V), grid=s.g,
                       tol=s.tol, region_ids=(s.V.describe(),),
                       vacuous=True,
                       notes=("window does not meet the domain",))
    return _window_verdict(Property.VNI, s, s.below,
                           lambda rows: np.ones(len(rows), dtype=bool))


def check_locates(T: OperatorHandle, V: Region, g: GridSpec | None = None,
                  tol: Tolerance | None = None, *,
                  target: Region | None = None) -> Verdict:
    """Monotonically related grid points over V have primal in the target.

    The target defaults to the operator's domain, tested through its own
    membership rule.
    """
    return _locates(_Scan(T, V, *with_defaults(g, tol)), target)


def _locates(s: _Scan, target: Region | None) -> Verdict:
    n = s.T.dimension
    if target is not None:
        fails = lambda rows: ~target.contains_rows(rows[:, :n])
    else:
        fails = lambda rows: ~s.T.domain_contains_rows(rows[:, :n], s.tol)
    return _window_verdict(Property.LOCATES, s, s.related, fails)


def check_identifies(T: OperatorHandle, V: Region, g: GridSpec | None = None,
                     tol: Tolerance | None = None) -> Verdict:
    """Monotonically related grid points over V already lie in the graph."""
    return _identifies(_Scan(T, V, *with_defaults(g, tol)))


def _identifies(s: _Scan) -> Verdict:
    return _window_verdict(
        Property.IDENTIFIES, s, s.related,
        lambda rows: ~s.T.graph_contains_rows(rows, s.tol))


def check_v_representable(T: OperatorHandle, V: Region,
                          g: GridSpec | None = None,
                          tol: Tolerance | None = None) -> Verdict:
    """The coupling envelope of the restricted graph traces exactly it.

    Runs the pairwise monotonicity gate first (a non-monotone restriction
    cannot be represented), then matches the [envelope = coupling] band on
    the grid against the graph. The restricted graph's rows are built once,
    and the gate asks their envelope, whose gap scan the band prefilter
    reuses and whose first failing pair is the gate's witness. An empty
    restriction is reported false and vacuous: its envelope is identically
    +inf, which represents nothing.
    """
    return _v_representable(_Scan(T, V, *with_defaults(g, tol)))


def _v_representable(s: _Scan) -> Verdict:
    T, V, g, tol, graph = s.T, s.V, s.g, s.tol, s.graph
    if not len(graph):
        return Verdict(Property.V_REPRESENTABLE, False,
                       approximate=not T.enumeration_exact, grid=g, tol=tol,
                       region_ids=(V.describe(),), vacuous=True,
                       notes=("empty restriction",))
    env = _coupling_envelope(graph, T.dimension)
    pair = env._gap_failure(tol.eps_eq)
    if pair is not None:
        return replace(_monotone_verdict(T, graph, tol, g, V,
                                         _pair_points(graph, pair)),
                       property=Property.V_REPRESENTABLE,
                       notes=("restriction is not monotone",))
    return _representative(env, T, V, g, tol, graph, s.rows)


def check_maximal_on_grid(T: OperatorHandle, ambient: Region | None = None,
                          g: GridSpec | None = None,
                          tol: Tolerance | None = None) -> Verdict:
    """No strictly larger monotone graph fits inside the ambient grid.

    Operationally: the whole ambient window identifies the operator. The
    operator must be monotone to begin with; that gate failing is an error,
    not a false verdict.
    """
    g, tol = with_defaults(g, tol)
    window = ambient if ambient is not None else whole_space(T.dimension)
    return _maximal_on_grid(_Scan(T, None, g, tol), _Scan(T, window, g, tol))


def _maximal_on_grid(whole: _Scan, s: _Scan) -> Verdict:
    """check_maximal_on_grid: the monotone gate of whole, the scan of the
    whole graph, then the identifies check of s, the ambient window's."""
    mono = whole.monotone
    if not mono.value:
        raise UnsatisfiedHypothesis("the operator is monotone",
                                    f"witness pair {mono.witnesses[:1]}")
    return replace(_identifies(s), property=Property.MAXIMAL_ON_GRID)


def unique_extension(T: OperatorHandle, V: Region, g: GridSpec | None = None,
                     tol: Tolerance | None = None) -> list[PrimalDualPoint]:
    """Grid trace of [phi = coupling] over V, the one maximal extension there.

    Requires the restriction to be monotone and the window check_vni-positive;
    either failing raises UnsatisfiedHypothesis naming the missing piece.
    Under those gates the equality band must coincide with the sublevel trace
    [phi <= coupling]; a mismatch means the margins cannot separate the two
    sets and is raised rather than silently picking one.
    """
    s = _Scan(T, V, *with_defaults(g, tol))
    tol = s.tol
    # The graph over V is built once, for the gate and a sampled phi.
    mono = s.monotone
    if not mono.value:
        raise UnsatisfiedHypothesis("the restriction is monotone",
                                    f"witness pair {mono.witnesses[:1]}")
    # The check_vni gate, decided from the same phi sweep as the band.
    p, c = s.phi, s.coupling
    below = s.rows[p < c - tol.eps_strict]
    if len(below) and meets_domain(T, V, s.g):
        raise UnsatisfiedHypothesis(
            "phi stays above coupling on the window",
            f"witness {tuple(row_points(below[:1]))}")
    band = np.abs(p - c) <= tol.eps_eq
    if not np.array_equal(band, p <= c + tol.eps_eq):
        raise ToleranceError(
            "equality band and sublevel trace disagree at these margins")
    return row_points(s.rows[band])


def check_condition_c(T: OperatorHandle, V: Region,
                      g: GridSpec | None = None,
                      tol: Tolerance | None = None) -> Verdict:
    """Strictly sub-coupling grid points over V project into the domain
    closure; vacuously true when the strict set is empty."""
    return _condition_c(_Scan(T, V, *with_defaults(g, tol)))


def _condition_c(s: _Scan) -> Verdict:
    n = s.T.dimension
    return _window_verdict(
        Property.CONDITION_C, s, s.below,
        lambda rows: ~s.T.domain_closure_contains_rows(rows[:, :n], s.tol),
        vacuous_if_none=True)


@dataclass(frozen=True)
class RegionFamily:
    """A finite stand-in for a quantifier over open convex windows."""

    regions: tuple[Region, ...]
    rule: str


def dyadic_open_boxes(ambient: Box, scales: int,
                      T: OperatorHandle | None = None,
                      g: GridSpec | None = None,
                      tol: Tolerance | None = None) -> RegionFamily:
    """Open boxes with corners on dyadic subdivisions of the ambient box.

    All corner pairs at subdivision scales 1..scales, deduplicated, sorted
    by bounds; when an operator is given, only boxes meeting its domain are
    kept.
    """
    g, tol = with_defaults(g, tol)
    n = ambient.dimension
    seen: dict[tuple, Box] = {}
    for s in range(1, scales + 1):
        axes_pts = [np.linspace(ambient.lower[i], ambient.upper[i], 2 ** s + 1)
                    for i in range(n)]
        axis_intervals = [
            [(float(pts[a]), float(pts[b]))
             for a in range(len(pts)) for b in range(a + 1, len(pts))]
            for pts in axes_pts]
        for combo in itertools.product(*axis_intervals):
            lo = tuple(c[0] for c in combo)
            hi = tuple(c[1] for c in combo)
            key = tuple(round(v, 12) for v in lo + hi)
            if key not in seen:
                seen[key] = Box(lo, hi, (True,) * n, (True,) * n)
    boxes = [seen[k] for k in sorted(seen)]
    if T is not None:
        boxes = [b for b in boxes if meets_domain(T, b, g)]
    return RegionFamily(tuple(boxes), f"dyadic-open-boxes-{scales}")


_FAMILY_CHECKS = {
    Property.VNI: check_vni,
    Property.LOCATES: check_locates,
    Property.IDENTIFIES: check_identifies,
    Property.V_REPRESENTABLE: check_v_representable,
    Property.CONDITION_C: check_condition_c,
}


def family_scan(T: OperatorHandle, family: RegionFamily, property: Property,
                g: GridSpec | None = None,
                tol: Tolerance | None = None) -> Verdict:
    """Conjunction of one property check across every family member.

    A VNI scan reports as locally-NI. The low-representability scan inverts
    the quantifier: every grid point of the [envelope = coupling] band must
    admit some family member around its primal on which the representability
    check passes.
    """
    g, tol = with_defaults(g, tol)
    if property is Property.LOW_REPRESENTABLE:
        return _low_representable(T, family, g, tol)
    if property not in _FAMILY_CHECKS:
        raise UnsatisfiedHypothesis(
            "a per-window check exists for the scanned property",
            property.value)
    check = _FAMILY_CHECKS[property]
    out_prop = Property.LOCALLY_NI if property is Property.VNI else property
    approx = False
    for region in family.regions:
        v = check(T, region, g, tol)
        approx = approx or v.approximate
        if not v.value:
            return Verdict(out_prop, False, witnesses=v.witnesses,
                           approximate=approx, grid=g, tol=tol,
                           region_ids=(family.rule, region.describe()),
                           witness_count=v.witness_count)
    return Verdict(out_prop, True, approximate=approx, grid=g, tol=tol,
                   region_ids=(family.rule,), vacuous=not family.regions)


def _low_representable(T: OperatorHandle, family: RegionFamily, g: GridSpec,
                       tol: Tolerance) -> Verdict:
    """family_scan over the band: each member, in family order, is checked
    once if some band row inside it still lacks a representable member; the
    rows that lack one at the end fail."""
    ids = (family.rule,)
    graph = T._enumerate(None, g)
    if not len(graph):
        return Verdict(Property.LOW_REPRESENTABLE, True, grid=g, tol=tol,
                       region_ids=ids, vacuous=True,
                       notes=("empty graph, empty band",))
    n = T.dimension
    band = _band_rows(_coupling_envelope(graph, n),
                      scan_rows(whole_space(n), g), tol)
    approx = not T.enumeration_exact
    lacking = np.ones(len(band), dtype=bool)
    for region in family.regions:
        inside = region.contains_rows(band[:, :n])
        if not (lacking & inside).any():
            continue
        v = check_v_representable(T, region, g, tol)
        approx = approx or v.approximate
        if v.value:
            lacking &= ~inside
    return finish(Property.LOW_REPRESENTABLE, band[lacking],
                  approximate=approx, grid=g, tol=tol, region_ids=ids,
                  vacuous=not len(band))
