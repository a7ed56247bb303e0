"""Grid-scale deciders for localized operator properties.

Each check quantifies over the finite lattice of a primal window times the
clipped dual box and returns a Verdict recording the grid, tolerances, and
the first few counterexamples in scan order. Positive answers are statements
about the grid; they are flagged approximate whenever a consumed value came
from a sampled rather than closed-form source.

The phi-based checks build the lattice once, as the (N, 2n) array of
[x, x*] rows from scan_rows, and ask the operator a yes/no question of
each row: mr_batch (related to every graph point) or below_batch (phi
strictly below coupling - eps_strict); couplings come from coupling_rows.
Over a graph both questions run in core's early-exit threshold kernel, so
a row is dropped at the first graph row that settles it, and a row's
answer is the one-row mr_test or phi comparison. Each check masks the
failures among the selected rows with the operator's row membership tests
or the target's contains_rows, and hands those rows to finish, which makes
the witness points. unique_extension needs phi's values for its band, so
it calls phi_batch. The low-representability scan masks the band rows
that still lack a representable family member.
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
                        is_monotone, meets_domain, with_defaults)
from .regions import Box, GridSpec, Region, whole_space
from .verdicts import Property, Verdict, finish


def _window_verdict(prop: Property, T: OperatorHandle, V: Region,
                    g: GridSpec, tol: Tolerance, *, related: bool, fails,
                    vacuous_if_none: bool = False) -> Verdict:
    """Verdict over the scan rows related to T|V (related) or strictly below
    the coupling (otherwise): fails(rows) masks the failures among them,
    which finish receives. vacuous_if_none marks a verdict over no
    selected row."""
    rows = scan_rows(V, g)
    if related:
        keep = T.mr_batch(V, rows, tol, g)
    else:
        keep = T.below_batch(V, rows, coupling_rows(rows) - tol.eps_strict, g)
    selected = rows[keep]
    return finish(prop, selected[fails(selected)],
                  approximate=not T.phi_is_exact(V), grid=g, tol=tol,
                  region_ids=(V.describe(),),
                  vacuous=vacuous_if_none and not len(selected))


def check_vni(T: OperatorHandle, V: Region, g: GridSpec | None = None,
              tol: Tolerance | None = None) -> Verdict:
    """phi of the restriction stays above coupling - eps_strict on the grid.

    A window that misses the domain yields a vacuous positive: the
    restriction is empty and the check ranges over nothing meaningful.
    """
    g, tol = with_defaults(g, tol)
    if not meets_domain(T, V, g):
        return Verdict(Property.VNI, True, approximate=not T.phi_is_exact(V),
                       grid=g, tol=tol, region_ids=(V.describe(),),
                       vacuous=True,
                       notes=("window does not meet the domain",))
    return _window_verdict(Property.VNI, T, V, g, tol, related=False,
                           fails=lambda rows: np.ones(len(rows), dtype=bool))


def check_locates(T: OperatorHandle, V: Region, g: GridSpec | None = None,
                  tol: Tolerance | None = None, *,
                  target: Region | None = None) -> Verdict:
    """Monotonically related grid points over V have primal in the target.

    The target defaults to the operator's domain, tested through its own
    membership rule.
    """
    g, tol = with_defaults(g, tol)
    n = T.dimension
    if target is not None:
        fails = lambda rows: ~target.contains_rows(rows[:, :n])
    else:
        fails = lambda rows: ~T.domain_contains_rows(rows[:, :n], tol)
    return _window_verdict(Property.LOCATES, T, V, g, tol, related=True,
                           fails=fails)


def check_identifies(T: OperatorHandle, V: Region, g: GridSpec | None = None,
                     tol: Tolerance | None = None) -> Verdict:
    """Monotonically related grid points over V already lie in the graph."""
    g, tol = with_defaults(g, tol)
    return _window_verdict(Property.IDENTIFIES, T, V, g, tol, related=True,
                           fails=lambda rows: ~T.graph_contains_rows(rows, tol))


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
    g, tol = with_defaults(g, tol)
    graph = T._enumerate(V, g)
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
    return _representative(env, T, V, g, tol, graph)


def check_maximal_on_grid(T: OperatorHandle, ambient: Region | None = None,
                          g: GridSpec | None = None,
                          tol: Tolerance | None = None) -> Verdict:
    """No strictly larger monotone graph fits inside the ambient grid.

    Operationally: the whole ambient window identifies the operator. The
    operator must be monotone to begin with; that gate failing is an error,
    not a false verdict.
    """
    g, tol = with_defaults(g, tol)
    mono = is_monotone(T, tol, g)
    if not mono.value:
        raise UnsatisfiedHypothesis("the operator is monotone",
                                    f"witness pair {mono.witnesses[:1]}")
    window = ambient if ambient is not None else whole_space(T.dimension)
    return replace(check_identifies(T, window, g, tol),
                   property=Property.MAXIMAL_ON_GRID)


def unique_extension(T: OperatorHandle, V: Region, g: GridSpec | None = None,
                     tol: Tolerance | None = None) -> list[PrimalDualPoint]:
    """Grid trace of [phi = coupling] over V, the one maximal extension there.

    Requires the restriction to be monotone and the window check_vni-positive;
    either failing raises UnsatisfiedHypothesis naming the missing piece.
    Under those gates the equality band must coincide with the sublevel trace
    [phi <= coupling]; a mismatch means the margins cannot separate the two
    sets and is raised rather than silently picking one.
    """
    g, tol = with_defaults(g, tol)
    # The graph over V is built once, for the gate and a sampled phi.
    graph = T._enumerate(V, g)
    mono = _monotone_verdict(T, graph, tol, g, V)
    if not mono.value:
        raise UnsatisfiedHypothesis("the restriction is monotone",
                                    f"witness pair {mono.witnesses[:1]}")
    # The check_vni gate, decided from the same phi sweep as the band.
    rows = scan_rows(V, g)
    p = T.phi_batch(V, rows, g, graph)
    c = coupling_rows(rows)
    below = rows[p < c - tol.eps_strict]
    if len(below) and meets_domain(T, V, g):
        raise UnsatisfiedHypothesis(
            "phi stays above coupling on the window",
            f"witness {tuple(row_points(below[:1]))}")
    band = np.abs(p - c) <= tol.eps_eq
    if not np.array_equal(band, p <= c + tol.eps_eq):
        raise ToleranceError(
            "equality band and sublevel trace disagree at these margins")
    return row_points(rows[band])


def check_condition_c(T: OperatorHandle, V: Region,
                      g: GridSpec | None = None,
                      tol: Tolerance | None = None) -> Verdict:
    """Strictly sub-coupling grid points over V project into the domain
    closure; vacuously true when the strict set is empty."""
    g, tol = with_defaults(g, tol)
    n = T.dimension
    return _window_verdict(
        Property.CONDITION_C, T, V, g, tol, related=False,
        fails=lambda rows: ~T.domain_closure_contains_rows(rows[:, :n], tol),
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
