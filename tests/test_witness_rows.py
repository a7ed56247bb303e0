"""Checks hand finish their failing rows, and windows of another dimension.

finish is the one place where a check's failing [x, x*] rows become witness
points, and only the first WITNESS_CAP of them do. The low-representability
scan walks the family with a mask over the band rows, and the
representative test appends the graph rows off the band by distinct_rows.
Each is compared here with the per-point code it replaced, kept as the
reference: the verdict fields, the witnesses in order, and the members the
scan consults. A window whose dimension differs from the operator's is
rejected with DimensionMismatch by every check.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monokit import (
    DEFAULT_TOL,
    AbsSubdiff,
    BelowCoupling,
    DimensionMismatch,
    FiniteGraph,
    Flat,
    GridSpec,
    check_condition_c,
    check_identifies,
    check_locates,
    check_v_representable,
    check_vni,
    closed_box,
    interval,
    is_monotone,
    pdp,
    penot_envelope,
    phi_eval,
    psi_eval,
    restrict,
    SumNormalCone,
    unique_extension,
    whole_space,
)
from monokit import classify, verdicts
from monokit.classify import _low_representable, dyadic_open_boxes
from monokit.convex import ConvexFn
from monokit.core import coupling_rows, point_rows, row_points
from monokit.fitzpatrick import (_band_rows, _near_band, _representative,
                                 _values, scan_rows)
from monokit.gallery import GALLERY_GRID
from monokit.sumcalc import _RhoMachine
from monokit.verdicts import (Property, WITNESS_CAP, finish, format_scalar,
                              witness_strings)
from test_scan_kernel import cases

TOL = DEFAULT_TOL


# --- finish caps the witnesses -----------------------------------------------

def test_finish_turns_only_the_capped_rows_into_points(monkeypatch):
    """A vni check with 720 failing rows reports them all in
    witness_count, their first WITNESS_CAP as witnesses in scan order, and
    no more than WITNESS_CAP rows become points on the way."""
    seen = []

    def counting(rows):
        seen.append(len(rows))
        return row_points(rows)

    for module in (verdicts, classify):
        monkeypatch.setattr(module, "row_points", counting, raising=False)
    v = check_vni(Flat(interval(-1.0, 1.0, True, True), (0.0,)),
                  whole_space(1), GALLERY_GRID, TOL)
    assert not v.value and v.witness_count == 720
    assert witness_strings(v) == [f"(-10 ; {format_scalar(-10.0 + 0.5 * k)})"
                                  for k in range(WITNESS_CAP)]
    assert sum(seen) <= WITNESS_CAP


def test_finish_of_no_rows_is_a_pass():
    v = finish(Property.VNI, np.empty((0, 4)), vacuous=True)
    assert v.value and v.witnesses == () and v.witness_count == 0
    assert v.vacuous


# --- the low-representability scan against the per-point loop ----------------

def ref_low_representable(T, family, g, tol, check):
    """The per-point loop with a verdict cache that the mask scan replaced."""
    env, exact = penot_envelope(T, None, g)
    ids = (family.rule,)
    if not len(env.rows):
        return verdicts.Verdict(Property.LOW_REPRESENTABLE, True, grid=g,
                                tol=tol, region_ids=ids, vacuous=True,
                                notes=("empty graph, empty band",))
    n = T.dimension
    band = row_points(_band_rows(env, scan_rows(whole_space(n), g), tol))
    xs = point_rows(band, n)[:, :n]
    inside = [region.contains_rows(xs).tolist() for region in family.regions]
    cache = {}
    approx = not exact
    failures = []
    for b, z in enumerate(band):
        found = False
        for idx, region in enumerate(family.regions):
            if not inside[idx][b]:
                continue
            if idx not in cache:
                cache[idx] = check(T, region, g, tol)
            approx = approx or cache[idx].approximate
            if cache[idx].value:
                found = True
                break
        if not found:
            failures.append(z)
    return finish(Property.LOW_REPRESENTABLE, point_rows(failures, n),
                  approximate=approx, grid=g, tol=tol, region_ids=ids,
                  vacuous=not band)


def _compare_low_representable(monkeypatch, T, g):
    family = dyadic_open_boxes(g.primal_clip(T.dimension), 2, T, g, TOL)
    real = classify.check_v_representable
    asked = {"scan": [], "loop": []}

    def recorder(name):
        def check(T, V, g, tol):
            asked[name].append(V)
            return real(T, V, g, tol)
        return check

    monkeypatch.setattr(classify, "check_v_representable", recorder("scan"))
    got = _low_representable(T, family, g, TOL)
    want = ref_low_representable(T, family, g, TOL, recorder("loop"))
    assert got == want
    assert asked["scan"] == asked["loop"]
    return got, asked["scan"], family


LINE_GRAPH = FiniteGraph([pdp(-1.0, -1.0), pdp(-0.5, 0.0), pdp(0.0, 0.0),
                          pdp(0.5, 0.5), pdp(1.0, 1.5)])
LINE_GRID = GridSpec(resolution=9, dual_bound=2.0, dual_resolution=9,
                     ambient_bound=1.5)


def test_low_representable_where_a_later_member_covers_some_rows(monkeypatch):
    """The first member is representable and covers the band rows left of
    0; the rows at 0 and beyond send the scan to later members."""
    v, asked, family = _compare_low_representable(monkeypatch, LINE_GRAPH,
                                                  LINE_GRID)
    assert [check_v_representable(LINE_GRAPH, r, LINE_GRID, TOL).value
            for r in asked[:2]] == [True, False]
    assert 2 < len(asked) < len(family.regions)
    assert witness_strings(v) == ["(0 ; 0)"]


def lattice_graph(rng, dimension):
    """A seeded monotone finite graph on the scan lattice of the grids below,
    so its band holds lattice rows: nondecreasing duals on a line, or
    x* = D x with D diagonal and nonnegative in the plane."""
    if dimension == 1:
        steps = np.linspace(-2.0, 2.0, 9)
        k = int(rng.integers(3, 7))
        xs = np.sort(rng.choice(steps, k, replace=False))
        duals = np.sort(rng.choice(steps, k))
        return FiniteGraph([pdp(x, s) for x, s in zip(xs.tolist(),
                                                      duals.tolist())])
    d = rng.choice([0.0, 0.5, 1.0], 2)
    xs = np.unique(rng.choice(np.linspace(-2.0, 2.0, 5),
                              (int(rng.integers(3, 7)), 2)), axis=0)
    return FiniteGraph([pdp(x, d * x) for x in xs.tolist()])


@pytest.mark.parametrize("seed", range(8))
def test_low_representable_matches_the_point_loop(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    dimension = 1 if seed < 4 else 2
    T = lattice_graph(rng, dimension)
    g = GridSpec(resolution=9 if dimension == 1 else 5, dual_bound=2.0,
                 dual_resolution=9, ambient_bound=2.0)
    v, asked, _ = _compare_low_representable(monkeypatch, T, g)
    assert not v.vacuous and asked


def test_low_representable_of_an_empty_graph(monkeypatch):
    T = FiniteGraph((pdp(5.0, 0.0),))
    empty = restrict(T, interval(0.0, 1.0))
    v, asked, _ = _compare_low_representable(monkeypatch, empty, LINE_GRID)
    assert v.value and v.vacuous and asked == []


# --- the representative merge against dict.fromkeys --------------------------

class Unfiltered(ConvexFn):
    """An envelope's values behind a plain ConvexFn, which no prefilter
    touches."""

    def __init__(self, env):
        self.env = env
        self.dimension = env.dimension

    def evaluate_rows(self, rows):
        return self.env.evaluate_rows(rows)


def ref_representative(h, T, V, g, tol, graph):
    """The point-keyed merge that distinct_rows replaced: the band failures,
    then each graph point off the band once, unless it already failed."""
    rows = scan_rows(V, g)
    rows = rows[_near_band(h, rows, tol)]
    values = _values(h, np.vstack([rows, graph]), tol)
    hv, c = values[:len(rows)], coupling_rows(rows)
    if (hv < c - tol.eps_strict).any():
        raise BelowCoupling("below")
    band = rows[np.abs(hv - c) <= tol.eps_eq]
    witnesses = row_points(band[~T.graph_contains_rows(band, tol)])
    gv = values[len(rows):]
    off = (gv == math.inf) | (np.abs(gv - coupling_rows(graph)) > tol.eps_eq)
    witnesses += [w for w in dict.fromkeys(row_points(graph[off]))
                  if w not in witnesses]
    return witnesses


def test_off_band_graph_rows_merge_as_the_point_keys_did():
    T = LINE_GRAPH
    V, g = interval(-1.5, 1.5), LINE_GRID
    h = Unfiltered(penot_envelope(T, None, g)[0])
    band_failures = ref_representative(h, T, V, g, TOL, T.graph_rows(V, g))
    assert band_failures  # the band holds rows off the graph
    # Rows off the band (one repeated, one outside the data's hull) around
    # the graph's rows and a row equal to a band failure.
    extra = point_rows([pdp(0.0, 1.0), pdp(-0.5, 0.0), pdp(0.0, 1.0),
                        band_failures[0], pdp(2.0, 0.0), pdp(0.0, 1.0)], 1)
    graph = np.vstack([extra[:2], T.graph_rows(V, g), extra[2:]])
    want = ref_representative(h, T, V, g, TOL, graph)
    got = _representative(h, T, V, g, TOL, graph)
    assert len(want) == len(band_failures) + 2
    assert got.witnesses == tuple(want[:WITNESS_CAP])
    assert got.witness_count == len(want)


# --- split-dual candidates ---------------------------------------------------

def test_a_summand_minus_zero_does_not_replace_the_lattice_zero():
    A = FiniteGraph([pdp(-1.0, -1.0), pdp(0.5, -0.0), pdp(1.0, 0.7)])
    g = GridSpec(resolution=5, dual_bound=2.0, dual_resolution=5)
    machine = _RhoMachine(SumNormalCone(A, closed_box([0.0], [1.0])),
                          interval(-1.0, 1.0), g)
    want = sorted(set(g.dual_lattice(1)) | {w.xstar for w in A.points})
    got = list(map(tuple, machine.candidates.tolist()))
    assert got == want
    assert [math.copysign(1.0, u[0]) for u in got] \
        == [math.copysign(1.0, u[0]) for u in want]
    assert (0.0,) in got and 0.7 in (u[0] for u in got)


# --- windows of another dimension --------------------------------------------

ENTRY_POINTS = {
    "vni": lambda T, V, g, z: check_vni(T, V, g, TOL),
    "locates": lambda T, V, g, z: check_locates(T, V, g, TOL),
    "identifies": lambda T, V, g, z: check_identifies(T, V, g, TOL),
    "condition_c": lambda T, V, g, z: check_condition_c(T, V, g, TOL),
    "v_representable": lambda T, V, g, z: check_v_representable(T, V, g, TOL),
    "unique_extension": lambda T, V, g, z: unique_extension(T, V, g, TOL),
    "is_monotone": lambda T, V, g, z: is_monotone(T, TOL, g, V=V),
    "phi_eval": lambda T, V, g, z: phi_eval(T, V, z, g),
    "psi_eval": lambda T, V, g, z: psi_eval(T, V, z, g),
}


@given(cases(), st.sampled_from(sorted(ENTRY_POINTS)))
@settings(max_examples=150, deadline=None)
def test_every_check_rejects_a_window_of_another_dimension(case, entry):
    T, _, g = case
    n = T.dimension
    m = 2 if n == 1 else n - 1
    V = closed_box((-1.0,) * m, (1.0,) * m)
    z = pdp((0.5,) * n, (0.5,) * n)
    with pytest.raises(DimensionMismatch):
        ENTRY_POINTS[entry](T, V, g, z)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_window_of_another_dimension_has_one_message(entry):
    """|x| has a box domain, so vni reaches meets_domain's box intersection
    first; the window is checked before it, as in every other entry."""
    with pytest.raises(DimensionMismatch,
                       match="^window dimension does not match operator$"):
        ENTRY_POINTS[entry](AbsSubdiff(1.0), closed_box((-1.0, -1.0),
                                                        (1.0, 1.0)),
                            GridSpec(5, 2.0, 5), pdp((0.5,), (0.5,)))
