"""Row membership and the array lattice against the per-point code they replaced.

Every kind answers its fiber for an (N, n) array of primals, and graph,
domain and domain-closure membership are masks over rows; the scalar forms
are one-row calls. The reference below is the point-by-point membership
written out per kind and per region shape, as each answered one point at a
time. Row masks, one-row calls and reference must agree on lattice rows and
on the edge cases: normal-cone faces and the |x| kink at and around _DUST,
the point complement's anchor with a zero dual, and finite-graph primals
within delta_dom of each other, which give one primal several boxes.

lattice_rows is checked against the itertools.product builder it replaced,
on the bytes of the arrays, so the sign of every zero counts.
"""
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monokit import (
    INF,
    AbsSubdiff,
    DimensionMismatch,
    Box,
    FiniteGraph,
    Flat,
    GridSpec,
    HalfSpace,
    Linear,
    NormalConeBox,
    PairSum,
    PointComplement,
    Restriction,
    SumNormalCone,
    closed_box,
    grid_sample,
    interval,
    pdp,
    whole_space,
)
from monokit.core import as_vector, row_points
from monokit.fitzpatrick import scan_rows
from monokit.operators import _DUST
from monokit.regions import Intersection, _axis_lattice, lattice_rows
from test_scan_kernel import TOL, cases, coord, half_spaces, vec

DELTA = TOL.delta_dom


# --- the per-point reference -------------------------------------------------

def ref_contains(region, x) -> bool:
    v = as_vector(x)
    if isinstance(region, Box):
        for xi, lo, hi, lo_o, hi_o in zip(v, region.lower, region.upper,
                                          region.lower_open,
                                          region.upper_open):
            if lo_o:
                if not xi > lo:
                    return False
            elif not xi >= lo:
                return False
            if hi_o:
                if not xi < hi:
                    return False
            elif not xi <= hi:
                return False
        return True
    if isinstance(region, HalfSpace):
        val = sum(a * b for a, b in zip(region.normal, v))
        return val <= region.offset if region.closed else val < region.offset
    assert isinstance(region, Intersection)
    return ref_contains(region.first, v) and ref_contains(region.second, v)


def ref_distance_inf(region, x) -> float:
    v = as_vector(x)
    if isinstance(region, Box):
        if region.is_empty():
            return INF
        worst = 0.0
        for xi, lo, hi in zip(v, region.lower, region.upper):
            if xi < lo:
                worst = max(worst, lo - xi)
            elif xi > hi:
                worst = max(worst, xi - hi)
        return worst
    if isinstance(region, HalfSpace):
        excess = sum(a * b for a, b in zip(region.normal, v)) - region.offset
        if excess <= 0:
            return 0.0
        return excess / sum(abs(c) for c in region.normal)
    assert isinstance(region, Intersection)
    return max(ref_distance_inf(region.first, v),
               ref_distance_inf(region.second, v))


def ref_fiber(T, x):
    """T(x) as (lower, upper) boxes, one point at a time."""
    v = as_vector(x)
    if isinstance(T, FiniteGraph):
        return [(p.xstar, p.xstar) for p in T.points
                if max(abs(a - b) for a, b in zip(v, p.x)) <= DELTA]
    if isinstance(T, Flat):
        return [(T.wstar, T.wstar)] if ref_contains(T.region, v) else []
    if isinstance(T, NormalConeBox):
        if not ref_contains(T.box, v):
            return []
        return [(tuple(-INF if abs(c - b) <= _DUST else 0.0
                       for c, b in zip(v, T.box.lower)),
                 tuple(INF if abs(c - b) <= _DUST else 0.0
                       for c, b in zip(v, T.box.upper)))]
    if isinstance(T, AbsSubdiff):
        xi, a = v[0], T.slope
        if xi > _DUST:
            return [((a,), (a,))]
        if xi < -_DUST:
            return [((-a,), (-a,))]
        return [((-a,), (a,))]
    if isinstance(T, PointComplement):
        if not ref_at_anchor(T, v):
            return []
        return [((-INF,) * T.dimension, (INF,) * T.dimension)]
    if isinstance(T, Linear):
        mx = tuple(float(c) for c in np.array(T.matrix) @ np.array(v))
        return [(mx, mx)]
    if isinstance(T, Restriction):
        return ref_fiber(T.base, v) if ref_contains(T.window, v) else []
    assert isinstance(T, PairSum)
    return [(tuple(p + q for p, q in zip(la, lb)),
             tuple(p + q for p, q in zip(ua, ub)))
            for la, ua in ref_fiber(T.first, v)
            for lb, ub in ref_fiber(T.second, v)]


def ref_at_anchor(T, x) -> bool:
    return max(abs(a - b) for a, b in zip(as_vector(x), T.anchor)) <= _DUST


def ref_graph_contains(T, z) -> bool:
    if isinstance(T, PointComplement):
        return ref_at_anchor(T, z.x) and any(c != 0.0 for c in z.xstar)
    if isinstance(T, Restriction):
        return ref_contains(T.window, z.x) and ref_graph_contains(T.base, z)
    return any(all(max(lo - s, s - hi) <= DELTA
                   for lo, s, hi in zip(low, z.xstar, up))
               for low, up in ref_fiber(T, z.x))


def ref_domain_contains(T, x) -> bool:
    return bool(ref_fiber(T, x))


def ref_domain_closure_contains(T, x) -> bool:
    region = T.domain_region()
    if isinstance(T, Restriction) and region is None:
        return ref_contains(T.window.closure(), x) \
            and ref_domain_closure_contains(T.base, x)
    if region is None:
        return ref_domain_contains(T, x)
    return ref_distance_inf(region, x) <= DELTA


def assert_membership_matches(T, rows):
    """Row masks, one-row calls and the per-point reference agree at every
    [x, x*] row, and fiber_rows over the distinct primals gives each one's
    reference boxes in order."""
    n = T.dimension
    xs = rows[:, :n]
    zs = row_points(rows)
    graph = T.graph_contains_rows(rows, TOL)
    dom = T.domain_contains_rows(xs, TOL)
    closure = T.domain_closure_contains_rows(xs, TOL)
    for arr in (graph, dom, closure):
        assert arr.dtype == bool and arr.shape == (len(rows),)
    assert graph.tolist() == [ref_graph_contains(T, z) for z in zs]
    assert graph.tolist() == [T.graph_contains(z, TOL) for z in zs]
    primals = [z.x for z in zs]
    assert dom.tolist() == [ref_domain_contains(T, x) for x in primals]
    assert dom.tolist() == [T.domain_contains(x, TOL) for x in primals]
    assert closure.tolist() == [ref_domain_closure_contains(T, x)
                                for x in primals]
    distinct = list(dict.fromkeys(primals))
    owner, low, up = T.fiber_rows(np.array(distinct).reshape(-1, n), TOL)
    assert list(zip(owner.tolist(), map(tuple, low.tolist()),
                    map(tuple, up.tolist()))) == [
        (i, lo, hi) for i, x in enumerate(distinct)
        for lo, hi in ref_fiber(T, x)]


def probe_rows(T, V, g):
    """The scan lattice over V (the whole space when None) plus every
    graph row, so both sides of each membership test are met."""
    n = T.dimension
    rows = scan_rows(whole_space(n) if V is None else V, g)
    return np.vstack([rows, T.graph_rows(V, g)])


# --- every kind on lattice rows ----------------------------------------------

@given(cases())
@settings(max_examples=250, deadline=None)
def test_row_membership_is_the_point_membership(case):
    T, V, g = case
    assert_membership_matches(T, probe_rows(T, V, g))


def test_empty_rows_give_empty_masks():
    for T in (AbsSubdiff(1.0), FiniteGraph((pdp(0.0, 1.0),)),
              PairSum(Linear(((1.0,),)), NormalConeBox(interval(0.0, 1.0)))):
        rows = np.empty((0, 2))
        assert T.graph_contains_rows(rows, TOL).shape == (0,)
        assert T.domain_contains_rows(rows[:, :1], TOL).shape == (0,)
        assert T.domain_closure_contains_rows(rows[:, :1], TOL).shape == (0,)


@given(cases(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_one_row_calls_reject_another_dimension(case, longer):
    T = case[0]
    n = T.dimension
    m = n + 1 if longer or n == 1 else n - 1
    x, ok = (0.5,) * m, (0.5,) * n
    for call in (lambda: T.domain_contains(x, TOL),
                 lambda: T.graph_contains(pdp(x, x), TOL),
                 lambda: T.graph_contains(pdp(ok, ok)._replace(xstar=x),
                                          TOL)):
        with pytest.raises(DimensionMismatch):
            call()


# --- edge cases --------------------------------------------------------------

def rows_at(primals, duals):
    """Every primal paired with every dual, as [x, x*] rows."""
    return np.array([list(x) + list(s) for x in primals for s in duals],
                    dtype=float)


AROUND = (0.0, -0.0, _DUST, -_DUST, 0.5 * _DUST, -0.5 * _DUST, 2 * _DUST,
          -2 * _DUST, DELTA, -DELTA, 2 * DELTA, -2 * DELTA)


def test_normal_cone_faces_at_dust():
    T = NormalConeBox(closed_box([-1.0, 0.0], [1.0, 2.0]))
    axis0 = [-1.0 + d for d in AROUND] + [1.0 + d for d in AROUND] + [0.3]
    axis1 = [0.0 + d for d in AROUND] + [2.0 + d for d in AROUND] + [1.0]
    primals = list(itertools.product(axis0, axis1))
    duals = list(itertools.product((-3.0, -DELTA, 0.0, -0.0, DELTA, 3.0),
                                   repeat=2))
    assert_membership_matches(T, rows_at(primals, duals))


def test_abs_kink_at_dust():
    for a in (0.5, 1.0):
        T = AbsSubdiff(a)
        duals = [(s,) for s in (-a - 2 * DELTA, -a - DELTA, -a, -0.3, 0.0,
                                -0.0, 0.3, a, a + DELTA, a + 2 * DELTA)]
        assert_membership_matches(T, rows_at([(d,) for d in AROUND], duals))


def test_point_complement_anchor_with_a_zero_dual():
    T = PointComplement((0.5, -1.0))
    primals = [(0.5 + d, -1.0 + e) for d in AROUND[:6] for e in AROUND[:6]]
    duals = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (0.0, 1e-300),
             (-DELTA, 0.0), (2.0, -2.0)]
    rows = rows_at(primals, duals)
    assert_membership_matches(T, rows)
    at = rows[:, 0] == 0.5
    zero = ~rows[:, 2:].any(axis=1)
    assert not T.graph_contains_rows(rows[at & zero], TOL).any()


def test_finite_graph_primals_within_delta_give_several_boxes():
    T = FiniteGraph((pdp((0.0, 0.0), (1.0, 0.0)),
                     pdp((0.6 * DELTA, 0.0), (2.0, 0.0)),
                     pdp((-0.6 * DELTA, 0.3 * DELTA), (3.0, 1.0)),
                     pdp((1.0, 1.0), (0.0, 0.0))))
    assert len(T.fiber_rows(np.zeros((1, 2)), TOL)[0]) == 3
    primals = [(d, e) for d in AROUND for e in AROUND[:4]] + [(1.0, 1.0)]
    duals = [(1.0, 0.0), (2.0, 0.0), (3.0, 1.0), (3.0, 1.0 + 2 * DELTA),
             (0.0, 0.0), (1.5, 0.0)]
    assert_membership_matches(T, rows_at(primals, duals))


def test_finite_graph_fiber_in_blocks():
    """More rows than one block holds: the blocks join in row order."""
    rng = np.random.default_rng(3)
    pts = np.unique(rng.integers(-4, 5, size=(300, 4)) / 4.0, axis=0)
    T = FiniteGraph(tuple(pdp(p[:2], p[2:]) for p in pts))
    rows = np.hstack([rng.integers(-5, 6, size=(900, 2)) / 4.0,
                      rng.integers(-2, 3, size=(900, 2)) / 2.0])
    assert_membership_matches(T, rows)


def test_restricted_point_complement_excludes_the_zero_dual():
    """The restriction defers to the base's own graph test: the fiber alone,
    the whole dual space, would admit the zero dual."""
    T = Restriction(PointComplement((0.0,)), interval(-1.0, 1.0))
    rows = rows_at([(0.0,), (-0.0,), (_DUST,), (2.0,)],
                   [(0.0,), (-0.0,), (1.0,), (-1.0,)])
    assert_membership_matches(T, rows)
    assert T.graph_contains_rows(rows, TOL).tolist() == [
        False, False, True, True] * 3 + [False] * 4
    owner, low, up = T.fiber_rows(np.zeros((1, 1)), TOL)
    assert (owner.tolist(), low.tolist(), up.tolist()) \
        == ([0], [[-INF]], [[INF]])


@pytest.mark.parametrize("T", [
    PairSum(PointComplement((0.0,)), AbsSubdiff(1.0)),
    PairSum(NormalConeBox(interval(-1.0, 0.0)),
            NormalConeBox(interval(0.0, 1.0))),
    SumNormalCone(FiniteGraph((pdp(0.0, 1.0), pdp(0.5 * DELTA, -1.0))),
                  interval(0.0, 1.0)),
    Restriction(PairSum(AbsSubdiff(1.0), Flat(interval(-0.5, 0.5, True),
                                              (0.25,))),
                HalfSpace((1.0,), 0.0, False)),
], ids=["complement-abs", "two-cones", "cloud-cone", "restricted-sum"])
def test_sums_and_restrictions_at_the_edges(T):
    primals = [(d,) for d in AROUND] + [(-1.0,), (1.0,), (0.5,), (-0.5,)]
    duals = [(s,) for s in (-INF, -2.0, -1.0, -0.0, 0.0, 0.25, 1.0, 1.25,
                            2.0)]
    assert_membership_matches(T, rows_at(primals, duals))


def test_linear_fiber_is_the_per_point_product():
    """The stacked product gives each image as m @ x gives it, bit for bit;
    a single xs @ m.T may sum in another order."""
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(1, 4))
        root, skew = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        T = Linear(tuple(map(tuple, root @ root.T + skew - skew.T)))
        xs = rng.normal(size=(int(rng.integers(1, 30)), n))
        owner, low, up = T.fiber_rows(xs, TOL)
        m = np.array(T.matrix)
        want = np.array([m @ x for x in xs])
        assert owner.tolist() == list(range(len(xs)))
        assert low.tobytes() == want.tobytes() == up.tobytes()
        rows = np.hstack([xs, want])
        assert T.graph_contains_rows(rows, TOL).all()
        assert [T.graph_contains(z, TOL) for z in row_points(rows)] \
            == [ref_graph_contains(T, z) for z in row_points(rows)]


# --- regions -----------------------------------------------------------------

def ref_lattice(region, spec, k):
    """The lattice as itertools.product built it, point by point."""
    n = region.dimension
    if region.is_empty():
        return []
    clip = closed_box((-spec.ambient_bound,) * n, (spec.ambient_bound,) * n)
    if isinstance(region, Box):
        box = region.intersect(clip)
        if box.is_empty():
            return []
        axes = [_axis_lattice(box.lower[i], box.upper[i], box.lower_open[i],
                              box.upper_open[i], k) for i in range(n)]
        return [tuple(float(c) for c in p) for p in itertools.product(*axes)]
    bbox = region.bounding_box(clip)
    if bbox.is_empty():
        return []
    axes = [_axis_lattice(bbox.lower[i], bbox.upper[i], False, False, k)
            for i in range(n)]
    return [tuple(float(c) for c in p) for p in itertools.product(*axes)
            if ref_contains(region, p)]


end = st.one_of(coord, st.sampled_from((-INF, INF, -0.0)))


@st.composite
def lattice_boxes(draw, n):
    """Boxes with open, closed, infinite and lo == hi ends."""
    lo, hi = [], []
    for _ in range(n):
        a, b = sorted((draw(end), draw(end)))
        if draw(st.booleans()):
            b = a
        lo.append(a)
        hi.append(b)
    opens = [draw(st.booleans()) for _ in range(2 * n)]
    return Box(tuple(lo), tuple(hi), tuple(opens[:n]), tuple(opens[n:]))


@st.composite
def lattice_regions(draw):
    n = draw(st.integers(1, 3))
    pick = draw(st.sampled_from(("box", "half", "box-half", "half-half")))
    if pick == "box":
        region = draw(lattice_boxes(n))
    elif pick == "half":
        region = draw(half_spaces(n))
    elif pick == "box-half":
        region = Intersection(draw(lattice_boxes(n)), draw(half_spaces(n)))
    else:
        region = Intersection(draw(half_spaces(n)), draw(half_spaces(n)))
    spec = GridSpec(resolution=draw(st.integers(2, 5)),
                    ambient_bound=draw(st.sampled_from((1.0, 2.0, 3.5))))
    return region, spec, draw(st.integers(2, 5))


@given(lattice_regions())
@settings(max_examples=400, deadline=None)
def test_lattice_rows_are_the_product_lattice(case):
    region, spec, k = case
    n = region.dimension
    want = ref_lattice(region, spec, k)
    rows = lattice_rows(region, replace(spec, resolution=k))
    assert rows.dtype == np.float64 and rows.shape == (len(want), n)
    assert rows.tobytes() == np.array(want, dtype=float).reshape(-1, n) \
        .tobytes()
    assert grid_sample(region, replace(spec, resolution=k)) == want


@given(lattice_regions(), st.lists(vec(3), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_region_rows_are_the_point_answers(case, points):
    region = case[0]
    n = region.dimension
    xs = np.array([p[:n] for p in points] + [(-0.0,) * n], dtype=float)
    want = [ref_contains(region, x) for x in xs.tolist()]
    assert region.contains_rows(xs).tolist() == want
    assert [region.contains(x) for x in xs.tolist()] == want
    want = [ref_distance_inf(region, x) for x in xs.tolist()]
    assert region.distance_inf_rows(xs).tolist() == want


@given(lattice_regions(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_region_rows_reject_another_width(case, longer):
    region = case[0]
    n = region.dimension
    m = n + 1 if longer or n == 1 else n - 1
    for xs in (np.zeros((3, m)), np.zeros((0, m))):
        with pytest.raises(DimensionMismatch):
            region.contains_rows(xs)
        with pytest.raises(DimensionMismatch):
            region.distance_inf_rows(xs)
    with pytest.raises(DimensionMismatch):
        region.contains((0.0,) * m)


@pytest.mark.parametrize("T", [
    FiniteGraph((pdp((0.0, 0.0), (0.0, 0.0)), pdp((0.5, 0.5), (1.0, 0.5)))),
    FiniteGraph((pdp(0.0, 0.0), pdp(0.5, 1.0))),
], ids=["2d-graph", "1d-graph"])
def test_finite_graph_rejects_a_window_of_another_dimension(T):
    V = closed_box((-1.0,) * (3 - T.dimension), (1.0,) * (3 - T.dimension))
    with pytest.raises(DimensionMismatch):
        T.graph_rows(V, GridSpec(5, 2.0, 5))


def test_empty_box_is_infinitely_far():
    box = Box((1.0,), (1.0,), (True,), (False,))
    assert box.distance_inf_rows(np.array([[1.0], [0.0]])).tolist() \
        == [INF, INF]


@pytest.mark.parametrize("dual_bound, ambient_bound",
                         [(1.5, 10.0), (2.0, 2.0), (10.0, 0.75), (0.1, 0.3)])
@pytest.mark.parametrize("k", [2, 4, 9])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_dual_rows_are_the_clipped_dual_box_lattice(dual_bound,
                                                    ambient_bound, k, n):
    g = GridSpec(resolution=3, dual_bound=dual_bound, dual_resolution=k,
                 ambient_bound=ambient_bound)
    at_k = replace(g, resolution=g.dual_resolution)
    want = lattice_rows(g.dual_box(n), at_k)
    assert g.dual_rows(n).tobytes() == want.tobytes()
    assert g.dual_lattice(n) == grid_sample(g.dual_box(n), at_k)
