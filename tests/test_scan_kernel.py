"""The blocked scan kernels against the scalar routes, kind by kind.

phi_batch must equal the scalar phi with ==, infinities included, and
mr_batch the scalar mr_test. The scalar routes are one-row calls of the
batches, so these checks say that a row's value does not depend on the rows
beside it. Where phi is sampled, both must also equal a plain Python sup and
gap scan over the enumerated graph, so the kernel's summation order is
checked against core's pairings bit for bit, and the is_monotone witness
must be the first pair a scalar gap scan rejects. Every enumerated graph
point must also pass graph_contains and sit in a box of the dual fiber at
its primal point.

The scan lattice is built once as rows. scan_grid must equal the lattice
built point by point, and each window check, which turns only its selected
rows into points, must equal a point-by-point scan of that lattice.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monokit import (
    DEFAULT_TOL,
    INF,
    AbsSubdiff,
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
    ToleranceError,
    UnsatisfiedHypothesis,
    Box,
    check_condition_c,
    check_identifies,
    check_locates,
    check_vni,
    closed_box,
    interval,
    coupling,
    grid_sample,
    is_monotone,
    monotone_gap,
    mr_test,
    natural_pairing,
    pdp,
    scan_grid,
    supremum,
    unique_extension,
    whole_space,
)
from monokit import core
from monokit.errors import MonokitError
from monokit.fitzpatrick import scan_rows
from monokit.operators import meets_domain
from monokit.verdicts import WITNESS_CAP

TOL = DEFAULT_TOL

# Quarter steps make ties, box faces and lattice hits likely.
coord = st.integers(-8, 8).map(lambda k: k / 4.0)


def vec(n):
    return st.tuples(*[coord] * n)


@st.composite
def grids(draw, n):
    r = draw(st.integers(2, 4 if n < 3 else 3))
    return GridSpec(resolution=r,
                    dual_bound=draw(st.sampled_from((1.0, 2.0, 4.0))),
                    dual_resolution=draw(st.integers(2, 4 if n < 3 else 3)),
                    ambient_bound=2.0)


@st.composite
def boxes(draw, n, closed=False):
    lo, hi = [], []
    for _ in range(n):
        a, b = sorted((draw(coord), draw(coord)))
        if a == b:
            b = a + 0.5
        lo.append(a)
        hi.append(b)
    if closed:
        return closed_box(lo, hi)
    opens = [draw(st.booleans()) for _ in range(2 * n)]
    return Box(tuple(lo), tuple(hi), tuple(opens[:n]), tuple(opens[n:]))


@st.composite
def half_spaces(draw, n):
    normal = draw(vec(n).filter(lambda v: any(c != 0.0 for c in v)))
    return HalfSpace(normal, draw(coord), draw(st.booleans()))


@st.composite
def windows(draw, n):
    pick = draw(st.sampled_from(("none", "box", "half")))
    if pick == "none":
        return None
    if pick == "box":
        return draw(boxes(n))
    return draw(half_spaces(n))


@st.composite
def finite_graphs(draw, n):
    pts = draw(st.lists(st.tuples(vec(n), vec(n)), min_size=1, max_size=8,
                        unique=True))
    return FiniteGraph(tuple(pdp(x, s) for x, s in pts))


@st.composite
def linear_maps(draw, n):
    root = np.array(draw(st.lists(coord, min_size=n * n, max_size=n * n)))
    skew = np.array(draw(st.lists(coord, min_size=n * n, max_size=n * n)))
    root, skew = root.reshape(n, n), skew.reshape(n, n)
    m = root @ root.T + (skew - skew.T)
    return Linear(tuple(tuple(float(c) for c in row) for row in m))


@st.composite
def simple_kinds(draw, n):
    kind = draw(st.sampled_from(("flat", "cone", "abs", "linear", "finite")))
    if kind == "abs":
        return AbsSubdiff(draw(st.sampled_from((0.5, 1.0, 2.0)))), 1
    if kind == "flat":
        return Flat(draw(boxes(n)), draw(vec(n))), n
    if kind == "cone":
        return NormalConeBox(draw(boxes(n, closed=True))), n
    if kind == "linear":
        return draw(linear_maps(n)), n
    return draw(finite_graphs(n)), n


@st.composite
def cases(draw):
    """(operator, window, grid) over every kind, n = 1 to 3."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(
        ("simple", "half", "bounded_linear", "restriction", "sum_cone",
         "pair_sum", "nested_sum")))
    if kind == "simple":
        T, n = draw(simple_kinds(n))
        V = draw(windows(n))
    elif kind == "half":
        # The closed-form kinds on half-space windows take the sampled route.
        kind = draw(st.sampled_from(("flat", "cone", "abs")))
        if kind == "abs":
            n = 1
            T = AbsSubdiff(1.0)
        elif kind == "flat":
            T = Flat(draw(boxes(n)), draw(vec(n)))
        else:
            T = NormalConeBox(draw(boxes(n, closed=True)))
        V = draw(half_spaces(n))
    elif kind == "bounded_linear":
        T, V = draw(linear_maps(n)), draw(boxes(n))
    elif kind == "restriction":
        base, n = draw(simple_kinds(n))
        T, V = Restriction(base, draw(boxes(n))), draw(windows(n))
    elif kind == "sum_cone":
        if n == 1 and draw(st.booleans()):
            summand = AbsSubdiff(1.0)
        else:
            summand = draw(linear_maps(n))
        T, V = SumNormalCone(summand, draw(boxes(n, closed=True))), \
            draw(windows(n))
    elif kind == "pair_sum":
        first = draw(linear_maps(n))
        second = NormalConeBox(draw(boxes(n, closed=True))) \
            if draw(st.booleans()) else Flat(whole_space(n), draw(vec(n)))
        T, V = PairSum(first, second), draw(windows(n))
    else:
        inner = PairSum(draw(linear_maps(n)),
                        NormalConeBox(draw(boxes(n, closed=True))))
        outer = draw(st.sampled_from(("cone", "flat", "abs")))
        if outer == "abs" and n == 1:
            second = AbsSubdiff(0.5)
        elif outer == "flat":
            second = Flat(draw(boxes(n)), draw(vec(n)))
        else:
            second = NormalConeBox(draw(boxes(n, closed=True)))
        T, V = PairSum(inner, second), draw(windows(n))
    return T, V, draw(grids(n))


def scan_points(V, n, g):
    return scan_grid(whole_space(n) if V is None else V, g)


def rows_of(T, zs):
    return core.point_rows(zs, T.dimension)


def reference_phi(T, V, zs, g):
    """The enumerated sup written out with core's scalar pairings."""
    pts = T.enumerate_graph(V, g)
    return [supremum(natural_pairing(z, w) - coupling(w) for w in pts)
            for z in zs]


def reference_mr(T, V, zs, g):
    pts = T.enumerate_graph(V, g)
    return [all(monotone_gap(z, w) >= -TOL.eps_eq for w in pts) for z in zs]


def assert_below_matches(T, V, g, rows, phis):
    """below_batch equals phi_batch < thr bit for bit: at the window
    checks' threshold, on phi itself and one ulp either side (where phi
    is finite)."""
    strict = core.coupling_rows(rows) - TOL.eps_strict
    on = np.where(np.isfinite(phis), phis, strict)
    for thr in (strict, on, np.nextafter(on, -INF), np.nextafter(on, INF)):
        assert T.below_batch(V, rows, thr, g).tolist() \
            == (phis < thr).tolist()


def assert_batches_match(T, V, g, zs):
    """The batch over all of zs, the scalar routes on an even subsample
    (a sampled scalar phi enumerates the graph once per point)."""
    phis = T.phi_batch(V, rows_of(T, zs), g)
    mask = T.mr_batch(V, rows_of(T, zs), TOL, g)
    assert phis.shape == mask.shape == (len(zs),)
    assert_below_matches(T, V, g, rows_of(T, zs), phis)
    idx = range(0, len(zs), max(1, len(zs) // 40))
    sample = [zs[i] for i in idx]
    phis = [phis[i] for i in idx]
    mask = [mask[i] for i in idx]
    assert phis == [T.phi(V, z, g) for z in sample]
    assert mask == [mr_test(T, V, z, TOL, g) for z in sample]
    if not T.phi_is_exact(V) or isinstance(T, FiniteGraph):
        assert phis == reference_phi(T, V, sample, g)
    if not T.phi_is_exact(V):
        assert mask == reference_mr(T, V, sample, g)


@given(cases())
@settings(max_examples=150, deadline=None)
def test_batches_equal_scalar_routes(case):
    T, V, g = case
    zs = scan_points(V, T.dimension, g)
    assert_batches_match(T, V, g, zs)


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(finite_graphs(n), windows(n), grids(n))))
@settings(max_examples=60, deadline=None)
def test_finite_graph_phi_is_the_kernel_sup(case):
    """Also the two mr_test routes, phi against the coupling and pairwise
    gaps, agree on finite graphs."""
    T, V, g = case
    zs = scan_points(V, T.dimension, g) + list(T.points)
    assert_batches_match(T, V, g, zs)
    assert T.mr_batch(V, rows_of(T, zs), TOL, g).tolist() \
        == reference_mr(T, V, zs, g)


@pytest.mark.parametrize("T, V", [
    (Flat(closed_box([0.0, 0.0], [1.0, 1.0]), (1.0, -1.0)),
     HalfSpace((1.0, 1.0), -1.0)),
    (NormalConeBox(closed_box([0.5], [1.5])), HalfSpace((1.0,), 0.0, False)),
    (Linear(((1.0, 0.0), (0.0, 2.0))),
     Box((-2.0, 1.0), (-1.0, 1.0), (False, True), (False, True))),
    (FiniteGraph((pdp([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]),)),
     closed_box([-1.0, -1.0, -1.0], [0.0, 0.0, 0.0])),
    (Restriction(AbsSubdiff(1.0), closed_box([1.0], [2.0])),
     HalfSpace((1.0,), 0.5)),
])
def test_window_missing_the_domain(T, V):
    """An empty restriction: phi is -inf and every point is related."""
    g = GridSpec(resolution=4, dual_bound=2.0, dual_resolution=3,
                 ambient_bound=2.0)
    zs = scan_grid(whole_space(T.dimension), g)
    assert zs
    phis = T.phi_batch(V, rows_of(T, zs), g)
    assert phis.tolist() == [-INF] * len(zs)
    assert T.mr_batch(V, rows_of(T, zs), TOL, g).all()
    assert_batches_match(T, V, g, zs)


def test_empty_scan_gives_empty_arrays():
    T = Linear(((1.0,),))
    g = GridSpec(resolution=3)
    for V in (None, closed_box([0.0], [1.0])):
        assert T.phi_batch(V, np.zeros((0, 2)), g).shape == (0,)
        assert T.mr_batch(V, np.zeros((0, 2)), TOL, g).shape == (0,)


# Tiny block constants split an N x M product into many row and column tiles.
BLOCK_EDGES = (3, 7, 16, 61)


@given(cases(), st.sampled_from(BLOCK_EDGES))
@settings(max_examples=60, deadline=None)
def test_block_edges(case, block):
    """The answers must not move with the tiling."""
    T, V, g = case
    rows = rows_of(T, scan_points(V, T.dimension, g))
    whole_phi = T.phi_batch(V, rows, g).tolist()
    whole_mr = T.mr_batch(V, rows, TOL, g).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_ELEMS", block)
        assert T.phi_batch(V, rows, g).tolist() == whole_phi
        assert T.mr_batch(V, rows, TOL, g).tolist() == whole_mr


def test_blocks_cover_the_product_within_the_cap(monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_ELEMS", 7)
    seen = np.zeros((10, 12), dtype=int)
    for r, c in core._blocks(10, 12):
        assert seen[r, c].size <= 7
        seen[r, c] += 1
    assert (seen == 1).all()


def test_large_scan_crosses_blocks():
    """N x M well above one default block, against the scalar sup."""
    T = Linear(((1.0, 0.5), (-0.5, 1.0)))
    V = closed_box([-1.0, -1.0], [1.0, 1.0])
    g = GridSpec(resolution=13, dual_bound=3.0, dual_resolution=13)
    zs = scan_grid(V, g)
    graph = T.enumerate_graph(V, g)
    assert len(zs) * len(graph) > core._BLOCK_ELEMS
    assert_batches_match(T, V, g, zs)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 8, 9, 50, 700])
@pytest.mark.parametrize("block", [None, 5, 40])
def test_pairing_below_is_the_max_kernel_thresholded(n, m, block,
                                                     monkeypatch):
    """The early-exit mask equals max_pairing_rows(...) <= thr bit for
    bit: at thresholds on the max itself (terms exactly at it), one ulp
    below it and on the coupling, with no columns or no rows, and with
    more columns than the first chunk and than the stride. The related
    mask equals the full gap product's with gaps exactly on -eps."""
    if block is not None:
        monkeypatch.setattr(core, "_BLOCK_ELEMS", block)
    rng = np.random.default_rng(7 * n + m)
    ws = rng.integers(-8, 9, (m, 2 * n)) / 4.0
    b = -core.coupling_rows(ws)
    # tiny blocks tile one row at a time, so they get fewer rows
    for nz in (0, 1, 300 if block is None else 30):
        zs = rng.integers(-8, 9, (nz, 2 * n)) / 4.0
        top = core.max_pairing_rows(ws, b, zs)
        mixed = np.where(rng.random(nz) < 0.5, top,
                         np.nextafter(top, -INF))
        for thr in (top, np.nextafter(top, -INF),
                    core.coupling_rows(zs) + 3e-9, mixed):
            mask = core.pairing_below_rows(ws, b, zs, thr)
            assert mask.tolist() == (top <= thr).tolist()
        # the related kernel against the full gap product, at eps on a
        # gap of the product and one ulp either side
        gaps = gap_product(zs, ws)
        for on in ({-gaps.min(), -np.median(gaps)} if gaps.size else {1e-9}):
            for eps in (on, np.nextafter(on, -INF), np.nextafter(on, INF)):
                assert core.related_rows(ws, zs, eps).tolist() \
                    == (gaps >= -eps).all(axis=1).tolist()


def first_failing_pair(points):
    """The first pair i < j, in lexicographic order, with a scalar gap
    below -eps_eq."""
    for i, z in enumerate(points):
        for w in points[i + 1:]:
            if monotone_gap(z, w) < -TOL.eps_eq:
                return (z, w),
    return ()


def near_monotone_graph(rng, n, size):
    """A constant dual plus noise a little below eps_eq: gaps land within a
    few eps_eq of zero either way, so some graphs fail by a hair and the
    first failure can sit deep in the scan."""
    xs = rng.uniform(-1, 1, (size, n))
    sigma = rng.choice((2e-10, 4e-10, 8e-10))
    duals = rng.uniform(-1, 1, n) + rng.normal(0.0, sigma, (size, n))
    return tuple(pdp(x, s) for x, s in zip(xs, duals))


@given(st.integers(1, 3).flatmap(finite_graphs),
       st.sampled_from((None,) + BLOCK_EDGES))
@settings(max_examples=100, deadline=None)
def test_monotone_witness_is_the_first_scalar_pair(T, block):
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(core, "_BLOCK_ELEMS", block)
        verdict = is_monotone(T, TOL)
    assert verdict.witnesses == first_failing_pair(T.points)
    assert bool(verdict.value) == (verdict.witnesses == ())


@pytest.mark.parametrize("block", (None,) + BLOCK_EDGES)
def test_monotone_witness_on_near_ties(block):
    """Gaps within a few eps_eq of the threshold, over many tiles."""
    rng = np.random.default_rng(7)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(core, "_BLOCK_ELEMS", block)
        for _ in range(12):
            n = int(rng.integers(1, 4))
            pts = near_monotone_graph(rng, n, int(rng.integers(2, 40)))
            assert is_monotone(FiniteGraph(pts), TOL).witnesses \
                == first_failing_pair(pts)


def gap_product(zs, ws):
    """Every gap <x - u, x* - u*>, in monotone_gap's order, as the full
    product."""
    n = zs.shape[1] // 2
    gaps = np.zeros((len(zs), len(ws)))
    for i in range(n):
        gaps += ((zs[:, i, None] - ws[None, :, i])
                 * (zs[:, n + i, None] - ws[None, :, n + i]))
    return gaps


def settled_run_pairs(rows):
    """The run pairs a <= b that _settled_runs clears, after checking that
    each of their gaps passes in the exact kernel."""
    run = core._RUN
    starts = np.arange(0, len(rows), run)
    lo = np.minimum.reduceat(rows, starts)
    hi = np.maximum.reduceat(rows, starts)
    gaps = gap_product(rows, rows)
    cleared = 0
    for a in range(len(starts)):
        for b in a + np.flatnonzero(core._settled_runs(lo, hi, a,
                                                       TOL.eps_eq)):
            block = gaps[a * run:(a + 1) * run, b * run:(b + 1) * run]
            assert (block >= -TOL.eps_eq).all(), (a, b)
            cleared += 1
    return cleared


def near_identity_graph(rng, size):
    """Primals in ascending order with duals equal to them up to noise a
    little below eps_eq: later runs lie above earlier ones on both axes, so
    the bound settles most run pairs, and some pairs fail by a hair."""
    xs = np.sort(rng.uniform(-1, 1, size))
    duals = xs + rng.normal(0.0, 4e-10, size)
    return tuple(pdp([x], [s]) for x, s in zip(xs, duals))


@given(st.integers(1, 3).flatmap(finite_graphs), st.sampled_from((1, 2, 3)))
@settings(max_examples=100, deadline=None)
def test_settled_run_pairs_pass_on_drawn_graphs(T, run):
    """With short runs and tiny blocks, every run pair the interval bound
    settles passes in the exact gap kernel, and the half-product scan's
    witness is the first pair a scalar gap scan rejects."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_RUN", run)
        mp.setattr(core, "_BLOCK_ELEMS", 16)
        settled_run_pairs(T._rows)
        verdict = is_monotone(T, TOL)
    assert verdict.witnesses == first_failing_pair(T.points)


@pytest.mark.parametrize("run", (1, 2, 3, 8))
def test_settled_run_pairs_pass_on_near_ties(run, monkeypatch):
    """The same on graphs whose gaps sit within a few eps_eq of the
    threshold, over many runs."""
    monkeypatch.setattr(core, "_RUN", run)
    monkeypatch.setattr(core, "_BLOCK_ELEMS", 16)
    rng = np.random.default_rng(run)
    cleared = 0
    for k in range(24):
        size = int(rng.integers(2, 60))
        pts = near_identity_graph(rng, size) if k % 2 else \
            near_monotone_graph(rng, int(rng.integers(1, 4)), size)
        T = FiniteGraph(pts)
        cleared += settled_run_pairs(T._rows)
        assert is_monotone(T, TOL).witnesses == first_failing_pair(pts)
    assert cleared


def in_fiber(T, w):
    _, low, up = T.fiber_rows(np.array([w.x]), TOL)
    return bool(((low <= w.xstar) & (w.xstar <= up)).all(axis=1).any())


@given(cases())
@settings(max_examples=300, deadline=None)
def test_enumerated_points_are_members(case):
    """Enumeration and membership agree: every enumerated point passes
    graph_contains and its dual lies in a fiber box at its primal point."""
    T, V, g = case
    for w in T.enumerate_graph(V, g):
        assert T.graph_contains(w, TOL), w
        assert in_fiber(T, w), (w, T.fiber_rows(np.array([w.x]), TOL))


def built_on_finite_graph(T):
    while isinstance(T, Restriction):
        T = T.base
    return isinstance(T, FiniteGraph)


@given(cases())
@settings(max_examples=200, deadline=None)
def test_phi_is_the_coupling_at_graph_points(case):
    """Every kind but a raw point cloud is monotone, so phi_{T|V} meets the
    coupling at each enumerated point of the graph over V."""
    T, V, g = case
    if built_on_finite_graph(T):
        return
    pts = T.enumerate_graph(V, g)
    for w, p in zip(pts, T.phi_batch(V, rows_of(T, pts), g)):
        assert p == pytest.approx(coupling(w), rel=1e-9, abs=1e-9), w


@given(cases())
@settings(max_examples=150, deadline=None)
def test_sampled_phi_stays_below_the_closed_form(case):
    """The sup over enumerated graph points never exceeds the exact sup."""
    T, V, g = case
    if not T.phi_is_exact(V):
        return
    rows = rows_of(T, scan_points(V, T.dimension, g))
    exact = T.phi_batch(V, rows, g)
    sampled = T._phi_enumerated(V, rows, g)
    assert ((sampled <= exact)
            | np.isclose(sampled, exact, rtol=1e-9, atol=1e-9)).all()


def test_two_dim_cone_sum_members_at_the_callers_grid():
    """Every point the sum enumerates is a member, decided from fibers."""
    T = PairSum(Linear(((1.0, 0.5), (-0.5, 1.0))),
                NormalConeBox(closed_box([-1.0, -1.0], [1.0, 1.0])))
    g = GridSpec(resolution=7, dual_bound=4.0, dual_resolution=7)
    pts = T.enumerate_graph(None, g)
    assert len(pts) == 361
    assert sum(T.graph_contains(w, TOL) for w in pts) == 361
    assert T.graph_contains(pdp([1.0, 1.0], [1.5 + 2.0, 0.5 + 3.0]), TOL)
    assert not T.graph_contains(pdp([1.0, 1.0], [1.5 - 2.0, 0.5]), TOL)
    assert not T.graph_contains(pdp([0.0, 0.0], [0.5, 0.0]), TOL)


def test_nested_pair_sum_adds_every_fiber():
    box = closed_box([0.0], [2.0])
    inner = SumNormalCone(AbsSubdiff(1.0), box)
    T = PairSum(inner, Flat(interval(-1.0, 1.0), (0.5,)))
    owner, low, up = T.fiber_rows(np.array([[0.0], [1.0], [1.5]]), TOL)
    assert (owner.tolist(), low.tolist(), up.tolist()) \
        == ([0, 1], [[-INF], [1.5]], [[1.5], [1.5]])
    assert T.graph_contains(pdp([0.0], [-7.0]), TOL)
    assert not T.graph_contains(pdp([0.0], [1.6]), TOL)
    assert T.graph_contains(pdp([1.0], [1.5]), TOL)
    # Both summands sample the shared domain [0, 1].
    g = GridSpec(resolution=5, dual_bound=2.0, dual_resolution=5)
    pts = T.enumerate_graph(None, g)
    assert {w.x for w in pts} == {(0.0,), (0.25,), (0.5,), (0.75,), (1.0,)}
    assert all(T.graph_contains(w, TOL) for w in pts)


def test_point_cloud_plus_cone_keeps_off_lattice_points():
    # (0.33; 1) lies off the cone's lattice, so the cone is sampled there.
    A = FiniteGraph((pdp([0.33], [1.0]), pdp([0.0], [0.5])))
    T = SumNormalCone(A, closed_box([0.0], [1.0]))
    g = GridSpec(resolution=11, dual_bound=2.0, dual_resolution=3)
    pts = T.enumerate_graph(None, g)
    assert set(pts) == {pdp([0.33], [1.0]), pdp([0.0], [0.5]),
                        pdp([0.0], [-0.5]), pdp([0.0], [-1.5])}
    assert all(T.graph_contains(w, TOL) for w in pts)


def test_cone_plus_point_cloud_keeps_off_lattice_points():
    # The same sum with the summands swapped: (0.33; 1) lies off the cone's
    # lattice, so the cone is sampled at that point of the second summand.
    A = FiniteGraph((pdp([0.33], [1.0]), pdp([0.0], [0.5])))
    T = PairSum(NormalConeBox(closed_box([0.0], [1.0])), A)
    g = GridSpec(resolution=11, dual_bound=2.0, dual_resolution=3)
    pts = T.enumerate_graph(None, g)
    assert set(pts) == {pdp([0.33], [1.0]), pdp([0.0], [0.5]),
                        pdp([0.0], [-0.5]), pdp([0.0], [-1.5])}
    assert all(T.graph_contains(w, TOL) for w in pts)


def test_normal_cone_fiber_in_one_dimension():
    b = interval(0.0, 1.0)
    cone = NormalConeBox(b)
    owner, low, up = cone.fiber_rows(np.array([[1.0], [0.0], [0.5], [2.0]]),
                                     TOL)
    assert (owner.tolist(), low.tolist(), up.tolist()) \
        == ([0, 1, 2], [[0.0], [-INF], [0.0]], [[INF], [0.0], [0.0]])
    owner, low, up = NormalConeBox(interval(1.0, 1.0)).fiber_rows(
        np.array([[1.0]]), TOL)
    assert (owner.tolist(), low.tolist(), up.tolist()) \
        == ([0], [[-INF]], [[INF]])


@pytest.mark.parametrize("T, x, expected", [
    (FiniteGraph((pdp([0.0], [1.0]), pdp([0.0], [2.0]), pdp([1.0], [3.0]))),
     [0.0], [((1.0,), (1.0,)), ((2.0,), (2.0,))]),
    (Flat(interval(0.0, 1.0, hi_open=True), (2.0,)), [1.0], []),
    (Linear(((1.0, 2.0), (-2.0, 1.0))), [1.0, 1.0],
     [((3.0, -1.0), (3.0, -1.0))]),
    (AbsSubdiff(2.0), [0.0], [((-2.0,), (2.0,))]),
    (AbsSubdiff(2.0), [-0.5], [((-2.0,), (-2.0,))]),
    (PointComplement((1.0, 0.0)), [1.0, 0.0], [((-INF, -INF), (INF, INF))]),
    (PointComplement((1.0, 0.0)), [1.0, 0.5], []),
    (Restriction(AbsSubdiff(1.0), interval(0.0, 1.0)), [-0.5], []),
    (Restriction(AbsSubdiff(1.0), interval(0.0, 1.0)), [0.5],
     [((1.0,), (1.0,))]),
])
def test_fiber_of_each_kind(T, x, expected):
    owner, low, up = T.fiber_rows(np.array([x]), TOL)
    assert owner.tolist() == [0] * len(expected)
    assert list(zip(map(tuple, low.tolist()), map(tuple, up.tolist()))) \
        == expected


def sign_bits(zs):
    return [tuple(math.copysign(1.0, c) for c in z.x + z.xstar) for z in zs]


def window_of(V, n):
    return whole_space(n) if V is None else V


def point_lattice(V, n, g):
    """The scan lattice built point by point, the reference for the rows."""
    return [core.PrimalDualPoint(x, s)
            for x in grid_sample(V, g) for s in g.dual_lattice(n)]


@given(cases(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_scan_rows_are_the_point_lattice(case, shared):
    """scan_grid equals the point-by-point comprehension, sign bits
    included, and scan_rows equals its point_rows; also when row_points
    shares one tuple per distinct part at every size."""
    T, V, g = case
    n = T.dimension
    V = window_of(V, n)
    want = point_lattice(V, n, g)
    with pytest.MonkeyPatch.context() as mp:
        if shared:
            mp.setattr(core, "_SHARED_ROWS", 0)
        got = scan_grid(V, g)
    assert got == want
    assert sign_bits(got) == sign_bits(want)
    rows = scan_rows(V, g)
    assert rows.shape == (len(want), 2 * n)
    assert np.array_equal(rows, core.point_rows(want, n))
    assert core.row_points(rows) == got


@pytest.mark.parametrize("n", (1, 2, 3))
def test_empty_window_scans_no_rows(n):
    V = Box((0.0,) * n, (0.0,) * n, (True,) * n, (False,) * n)
    g = GridSpec(resolution=3, dual_resolution=3)
    assert scan_rows(V, g).shape == (0, 2 * n)
    assert scan_grid(V, g) == []


def folded(failures, vacuous=False):
    """What finish records of a failure list."""
    return (not failures, tuple(failures[:WITNESS_CAP]), len(failures),
            vacuous)


def recorded(v):
    return (bool(v.value), v.witnesses, v.witness_count, v.vacuous)


def outcome(call):
    """The result, or the class of the monokit error raised."""
    try:
        return call()
    except MonokitError as exc:
        return type(exc)


def reference_unique_extension(T, V, g, zs, phis):
    mono = is_monotone(T, TOL, g, V=V)
    if not mono.value:
        return UnsatisfiedHypothesis
    below = [z for z, p in zip(zs, phis) if p < coupling(z) - TOL.eps_strict]
    if meets_domain(T, V, g) and below:
        return UnsatisfiedHypothesis
    band = [abs(p - coupling(z)) <= TOL.eps_eq for z, p in zip(zs, phis)]
    if band != [p <= coupling(z) + TOL.eps_eq for z, p in zip(zs, phis)]:
        return ToleranceError
    return [z for z, b in zip(zs, band) if b]


@given(cases())
@settings(max_examples=30, deadline=None)
def test_window_checks_equal_the_point_scan(case):
    """Each window check, and unique_extension, against a loop over the
    lattice with the one-row phi and mr_test."""
    T, V, g = case
    V = window_of(V, T.dimension)
    zs = point_lattice(V, T.dimension, g)
    phis = [T.phi(V, z, g) for z in zs]
    below = [z for z, p in zip(zs, phis) if p < coupling(z) - TOL.eps_strict]
    related = [z for z in zs if mr_test(T, V, z, TOL, g)]

    vni = folded(below) if meets_domain(T, V, g) else folded([], True)
    assert recorded(check_vni(T, V, g, TOL)) == vni
    assert recorded(check_locates(T, V, g, TOL)) == folded(
        [z for z in related if not T.domain_contains(z.x, TOL)])
    assert recorded(check_identifies(T, V, g, TOL)) == folded(
        [z for z in related if not T.graph_contains(z, TOL)])
    assert recorded(check_condition_c(T, V, g, TOL)) == folded(
        [z for z in below
         if not T.domain_closure_contains_rows(np.array([z.x]), TOL)[0]],
        vacuous=not below)

    assert outcome(lambda: unique_extension(T, V, g, TOL)) \
        == reference_unique_extension(T, V, g, zs, phis)
