"""The blocked scan kernels against the scalar routes, kind by kind.

phi_batch must equal the scalar phi with ==, infinities included, and
mr_batch the scalar mr_test. Where phi is sampled, both must also equal a
plain Python sup and gap scan over the enumerated graph, so the kernel's
summation order is checked against core's pairings bit for bit.
"""

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
    Restriction,
    SumNormalCone,
    Box,
    closed_box,
    coupling,
    monotone_gap,
    mr_test,
    natural_pairing,
    pdp,
    scan_grid,
    supremum,
    whole_space,
)
from monokit import operators

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
         "pair_sum")))
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
    else:
        first = draw(linear_maps(n))
        second = NormalConeBox(draw(boxes(n, closed=True))) \
            if draw(st.booleans()) else Flat(whole_space(n), draw(vec(n)))
        T, V = PairSum(first, second), draw(windows(n))
    return T, V, draw(grids(n))


def scan_points(V, n, g):
    return scan_grid(whole_space(n) if V is None else V, g)


def reference_phi(T, V, zs, g):
    """The enumerated sup written out with core's scalar pairings."""
    pts = T.enumerate_graph(V, g)
    return [supremum(natural_pairing(z, w) - coupling(w) for w in pts)
            for z in zs]


def reference_mr(T, V, zs, g):
    pts = T.enumerate_graph(V, g)
    return [all(monotone_gap(z, w) >= -TOL.eps_eq for w in pts) for z in zs]


def assert_batches_match(T, V, g, zs):
    """The batch over all of zs, the scalar routes on an even subsample
    (a sampled scalar phi enumerates the graph once per point)."""
    phis = T.phi_batch(V, zs, g)
    mask = T.mr_batch(V, zs, TOL, g)
    assert phis.shape == mask.shape == (len(zs),)
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
    T, V, g = case
    zs = scan_points(V, T.dimension, g) + list(T.points)
    assert_batches_match(T, V, g, zs)


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
    phis = T.phi_batch(V, zs, g)
    assert phis.tolist() == [-INF] * len(zs)
    assert T.mr_batch(V, zs, TOL, g).all()
    assert_batches_match(T, V, g, zs)


def test_empty_scan_gives_empty_arrays():
    T = Linear(((1.0,),))
    g = GridSpec(resolution=3)
    for V in (None, closed_box([0.0], [1.0])):
        assert T.phi_batch(V, [], g).shape == (0,)
        assert T.mr_batch(V, [], TOL, g).shape == (0,)


@given(cases(), st.sampled_from((3, 7, 16, 61)))
@settings(max_examples=60, deadline=None)
def test_block_edges(case, block):
    """A tiny block constant splits the N x M product into many row and
    column tiles; the answers must not move."""
    T, V, g = case
    zs = scan_points(V, T.dimension, g)
    whole_phi = T.phi_batch(V, zs, g).tolist()
    whole_mr = T.mr_batch(V, zs, TOL, g).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_BLOCK_ELEMS", block)
        assert T.phi_batch(V, zs, g).tolist() == whole_phi
        assert T.mr_batch(V, zs, TOL, g).tolist() == whole_mr


def test_blocks_cover_the_product_within_the_cap(monkeypatch):
    monkeypatch.setattr(operators, "_BLOCK_ELEMS", 7)
    seen = np.zeros((10, 12), dtype=int)
    for r, c in operators._blocks(10, 12):
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
    assert len(zs) * len(graph) > operators._BLOCK_ELEMS
    assert_batches_match(T, V, g, zs)
