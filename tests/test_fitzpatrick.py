"""Affine sup, coupling envelope, and band-vs-graph matching."""

import numpy as np
import pytest

from monokit import (
    DEFAULT_TOL,
    INF,
    AbsSubdiff,
    BelowCoupling,
    ConvexFn,
    Envelope,
    FiniteGraph,
    GridSpec,
    Linear,
    NormalConeBox,
    PointComplement,
    add_normal_cone,
    check_v_representable,
    closed_box,
    coupling,
    coupling_band,
    envelope,
    interval,
    is_representative,
    open_box,
    pdp,
    penot_envelope,
    phi_eval,
    psi_eval,
    scan_grid,
)
from monokit import convex, fitzpatrick, lp
from monokit.convex import _beyond_hull, _facet_rows, _lp_rhs
from monokit.core import distinct_rows, point_rows
from monokit.fitzpatrick import _coupling_data, _near_band, scan_rows

from conftest import random_monotone_graph

TOL = DEFAULT_TOL
SMALL = GridSpec(resolution=21, dual_bound=4.0, dual_resolution=21)


class Unfiltered(ConvexFn):
    """An envelope's values behind a plain ConvexFn, which no prefilter
    touches: the full-scan reference."""

    def __init__(self, env):
        self.env = env
        self.dimension = env.dimension

    def evaluate_rows(self, rows):
        return self.env.evaluate_rows(rows)


def full_band(env, zs):
    """The band from an exact evaluation at every point."""
    values = env.evaluate_rows(point_rows(zs, env.dimension))
    return [z for z, v in zip(zs, values.tolist())
            if abs(v - coupling(z)) <= TOL.eps_eq]


class TestScanGrid:
    def test_product_shape_and_order(self):
        g = GridSpec(resolution=5, dual_bound=1.0, dual_resolution=3)
        zs = scan_grid(interval(0.0, 1.0), g)
        assert len(zs) == 5 * 3
        assert zs[0] == pdp([0.0], [-1.0])
        assert zs[1] == pdp([0.0], [0.0])
        assert zs[3] == pdp([0.25], [-1.0])

    def test_empty_window_gives_empty_grid(self):
        g = GridSpec(resolution=5)
        assert scan_grid(interval(1.0, 1.0, hi_open=True), g) == []


class TestPhiPsi:
    def test_phi_exactness_bookkeeping(self, three_point_graph):
        assert three_point_graph.phi_is_exact(None)
        assert three_point_graph.phi_is_exact(interval(0.0, 1.0))

    def test_psi_at_graph_points_is_coupling(self, three_point_graph):
        for w in three_point_graph.points:
            assert psi_eval(three_point_graph, None, w) == pytest.approx(
                coupling(w), abs=1e-9)

    def test_hand_values(self, three_point_graph):
        assert psi_eval(three_point_graph, None, pdp([0.5], [0.5])) == \
            pytest.approx(0.5, abs=1e-9)
        assert phi_eval(three_point_graph, None, pdp([0.0], [0.0])) == \
            pytest.approx(0.0, abs=1e-12)

    def test_phi_below_psi_for_monotone_data(self, rng):
        for _ in range(20):
            T = FiniteGraph(random_monotone_graph(rng))
            n = T.dimension
            for _ in range(10):
                z = pdp(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n))
                psi = psi_eval(T, None, z)
                if psi == INF:
                    continue
                assert phi_eval(T, None, z) <= psi + 1e-7

    def test_psi_above_coupling_for_monotone_data(self, rng):
        for _ in range(10):
            T = FiniteGraph(random_monotone_graph(rng, dimension=1))
            for z in scan_grid(interval(-2.0, 2.0), SMALL):
                psi = psi_eval(T, None, z)
                if psi < INF:
                    assert psi >= coupling(z) - 1e-9

    def test_envelope_exactness_flag(self, three_point_graph):
        env, exact = penot_envelope(three_point_graph, None)
        assert exact
        assert len(env.rows)

    def test_coupling_envelope_copies_the_graph(self):
        """Writes to the graph afterwards change no value, and the
        envelope's own arrays refuse writes."""
        graph = np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 1.0]])
        probe = np.array([[0.5, 0.5], [0.75, 1.0], [2.0, 2.0]])
        env = fitzpatrick._coupling_envelope(graph, 1)
        want = envelope([(pdp(x, s), x * s) for x, s in graph.tolist()])
        before = env.evaluate_rows(probe).tobytes()
        graph[:] = -1.0
        assert env == want
        assert env.evaluate_rows(probe).tobytes() == before
        with pytest.raises(ValueError):
            env.rows[0, 0] = 1.0
        with pytest.raises(ValueError):
            env.values[0] = 1.0

    @pytest.mark.parametrize("T, V, lattice", [
        (Linear(((1.0, 0.5), (-0.5, 1.0))), closed_box([-1.0, -1.0],
                                                       [1.0, 1.0]), None),
        (FiniteGraph((pdp([0.0], [0.0]), pdp([0.5], [1.0]),
                      pdp([1.0], [1.0]))), None, interval(-2.0, 2.0)),
    ], ids=["sampled-linear-2d", "finite-graph"])
    def test_penot_envelope_is_the_envelope_of_the_points(self, T, V,
                                                          lattice):
        """The rows built from the graph array equal the public builder's
        rows from enumerate_graph's points, with the same bits on a scan
        lattice."""
        g = GridSpec(resolution=5, dual_bound=2.0, dual_resolution=5)
        env, _ = penot_envelope(T, V, g)
        want = envelope([(w, coupling(w)) for w in T.enumerate_graph(V, g)],
                        T.dimension)
        assert env == want and len(env.rows)
        rows = scan_rows(lattice or V, g)
        assert env.evaluate_rows(rows).tobytes() == \
            want.evaluate_rows(rows).tobytes()


class TestCouplingBand:
    def test_prefilter_changes_nothing_on_monotone_data(self, rng):
        for _ in range(10):
            T = FiniteGraph(random_monotone_graph(rng, dimension=1))
            env, _ = penot_envelope(T, None)
            zs = scan_grid(interval(-2.0, 2.0), SMALL)
            assert coupling_band(env, zs, TOL) == full_band(env, zs)

    def test_monotone_coupling_data_drops_rows(self, three_point_graph):
        env, _ = penot_envelope(three_point_graph, None)
        rows = scan_rows(interval(-2.0, 2.0), SMALL)
        keep = _near_band(env, rows, TOL)
        assert 0 < keep.sum() < len(rows)
        zs = scan_grid(interval(-2.0, 2.0), SMALL)
        assert coupling_band(env, zs, TOL) == full_band(env, zs)

    def test_non_monotone_data_keeps_every_row(self):
        pts = [pdp([0.0], [1.0]), pdp([1.0], [0.0])]  # gap -1
        env = envelope([(p, coupling(p)) for p in pts])
        rows = scan_rows(interval(-2.0, 2.0), SMALL)
        assert _near_band(env, rows, TOL).all()
        assert _coupling_data(env, TOL) is None

    def test_values_off_the_coupling_keep_every_row(self, three_point_graph):
        env = envelope([(p, coupling(p) + 0.5)
                        for p in three_point_graph.points])
        rows = scan_rows(interval(-2.0, 2.0), SMALL)
        assert _near_band(env, rows, TOL).all()
        assert _coupling_data(env, TOL) is None

    def test_empty_data_gives_an_empty_band(self):
        env = Envelope(np.empty((0, 2)), (), 1)
        rows = scan_rows(interval(-2.0, 2.0), SMALL)
        assert _near_band(env, rows, TOL).all()
        assert _coupling_data(env, TOL) is None
        assert coupling_band(env, scan_grid(interval(-2.0, 2.0), SMALL),
                             TOL) == []

    def test_band_contains_data_points(self):
        pts = [pdp([0.0], [0.0]), pdp([1.0], [1.0])]
        env = envelope([(p, coupling(p)) for p in pts])
        band = coupling_band(env, pts, TOL)
        assert band == pts

    def test_empty_inputs(self):
        env = envelope([(pdp([0.0], [0.0]), 0.0)])
        assert coupling_band(env, [], TOL) == []


class TestIsRepresentative:
    def test_two_point_diagonal_graph_passes(self):
        T = FiniteGraph([pdp([0.0], [0.0]), pdp([1.0], [1.0])])
        env, _ = penot_envelope(T, interval(0.0, 1.0), SMALL)
        report = is_representative(env, T, interval(0.0, 1.0), SMALL, TOL)
        assert report.value
        assert report.witnesses == ()
        assert not report.approximate

    def test_flat_segment_breaks_the_staircase(self, three_point_graph):
        # psi equals the coupling along the constant-dual segment, which
        # holds lattice points that are not graph members
        g = GridSpec(resolution=5, dual_bound=1.0, dual_resolution=5)
        env, _ = penot_envelope(three_point_graph, interval(0.0, 1.0), g)
        report = is_representative(env, three_point_graph,
                                   interval(0.0, 1.0), g, TOL)
        assert not report.value
        w = report.witnesses[0]
        assert w.xstar == (1.0,)
        assert 0.5 < w.x[0] < 1.0

    def test_witnesses_are_capped_and_fully_counted(self, three_point_graph):
        # the constant-dual segment holds 39 lattice points off the graph
        g = GridSpec(resolution=81, dual_bound=1.0, dual_resolution=5)
        V = interval(0.0, 1.0)
        env, _ = penot_envelope(three_point_graph, V, g)
        report = is_representative(env, three_point_graph, V, g, TOL)
        full = is_representative(Unfiltered(env), three_point_graph, V, g,
                                 TOL)
        assert len(report.witnesses) == 12
        assert report.witness_count == full.witness_count > 12
        assert report.witnesses == full.witnesses

    def test_punctured_vertical_line_fails_at_the_puncture(self):
        T = PointComplement((0.0,))
        g = GridSpec(resolution=9, dual_bound=2.0, dual_resolution=9)
        env, _ = penot_envelope(T, interval(-1.0, 1.0), g)
        report = is_representative(env, T, interval(-1.0, 1.0), g, TOL)
        assert not report.value
        assert pdp([0.0], [0.0]) in report.witnesses
        assert report.approximate  # the dual line was sampled

    def test_below_coupling_raises(self):
        T = FiniteGraph([pdp([1.0], [1.0])])
        low = envelope([(pdp([1.0], [1.0]), 0.5)])  # value under c = 1
        g = GridSpec(resolution=5, dual_bound=1.0, dual_resolution=5)
        with pytest.raises(BelowCoupling) as err:
            is_representative(low, T, interval(0.0, 2.0), g, TOL)
        assert err.value.witness is not None

    def test_prefilter_agrees_with_full_scan(self, rng):
        for _ in range(6):
            T = FiniteGraph(random_monotone_graph(rng, dimension=1))
            env, _ = penot_envelope(T, None)
            V = interval(-2.0, 2.0)
            full = is_representative(Unfiltered(env), T, V, SMALL, TOL)
            fast = is_representative(env, T, V, SMALL, TOL)
            assert fast == full

    def test_each_distinct_point_is_evaluated_once(self, three_point_graph):
        """Graph points that are also scan points are not solved twice: one
        row call gets the distinct union, and the report is unchanged."""
        g = GridSpec(resolution=5, dual_bound=1.0, dual_resolution=5)
        V = interval(0.0, 1.0)
        env, _ = penot_envelope(three_point_graph, V, g)
        calls = []

        class Counted(ConvexFn):
            dimension = 1

            def evaluate_rows(self, rows):
                calls.append(rows.copy())
                return env.evaluate_rows(rows)

        counted = is_representative(Counted(), three_point_graph, V, g, TOL)
        (rows,) = calls
        assert len(rows) == 25  # the graph lies on the 5 x 5 scan lattice
        assert len(np.unique(rows, axis=0)) == 25
        plain = is_representative(env, three_point_graph, V, g, TOL)
        assert counted == plain

    def test_graph_point_outside_band_is_reported(self):
        # an envelope that is correct on the band but too high at a graph
        # point fails the second inclusion
        T = FiniteGraph([pdp([0.0], [0.0]), pdp([1.0], [1.0])])
        high = envelope([(pdp([0.0], [0.0]), 2.0), (pdp([1.0], [1.0]), 3.0)])
        g = GridSpec(resolution=3, dual_bound=1.0, dual_resolution=3)
        report = is_representative(high, T, interval(0.0, 1.0), g, TOL)
        assert not report.value
        assert pdp([0.0], [0.0]) in report.witnesses


def settled_cases():
    """(T, V, g) with coupling data: random monotone graphs in the plane,
    and kinds whose sampled graph lies on the scan lattice."""
    rng = np.random.default_rng(11)
    g1 = GridSpec(resolution=17, dual_bound=2.0, dual_resolution=17)
    V1 = interval(-2.0, 2.0)
    g2 = GridSpec(resolution=5, dual_bound=2.0, dual_resolution=5)
    box2 = closed_box([-2.0, -2.0], [2.0, 2.0])
    graphs = [(f"graph-n2-{i}",
               (FiniteGraph(random_monotone_graph(rng, dimension=2)), box2,
                g2)) for i in range(4)]
    # sorted quarter steps: monotone, and on the 17-point lattice
    for i in range(2):
        xs = np.sort(rng.choice(np.arange(-8, 9), 6, replace=False)) / 4.0
        ss = np.sort(rng.integers(-8, 9, 6)) / 4.0
        T = FiniteGraph([pdp([x], [s]) for x, s in zip(xs, ss)])
        graphs.append((f"graph-n1-{i}", (T, V1, g1)))
    kinds = [("abs", (AbsSubdiff(1.0), V1, g1)),
             ("cone", (NormalConeBox(closed_box([-1.0], [0.5])), V1, g1)),
             ("complement", (PointComplement((0.0,)), V1, g1))]
    return graphs + kinds


@pytest.mark.parametrize("T, V, g", [pytest.param(*case, id=name)
                                     for name, case in settled_cases()])
def test_settled_route_agrees_with_full_scan(T, V, g):
    """Rows on the data take the coupling without a solve: the verdict and
    the band equal the ones from an exact evaluation at every row."""
    env, _ = penot_envelope(T, V, g)
    full = is_representative(Unfiltered(env), T, V, g, TOL)
    assert is_representative(env, T, V, g, TOL) == full
    assert check_v_representable(T, V, g, TOL) == full
    zs = scan_grid(V, g)
    assert coupling_band(env, zs, TOL) == full_band(env, zs)


def test_prefilter_sees_only_scan_rows(three_point_graph, monkeypatch):
    """Graph rows are checked against the band whatever phi says, so the
    off-band kernel runs over the scan rows alone."""
    seen = []
    real = fitzpatrick.pairing_below_rows

    def counted(ws, b, zs, thr):
        seen.append(zs.copy())
        return real(ws, b, zs, thr)

    monkeypatch.setattr(fitzpatrick, "pairing_below_rows", counted)
    V = interval(0.0, 1.0)
    g = GridSpec(resolution=5, dual_bound=1.0, dual_resolution=5)
    env, _ = penot_envelope(three_point_graph, V, g)
    is_representative(env, three_point_graph, V, g, TOL)
    check_v_representable(three_point_graph, V, g, TOL)
    assert len(seen) == 2
    for zs in seen:
        assert np.array_equal(zs, scan_rows(V, g))


def _lp_rows(env, rows):
    """The rows that reach the simplex: inside the bounding box, beyond no
    hull cut, and left by the facet table."""
    lower, upper = env._lp[:2]
    inside = rows[~((rows < lower) | (rows > upper)).any(axis=1)]
    inside = inside[~_beyond_hull(env, inside)]
    answered, _ = _facet_rows(env, _lp_rhs(inside))
    return inside[~answered]


class TestLPRows:
    """Which rows reach the simplex, seen through a counting solve_rows."""

    @pytest.fixture
    def solved(self, monkeypatch):
        rows = []
        real = lp.solve_rows

        def solve_rows(objective, matrix, rhs_rows):
            rows.extend(map(tuple, rhs_rows[:, :-1].tolist()))
            return real(objective, matrix, rhs_rows)

        monkeypatch.setattr(lp, "solve_rows", solve_rows)
        return rows

    G = GridSpec(resolution=5, dual_bound=1.0, dual_resolution=5)
    V = interval(0.0, 1.0)

    def _no_data_row(self, solved, graph):
        """Scan and data rows through is_representative and coupling_band:
        the graph lies on the lattice, so scan rows hit the data too, and
        no data row reaches the LP. Returns the scan rows."""
        env, _ = penot_envelope(graph, self.V, self.G)
        rows = scan_rows(self.V, self.G)
        is_representative(env, graph, self.V, self.G, TOL)
        coupling_band(env, scan_grid(self.V, self.G), TOL)
        data = set(map(tuple, env.rows.tolist()))
        assert not data & set(solved)
        return env, rows

    def test_no_data_row_on_monotone_coupling_data(self, solved,
                                                   three_point_graph):
        env, rows = self._no_data_row(solved, three_point_graph)
        assert set(solved) <= set(map(tuple, _lp_rows(env, rows).tolist()))

    def test_no_data_row_without_the_facet_table(self, solved, monkeypatch,
                                                  three_point_graph):
        """Rows inside the hull reach the LP then, data rows still not."""
        monkeypatch.setattr(convex, "_facet_rows", lambda f, rhs: (
            np.zeros(len(rhs), dtype=bool), np.empty(0)))
        self._no_data_row(solved, three_point_graph)
        assert solved

    @pytest.mark.parametrize("points, lift", [
        ([pdp([0.0], [0.0]), pdp([0.5], [1.0]), pdp([1.0], [1.0])], 0.5),
        ([pdp([0.0], [1.0]), pdp([1.0], [0.0])], 0.0),  # gap -1
    ], ids=["off-the-coupling", "non-monotone"])
    def test_every_row_without_the_precondition(self, solved, points, lift):
        env = envelope([(p, coupling(p) + lift) for p in points])
        T = FiniteGraph(points)
        rows = scan_rows(self.V, self.G)
        lower, upper = env._lp[:2]
        inside = rows[~((rows < lower) | (rows > upper)).any(axis=1)]
        inside = inside[~_beyond_hull(env, inside)]
        left = _lp_rows(env, rows)
        assert len(left) < len(inside)  # the table answers some rows
        coupling_band(env, scan_grid(self.V, self.G), TOL)
        assert sorted(solved) == sorted(map(tuple, left.tolist()))
        solved.clear()
        try:
            is_representative(env, T, self.V, self.G, TOL)
        except BelowCoupling:
            pass
        both = np.vstack([inside, point_rows(points, 1)])
        first, _ = distinct_rows(both)
        assert sorted(solved) == sorted(
            map(tuple, _lp_rows(env, both[first]).tolist()))


def test_two_dim_sum_pinned_against_the_full_scan():
    T = add_normal_cone(Linear(((1.0, 0.5), (-0.5, 1.0))),
                        closed_box([-1.0, -1.0], [1.0, 1.0]))
    V = open_box([-2.0, -2.0], [2.0, 2.0])
    g = GridSpec(resolution=7, dual_bound=4.0, dual_resolution=7)
    env, _ = penot_envelope(T, V, g)
    full = is_representative(Unfiltered(env), T, V, g, TOL)
    verdict = check_v_representable(T, V, g, TOL)
    assert verdict == full
    assert verdict.value and verdict.witness_count == 0
    assert verdict.approximate
