"""Affine sup, coupling envelope, and band-vs-graph matching."""

import pytest

from monokit import (
    DEFAULT_TOL,
    INF,
    BelowCoupling,
    FiniteGraph,
    GridSpec,
    PointComplement,
    coupling,
    coupling_band,
    envelope,
    interval,
    is_representative,
    pdp,
    penot_envelope,
    phi_eval,
    psi_eval,
    scan_grid,
)

from conftest import random_monotone_graph

TOL = DEFAULT_TOL
SMALL = GridSpec(resolution=21, dual_bound=4.0, dual_resolution=21)


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
        assert env.points


class TestCouplingBand:
    def test_prefilter_changes_nothing_on_monotone_data(self, rng):
        for _ in range(10):
            T = FiniteGraph(random_monotone_graph(rng, dimension=1))
            env, _ = penot_envelope(T, None)
            zs = scan_grid(interval(-2.0, 2.0), SMALL)
            plain = coupling_band(env, zs, TOL)
            fast = coupling_band(env, zs, TOL, monotone_data=True)
            assert plain == fast

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
        assert report.is_representative
        assert report.mismatch_witnesses == ()
        assert not report.approximate

    def test_flat_segment_breaks_the_staircase(self, three_point_graph):
        # psi equals the coupling along the constant-dual segment, which
        # holds lattice points that are not graph members
        g = GridSpec(resolution=5, dual_bound=1.0, dual_resolution=5)
        env, _ = penot_envelope(three_point_graph, interval(0.0, 1.0), g)
        report = is_representative(env, three_point_graph,
                                   interval(0.0, 1.0), g, TOL)
        assert not report.is_representative
        w = report.mismatch_witnesses[0]
        assert w.xstar == (1.0,)
        assert 0.5 < w.x[0] < 1.0

    def test_punctured_vertical_line_fails_at_the_puncture(self):
        T = PointComplement((0.0,))
        g = GridSpec(resolution=9, dual_bound=2.0, dual_resolution=9)
        env, _ = penot_envelope(T, interval(-1.0, 1.0), g)
        report = is_representative(env, T, interval(-1.0, 1.0), g, TOL)
        assert not report.is_representative
        assert pdp([0.0], [0.0]) in report.mismatch_witnesses
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
            full = is_representative(env, T, V, SMALL, TOL)
            fast = is_representative(env, T, V, SMALL, TOL,
                                     assume_above_coupling=True)
            assert full.is_representative == fast.is_representative
            assert full.mismatch_witnesses == fast.mismatch_witnesses

    def test_graph_point_outside_band_is_reported(self):
        # an envelope that is correct on the band but too high at a graph
        # point fails the second inclusion
        T = FiniteGraph([pdp([0.0], [0.0]), pdp([1.0], [1.0])])
        high = envelope([(pdp([0.0], [0.0]), 2.0), (pdp([1.0], [1.0]), 3.0)])
        g = GridSpec(resolution=3, dual_bound=1.0, dual_resolution=3)
        report = is_representative(high, T, interval(0.0, 1.0), g, TOL)
        assert not report.is_representative
        assert pdp([0.0], [0.0]) in report.mismatch_witnesses
