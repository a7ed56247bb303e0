"""Operator handles: closed-form phi values vs sampling oracles.

Each closed form is checked two ways: frozen hand values, and a dense
brute-force supremum over the actual graph. The brute force enumerates
(vertex, cone generator) pairs for normal cones, which is exact because
the inner objective is affine along every face and every ray.
"""

import itertools

import numpy as np
import pytest

from monokit import (
    DEFAULT_TOL,
    INF,
    AbsSubdiff,
    Box,
    FiniteGraph,
    Flat,
    GridSpec,
    HalfSpace,
    Linear,
    NormalConeBox,
    PointComplement,
    Restriction,
    SumNormalCone,
    ValidationError,
    build_operator,
    closed_box,
    coupling,
    interval,
    is_monotone,
    monotone_gap,
    mr_test,
    natural_pairing,
    pdp,
    penot_envelope,
    restrict,
    whole_space,
)

from monokit.core import point_rows

from conftest import random_monotone_graph, shuffle_until_non_monotone

TOL = DEFAULT_TOL


def sup_over_points(points, z):
    best = -INF
    for w in points:
        best = max(best, natural_pairing(z, w) - coupling(w))
    return best


class TestFiniteGraph:
    def test_duplicate_points_rejected(self):
        p = pdp([0.0], [0.0])
        with pytest.raises(ValidationError):
            FiniteGraph([p, p])

    def test_phi_matches_direct_sup(self, three_point_graph, rng):
        for _ in range(25):
            z = pdp(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
            want = sup_over_points(three_point_graph.points, z)
            assert three_point_graph.phi(None, z) == pytest.approx(want, abs=1e-12)

    def test_phi_respects_window(self, three_point_graph):
        z = pdp([0.0], [5.0])
        # window keeps only the two points with primal >= 0.5
        narrowed = three_point_graph.phi(interval(0.4, 2.0), z)
        kept = [w for w in three_point_graph.points if w.x[0] >= 0.4]
        assert narrowed == pytest.approx(sup_over_points(kept, z), abs=1e-12)

    def test_phi_of_empty_window_is_minus_inf(self, three_point_graph):
        assert three_point_graph.phi(interval(5.0, 6.0), pdp([0.0], [0.0])) == -INF

    def test_graph_membership_tolerance(self, three_point_graph):
        assert three_point_graph.graph_contains(pdp([0.5], [1.0]), TOL)
        near = pdp([0.5 + 1e-8], [1.0])
        assert three_point_graph.graph_contains(near, TOL)
        assert not three_point_graph.graph_contains(pdp([0.5], [0.9]), TOL)

    def test_mr_routes_agree(self, rng):
        # the blocked gap kernel vs scalar pairwise gaps, many random probes
        for _ in range(40):
            T = FiniteGraph(random_monotone_graph(rng))
            n = T.dimension
            z = pdp(rng.uniform(-3, 3, n), rng.uniform(-3, 3, n))
            by_phi = mr_test(T, None, z, TOL)
            by_gaps = all(monotone_gap(z, w) >= -TOL.eps_eq for w in T.points)
            assert by_phi == by_gaps

    def test_graph_points_are_monotonically_related(self, rng):
        for _ in range(20):
            T = FiniteGraph(random_monotone_graph(rng))
            for w in T.points:
                assert mr_test(T, None, w, TOL)

    def test_related_at_large_coordinates(self):
        # phi <= coupling + eps_eq cancels at coordinates near 1e3 and
        # rejects this point; the gap kernel is_monotone runs does not
        G = FiniteGraph((pdp([744.39093604867], [-997.6006328263427]),
                         pdp([-962.9655646595785], [-997.600632826343]),
                         pdp([414.99113467435467], [-997.6006328263437])))
        assert is_monotone(G, TOL).value
        assert mr_test(G, None, G.points[2], TOL)

    def test_monotone_graphs_relate_their_own_points(self):
        # seeded 3-point graphs at coordinates near 1e3 with dual noise
        # near 1e-12, so pairwise gaps sit near eps_eq
        rng = np.random.default_rng(5)
        failures = 0
        for _ in range(3000):
            xs = rng.uniform(-1e3, 1e3, 3)
            duals = rng.uniform(-1e3, 1e3) + rng.uniform(-1e-12, 1e-12, 3)
            G = FiniteGraph(tuple(pdp([x], [s]) for x, s in zip(xs, duals)))
            if is_monotone(G, TOL).value:
                rows = point_rows(G.points, 1)
                failures += not G.mr_batch(None, rows, TOL, None).all()
        assert failures == 0


class TestFlat:
    def test_phi_closed_form(self):
        T = Flat(interval(0.0, 1.0, lo_open=True, hi_open=True), (0.0,))
        # phi(x, s) = x*0 + sup_{u in (0,1)} u*s = s+ for s >= 0
        assert T.phi(None, pdp([0.5], [2.0])) == pytest.approx(2.0)
        assert T.phi(None, pdp([0.5], [-2.0])) == pytest.approx(0.0)

    def test_phi_vs_dense_sample(self, rng):
        T = Flat(interval(-1.0, 2.0), (0.5,))
        us = np.linspace(-1.0, 2.0, 20001)
        for _ in range(25):
            z = pdp(rng.uniform(-3, 3, 1), rng.uniform(-3, 3, 1))
            dense = max(z.x[0] * 0.5 + u * z.xstar[0] - u * 0.5 for u in us)
            assert T.phi(None, z) == pytest.approx(dense, abs=1e-9)

    def test_window_shrinks_the_sup(self):
        T = Flat(interval(-1.0, 2.0), (0.0,))
        wide = T.phi(None, pdp([0.0], [1.0]))
        narrow = T.phi(interval(-1.0, 0.5), pdp([0.0], [1.0]))
        assert wide == pytest.approx(2.0)
        assert narrow == pytest.approx(0.5)

    def test_graph_and_domain(self):
        T = Flat(interval(0.0, 1.0, lo_open=True), (3.0,))
        assert T.graph_contains(pdp([0.5], [3.0]), TOL)
        assert not T.graph_contains(pdp([0.5], [2.9]), TOL)
        assert not T.graph_contains(pdp([0.0], [3.0]), TOL)
        assert T.domain_contains([0.5], TOL)
        assert not T.domain_contains([1.5], TOL)


def vertex_ray_oracle(box, z):
    """Exact phi of a box normal cone by vertex and generator enumeration."""
    n = len(box.lower)
    axes = []
    for lo, hi in zip(box.lower, box.upper):
        axes.append([lo] if lo == hi else [lo, hi])
    best = -INF
    for u in itertools.product(*axes):
        best = max(best, sum(a * b for a, b in zip(u, z.xstar)))
        for ax in range(n):
            gens = []
            if u[ax] == box.upper[ax]:
                gens.append(1.0)
            if u[ax] == box.lower[ax]:
                gens.append(-1.0)
            for sgn in gens:
                if sgn * (z.x[ax] - u[ax]) > 1e-12:
                    return INF
    return best


def face_scan_phi(box, win, z):
    """phi of N_box over win as the sup over the 3^n faces of the box: the
    cone is constant on each face's relative interior, so a face meeting
    win adds the support of its cut at x*, or +inf when x lies past a
    bound the face pins (by more than the 1e-12 dust band)."""
    win = whole_space(box.dimension) if win is None else win
    best = -INF
    for tags in itertools.product(("inside", "lower", "upper"),
                                  repeat=box.dimension):
        axes = []  # (lower, upper, lower_open, upper_open) per axis
        blow = False
        for i, tag in enumerate(tags):
            a, b, xi = box.lower[i], box.upper[i], z.x[i]
            if a == b:
                if tag != "lower":
                    break
                blow = blow or abs(xi - a) > 1e-12
                axes.append((a, a, False, False))
            elif tag == "inside":
                axes.append((a, b, True, True))
            elif tag == "lower":
                blow = blow or xi < a - 1e-12
                axes.append((a, a, False, False))
            else:
                blow = blow or xi > b + 1e-12
                axes.append((b, b, False, False))
        else:
            cut = Box(*zip(*axes)).intersect(win)
            if cut.is_empty():
                continue
            if blow:
                return INF
            best = max(best, cut.support(z.xstar))
    return best


class TestNormalConeBox:
    def test_validation(self):
        with pytest.raises(ValidationError):
            NormalConeBox(interval(0.0, 1.0, lo_open=True))
        # an open pinch is empty, and emptiness is rejected
        with pytest.raises(ValidationError):
            NormalConeBox(interval(1.0, 1.0, hi_open=True))
        with pytest.raises(ValidationError):
            NormalConeBox(whole_space(1))

    def test_hand_values(self):
        T = NormalConeBox(closed_box([-1.0], [1.0]))
        assert T.phi(None, pdp([2.0], [3.0])) == INF
        assert T.phi(None, pdp([0.5], [3.0])) == pytest.approx(3.0)
        assert T.phi(None, pdp([0.5], [-3.0])) == pytest.approx(3.0)
        assert T.phi(None, pdp([1.0], [0.0])) == pytest.approx(0.0)

    def test_phi_matches_vertex_ray_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 3))
            lo = rng.uniform(-2, 0, n)
            hi = lo + rng.uniform(0.0, 2.0, n)
            if rng.random() < 0.3:
                hi[rng.integers(0, n)] = lo[rng.integers(0, n)] = 0.0
            box = closed_box(lo, np.maximum(lo, hi))
            T = NormalConeBox(box)
            z = pdp(rng.uniform(-3, 3, n), rng.uniform(-3, 3, n))
            want = vertex_ray_oracle(box, z)
            got = T.phi(None, z)
            if want == INF:
                assert got == INF
            else:
                assert got == pytest.approx(want, abs=1e-6)

    def test_phi_matches_a_face_scan(self):
        """The support-function rule against the sup over all 3^n faces,
        with ==: degenerate axes, open, closed and half-infinite windows
        whose bounds sit exactly on faces, and x on, just inside and past
        the dust band around each bound."""
        rng = np.random.default_rng(17)
        marks = (-1.0, -0.5, 0.0, 0.5, 1.0)
        offsets = (-1e-11, -1e-13, 0.0, 1e-13, 1e-11, 0.3, -0.3)
        for _ in range(4000):
            n = int(rng.integers(1, 4))
            lo, hi = [], []
            for _ in range(n):
                a, b = sorted(rng.choice(marks, 2))
                lo.append(float(a))
                hi.append(float(b))
            box = closed_box(lo, hi)
            win = None
            if rng.random() < 0.9:
                wl, wh = [], []
                for i in range(n):
                    a, b = sorted(rng.choice(marks + (-INF, INF), 2))
                    wl.append(float(a))
                    wh.append(float(b))
                win = Box(tuple(wl), tuple(wh),
                          tuple(bool(o) for o in rng.random(n) < 0.5),
                          tuple(bool(o) for o in rng.random(n) < 0.5))
            x = [float(rng.choice((lo[i], hi[i], rng.uniform(-1.5, 1.5))))
                 + float(rng.choice(offsets)) for i in range(n)]
            s = [float(rng.choice((0.0, rng.uniform(-3, 3))))
                 for _ in range(n)]
            z = pdp(x, s)
            assert NormalConeBox(box).phi(win, z) == face_scan_phi(box, win, z)

    def test_windowed_phi_vs_dense_sample(self):
        T = NormalConeBox(closed_box([-1.0], [1.0]))
        V = interval(-1.0, 1.0, lo_open=True, hi_open=True)
        us = np.linspace(-1.0 + 1e-7, 1.0 - 1e-7, 40001)
        for z in [pdp([2.0], [3.0]), pdp([0.5], [-4.0]), pdp([-2.0], [1.0])]:
            # inside the open window the cone is {0}, so the graph is flat
            dense = max(u * z.xstar[0] for u in us)
            assert T.phi(V, z) == pytest.approx(dense, abs=2e-3)

    def test_graph_membership(self):
        T = NormalConeBox(closed_box([0.0, 0.0], [1.0, 1.0]))
        assert T.graph_contains(pdp([1.0, 0.5], [2.0, 0.0]), TOL)
        assert not T.graph_contains(pdp([1.0, 0.5], [2.0, 0.2]), TOL)
        assert not T.graph_contains(pdp([1.5, 0.5], [1.0, 0.0]), TOL)

    def test_enumerated_graph_is_monotone(self):
        T = NormalConeBox(closed_box([-1.0, 0.0], [1.0, 2.0]))
        g = GridSpec(resolution=7, dual_resolution=5)
        verdict = is_monotone(T, TOL, g=g)
        assert bool(verdict.value)
        assert verdict.approximate  # sampled cone magnitudes only


class TestAbsSubdiff:
    def test_slope_must_be_positive(self):
        with pytest.raises(ValidationError):
            AbsSubdiff(0.0)
        with pytest.raises(ValidationError):
            AbsSubdiff(-1.0)

    def test_hand_values(self):
        T = AbsSubdiff(1.0)
        assert T.phi(None, pdp([0.5], [2.0])) == INF
        V = interval(-1.0, 3.0)
        # positive branch: 0.5 + sup_{u in (0,3]} u*(2-1) = 3.5
        assert T.phi(V, pdp([0.5], [2.0])) == pytest.approx(3.5)
        # inside the dual interval the sup sits at the kink
        assert T.phi(V, pdp([0.5], [0.5])) == pytest.approx(0.5)

    def test_phi_vs_dense_graph_sample(self, rng):
        T = AbsSubdiff(1.5)
        V = interval(-2.0, 2.0)
        xs = np.linspace(-2.0, 2.0, 30001)
        duals = np.linspace(-1.5, 1.5, 3001)
        for _ in range(20):
            z = pdp(rng.uniform(-2, 2, 1), rng.uniform(-4, 4, 1))
            branch = np.where(xs > 0, 1.5, np.where(xs < 0, -1.5, 0.0))
            vals = z.x[0] * branch + xs * (z.xstar[0] - branch)
            kink = z.x[0] * duals
            dense = max(vals.max(), kink.max())
            assert T.phi(V, z) == pytest.approx(dense, abs=1e-3)

    def test_graph_membership(self):
        T = AbsSubdiff(2.0)
        assert T.graph_contains(pdp([1.0], [2.0]), TOL)
        assert not T.graph_contains(pdp([1.0], [1.0]), TOL)
        assert T.graph_contains(pdp([0.0], [1.3]), TOL)
        assert not T.graph_contains(pdp([0.0], [2.5]), TOL)

    def test_dimension_must_be_one(self):
        assert AbsSubdiff(1.0).dimension == 1


class TestPointComplement:
    def test_phi_three_cases(self):
        T = PointComplement((0.0,))
        z = pdp([0.0], [7.0])
        assert T.phi(None, z) == pytest.approx(coupling(z))
        assert T.phi(None, pdp([0.5], [1.0])) == INF
        # window missing the anchor leaves an empty graph
        assert T.phi(interval(1.0, 2.0), z) == -INF

    def test_graph_excludes_zero_dual(self):
        T = PointComplement((0.0,))
        assert T.graph_contains(pdp([0.0], [0.5]), TOL)
        assert not T.graph_contains(pdp([0.0], [0.0]), TOL)
        assert not T.graph_contains(pdp([0.5], [0.5]), TOL)


class TestLinear:
    def test_monotonicity_gate(self):
        with pytest.raises(ValidationError):
            Linear(((-1.0,),))
        with pytest.raises(ValidationError):
            Linear(((0.0, 5.0), (0.0, 0.0)))
        Linear(((0.0, 1.0), (-1.0, 0.0)))  # rotation passes

    def test_skew_phi_is_coupling_on_graph_else_inf(self):
        T = Linear(((0.0, 1.0), (-1.0, 0.0)))
        x = (1.0, 2.0)
        z = pdp(x, (2.0, -1.0))  # exactly M x
        assert T.phi(None, z) == pytest.approx(0.0, abs=1e-12)
        assert coupling(z) == pytest.approx(0.0)
        assert T.phi(None, pdp(x, (2.0, -0.9))) == INF

    def test_diagonal_phi_vs_dense_quadratic_sample(self, rng):
        T = Linear(((1.0, 0.0), (0.0, 2.0)))
        lattice = np.linspace(-8.0, 8.0, 161)
        for _ in range(10):
            z = pdp(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
            best = -INF
            for u1 in lattice:
                for u2 in lattice:
                    w = pdp([u1, u2], [u1, 2.0 * u2])
                    best = max(best, natural_pairing(z, w) - coupling(w))
            assert T.phi(None, z) >= best - 1e-9
            assert T.phi(None, z) == pytest.approx(best, abs=1e-2)

    def test_windowed_phi_falls_back_to_sampling(self):
        T = Linear(((1.0,),))
        V = interval(-1.0, 1.0)
        assert not T.phi_is_exact(V)
        got = T.phi(V, pdp([0.0], [2.0]), GridSpec(resolution=401))
        # sup over [-1,1] of 2u - u^2 is at u=1
        assert got == pytest.approx(1.0, abs=1e-2)

    def test_inconsistency_is_judged_at_each_rows_scale(self):
        # M + M^T = diag(2, 0): a second dual coordinate makes the system
        # inconsistent, by 1e-6. Against the first row's own scale (1) that
        # runs off to +inf; against the second row's (1e4) it is rounding.
        T = Linear(((1.0, 0.0), (0.0, 0.0)))
        zs = [pdp([0.0, 0.0], [0.0, 1e-6]), pdp([0.0, 0.0], [1e4, 1e-6])]
        got = T.phi_batch(None, point_rows(zs, 2), None)
        assert got[0] == INF
        assert np.isfinite(got[1])
        assert got.tolist() == [T.phi(None, z) for z in zs]

    def test_batch_matches_a_least_squares_solve_per_row(self, rng):
        for n in (1, 2, 3):
            for _ in range(20):
                root = rng.integers(-4, 5, (n, n)) / 4.0
                skew = rng.integers(-4, 5, (n, n)) / 4.0
                m = root @ root.T + (skew - skew.T)
                T = Linear(tuple(tuple(float(c) for c in r) for r in m))
                rows = rng.normal(0.0, 2.0, (30, 2 * n))
                rows[::3, n:] = rows[::3, :n] @ m.T  # graph points
                s = m + m.T
                want = []
                for row in rows:
                    b = m.T @ row[:n] + row[n:]
                    u = np.linalg.lstsq(s, b, rcond=None)[0]
                    bad = np.abs(s @ u - b).max() > 1e-9 * max(
                        1.0, np.abs(b).max())
                    want.append(INF if bad else 0.5 * b @ u)
                got = T.phi_batch(None, rows, None)
                assert np.isinf(got).tolist() == np.isinf(want).tolist()
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_cached_matrix_keeps_value_equality(self):
        a = Linear(((1.0, 0.5), (-0.5, 1.0)))
        b = Linear(((1.0, 0.5), (-0.5, 1.0)))
        _, low, up = a.fiber_rows(np.array([[1.0, 2.0]]), TOL)
        assert low.tolist() == up.tolist() == [[2.0, 1.5]]
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestExplicitGrids:
    def test_sampled_routes_need_a_grid(self):
        T = Flat(closed_box([0.0], [1.0]), (1.0,))
        V = HalfSpace((1.0,), 0.5)
        z = pdp([0.0], [2.0])
        assert not T.phi_is_exact(V)
        with pytest.raises(ValidationError):
            T.phi(V, z)
        with pytest.raises(ValidationError):
            mr_test(T, V, z, TOL)
        g = GridSpec(resolution=5)
        assert T.phi(V, z, g) == 0.5
        assert mr_test(T, V, z, TOL, g) is False

    def test_exact_routes_need_none(self):
        T = Flat(closed_box([0.0], [1.0]), (1.0,))
        z = pdp([0.0], [2.0])
        assert T.phi(None, z) == 1.0
        assert mr_test(T, None, z, TOL) is False

    def test_sampled_enumerations_need_a_grid(self):
        T = Flat(closed_box([0.0], [1.0]), (1.0,))
        with pytest.raises(ValidationError):
            penot_envelope(T, None)
        with pytest.raises(ValidationError):
            is_monotone(T, TOL)
        g = GridSpec(resolution=5)
        env, exact = penot_envelope(T, None, g)
        assert len(env.rows) == 5 and not exact
        verdict = is_monotone(T, TOL, g)
        assert verdict.value and verdict.grid == g

    def test_finite_graphs_need_none(self):
        T = FiniteGraph((pdp([0.0], [0.0]), pdp([1.0], [1.0])))
        env, exact = penot_envelope(T, None)
        assert np.array_equal(env.rows, point_rows(T.points, 1)) and exact
        verdict = is_monotone(T, TOL)
        assert verdict.value and verdict.grid is None


class TestRestriction:
    def test_restrict_finite_graph_filters_eagerly(self, three_point_graph):
        R = restrict(three_point_graph, interval(0.4, 2.0))
        assert isinstance(R, FiniteGraph)
        assert len(R.points) == 2

    def test_restrict_flat_shrinks_region(self):
        T = Flat(interval(0.0, 2.0), (1.0,))
        R = restrict(T, interval(1.0, 3.0))
        assert isinstance(R, Flat)
        assert R.region.lower == (1.0,) and R.region.upper == (2.0,)

    def test_restrict_composes_like_intersection(self, rng):
        for _ in range(15):
            T = FiniteGraph(random_monotone_graph(rng, dimension=1))
            a = interval(-1.0, 0.8)
            b = interval(-0.3, 2.0)
            twice = restrict(restrict(T, a), b)
            once = restrict(T, a.intersect(b))
            assert set(twice.points) == set(once.points)

    def test_wrapped_operator_delegates(self):
        base = NormalConeBox(closed_box([-1.0], [1.0]))
        R = restrict(base, interval(-1.0, 1.0, lo_open=True, hi_open=True))
        assert isinstance(R, Restriction)
        assert R.phi(None, pdp([2.0], [3.0])) == pytest.approx(3.0)
        assert not R.domain_contains([1.0], TOL)
        assert base.domain_contains([1.0], TOL)


class TestSumShapes:
    def test_sum_normal_cone_membership(self):
        S = SumNormalCone(AbsSubdiff(1.0), closed_box([0.0], [2.0]))
        assert S.graph_contains(pdp([0.0], [-3.0]), TOL)
        assert S.graph_contains(pdp([1.0], [1.0]), TOL)
        assert not S.graph_contains(pdp([0.0], [3.0]), TOL)
        assert S.graph_contains(pdp([2.0], [5.0]), TOL)
        assert not S.graph_contains(pdp([2.5], [1.0]), TOL)

    def test_sum_graph_is_monotone(self):
        S = SumNormalCone(AbsSubdiff(1.0), closed_box([0.0], [2.0]))
        verdict = is_monotone(S, TOL, g=GridSpec(resolution=11, dual_resolution=11))
        assert bool(verdict.value)


class TestBuildOperator:
    def test_every_kind_builds(self):
        specs = [
            {"kind": "finite_graph", "points": [[0.0, 0.0], [1.0, 1.0]]},
            {"kind": "flat", "region": "(0, 1)", "wstar": [0.0]},
            {"kind": "normal_cone_box", "box": "[-1, 1]"},
            {"kind": "abs_subdiff", "slope": 2.0},
            {"kind": "point_complement", "anchor": [0.0]},
            {"kind": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
            {"kind": "restriction",
             "operator": {"kind": "abs_subdiff", "slope": 1.0},
             "region": "[-1, 1]"},
            {"kind": "sum_normal_cone",
             "operator": {"kind": "abs_subdiff", "slope": 1.0},
             "box": "[0, 2]"},
            {"kind": "pair_sum",
             "first": {"kind": "abs_subdiff", "slope": 1.0},
             "second": {"kind": "normal_cone_box", "box": "[0, 2]"}},
        ]
        for spec in specs:
            T = build_operator(spec)
            assert T.dimension >= 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            build_operator({"kind": "mystery"})

    def test_missing_and_extra_fields_rejected(self):
        with pytest.raises(ValidationError):
            build_operator({"kind": "flat", "region": "(0, 1)"})
        with pytest.raises(ValidationError):
            build_operator({"kind": "abs_subdiff", "slope": 1.0, "bogus": 3})

    @pytest.mark.parametrize("spec", [
        {"kind": "linear", "matrix": [[1.0, 0.0], [0.0]]},
        {"kind": "linear", "matrix": [[1.0, 0.0]]},
        {"kind": "linear", "matrix": [1.0, 2.0]},
        {"kind": "linear", "matrix": [["a"]]},
        {"kind": "finite_graph", "points": [0.0, 1.0]},
        {"kind": "finite_graph", "points": [[0.0, 1.0], [2.0]]},
        {"kind": "normal_cone_box", "box": HalfSpace((1.0,), 0.0)},
        {"kind": "abs_subdiff", "slope": "steep"},
        {"kind": "point_complement", "anchor": ["a"]},
        {"kind": "flat", "region": 3, "wstar": 0.0},
    ])
    def test_malformed_fields_are_validation_errors(self, spec):
        """A ragged or flat matrix, rows that are not number lists, a value
        its format cannot read and a cone over a region that is not a box
        raise ValidationError, not numpy's or Python's own error."""
        with pytest.raises(ValidationError):
            build_operator(spec)

    def test_ragged_matrix_rejected_by_the_constructor(self):
        with pytest.raises(ValidationError, match="matrix must be square"):
            Linear(((1.0, 0.0), (0.0,)))


class TestMonotoneVerdicts:
    def test_monotone_graph_passes(self, rng):
        T = FiniteGraph(random_monotone_graph(rng))
        verdict = is_monotone(T, TOL)
        assert bool(verdict.value)
        assert not verdict.approximate
        assert verdict.witnesses == ()

    def test_shuffled_graph_fails_with_pair_witness(self, rng):
        for _ in range(10):
            pts = random_monotone_graph(rng)
            bad = shuffle_until_non_monotone(rng, pts)
            if bad is None:
                continue
            verdict = is_monotone(FiniteGraph(bad), TOL)
            assert not bool(verdict.value)
            (pair,) = verdict.witnesses
            z, w = pair
            assert monotone_gap(z, w) < -TOL.eps_eq
            return
        pytest.fail("no shuffle produced a non-monotone graph")


NAN = float("nan")


@pytest.mark.parametrize("make", [
    lambda: Linear(((NAN, 0.0), (0.0, 1.0))),
    lambda: Linear(((1.0, 0.0), (0.0, INF))),
    lambda: AbsSubdiff(INF),
    lambda: Flat(interval(0.0, 1.0), (INF,)),
    lambda: PointComplement((INF,)),
    lambda: FiniteGraph((pdp(0.0, 0.0), pdp(INF, 1.0))),
    lambda: FiniteGraph((pdp(0.0, 0.0), pdp(1.0, -INF))),
], ids=["linear-nan", "linear-inf", "abs-inf", "flat-inf", "complement-inf",
        "graph-inf-primal", "graph-inf-dual"])
def test_non_finite_operator_data_is_rejected(make):
    with pytest.raises(ValidationError, match="must be finite"):
        make()


def test_rejections_of_nan_keep_their_messages():
    with pytest.raises(ValidationError, match="slope must be positive"):
        AbsSubdiff(NAN)
    with pytest.raises(ValidationError, match="must not be nan"):
        Flat(interval(0.0, 1.0), (NAN,))
