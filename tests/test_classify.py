"""Window-local property deciders and family scans."""

import tracemalloc

import numpy as np
import pytest

from monokit import (
    DEFAULT_TOL,
    AbsSubdiff,
    FiniteGraph,
    Flat,
    GridSpec,
    Linear,
    NormalConeBox,
    PointComplement,
    Property,
    RegionFamily,
    SumNormalCone,
    UnsatisfiedHypothesis,
    check_condition_c,
    check_identifies,
    check_locates,
    check_maximal_on_grid,
    check_v_representable,
    check_vni,
    closed_box,
    coupling,
    dyadic_open_boxes,
    family_scan,
    interval,
    open_box,
    pdp,
    phi_eval,
    scan_grid,
    unique_extension,
    whole_space,
)
from monokit.sumcalc import add_normal_cone

TOL = DEFAULT_TOL
G = GridSpec(resolution=21, dual_bound=4.0, dual_resolution=21,
             ambient_bound=4.0)

OPEN_UNIT = interval(0.0, 1.0, lo_open=True, hi_open=True)
SYM = interval(-1.0, 1.0, lo_open=True, hi_open=True)


class TestVNI:
    def test_normal_cone_inside_open_window(self):
        v = check_vni(NormalConeBox(closed_box([-1.0], [1.0])), SYM, G, TOL)
        assert bool(v.value)
        assert not v.vacuous

    def test_flat_fails_on_the_whole_space(self):
        T = Flat(SYM, (0.0,))
        v = check_vni(T, whole_space(1), G, TOL)
        assert not v.value
        assert v.witnesses
        for w in v.witnesses:
            assert phi_eval(T, whole_space(1), w, G) < coupling(w) - TOL.eps_strict

    def test_window_missing_domain_is_vacuously_true(self):
        v = check_vni(Flat(OPEN_UNIT, (0.0,)), interval(5.0, 6.0), G, TOL)
        assert bool(v.value)
        assert v.vacuous
        assert "window does not meet the domain" in v.notes

    def test_finite_subsample_of_maximal_graph_fails(self):
        # three samples of the signum-like diagonal; the midpoint of a gap
        # dips strictly below the coupling
        T = FiniteGraph([pdp([-1.0], [-1.0]), pdp([0.0], [0.0]),
                         pdp([1.0], [1.0])])
        z = pdp([0.5], [0.5])
        assert phi_eval(T, SYM, z) < coupling(z) - TOL.eps_strict
        v = check_vni(T, SYM, G, TOL)
        assert not v.value

    def test_closure_grid_inherits_the_bound(self):
        # a positive open-window verdict extends to the closure lattice
        T = Flat(SYM, (0.0,))
        assert bool(check_vni(T, SYM, G, TOL).value)
        for z in scan_grid(SYM.closure(), G):
            assert phi_eval(T, SYM.closure(), z, G) >= \
                coupling(z) - TOL.eps_strict


class TestLocates:
    def test_open_window_locates_flat(self):
        v = check_locates(Flat(OPEN_UNIT, (0.0,)), OPEN_UNIT, G, TOL)
        assert bool(v.value)

    def test_closed_window_leaks_onto_the_boundary(self):
        # default grid: the boundary rows carry monotonically related points
        # whose primal is outside the open domain
        v = check_locates(Flat(OPEN_UNIT, (0.0,)), interval(0.0, 1.0))
        assert not v.value
        assert v.witness_count == 42
        assert len(v.witnesses) == 12

    def test_explicit_target_region(self):
        T = Flat(OPEN_UNIT, (0.0,))
        v = check_locates(T, OPEN_UNIT, G, TOL, target=interval(-5.0, 5.0))
        assert bool(v.value)
        tight = check_locates(T, OPEN_UNIT, G, TOL,
                              target=interval(0.6, 0.7))
        assert not tight.value


class TestIdentifies:
    def test_open_window_identifies_flat(self):
        v = check_identifies(Flat(OPEN_UNIT, (0.0,)), OPEN_UNIT, G, TOL)
        assert bool(v.value)

    def test_puncture_defeats_identification(self):
        v = check_identifies(PointComplement((0.0,)), SYM, G, TOL)
        assert not v.value
        w = v.witnesses[0]
        assert w.x[0] == pytest.approx(0.0, abs=1e-12)
        assert w.xstar == (0.0,)

    def test_kink_on_the_open_window_lattice(self):
        """The lattice sample meant to be 0 is 0 exactly; at -1.11e-16 the
        related points there fell outside the graph."""
        T = SumNormalCone(AbsSubdiff(1.0), closed_box([0.0], [2.0]))
        g = GridSpec(resolution=11, dual_bound=4.0, dual_resolution=9)
        v = check_identifies(T, interval(-1.0, 3.0, True, True), g, TOL)
        assert v.value and v.witness_count == 0


class TestScanMemory:
    def test_the_lattice_is_held_as_rows(self):
        """194,481 scan points: held as rows, with points built only for the
        selected rows, a check peaks far below a list of all the points."""
        T = NormalConeBox(closed_box([-1.0, -1.0], [1.0, 1.0]))
        V = open_box([-1.0, -1.0], [1.0, 1.0])
        g = GridSpec(resolution=21, dual_bound=4.0, dual_resolution=21)
        for check in (check_vni, check_identifies):
            tracemalloc.start()
            try:
                v = check(T, V, g, TOL)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert v.value
            assert peak < 20 * 2 ** 20, (check.__name__, peak / 2 ** 20)


class TestTwoDimSum:
    """A monotone linear map plus the normal cone of the unit square, on a
    wider open window, at resolution 15: the sampled graph has 625 rows and
    the scan 50,625, so each check runs the threshold kernel in chunks."""

    T = add_normal_cone(Linear(((1.0, 0.5), (-0.5, 1.0))),
                        closed_box([-1.0, -1.0], [1.0, 1.0]))
    V = open_box([-2.0, -2.0], [2.0, 2.0])
    g = GridSpec(resolution=15, dual_bound=4.0, dual_resolution=15)

    @pytest.mark.parametrize("check, value, count, first", [
        (check_identifies, False, 36, pdp([-1.0, -0.5], [-8 / 7, 0.0])),
        (check_vni, False, 32, pdp([-1.0, -0.5], [-4.0, 0.0])),
        (check_condition_c, True, 0, None),
    ])
    def test_verdicts(self, check, value, count, first):
        v = check(self.T, self.V, self.g, TOL)
        assert (v.value, v.witness_count) == (value, count)
        assert v.witnesses[:1] == (() if first is None else (first,))


class TestVRepresentable:
    def test_diagonal_pair_is_representable(self):
        T = FiniteGraph([pdp([0.0], [0.0]), pdp([1.0], [1.0])])
        v = check_v_representable(T, interval(0.0, 1.0), G, TOL)
        assert bool(v.value)
        assert not v.approximate

    def test_flat_segment_is_not(self, three_point_graph):
        v = check_v_representable(three_point_graph, interval(0.0, 1.0))
        assert not v.value
        assert v.witnesses

    def test_empty_restriction_is_false_and_vacuous(self):
        T = FiniteGraph([pdp([5.0], [0.0])])
        v = check_v_representable(T, interval(0.0, 1.0), G, TOL)
        assert not v.value
        assert v.vacuous
        assert "empty restriction" in v.notes
        assert v.witnesses == ()  # the one allowed witness-free negative

    def test_non_monotone_restriction_reports_the_pair(self):
        T = FiniteGraph([pdp([0.0], [1.0]), pdp([1.0], [0.0])])
        v = check_v_representable(T, interval(-2.0, 2.0), G, TOL)
        assert not v.value
        assert "restriction is not monotone" in v.notes
        assert v.witnesses

    @pytest.mark.parametrize("T", [
        FiniteGraph([pdp([0.0], [0.0]), pdp([0.5], [1.0]),
                     pdp([1.0], [1.0])]),
        AbsSubdiff(1.0),
    ], ids=["finite", "sampled"])
    def test_restricted_graph_is_enumerated_once(self, T, monkeypatch):
        calls = []
        real = type(T).graph_rows

        def counted(self, V, g):
            calls.append(V)
            return real(self, V, g)

        monkeypatch.setattr(type(T), "graph_rows", counted)
        check_v_representable(T, interval(-1.0, 1.0), G, TOL)
        assert len(calls) == 1


class TestMaximalOnGrid:
    def test_non_monotone_input_is_an_error(self):
        T = FiniteGraph([pdp([0.0], [1.0]), pdp([1.0], [0.0])])
        with pytest.raises(UnsatisfiedHypothesis) as err:
            check_maximal_on_grid(T, None, G, TOL)
        assert err.value.hypothesis == "the operator is monotone"

    def test_normal_cone_is_maximal(self):
        v = check_maximal_on_grid(NormalConeBox(closed_box([-1.0], [1.0])),
                                  None, G, TOL)
        assert bool(v.value)
        assert v.property is Property.MAXIMAL_ON_GRID

    def test_maximality_equals_representable_plus_ni(self):
        operators = [
            NormalConeBox(closed_box([-1.0], [1.0])),
            AbsSubdiff(1.0),
            Flat(SYM, (0.0,)),
            PointComplement((0.0,)),
        ]
        for T in operators:
            ambient = whole_space(1)
            maximal = check_maximal_on_grid(T, ambient, G, TOL)
            rep = check_v_representable(T, ambient, G, TOL)
            ni = check_vni(T, ambient, G, TOL)
            assert bool(maximal.value) == (bool(rep.value) and bool(ni.value))


class TestUniqueExtension:
    def test_flat_window_trace(self):
        band = unique_extension(Flat(SYM, (0.0,)), SYM, G, TOL)
        assert band
        assert all(z.xstar == (0.0,) for z in band)
        assert len(band) == G.resolution

    def test_non_monotone_gate(self):
        T = FiniteGraph([pdp([0.0], [1.0]), pdp([1.0], [0.0])])
        with pytest.raises(UnsatisfiedHypothesis) as err:
            unique_extension(T, interval(-2.0, 2.0), G, TOL)
        assert err.value.hypothesis == "the restriction is monotone"

    def test_single_point_graph_fails_the_vni_gate(self):
        # a one-point graph never dominates the coupling on an open window
        # around it, so the hypothesis check trips first
        T = FiniteGraph([pdp([0.0], [0.0])])
        with pytest.raises(UnsatisfiedHypothesis) as err:
            unique_extension(T, SYM, G, TOL)
        assert err.value.hypothesis == "phi stays above coupling on the window"


class TestConditionC:
    def test_flat_on_a_wide_window_fails(self):
        T = Flat(OPEN_UNIT, (0.0,))
        v = check_condition_c(T, interval(-2.0, 2.0), G, TOL)
        assert not v.value
        assert not v.vacuous
        xs = np.array([w.x for w in v.witnesses])
        assert not T.domain_closure_contains_rows(xs, TOL).any()

    def test_three_point_diagonal_reports_gap_points(self):
        T = FiniteGraph([pdp([0.0], [0.0]), pdp([1.0], [1.0]),
                         pdp([2.0], [2.0])])
        v = check_condition_c(T, interval(-3.0, 3.0), G, TOL)
        assert not v.value
        xs = np.array([w.x for w in v.witnesses])
        assert not T.domain_closure_contains_rows(xs, TOL).all()

    def test_empty_strict_set_is_vacuous(self):
        v = check_condition_c(NormalConeBox(closed_box([-1.0], [1.0])),
                              interval(-2.0, 2.0), G, TOL)
        assert bool(v.value)
        assert v.vacuous


class TestDyadicFamily:
    def test_counts_and_openness(self):
        fam1 = dyadic_open_boxes(interval(-1.0, 1.0), 1)
        assert len(fam1.regions) == 3
        fam2 = dyadic_open_boxes(interval(-1.0, 1.0), 2)
        assert len(fam2.regions) == 10
        assert all(all(b.lower_open) and all(b.upper_open)
                   and not b.is_empty() for b in fam2.regions)
        assert fam2.rule == "dyadic-open-boxes-2"

    def test_domain_filter(self):
        fam = dyadic_open_boxes(interval(-1.0, 1.0), 1,
                                T=Flat(OPEN_UNIT, (0.0,)), g=G, tol=TOL)
        assert len(fam.regions) == 2  # the all-negative box is dropped


class TestFamilyScan:
    def test_vni_scan_reports_locally_ni(self):
        fam = dyadic_open_boxes(interval(-1.0, 1.0), 2, T=AbsSubdiff(1.0),
                                g=G, tol=TOL)
        v = family_scan(AbsSubdiff(1.0), fam, Property.VNI, G, TOL)
        assert v.property is Property.LOCALLY_NI
        assert bool(v.value)

    def test_failing_region_is_named(self):
        fam = dyadic_open_boxes(interval(-1.0, 2.0), 1,
                                T=Flat(OPEN_UNIT, (0.0,)), g=G, tol=TOL)
        v = family_scan(Flat(OPEN_UNIT, (0.0,)), fam, Property.VNI, G, TOL)
        assert not v.value
        assert len(v.region_ids) == 2
        assert v.region_ids[0] == fam.rule

    def test_empty_family_is_vacuous(self):
        v = family_scan(AbsSubdiff(1.0), RegionFamily((), "none"),
                        Property.VNI, G, TOL)
        assert bool(v.value)
        assert v.vacuous

    def test_open_boxes_agree_with_their_closures(self):
        T = AbsSubdiff(1.0)
        fam = dyadic_open_boxes(interval(-1.0, 1.0), 2, T=T, g=G, tol=TOL)
        open_verdict = family_scan(T, fam, Property.VNI, G, TOL)
        closed_values = [bool(check_vni(T, b.closure(), G, TOL).value)
                         for b in fam.regions]
        assert bool(open_verdict.value) == all(closed_values)

    def test_unsupported_property_is_an_error(self):
        with pytest.raises(UnsatisfiedHypothesis):
            family_scan(AbsSubdiff(1.0), RegionFamily((), "none"),
                        Property.MAXIMAL_ON_GRID, G, TOL)


class TestLowRepresentable:
    def test_diagonal_pair_is_low_representable(self):
        T = FiniteGraph([pdp([0.0], [0.0]), pdp([1.0], [1.0])])
        fam = dyadic_open_boxes(interval(-0.5, 1.5), 2, T=T, g=G, tol=TOL)
        v = family_scan(T, fam, Property.LOW_REPRESENTABLE, G, TOL)
        assert bool(v.value)

    def test_puncture_is_not_coverable(self):
        T = PointComplement((0.0,))
        fam = dyadic_open_boxes(interval(-1.0, 1.0), 1, T=T, g=G, tol=TOL)
        v = family_scan(T, fam, Property.LOW_REPRESENTABLE, G, TOL)
        assert not v.value
        assert pdp([0.0], [0.0]) in v.witnesses


class TestImplicationChain:
    def test_identifies_implies_locates_implies_vni(self):
        instances = [
            (NormalConeBox(closed_box([-1.0], [1.0])), SYM),
            (NormalConeBox(closed_box([-1.0], [1.0])), whole_space(1)),
            (Flat(OPEN_UNIT, (0.0,)), OPEN_UNIT),
            (Flat(OPEN_UNIT, (0.0,)), interval(0.0, 1.0)),
            (Flat(OPEN_UNIT, (0.0,)), whole_space(1)),
            (AbsSubdiff(1.0), interval(-0.5, 0.5, True, True)),
            (AbsSubdiff(1.0), whole_space(1)),
            (PointComplement((0.0,)), SYM),
            (FiniteGraph([pdp([0.0], [0.0]), pdp([0.5], [1.0]),
                          pdp([1.0], [1.0])]), interval(0.0, 1.0)),
        ]
        for T, V in instances:
            ident = check_identifies(T, V, G, TOL)
            loc = check_locates(T, V, G, TOL)
            vni = check_vni(T, V, G, TOL)
            if ident.value:
                assert loc.value, (T.describe(), V.describe())
            if loc.value:
                assert vni.value, (T.describe(), V.describe())


class TestConvexClosureConsequence:
    def test_condition_c_positive_operators_have_convex_domain_trace(self):
        fam_ambient = interval(-1.0, 1.0)
        for T in [PointComplement((0.0,)),
                  NormalConeBox(closed_box([-1.0], [1.0])),
                  AbsSubdiff(1.0)]:
            fam = dyadic_open_boxes(fam_ambient, 1, T=T, g=G, tol=TOL)
            v = family_scan(T, fam, Property.CONDITION_C, G, TOL)
            assert bool(v.value)
            xs = [p for p in np.linspace(-1.0, 1.0, 21)
                  if T.domain_contains([p], TOL)]
            mids = np.array([[(a + b) / 2.0] for a in xs for b in xs])
            assert T.domain_closure_contains_rows(mids, TOL).all()
