"""graph_rows, the one graph format, against the point enumeration it replaced.

Each kind builds its graph as (M, 2n) rows, and enumerate_graph is those rows
as points. The reference below is the point-by-point enumeration written out
per kind, with PairSum's dict matching on primal tuples. Rows and reference
must agree with ==, in order and in the sign of every zero, so the comparison
is on the bytes of the float arrays.
"""
import copy
import dataclasses
import itertools
from functools import cached_property

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from monokit import (
    INF,
    AbsSubdiff,
    FiniteGraph,
    Flat,
    GridSpec,
    Linear,
    NormalConeBox,
    PairSum,
    PointComplement,
    Property,
    RegionFamily,
    Restriction,
    SumNormalCone,
    add_normal_cone,
    check_condition_c,
    check_identifies,
    check_locates,
    check_maximal_on_grid,
    check_v_representable,
    check_vni,
    closed_box,
    family_scan,
    interval,
    is_monotone,
    operator_sum,
    pdp,
    penot_envelope,
    psi_eval,
    restrict,
    unique_extension,
    verify_sum_representative,
    whole_space,
)
import monokit
from monokit import cli, core
from monokit.core import PrimalDualPoint, point_rows, row_points
from monokit.errors import MonokitError
from monokit.operators import _MATCH_TOL, _DUST, OperatorHandle
from monokit.regions import HalfSpace, grid_sample, intersect_regions
from monokit.specfile import RunConfig
from test_scan_kernel import TOL, cases, grids, windows


def reference(T, V, g):
    """The graph of T over V at g, built point by point."""
    if isinstance(T, FiniteGraph):
        return [p for p in T.points if V is None or V.contains(p.x)]
    if isinstance(T, Flat):
        dom = T.region if V is None else intersect_regions(T.region, V)
        return [PrimalDualPoint(x, T.wstar) for x in grid_sample(dom, g)]
    if isinstance(T, NormalConeBox):
        dom = T.box if V is None else intersect_regions(T.box, V)
        mags = [float(m) for m in
                np.linspace(0.0, g.dual_bound, g.dual_resolution)]
        out = {}
        for x in grid_sample(dom, g):
            per_axis = []
            for i in range(T.dimension):
                opts = {0.0}
                if abs(x[i] - T.box.lower[i]) <= _DUST:
                    opts.update(-m for m in mags)
                if abs(x[i] - T.box.upper[i]) <= _DUST:
                    opts.update(mags)
                per_axis.append(sorted(opts))
            for combo in itertools.product(*per_axis):
                out.setdefault(PrimalDualPoint(x, combo))
        return list(out)
    if isinstance(T, AbsSubdiff):
        a, out = T.slope, []
        for x in grid_sample(whole_space(1) if V is None else V, g):
            if x[0] > _DUST:
                out.append(PrimalDualPoint(x, (a,)))
            elif x[0] < -_DUST:
                out.append(PrimalDualPoint(x, (-a,)))
            else:
                duals = {-a, a}
                duals.update(v[0] for v in g.dual_lattice(1) if -a < v[0] < a)
                out.extend(PrimalDualPoint(x, (d,)) for d in sorted(duals))
        return out
    if isinstance(T, PointComplement):
        if V is not None and not V.contains(T.anchor):
            return []
        return [PrimalDualPoint(T.anchor, u) for u in
                g.dual_lattice(T.dimension) if any(c != 0.0 for c in u)]
    if isinstance(T, Linear):
        m = np.array(T.matrix)
        win = whole_space(T.dimension) if V is None else V
        return [PrimalDualPoint(x, tuple(float(c) for c in m @ np.array(x)))
                for x in grid_sample(win, g)]
    if isinstance(T, Restriction):
        return reference(T.base, T._inner(V), g)
    assert isinstance(T, PairSum)
    return reference_pair_sum(T, V, g)


def reference_pair_sum(T, V, g):
    """PairSum's matching through dicts of primal tuples."""
    win = T._joint_window(V)
    pa, pb = reference(T.first, win, g), reference(T.second, win, g)

    def by_primal(points):
        out = {}
        for p in points:
            out.setdefault(p.x, []).append(p)
        return out, sorted(out)

    def partners(x, index, op):
        group, keys = index
        found = group.get(x) or [
            q for key in keys
            if max(abs(u - v) for u, v in zip(key, x)) <= _MATCH_TOL
            for q in group[key]]
        if found:
            return found, True
        return reference(op, closed_box(x, x), g), False

    index_a, index_b = by_primal(pa), by_primal(pb)
    out = {}

    def add(x, astar, bstar):
        out.setdefault(PrimalDualPoint(
            x, tuple(u + v for u, v in zip(astar, bstar))))

    for a in pa:
        for b in partners(a.x, index_b, T.second)[0]:
            add(a.x, a.xstar, b.xstar)
    for x, bs in index_b[0].items():
        found, matched = partners(x, index_a, T.first)
        if not matched:
            for b in bs:
                for a in found:
                    add(x, a.xstar, b.xstar)
    return list(out)


def assert_rows_are(rows, points, n):
    """rows equals points with ==, in order, zero signs included."""
    assert rows.dtype == np.float64 and rows.shape == (len(points), 2 * n)
    assert row_points(rows) == points
    assert rows.tobytes() == point_rows(points, n).tobytes()


@given(cases())
@settings(max_examples=300, deadline=None)
def test_graph_rows_are_the_point_enumeration(case):
    T, V, g = case
    rows = T.graph_rows(V, g)
    assert T.enumerate_graph(V, g) == row_points(rows)
    assert_rows_are(rows, reference(T, V, g), T.dimension)


G9 = GridSpec(resolution=9, dual_bound=2.0, dual_resolution=9)
W = interval(-1.0, 1.0)


def finite(*pairs):
    return FiniteGraph(tuple(pdp(x, s) for x, s in pairs))


@pytest.mark.parametrize("T", [
    # every primal of one summand on the other's lattice
    PairSum(Linear(((1.0,),)), NormalConeBox(closed_box([-0.5], [0.5]))),
    SumNormalCone(AbsSubdiff(1.0), closed_box([-0.5], [1.0])),
    # primals within _MATCH_TOL of the lattice, both ways round, two of
    # them around one lattice point
    PairSum(finite((0.25 + 1e-8, 1.0), (-0.5 - 4e-7, -1.0),
                   (-0.5 + 4e-7, 0.5)), AbsSubdiff(1.0)),
    PairSum(AbsSubdiff(1.0), finite((0.25 + 1e-8, 1.0), (-0.5 - 4e-7, -1.0),
                                    (-0.5 + 4e-7, 0.5))),
    # primals off the lattice: each summand sampled at the other's
    PairSum(finite((-0.7, -1.0), (0.0, 0.0), (0.3, 0.5), (0.5, 1.0)),
            AbsSubdiff(1.0)),
    PairSum(NormalConeBox(closed_box([0.0], [1.0])),
            finite((0.33, 1.0), (0.0, 0.5))),
    PairSum(PairSum(finite((0.3, 0.5), (0.5, 1.0)), AbsSubdiff(1.0)),
            NormalConeBox(closed_box([0.0], [0.75]))),
    # equal sums, the first a negative zero: the first row stays
    PairSum(finite((0.0, -0.0), (0.0, 1.0)), finite((0.0, -0.0),
                                                    (0.0, -1.0))),
], ids=["exact-linear", "exact-abs", "tol-first", "tol-second", "off-lattice",
        "off-lattice-cloud", "nested", "equal-sums"])
def test_pair_sum_rows_match_the_dict_matching(T):
    for V in (W, None):
        rows = T.graph_rows(V, G9)
        assert_rows_are(rows, reference(T, V, G9), T.dimension)


def test_two_dim_pair_sum_rows_match_the_dict_matching():
    T = PairSum(Linear(((1.0, 0.5), (-0.5, 1.0))),
                NormalConeBox(closed_box([-0.5, -0.5], [0.5, 0.5])))
    V = closed_box([-1.0, -1.0], [1.0, 1.0])
    g = GridSpec(resolution=5, dual_bound=2.0, dual_resolution=5)
    assert_rows_are(T.graph_rows(V, g), reference(T, V, g), 2)


def test_equal_sums_keep_the_first_row():
    T = PairSum(finite((0.0, -0.0), (0.0, 1.0)),
                finite((0.0, -0.0), (0.0, -1.0)))
    rows = T.graph_rows(None, G9)
    assert rows.tolist() == [[0.0, -0.0], [0.0, -1.0], [0.0, 1.0]]
    assert np.signbit(rows[0, 1])


def test_linear_duals_are_the_per_point_product():
    """The stacked product gives each dual as m @ x gives it, bit for bit;
    a single xs @ m.T may sum in another order."""
    rng = np.random.default_rng(5)
    for _ in range(400):
        n = int(rng.integers(1, 4))
        root, skew = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        T = Linear(tuple(map(tuple, root @ root.T + skew - skew.T)))
        lo = rng.uniform(-3.0, 0.0, n)
        V = closed_box(lo, lo + rng.uniform(0.1, 3.0, n))
        g = GridSpec(resolution=int(rng.integers(2, 7)))
        rows = T.graph_rows(V, g)
        m = np.array(T.matrix)
        want = np.array([m @ x for x in rows[:, :n]]).reshape(-1, n)
        assert rows[:, n:].tobytes() == want.tobytes()


class TestEmptyRestrictedGraph:
    """A finite graph filtered to nothing keeps its dimension."""

    T = restrict(FiniteGraph((pdp(0.0, 1.0), pdp(1.0, 2.0))),
                 interval(5.0, 6.0))

    def test_rows_have_the_dimension(self):
        assert self.T.dimension == 1
        assert self.T.graph_rows(None, G9).shape == (0, 2)
        assert self.T.enumerate_graph(None, G9) == []

    def test_envelope_and_psi(self):
        env, exact = penot_envelope(self.T, None, G9)
        assert env.rows.shape == (0, 2) and env.dimension == 1 and exact
        assert psi_eval(self.T, None, pdp(0.0, 0.0), G9) == INF

    def test_low_representable_scan_is_vacuous(self):
        fam = RegionFamily((interval(-1.0, 1.0, True, True),), "one")
        v = family_scan(self.T, fam, Property.LOW_REPRESENTABLE, G9, TOL)
        assert v.value and v.vacuous
        assert "empty graph, empty band" in v.notes


@pytest.fixture
def rows_calls(monkeypatch):
    """Every graph_rows call as (operator id, window); a pair sum's calls
    on its summands are listed too."""
    calls = []
    for cls in [OperatorHandle] + _subclasses(OperatorHandle):
        real = cls.__dict__.get("graph_rows")
        if real is None:
            continue

        def counted(self, V, g, real=real):
            calls.append((id(self), V))
            return real(self, V, g)

        monkeypatch.setattr(cls, "graph_rows", counted)
    return calls


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


CHECKED = [
    finite((0.0, 0.0), (0.5, 1.0), (1.0, 1.0)),
    AbsSubdiff(1.0),
    SumNormalCone(Linear(((1.0,),)), closed_box([-0.5], [0.5])),
    PairSum(finite((-0.7, -1.0), (0.0, 0.0), (0.3, 0.5)), AbsSubdiff(1.0)),
]


@pytest.mark.parametrize("window", [W, HalfSpace((1.0,), 0.5, True)],
                         ids=["box", "half-space"])
@pytest.mark.parametrize("check", [check_vni, check_locates,
                                   check_identifies, check_condition_c,
                                   check_v_representable])
@pytest.mark.parametrize("T", CHECKED, ids=["finite", "abs", "sum-cone",
                                            "pair-sum"])
def test_each_check_builds_each_graph_once(T, check, window, rows_calls):
    """At most one graph_rows call on T per window (none where phi is
    closed form). A pair sum may sample a summand at one off-lattice
    primal for two of its own windows."""
    check(T, window, G9, TOL)
    own = [V for i, V in rows_calls if i == id(T)]
    assert len(own) == len(set(own)), own


@pytest.mark.parametrize("T", CHECKED[:3], ids=["finite", "abs", "sum-cone"])
def test_v_representable_scans_the_graph_pairs_once(T, monkeypatch):
    """The monotone gate and the band prefilter share one gap scan of the
    graph when the gate passes."""
    graph = T.graph_rows(W, G9)
    scans = _counted_gap_scans(monkeypatch)
    verdict = check_v_representable(T, W, G9, TOL)
    assert "restriction is not monotone" not in verdict.notes
    assert [np.array_equal(rows, graph) for rows in scans] == [True]


def _counted_gap_scans(monkeypatch):
    """Patch first_gap_failure wherever monokit binds it; the list of the
    row arrays it is called on."""
    scans = []
    real = core.first_gap_failure

    def first_gap_failure(rows, eps):
        scans.append(rows.copy())
        return real(rows, eps)

    for name in dir(monokit):
        module = getattr(monokit, name)
        if getattr(module, "first_gap_failure", None) is real:
            monkeypatch.setattr(module, "first_gap_failure",
                                first_gap_failure)
    return scans


def test_v_representable_scans_a_non_monotone_graph_once(monkeypatch):
    """A failing gate takes its witness from the envelope's own scan: one
    gap scan of the graph, and the pair is_monotone reports."""
    T = FiniteGraph((pdp([0.0], [1.0]), pdp([1.0], [0.0]),
                     pdp([2.0], [2.0])))
    V = closed_box([-1.0], [2.0])
    want = is_monotone(T, TOL, G9, V)
    assert not want.value
    scans = _counted_gap_scans(monkeypatch)
    verdict = check_v_representable(T, V, G9, TOL)
    assert verdict.notes == ("restriction is not monotone",)
    assert not verdict.value
    assert verdict.witnesses == want.witnesses
    assert len(scans) == 1
    assert np.array_equal(scans[0], T.graph_rows(V, G9))


def test_unique_extension_builds_the_restriction_once(rows_calls):
    """On the sampled route the monotone gate and phi share one graph."""
    T, V = AbsSubdiff(1.0), HalfSpace((1.0,), 0.5, True)
    assert not T.phi_is_exact(V)
    unique_extension(T, V, G9, TOL)
    assert [w for i, w in rows_calls if i == id(T)] == [V]


def test_sum_verification_builds_each_summand_once(rows_calls):
    """Over the window: each summand once, for the pools that the pair sum
    matches its graph rows from and that the split-dual minimum reads; the
    dual-clip note reads the envelope's data."""
    A, B = AbsSubdiff(1.0), AbsSubdiff(1.0)
    verdict = verify_sum_representative(A, B, W, G9, TOL)
    over_w = [i for i, V in rows_calls if V == W]
    assert over_w.count(id(A)) == 1 and over_w.count(id(B)) == 1
    assert verdict.notes == ("second term: sampled envelope",)


def test_a_gated_sum_builds_each_summand_once_per_joint_window(rows_calls):
    """operator_sum's gate and a check over a window reaching past the box
    read one build: the joint window is the box both times."""
    L, C = Linear(((1.0,),)), closed_box([-0.5], [0.5])
    cone = NormalConeBox(C)
    S = operator_sum(L, cone, G9, TOL)
    check_vni(S, W, G9, TOL)
    assert [V for i, V in rows_calls if i == id(L)] == [C]
    assert [V for i, V in rows_calls if i == id(cone)] == [C]


def test_maximality_builds_each_summand_once(rows_calls):
    """The monotone gate and the relation scan of check_maximal_on_grid
    read one build of the sum."""
    S = add_normal_cone(AbsSubdiff(1.0), closed_box([-0.5], [1.0]), G9)
    check_maximal_on_grid(S, whole_space(1), G9, TOL)
    for T in (S.first, S.second):
        assert len([V for i, V in rows_calls if i == id(T)]) == 1


def assert_fresh(T, pristine, V, g):
    """T's rows over V at g are read-only and byte-equal to the rows of a
    copy of T that never built a graph."""
    rows = T.graph_rows(V, g)
    fresh = copy.deepcopy(pristine).graph_rows(V, g)
    assert not rows.flags.writeable
    assert rows.shape == fresh.shape and rows.tobytes() == fresh.tobytes()


@given(cases(), st.data())
@settings(max_examples=200, deadline=None)
def test_kept_rows_are_a_fresh_sums_rows(case, data):
    """Windows W1, W2, W1 and then a second grid: each answer is the
    fresh sum's, for the pair and nested sums."""
    T, V1, g1 = case
    assume(isinstance(T, PairSum))
    V2 = data.draw(windows(T.dimension))
    g2 = data.draw(grids(T.dimension))
    pristine = copy.deepcopy(T)
    for V, g in ((V1, g1), (V2, g1), (V1, g1), (V1, g2)):
        assert_fresh(T, pristine, V, g)


def test_kept_off_lattice_rows_are_a_fresh_sums_rows():
    """A finite graph off the lattice: the pools' appended partners do not
    leak into a later answer."""
    T = PairSum(finite((-0.7, -1.0), (0.0, 0.0), (0.3, 0.5), (0.5, 1.0)),
                AbsSubdiff(1.0))
    pristine = copy.deepcopy(T)
    V2 = interval(-0.5, 0.75, True, False)
    g2 = GridSpec(resolution=7, dual_bound=2.0, dual_resolution=5)
    for V, g in ((W, G9), (V2, G9), (W, G9), (W, g2)):
        assert_fresh(T, pristine, V, g)
        assert_rows_are(T.graph_rows(V, g), reference(T, V, g), 1)


def _extra_state(T):
    """vars(T) beyond T's fields and its class's cached properties."""
    cached = {name for cls in type(T).__mro__ for name, v in vars(cls).items()
              if isinstance(v, cached_property)}
    fields = {f.name for f in dataclasses.fields(T)}
    return set(vars(T)) - fields - cached


def classify_run(T, V, g, tol):
    """One classify run over V asking every property its window scans
    answer, each error kept as the command line keeps it."""
    config = RunConfig(operator=T, window=V, target=None, properties=(),
                       grid=g, tol=tol)
    scans = cli._run_scans(config)
    for prop in (Property.MONOTONE, Property.VNI, Property.NI,
                 Property.LOCATES, Property.IDENTIFIES,
                 Property.V_REPRESENTABLE, Property.CONDITION_C,
                 Property.MAXIMAL_ON_GRID):
        try:
            cli._dispatch(prop, config, scans)
        except MonokitError:
            pass


@pytest.mark.parametrize("check", [check_vni, check_locates,
                                   check_identifies, check_condition_c,
                                   check_v_representable,
                                   check_maximal_on_grid, classify_run])
def test_only_the_sum_keeps_its_graph(check):
    """The build is kept on the sum; no summand kind holds a graph, and
    neither the window nor the grid holds anything a check or a classify
    run made."""
    inner = PairSum(restrict(Linear(((1.0,),)), interval(-1.0, 0.75)),
                    NormalConeBox(closed_box([-0.5], [0.5])))
    T = PairSum(inner, Flat(interval(-0.25, 1.0), (0.5,)))
    cloud = PairSum(finite((-0.7, -1.0), (0.0, 0.0), (0.3, 0.5)),
                    PointComplement((0.25,)))
    before = [set(vars(W)), set(vars(G9))]
    for S in (T, cloud):
        check(S, W, G9, TOL)
        assert _extra_state(S) == {"_slot"}
    summands = (inner.first, inner.first.base, inner.second, T.second,
                cloud.first, cloud.second)
    for A in summands:
        assert _extra_state(A) == set(), A
    assert [set(vars(W)), set(vars(G9))] == before


@pytest.mark.parametrize("slope, notes", [
    (3.0, ("second summand duals exceed the dual clip",
           "second term: sampled envelope")),
    (1.5, ("second term: sampled envelope",)),
])
def test_dual_clip_note_reads_the_second_summand(slope, notes):
    verdict = verify_sum_representative(AbsSubdiff(1.0), Linear(((slope,),)),
                                        W, G9, TOL)
    assert verdict.notes == notes
