"""Acceptance checks at desk scale.

Each check prints one verdict line (visible under pytest -s or in captured
output) and then asserts. Random inputs are seeded so reruns see the same
instances. Checks 1 and 2 share one suite of a hundred monotone graphs,
half on the line and half in the plane, every coordinate in [-2, 2].
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_monotone_graph, shuffle_until_non_monotone
from monokit import (
    AbsSubdiff,
    DEFAULT_TOL,
    FiniteGraph,
    Flat,
    GridSpec,
    Linear,
    NormalConeBox,
    PointComplement,
    add_normal_cone,
    check_identifies,
    check_v_representable,
    check_vni,
    closed_box,
    conjugate,
    coupling,
    coupling_band,
    envelope_eval,
    interval,
    max_affine_eval_batch,
    monotone_gap,
    mr_test,
    open_box,
    penot_envelope,
    phi_eval,
    restrict,
    rho_square_eval,
    run_gallery,
    scan_grid,
    square_conjugate_eval,
    unique_extension,
    verify_sum_representative,
    whole_space,
)
from monokit.cli import main
from monokit.core import INF, PrimalDualPoint

GRID_1D = GridSpec(resolution=41, dual_bound=4.0, dual_resolution=41,
                   ambient_bound=4.0)
# 7 points per axis: 49 x 49 = 2401 plane pairs, above the 41^2 line budget
GRID_2D = GridSpec(resolution=7, dual_bound=4.0, dual_resolution=7,
                   ambient_bound=4.0)


def _line(index, label, ok):
    print(f"[{index}/8] {label}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def graph_suite():
    rng = np.random.default_rng(411)
    return [random_monotone_graph(rng, dimension=1 if i % 2 == 0 else 2)
            for i in range(100)]


def test_equality_band_survives_the_square_conjugate(graph_suite):
    """Where the envelope meets the coupling, its square conjugate does too.

    The scan set is the ambient lattice plus the graph points themselves;
    without the latter the band would usually be empty, since random graphs
    avoid lattice points.
    """
    t0 = time.perf_counter()
    failures = []
    band_total = 0
    for pts in graph_suite:
        n = len(pts[0].x)
        g = GRID_1D if n == 1 else GRID_2D
        env, _ = penot_envelope(FiniteGraph(pts), whole_space(n), g)
        zs = scan_grid(g.primal_clip(n), g) + list(pts)
        band = coupling_band(env, zs, DEFAULT_TOL)
        band_total += len(band)
        for z in band:
            gap = abs(square_conjugate_eval(env, z) - coupling(z))
            if gap > 1e-8:
                failures.append((z, gap))
    elapsed = time.perf_counter() - t0
    ok = not failures and band_total >= 100 and elapsed < 60.0
    _line(1, "equality band survives the square conjugate", ok)
    assert not failures, failures[:3]
    assert band_total >= 100, band_total
    assert elapsed < 60.0, elapsed


def test_graph_values_separate_monotone_from_shuffled(graph_suite):
    """phi equals coupling on monotone graphs, the envelope never dips, and
    shuffling duals into a non-monotone graph pushes phi above coupling."""
    rng = np.random.default_rng(412)
    phi_fail, psi_fail, shuffle_fail = [], [], []
    shuffled = 0
    for pts in graph_suite:
        n = len(pts[0].x)
        g = GRID_1D if n == 1 else GRID_2D
        T = FiniteGraph(pts)
        for w in pts:
            if abs(phi_eval(T, None, w) - coupling(w)) > 1e-12:
                phi_fail.append(w)
        env, _ = penot_envelope(T, whole_space(n), g)
        zs = scan_grid(g.primal_clip(n), g)
        rows = np.array([list(z.x) + list(z.xstar) for z in zs])
        cs = (rows[:, :n] * rows[:, n:]).sum(axis=1)
        # the affine sup minorizes the envelope on monotone data, so only
        # points failing the cheap bound pay for an exact evaluation
        ell = max_affine_eval_batch(conjugate(env), rows)
        for idx in np.nonzero(ell < cs - 1e-9)[0]:
            z = zs[int(idx)]
            if envelope_eval(env, z) < coupling(z) - 1e-9:
                psi_fail.append(z)
        bad = shuffle_until_non_monotone(rng, pts)
        if bad is None:
            continue  # some plane graphs stay monotone under any pairing
        shuffled += 1
        B = FiniteGraph(bad)
        if not any(phi_eval(B, None, w) > coupling(w) + 1e-6 for w in bad):
            shuffle_fail.append(bad)
    ok = (not phi_fail and not psi_fail and not shuffle_fail
          and shuffled >= 90)
    _line(2, "graph values separate monotone from shuffled data", ok)
    assert not phi_fail, phi_fail[:3]
    assert not psi_fail, psi_fail[:3]
    assert not shuffle_fail, len(shuffle_fail)
    assert shuffled >= 90, shuffled


def test_scenario_gallery_reproduces_pinned_verdicts():
    t0 = time.perf_counter()
    report, passed = run_gallery("all")
    elapsed = time.perf_counter() - t0
    claims = [c for s in report["scenarios"].values()
              for c in s["claims"].values()]
    ok = (passed and len(report["scenarios"]) == 4 and len(claims) >= 7
          and all(c["passed"] for c in claims) and elapsed < 10.0)
    _line(3, "scenario gallery reproduces pinned verdicts", ok)
    assert passed
    assert len(report["scenarios"]) == 4
    assert all(c["passed"] for c in claims)
    assert elapsed < 10.0, elapsed


def _equivalence_instance(rng, k):
    def coarse(lo, hi):
        # quarter-lattice endpoints keep verdicts off tolerance edges
        return round(float(rng.uniform(lo, hi)) * 4) / 4

    kind = k % 4
    if kind == 0:
        a = coarse(-1.5, 0.0)
        b = a + max(0.5, coarse(0.5, 1.5))
        T = Flat(interval(a, b, True, True), (coarse(-1.0, 1.0),))
        anchor = (a + b) / 2
    elif kind == 1:
        a = coarse(-1.5, 0.0)
        b = a + max(0.5, coarse(0.5, 1.5))
        T = NormalConeBox(closed_box((a,), (b,)))
        anchor = (a + b) / 2
    elif kind == 2:
        T = AbsSubdiff([0.5, 1.0, 2.0][k % 3])
        anchor = 0.0
    else:
        anchor = coarse(-1.0, 1.0)
        T = PointComplement((anchor,))
    half = max(0.5, coarse(0.25, 1.25))
    # the window always meets the domain, so no verdict is vacuous
    return T, interval(anchor - half, anchor + half, True, True)


def test_representable_and_positive_iff_identifying():
    rng = np.random.default_rng(50417)
    g = GridSpec(resolution=21, dual_bound=4.0, dual_resolution=21,
                 ambient_bound=4.0)
    disagreements = []
    for k in range(50):
        T, V = _equivalence_instance(rng, k)
        rep = check_v_representable(T, V, g, DEFAULT_TOL)
        vni = check_vni(T, V, g, DEFAULT_TOL)
        ident = check_identifies(T, V, g, DEFAULT_TOL)
        if (rep.value and vni.value) != ident.value:
            disagreements.append(
                (type(T).__name__, V.describe(),
                 rep.value, vni.value, ident.value))
    ok = not disagreements
    _line(4, "representable and positive iff identifying", ok)
    assert not disagreements, disagreements


def test_cone_sum_matches_restriction_on_the_shared_grid():
    g = GridSpec(resolution=41, dual_bound=10.0, dual_resolution=41)
    A = AbsSubdiff(1.0)
    C = closed_box((0.0,), (2.0,))
    S = add_normal_cone(A, C, g, DEFAULT_TOL)
    R = restrict(A, C)
    zs = scan_grid(C, g)
    sum_set = {z for z in zs if mr_test(S, None, z, DEFAULT_TOL, g)}
    cut_set = {z for z in zs if mr_test(R, None, z, DEFAULT_TOL, g)}
    ok = sum_set == cut_set and len(sum_set) == 81
    _line(5, "cone sum matches restriction on the shared grid", ok)
    assert sum_set == cut_set, (len(sum_set), len(cut_set))
    assert len(sum_set) == 81, len(sum_set)


def test_split_decomposition_matches_a_finer_dual_scan():
    A = AbsSubdiff(1.0)
    C = closed_box((0.0,), (2.0,))
    V = interval(-1.0, 3.0)
    # step 0.2 keeps the box corners on the primal lattice
    g = GridSpec(resolution=21, dual_bound=4.0, dual_resolution=41)

    v_box = verify_sum_representative(A, C, V, g, DEFAULT_TOL)
    v_cross = verify_sum_representative(A, NormalConeBox(C), V, g,
                                        DEFAULT_TOL)

    env_a, _ = penot_envelope(A, V, g)
    finer = replace(g, dual_resolution=(g.dual_resolution - 1) * 10 + 1)
    duals = finer.dual_lattice(1)
    memo = {}

    def psi(x, u):
        if (x, u) not in memo:
            memo[(x, u)] = envelope_eval(env_a, PrimalDualPoint(x, u))
        return memo[(x, u)]

    mismatches = []
    checked = 0
    for z in scan_grid(V, g):
        rv = rho_square_eval(A, C, V, z, g, DEFAULT_TOL)
        best = INF
        if C.contains(z.x):
            for u in duals:
                a = psi(z.x, u)
                if a == INF:
                    continue
                rest = tuple(s - t for s, t in zip(z.xstar, u))
                best = min(best, a + C.support(rest))
        if (rv.value == INF) != (best == INF):
            mismatches.append((z, rv.value, best))
        elif best != INF:
            checked += 1
            if abs(rv.value - best) > 1e-8:
                mismatches.append((z, rv.value, best))
    ok = v_box.value and v_cross.value and not mismatches and checked >= 400
    _line(6, "split decomposition matches a finer dual scan", ok)
    assert v_box.value, v_box.witnesses[:3]
    assert v_cross.value, v_cross.witnesses[:3]
    assert not mismatches, mismatches[:3]
    assert checked >= 400, checked


TRACE_GRID_1D = GridSpec(resolution=21, dual_bound=4.0, dual_resolution=21,
                         ambient_bound=4.0)
TRACE_GRID_2D = GridSpec(resolution=7, dual_bound=2.0, dual_resolution=7,
                         ambient_bound=2.0)

# exact-phi instances that are coupling-positive on their windows
TRACE_INSTANCES = [
    (Flat(interval(0.0, 1.0, True, True), (0.0,)),
     interval(0.0, 1.0, True, True), TRACE_GRID_1D),
    (AbsSubdiff(1.0), whole_space(1), TRACE_GRID_1D),
    (AbsSubdiff(2.0), whole_space(1), TRACE_GRID_1D),
    (NormalConeBox(closed_box((-1.0,), (1.0,))), whole_space(1),
     TRACE_GRID_1D),
    (Flat(open_box((0.0, 0.0), (1.0, 1.0)), (0.0, 0.0)),
     open_box((0.0, 0.0), (1.0, 1.0)), TRACE_GRID_2D),
    (Linear([[0.0, 1.0], [-1.0, 0.0]]), whole_space(2), TRACE_GRID_2D),
]


def test_equality_trace_is_unambiguous_and_extends_monotonically():
    trace_fail, gap_fail, empty = [], [], []
    for T, V, g in TRACE_INSTANCES:
        assert check_vni(T, V, g, DEFAULT_TOL).value
        band, sublevel = [], []
        for z in scan_grid(V, g):
            p = phi_eval(T, V, z, g)
            c = coupling(z)
            if abs(p - c) <= DEFAULT_TOL.eps_eq:
                band.append(z)
            if p <= c + DEFAULT_TOL.eps_eq:
                sublevel.append(z)
        if band != sublevel:
            trace_fail.append(type(T).__name__)
        ext = unique_extension(T, V, g, DEFAULT_TOL)
        if not ext:
            empty.append(type(T).__name__)
        for i in range(len(ext)):
            for j in range(i + 1, len(ext)):
                if monotone_gap(ext[i], ext[j]) < -1e-9:
                    gap_fail.append((type(T).__name__, ext[i], ext[j]))
    ok = not trace_fail and not gap_fail and not empty
    _line(7, "equality trace is unambiguous and extends monotonically", ok)
    assert not trace_fail, trace_fail
    assert not gap_fail, gap_fail[:3]
    assert not empty, empty


def test_repeated_gallery_reports_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    assert main(["gallery", "--name", "all", "--out", str(first)]) == 0
    assert main(["gallery", "--name", "all", "--out", str(second)]) == 0
    capsys.readouterr()
    a, b = first.read_bytes(), second.read_bytes()
    ok = a == b and len(a) > 0
    _line(8, "repeated gallery reports are byte-identical", ok)
    assert a == b
    assert len(a) > 0
