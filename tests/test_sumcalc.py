"""Sum constructions and the split-dual representative."""

import numpy as np
import pytest

from monokit import core
from monokit.core import row_points
from monokit.fitzpatrick import scan_rows
from monokit.sumcalc import _RhoMachine
from monokit import (
    DEFAULT_TOL,
    INF,
    AbsSubdiff,
    FiniteGraph,
    Flat,
    GridSpec,
    Linear,
    NormalConeBox,
    PairSum,
    SumNormalCone,
    UnsatisfiedHypothesis,
    ValidationError,
    add_normal_cone,
    closed_box,
    envelope_eval,
    interval,
    open_box,
    operator_sum,
    pdp,
    penot_envelope,
    rho_square_eval,
    verify_sum_representative,
)

TOL = DEFAULT_TOL
BOX = closed_box([0.0], [2.0])
WINDOW = interval(-1.0, 3.0)


class TestAddNormalCone:
    def test_builds_when_domain_reaches_interior(self):
        S = add_normal_cone(AbsSubdiff(1.0), BOX)
        assert S.dimension == 1

    def test_disjoint_domain_rejected(self):
        with pytest.raises(UnsatisfiedHypothesis):
            add_normal_cone(Flat(interval(0.0, 1.0, True, True), (0.0,)),
                            closed_box([2.0], [3.0]))

    def test_degenerate_box_has_no_interior(self):
        with pytest.raises(UnsatisfiedHypothesis):
            add_normal_cone(AbsSubdiff(1.0), closed_box([0.0], [0.0]))

    def test_non_box_rejected(self):
        with pytest.raises(ValidationError):
            add_normal_cone(AbsSubdiff(1.0), "not a box")


class TestOperatorSum:
    def test_shared_lattice_matches_cone_construction(self):
        g = GridSpec(resolution=11, dual_bound=4.0, dual_resolution=9)
        pair = operator_sum(AbsSubdiff(1.0), NormalConeBox(BOX), g)
        cone = add_normal_cone(AbsSubdiff(1.0), BOX, g)
        a = set(pair.enumerate_graph(WINDOW, g))
        b = set(cone.enumerate_graph(WINDOW, g))
        assert a
        assert a == b

    def test_disjoint_summands_raise(self):
        with pytest.raises(UnsatisfiedHypothesis):
            operator_sum(FiniteGraph([pdp([0.0], [0.0])]),
                         NormalConeBox(closed_box([5.0], [6.0])))


class TestRhoSquare:
    def test_frozen_split_values(self):
        cases = [
            (pdp([0.0], [-3.0]), 0.0, (-1.0,)),
            (pdp([1.0], [1.0]), 1.0, (1.0,)),
            (pdp([0.0], [3.0]), 4.0, (1.0,)),
        ]
        for z, value, split in cases:
            rv = rho_square_eval(AbsSubdiff(1.0), BOX, WINDOW, z)
            assert rv.value == pytest.approx(value, abs=1e-9)
            assert rv.split == pytest.approx(split, abs=1e-9)

    def test_outside_the_box_is_inf(self):
        rv = rho_square_eval(AbsSubdiff(1.0), BOX, WINDOW, pdp([2.5], [0.0]))
        assert rv.value == INF
        assert rv.split is None

    def test_sampled_summand_is_flagged(self):
        rv = rho_square_eval(AbsSubdiff(1.0), BOX, WINDOW, pdp([1.0], [1.0]))
        assert rv.approximate  # the summand graph itself is sampled

    def test_matches_finer_dual_search(self):
        A = AbsSubdiff(1.0)
        g = GridSpec()
        env, _ = penot_envelope(A, WINDOW, g)
        fine = np.linspace(-10.0, 10.0, 401)
        probes = [pdp([0.0], [-3.0]), pdp([1.0], [1.0]), pdp([0.0], [3.0]),
                  pdp([0.5], [1.5]), pdp([2.0], [5.0])]
        for z in probes:
            best = INF
            for u in fine:
                a = envelope_eval(env, pdp(z.x, [u]))
                if a == INF:
                    continue
                best = min(best, a + BOX.support((z.xstar[0] - u,)))
            got = rho_square_eval(A, BOX, WINDOW, z, g).value
            assert got == pytest.approx(best, abs=1e-8)


def _loop_rho(machine, z):
    """The split-dual minimum as a loop over the candidates, one envelope
    value at a time; the first strict improvement wins."""
    if machine.cone is not None and not machine.cone.contains(z.x):
        return INF, None
    best, split = INF, None
    for u in map(tuple, machine.candidates.tolist()):
        a = envelope_eval(machine.env_a, pdp(z.x, u))
        if a == INF:
            continue
        rest = tuple(s - t for s, t in zip(z.xstar, u))
        if machine.cone is not None:
            b = machine.cone.support(rest)
        else:
            b = envelope_eval(machine.env_b, pdp(z.x, rest))
        if b == INF:
            continue
        if a + b < best:
            best, split = a + b, u
    return best, split


@pytest.mark.parametrize("S", [SumNormalCone(AbsSubdiff(1.0), BOX),
                               PairSum(AbsSubdiff(1.0), AbsSubdiff(1.0))],
                         ids=["box", "operator"])
@pytest.mark.parametrize("block", [None, 5])
def test_values_rows_match_the_candidate_loop(S, block):
    """Bit for bit, minimizer included, over a lattice with repeated rows,
    whole or in blocks of a few rows."""
    g = GridSpec(resolution=7, dual_bound=3.0, dual_resolution=7)
    machine = _RhoMachine(S, WINDOW, g)
    rows = scan_rows(WINDOW, g)
    rows = np.vstack([rows, rows[::7]])
    want = [_loop_rho(machine, pdp(r[:1], r[1:])) for r in rows]
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(core, "_BLOCK_ELEMS", block)
        values, split = machine.values_rows(rows)
    assert [v.hex() for v in values.tolist()] == [v.hex() for v, _ in want]
    assert [tuple(machine.candidates[j].tolist()) if j >= 0 else None
            for j in split.tolist()] == [u for _, u in want]
    assert any(u is not None for _, u in want)
    assert any(u is None for _, u in want)


# Linear + N_C on a window wider than C: the sum theorem (Rockafellar 1970)
# makes each sum maximal, so each is representative. Sampling the summand on
# the window rather than on the sum's joint window, V cut down to C, once
# reported false: 24 witnesses on the open line, 4 on the closed one, 168 in
# the plane.
LINE, PLANE = Linear(((1.0,),)), Linear(((1.0, 0.5), (-0.5, 1.0)))
SQUARE = closed_box([-1.0, -1.0], [1.0, 1.0])
WIDE_WINDOWS = {
    "line-open": (LINE, closed_box([-1.0], [1.0]),
                  interval(-2.0, 2.0, True, True), GridSpec(9, 4.0, 9)),
    "line-closed": (LINE, closed_box([-1.0], [1.0]),
                    closed_box([-2.0], [2.0]), GridSpec(9, 4.0, 9)),
    "plane": (PLANE, SQUARE, open_box([-2.0, -2.0], [2.0, 2.0]),
              GridSpec(5, 4.0, 5)),
}


@pytest.mark.parametrize("case", sorted(WIDE_WINDOWS))
@pytest.mark.parametrize("cone", [False, True], ids=["box", "cone"])
def test_a_window_wider_than_the_box_is_representative(case, cone):
    A, C, V, g = WIDE_WINDOWS[case]
    v = verify_sum_representative(A, NormalConeBox(C) if cone else C, V, g)
    assert v.value
    assert v.witness_count == 0
    assert not v.vacuous


@pytest.mark.parametrize("case", sorted(WIDE_WINDOWS))
def test_box_and_cone_forms_agree_bit_for_bit(case):
    A, C, V, g = WIDE_WINDOWS[case]
    graph = add_normal_cone(A, C, g).graph_rows(V, g)
    zs = row_points(np.vstack([scan_rows(V, g)[::11], graph[::3]]))
    for z in zs:
        box = rho_square_eval(A, C, V, z, g)
        cone = rho_square_eval(A, NormalConeBox(C), V, z, g)
        assert box.value.hex() == cone.value.hex()
        assert box == cone
    assert any(rho_square_eval(A, C, V, z, g).value < INF for z in zs)
    assert verify_sum_representative(A, C, V, g) \
        == verify_sum_representative(A, NormalConeBox(C), V, g)


@pytest.mark.parametrize("C", [interval(0.0, 2.0, True, False),
                               closed_box([0.0], [INF])],
                         ids=["open", "unbounded"])
def test_rho_rejects_the_boxes_a_normal_cone_rejects(C):
    with pytest.raises(ValidationError):
        rho_square_eval(AbsSubdiff(1.0), C, WINDOW, pdp([1.0], [1.0]))


def test_rho_rejects_a_second_summand_of_another_kind():
    with pytest.raises(ValidationError):
        rho_square_eval(AbsSubdiff(1.0), "not a box", WINDOW,
                        pdp([1.0], [1.0]))


class TestVerifySum:
    def test_box_route_passes(self):
        v = verify_sum_representative(AbsSubdiff(1.0), BOX, WINDOW)
        assert bool(v.value)
        assert v.witnesses == ()
        assert v.approximate
        assert not v.vacuous
        assert "second term: exact box support" in v.notes

    def test_cone_operator_route_passes(self):
        g = GridSpec(resolution=11, dual_bound=4.0, dual_resolution=9)
        v = verify_sum_representative(AbsSubdiff(1.0), NormalConeBox(BOX),
                                      interval(0.0, 2.0), g)
        assert bool(v.value)
        assert "second term: exact box support" in v.notes

    def test_general_pair_route_passes_with_flag(self):
        g = GridSpec(resolution=11, dual_bound=3.0, dual_resolution=13)
        v = verify_sum_representative(AbsSubdiff(1.0), AbsSubdiff(1.0),
                                      interval(-1.0, 1.0), g)
        assert bool(v.value)
        assert v.approximate
        assert "second term: sampled envelope" in v.notes

    def test_non_monotone_summand_is_an_error(self):
        T = FiniteGraph([pdp([0.0], [1.0]), pdp([1.0], [0.0])])
        with pytest.raises(UnsatisfiedHypothesis) as err:
            verify_sum_representative(T, BOX, WINDOW)
        assert err.value.hypothesis == "the summand is monotone"

    def test_empty_sum_is_an_error(self):
        A = FiniteGraph([pdp([0.0], [0.0])])
        with pytest.raises(UnsatisfiedHypothesis) as err:
            verify_sum_representative(A, NormalConeBox(closed_box([5.0], [6.0])),
                                      interval(-1.0, 7.0))
        assert err.value.hypothesis == "the summands share a primal point"

    def test_empty_window_is_vacuous(self):
        g = GridSpec(resolution=5, dual_resolution=5)
        V = interval(5.0, 5.0, True, True)
        v = verify_sum_representative(AbsSubdiff(1.0),
                                      closed_box([0.0], [1.0]), V, g)
        assert v.value
        assert v.vacuous
        assert v.witness_count == 0
