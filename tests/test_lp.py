"""Equality-form simplex vs a brute-force basic-solution oracle and
scipy's linprog, and the lockstep solver vs a scalar tableau method.

The oracle enumerates every candidate basis of the constraint matrix,
solves for the basic variables, and keeps the best feasible objective.
On bounded instances with at most 8 columns it is exhaustive truth.
scipy.optimize.linprog (HiGHS) is a second, test-only oracle; its tests skip
where scipy is not installed.

reference_solve is the one-right-hand-side tableau simplex under the same
rules: solve_rows must reproduce it bit for bit on every row, errors
included.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monokit import (AbsSubdiff, GridSpec, check_v_representable, closed_box,
                     core, interval, lp, penot_envelope)
from monokit.convex import envelope_rows
from monokit.errors import LPNumericalError
from monokit.lp import (_COST_TOL, _FEAS_TOL, _PIVOT_TOL, LPSolution,
                        LPStatus, solve_rows)


def _ref_pivot(tableau, cost, basis, row, col):
    piv = tableau[row, col]
    if abs(piv) < _PIVOT_TOL:
        raise LPNumericalError(f"pivot element {piv:g} below threshold")
    tableau[row] /= piv
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    if cost[col] != 0.0:
        cost -= cost[col] * tableau[row]
    basis[row] = col


def _ref_iterate(tableau, cost, basis, ncols, bounded=False):
    """Run simplex pivots until optimal or unbounded. The most negative
    reduced cost enters, except right after a degenerate pivot, when the
    lowest-index negative one does; a bounded program prices only columns
    with an entry above the pivot threshold."""
    bland = False
    while True:
        entering = -1
        for j in range(ncols):
            if cost[j] < -_COST_TOL and (
                    not bounded or (tableau[:, j] > _PIVOT_TOL).any()):
                if bland:
                    entering = j
                    break
                if entering < 0 or cost[j] < cost[entering]:
                    entering = j
        if entering < 0:
            return LPStatus.OPTIMAL
        rows = [r for r in range(tableau.shape[0])
                if tableau[r, entering] > _PIVOT_TOL]
        if not rows:
            return LPStatus.UNBOUNDED
        ratios = {r: tableau[r, -1] / tableau[r, entering] for r in rows}
        best = min(ratios.values())
        leaving = min((r for r in rows if ratios[r] <= best + _PIVOT_TOL),
                      key=lambda r: basis[r])
        bland = tableau[leaving, -1] <= _PIVOT_TOL
        _ref_pivot(tableau, cost, basis, leaving, entering)


def reference_solve(objective, matrix, rhs) -> LPSolution:
    """Two-phase simplex. Infeasibility is a status, numerical trouble raises."""
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float).copy()
    c = np.asarray(objective, dtype=float)
    if a.ndim != 2:
        raise LPNumericalError("constraint matrix must be two dimensional")
    m, k = a.shape
    if c.shape != (k,) or b.shape != (m,):
        raise LPNumericalError("inconsistent problem shapes")
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise LPNumericalError("nonfinite data in problem")

    a = a.copy()
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    scale = max(1.0, float(np.abs(b).max(initial=0.0)))

    # Phase one: [A | I | b], minimize the sum of the artificials.
    tableau = np.hstack([a, np.eye(m), b[:, None]])
    basis = [k + i for i in range(m)]
    cost = np.zeros(k + m + 1)
    cost[k:k + m] = 1.0
    for r, bv in enumerate(basis):
        cost -= cost[bv] * tableau[r]
    status = _ref_iterate(tableau, cost, basis, k + m, bounded=True)
    assert status is LPStatus.OPTIMAL
    if -cost[-1] > _FEAS_TOL * scale:
        return LPSolution(LPStatus.INFEASIBLE, None, None)

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = []
    for r in range(m):
        if basis[r] < k:
            keep.append(r)
            continue
        swapped = False
        for j in range(k):
            if abs(tableau[r, j]) > _PIVOT_TOL:
                _ref_pivot(tableau, cost, basis, r, j)
                keep.append(r)
                swapped = True
                break
        if not swapped and abs(tableau[r, -1]) > _FEAS_TOL * scale:
            raise LPNumericalError("inconsistent redundant row in phase one")
    full_basis = list(basis)
    tableau = np.hstack([tableau[keep][:, :k], tableau[keep][:, -1:]])
    basis = [basis[r] for r in keep]

    # Phase two with the real objective.
    cost = np.zeros(k + 1)
    cost[:k] = c
    for r, bv in enumerate(basis):
        cost -= cost[bv] * tableau[r]
    status = _ref_iterate(tableau, cost, basis, k)
    if status is LPStatus.UNBOUNDED:
        return LPSolution(LPStatus.UNBOUNDED, None, None)

    # The tableau's x, then one correction solved from the basis columns of
    # [A | I] as given; a dropped row keeps its artificial column.
    for r, bv in zip(keep, basis):
        full_basis[r] = bv
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    x = np.zeros(k)
    for r, bv in enumerate(basis):
        x[bv] = tableau[r, -1]
    try:
        step = np.linalg.solve(np.hstack([a, np.eye(m)])[:, full_basis],
                               b - (a * x).sum(axis=1))
    except np.linalg.LinAlgError:
        raise LPNumericalError("singular final basis") from None
    for p, bv in enumerate(full_basis):
        if bv < k:
            x[bv] += step[p]
    if x.min(initial=0.0) < -_FEAS_TOL * scale:
        raise LPNumericalError(f"basic variable {x.min():.3e} below zero")
    residual = np.abs((a * x).sum(axis=1) - b)
    if residual.size and residual.max() > _FEAS_TOL * scale:
        raise LPNumericalError(
            f"solution residual {residual.max():.3e} exceeds {_FEAS_TOL:g}"
        )
    return LPSolution(LPStatus.OPTIMAL, x, float((x * c).sum()))


def oracle(obj, A, b):
    """Return (feasible, best_value) by basis enumeration, ignoring rays."""
    m, n = A.shape
    feasible = False
    best = None
    for cols in itertools.combinations(range(n), min(m, n)):
        sub = A[:, cols]
        if sub.shape[0] != sub.shape[1]:
            continue
        try:
            part = np.linalg.solve(sub, b)
        except np.linalg.LinAlgError:
            continue
        if (part < -1e-9).any():
            continue
        x = np.zeros(n)
        x[list(cols)] = part
        if np.abs(A @ x - b).max() > 1e-7:
            continue
        feasible = True
        v = float(obj @ x)
        if best is None or v < best:
            best = v
    return feasible, best


def test_textbook_instance():
    # min -3x1 - 5x2 s.t. x1 + s1 = 4, 2x2 + s2 = 12, 3x1 + 2x2 + s3 = 18
    A = np.array([
        [1.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 2.0, 0.0, 1.0, 0.0],
        [3.0, 2.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([4.0, 12.0, 18.0])
    obj = np.array([-3.0, -5.0, 0.0, 0.0, 0.0])
    sol = solve_rows(obj, A, [b])[0]
    assert sol.status is LPStatus.OPTIMAL
    assert sol.value == pytest.approx(-36.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
    assert sol.x[1] == pytest.approx(6.0, abs=1e-9)


def test_infeasible_detected():
    # x1 + x2 = -1 has no nonnegative solution
    sol = solve_rows(np.zeros(2), np.array([[1.0, 1.0]]), [[-1.0]])[0]
    assert sol.status is LPStatus.INFEASIBLE


def test_unbounded_detected():
    # min -x1 on the ray x1 = x2
    sol = solve_rows(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]),
                     [[0.0]])[0]
    assert sol.status is LPStatus.UNBOUNDED


def test_degenerate_cycle_guard():
    # classic degenerate vertex; Bland's rule must terminate
    A = np.array([
        [0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    obj = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    sol = solve_rows(obj, A, [b])[0]
    assert sol.status is LPStatus.OPTIMAL
    # optimum confirmed by the basis-enumeration oracle
    assert sol.value == pytest.approx(-0.77, abs=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_matches_basis_enumeration(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    n = int(rng.integers(m, 9))
    A = rng.uniform(-3, 3, (m, n)).round(2)
    b = rng.uniform(-3, 3, m).round(2)
    obj = rng.uniform(-2, 2, n).round(2)
    feasible, best = oracle(obj, A, b)
    sol = solve_rows(obj, A, [b])[0]
    if not feasible:
        assert sol.status is LPStatus.INFEASIBLE
        return
    assert sol.status is not LPStatus.INFEASIBLE
    if sol.status is LPStatus.OPTIMAL:
        assert best is not None
        assert sol.value == pytest.approx(best, abs=1e-6)
        # reported point must satisfy the constraints it claims to
        assert np.abs(A @ sol.x - b).max() < 1e-7
        assert (sol.x > -1e-9).all()


def test_phase_one_skips_columns_without_a_pivot():
    """Phase one is bounded below, so a column with a negative reduced cost
    and no entry above the pivot threshold is not priced: x = 0 is found
    instead of an unbounded phase one."""
    A = np.array([[1e-9, 0.0, 1.0, -1.0], [-2.0, 1.0, -2.0, 0.0]])
    sol = solve_rows(np.zeros(4), A, [np.zeros(2)])[0]
    assert sol.status is LPStatus.OPTIMAL
    assert sol.value == 0.0
    assert _outcome(sol) == _reference_outcome(np.zeros(4), A, np.zeros(2))


def test_programs_without_rows_or_columns():
    """With no equations the objective alone decides; with no variables
    only b = 0 is feasible."""
    no_rows = np.zeros((0, 1))
    ray = solve_rows(np.array([-1.0]), no_rows, [np.zeros(0)])[0]
    assert ray.status is LPStatus.UNBOUNDED
    sol = solve_rows(np.array([1.0]), no_rows, [np.zeros(0)])[0]
    assert sol.status is LPStatus.OPTIMAL and sol.value == 0.0
    no_cols = np.zeros((2, 0))
    sol = solve_rows(np.zeros(0), no_cols, [np.zeros(2)])[0]
    assert sol.status is LPStatus.OPTIMAL and sol.x.shape == (0,)
    gap = solve_rows(np.zeros(0), no_cols, [[1.0, 0.0]])[0]
    assert gap.status is LPStatus.INFEASIBLE


def test_solution_vector_matches_value():
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 1, (2, 6))
    b = A @ np.abs(rng.uniform(0, 1, 6))  # guaranteed feasible
    obj = rng.uniform(-1, 1, 6)
    sol = solve_rows(obj, A, [b])[0]
    if sol.status is LPStatus.OPTIMAL:
        assert float(obj @ sol.x) == pytest.approx(sol.value, abs=1e-8)


def _outcome(sol):
    """Everything a row's result says, down to the bits."""
    if isinstance(sol, LPNumericalError):
        return ("error", str(sol))
    return (sol.status, None if sol.x is None else sol.x.tobytes(),
            None if sol.value is None else sol.value.hex())


def _reference_outcome(obj, A, b):
    try:
        return _outcome(reference_solve(obj, A, b))
    except LPNumericalError as err:
        return _outcome(err)


# Few distinct magnitudes, so ties, degenerate vertices and near-zero
# pivots are common; -0.0 makes the sign of a zero in x observable.
_ENTRY = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 1e-9, -0.25])


@st.composite
def _lp_batches(draw):
    """A shared matrix and objective, and right-hand sides of mixed sign:
    some feasible by construction, some arbitrary (often infeasible). A
    duplicated or scaled data row makes the matrix rank deficient, so every
    feasible row leaves phase one with a row to drop; objectives with
    negative entries on unbounded feasible sets are unbounded."""
    m = draw(st.integers(1, 7))
    k = draw(st.integers(1, 12))
    A = np.array(draw(st.lists(_ENTRY, min_size=m * k, max_size=m * k)),
                 dtype=float).reshape(m, k)
    if m > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(m)))[:2]
        A[j] = A[i] * draw(st.sampled_from([1.0, -2.0, 0.5]))
    obj = np.array(draw(st.lists(_ENTRY, min_size=k, max_size=k)), dtype=float)
    rhs = []
    for _ in range(draw(st.integers(1, 9))):
        if draw(st.booleans()):
            x0 = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                        min_size=k, max_size=k)))
            rhs.append(A @ x0)
        else:
            rhs.append(np.array(draw(st.lists(_ENTRY, min_size=m,
                                              max_size=m))))
    return obj, A, np.array(rhs)


@given(_lp_batches(), st.sampled_from([None, 1, 40]))
@settings(max_examples=200, deadline=None)
def test_solve_rows_matches_reference_bit_for_bit(batch, block):
    """Each row of one lockstep call gives the scalar method's status, x
    bytes, value bits and error message, whatever the block size."""
    obj, A, rhs = batch
    want = [_reference_outcome(obj, A, b) for b in rhs]
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(core, "_BLOCK_ELEMS", block)
        got = [_outcome(sol) for sol in solve_rows(obj, A, rhs)]
    assert got == want
    for b, w in zip(rhs, want):
        assert _outcome(solve_rows(obj, A, b[None])[0]) == w


def test_rows_without_pivot_column_entry_stay_untouched():
    """Subtracting 0 * (pivot row) would turn a -0.0 entry into +0.0, and
    here that sign reaches x; only rows with a nonzero entry are updated,
    as in the scalar method."""
    obj = np.array([-0.25, 0.0, 0.5, -2.0, 0.5, 0.0])
    A = np.array([[3.0, 3.0, -0.0, 3.0, 1.0, 0.0],
                  [-0.0, -0.25, 0.0, 0.0, 0.0, 0.0],
                  [0.5, 0.5, 1e-09, 0.0, -0.0, 0.0]])
    rhs = np.array([[3.0, -0.0, 0.0], [0.0, -0.0, -0.0]])
    got = [_outcome(sol) for sol in solve_rows(obj, A, rhs)]
    assert got == [_reference_outcome(obj, A, b) for b in rhs]


def test_solve_rows_covers_every_outcome():
    """One batch with a rank-deficient matrix: a feasible row that drops a
    redundant row in phase one, an infeasible row, and, under a second
    objective, an unbounded row; all as the reference solves them."""
    A = np.array([[1.0, 1.0, 0.0, 0.0], [2.0, 2.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, -1.0]])
    rhs = np.array([[1.0, 2.0, 0.0], [1.0, 3.0, 0.0], [-1.0, -2.0, 0.5]])
    for obj in (np.array([1.0, 0.0, 1.0, 1.0]),
                np.array([0.0, 0.0, -1.0, 0.0])):
        got = solve_rows(obj, A, rhs)
        assert [_outcome(s) for s in got] == [
            _reference_outcome(obj, A, b) for b in rhs]
    bounded = solve_rows(np.array([1.0, 0.0, 1.0, 1.0]), A, rhs)
    assert [s.status for s in bounded] == [
        LPStatus.OPTIMAL, LPStatus.INFEASIBLE, LPStatus.INFEASIBLE]
    ray = solve_rows(np.array([0.0, 0.0, -1.0, 0.0]), A, rhs[:1])
    assert ray[0].status is LPStatus.UNBOUNDED


def test_solve_rows_reports_bad_rows_in_place():
    A = np.array([[1.0, 1.0]])
    got = solve_rows(np.zeros(2), A, np.array([[1.0], [np.nan], [-1.0]]))
    assert got[0].status is LPStatus.OPTIMAL
    assert isinstance(got[1], LPNumericalError)
    assert str(got[1]) == "nonfinite data in problem"
    assert got[2].status is LPStatus.INFEASIBLE
    assert solve_rows(np.zeros(2), A, np.zeros((0, 1))) == []
    with pytest.raises(LPNumericalError, match="inconsistent problem shapes"):
        solve_rows(np.zeros(2), A, np.zeros((2, 2)))


_LINPROG_STATUS = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE,
                   3: LPStatus.UNBOUNDED}


def _assert_agrees_with_linprog(obj, A, rhs, seed):
    """Every row's status equals linprog's, and optimal values agree to
    1e-9 relative (absolute below 1)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    for b, sol in zip(rhs, solve_rows(obj, A, rhs)):
        assert not isinstance(sol, LPNumericalError), (seed, b, sol)
        ref = linprog(obj, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert sol.status is _LINPROG_STATUS[ref.status], (seed, b)
        if sol.status is LPStatus.OPTIMAL:
            assert abs(sol.value - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun)), (
                seed, b, sol.value, ref.fun)


def test_random_lps_agree_with_linprog():
    """Rounded data, so ties and degenerate vertices occur; three feasible
    right-hand sides and three arbitrary ones per matrix."""
    for seed in range(60):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        k = int(rng.integers(m, 10))
        A = rng.uniform(-3, 3, (m, k)).round(2)
        obj = rng.uniform(-2, 2, k).round(2)
        feasible = rng.choice([0.0, 0.5, 1.0, 2.0], (3, k)) @ A.T
        rhs = np.vstack([feasible, rng.uniform(-3, 3, (3, m)).round(2)])
        _assert_agrees_with_linprog(obj, A, rhs, seed)


@pytest.mark.parametrize("dual_bound", [1.0, 1e3])
def test_envelope_lps_agree_with_linprog(dual_bound):
    """The envelope program with primal coordinates in [-2, 2] and dual
    ones up to dual_bound, at points inside the hull of the data, at
    points drawn from the whole box, most of them outside it, and at
    points with a zero coordinate, where phase one starts degenerate."""
    for seed in range(40):
        rng = np.random.default_rng([seed, 7])
        n = int(rng.integers(1, 3))
        k = int(rng.integers(2, 9))
        bound = np.r_[np.full(n, 2.0), np.full(n, dual_bound)]
        pts = rng.uniform(-bound, bound, (k, 2 * n))
        A = np.vstack([pts.T, np.ones(k)])
        inside = rng.dirichlet(np.ones(k), 4) @ pts
        anywhere = rng.uniform(-bound, bound, (4, 2 * n))
        obj = rng.uniform(-2, 2, k)
        zeroed = np.vstack([inside, anywhere])
        zeroed[np.arange(8), rng.integers(0, 2 * n, 8)] = 0.0
        rhs = np.hstack([np.vstack([inside, anywhere, zeroed]),
                         np.ones((16, 1))])
        _assert_agrees_with_linprog(obj, A, rhs, seed)


def test_pinned_v_representable_scan_takes_few_lockstep_steps(monkeypatch):
    """Dantzig pricing keeps the 161 x 161 scan of |x| on (-2, 2) under 80
    lockstep steps (244 under Bland's rule throughout); the verdict holds."""
    steps = []
    pivot = lp._pivot

    def counted(tab, cost, basis, live, lps, rows, cols):
        steps.append(lps.size)
        pivot(tab, cost, basis, live, lps, rows, cols)

    monkeypatch.setattr(lp, "_pivot", counted)
    verdict = check_v_representable(
        AbsSubdiff(1.0), interval(-2, 2, True, True),
        GridSpec(resolution=161, dual_resolution=161))
    assert verdict.value is True
    assert verdict.witnesses == () and verdict.witness_count == 0
    assert len(steps) <= 80


def test_degenerate_start_leaves_bland_pricing(monkeypatch):
    """The |x| envelope on [-0.59, 1.41] at resolution 161, at a point
    with a zero dual coordinate: phase one starts with a degenerate pivot,
    and pricing goes back to the most negative reduced cost after the
    first nondegenerate one (49 steps under Bland's rule for the rest of
    the phase)."""
    steps = []
    pivot = lp._pivot

    def counted(tab, cost, basis, live, lps, rows, cols):
        steps.append(lps.size)
        pivot(tab, cost, basis, live, lps, rows, cols)

    env, _ = penot_envelope(AbsSubdiff(1.0), closed_box((-0.59,), (1.41,)),
                            GridSpec(resolution=161, dual_resolution=161))
    monkeypatch.setattr(lp, "_pivot", counted)
    value = envelope_rows(env, np.array([[-0.0025, 0.0]]))
    assert value[0] == pytest.approx(0.0125, abs=1e-12)
    assert len(steps) <= 6
