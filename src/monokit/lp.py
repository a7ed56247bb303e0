"""Dense two-phase simplex for small equality-form linear programs, run in
lockstep over many right-hand sides.

Solves min c.x subject to A x = b, x >= 0 for one objective c and one matrix
A at every row b of an (N, m) array. Instances here are tiny (a handful of
rows, up to a few hundred columns), so each right-hand side gets a dense
tableau of its own, one slice of a 3-D array, and the tableaus pivot
together: each step picks every active tableau's entering column and
leaving row, then pivots them all at once. Every rule reads one tableau
only, so each row's outcome is bit for bit the one it gets when solved
alone, and never depends on the rows beside it. `solve` is the one-row call.

Pricing is Dantzig's, the most negative reduced cost enters, except right
after a degenerate pivot (its leaving row's right-hand side is at most the
pivot threshold): then the lowest-index negative one enters, Bland's rule,
until a pivot is nondegenerate again. A run of degenerate pivots under
Bland's rule is finite (Bland 1977, "New finite pivoting rules for the
simplex method"), and a nondegenerate pivot strictly lowers the objective,
which no pivot raises, so no earlier basis recurs and the method ends.
Phase one is bounded below, so it prices only columns with an entry above
the pivot threshold. The ratio test takes the least ratio over rows with an
entry above the threshold; ties within it go to the row whose basic
variable has the lowest index, as Bland's rule needs.

At the optimum, x is read off the tableau and then corrected by one solve
with the final basis columns of the data, so that the rounding a tableau
gathers over its pivots does not reach x. A singular basis, a basic
variable below -_FEAS_TOL * scale or a residual above _FEAS_TOL * scale
raises LPNumericalError for that row, where scale is the largest of 1 and
the magnitudes of the row's right-hand side.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import core
from .errors import LPNumericalError

_COST_TOL = 1e-11
_PIVOT_TOL = 1e-11
_FEAS_TOL = 1e-9
# The ratio test's sentinel for rows that are no tie: above every index.
_NO_TIE = np.iinfo(np.intp).max


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPProblem:
    """min objective . x  s.t.  eq_matrix x = eq_rhs, x >= 0."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray


@dataclass(frozen=True)
class LPSolution:
    status: LPStatus
    x: np.ndarray | None
    value: float | None


def _pivot(tab, cost, basis, live, lps, rows, cols):
    """Pivot tableau lps[i] on (rows[i], cols[i]) for every i; lps is
    sorted. A live row is updated only where its entry in the pivot column
    is nonzero, the cost only where its entry there is nonzero."""
    whole = lps.size == len(tab)
    t, c = (tab, cost) if whole else (tab[lps], cost[lps])
    at = np.arange(lps.size)
    prow = t[at, rows] / t[at, rows, cols][:, None]
    t[at, rows] = prow
    f = t[at, :, cols]
    hit = (f != 0.0) & live[lps]
    hit[at, rows] = False
    np.subtract(t, f[:, :, None] * prow[:, None, :], out=t,
                where=hit[:, :, None])
    cf = c[at, cols]
    np.subtract(c, cf[:, None] * prow, out=c, where=(cf != 0.0)[:, None])
    if not whole:
        tab[lps], cost[lps] = t, c
    basis[lps, rows] = cols


def _iterate(tab, cost, basis, live, ncols, bounded=False):
    """Pivot every tableau until it is optimal or unbounded; returns the
    sorted (optimal, unbounded) tableau indices. Dantzig's rule prices,
    except right after a degenerate pivot, when Bland's rule does: a run of
    degenerate pivots is then finite, and the pivot that ends it lowers the
    objective. Phase one (bounded, every row live) prices only columns with
    an entry above the pivot threshold, so none of its tableaus is
    unbounded. The tableaus still pivoting are compact copies that a step
    pivots whole; a tableau is written back when it stops."""
    at = lps = np.arange(len(tab))
    if not (ncols and tab.shape[1]):  # nothing to price, or no row to leave
        ray = (cost[:, :ncols] < -_COST_TOL).any(axis=1)
        return lps[~ray], lps[ray]
    t, c, bs, lv, bland, ray = tab, cost, basis, live, lps < 0, lps < 0
    while lps.size:
        red = c[:, :ncols]
        neg = red < -_COST_TOL
        if bounded:
            neg &= np.fmax.reduce(t[:, :, :ncols], axis=1) > _PIVOT_TOL
        cols = np.where(bland, neg.argmax(axis=1),
                        np.where(neg, red, np.inf).argmin(axis=1))
        # The ratio test, over live rows with an entry above the threshold.
        col = t[at, :, cols]
        ok = lv & (col > _PIVOT_TOL)
        ratio = np.divide(t[:, :, -1], col, out=np.full(col.shape, np.inf),
                          where=ok)
        tie = ok & (ratio <= ratio.min(axis=1, keepdims=True) + _PIVOT_TOL)
        rows = np.where(tie, bs, _NO_TIE).argmin(axis=1)
        going = neg.any(axis=1)
        go = going & ok.any(axis=1)
        if not go.all():
            stop = lps[~go]
            tab[stop], cost[stop], basis[stop] = t[~go], c[~go], bs[~go]
            ray[lps[going & ~go]] = True
            lps, t, c, bs, lv, rows, cols = (
                v[go] for v in (lps, t, c, bs, lv, rows, cols))
            if not lps.size:
                break
            at = np.arange(lps.size)
        bland = t[at, rows, -1] <= _PIVOT_TOL
        _pivot(t, c, bs, lv, at, rows, cols)
    return np.flatnonzero(~ray), np.flatnonzero(ray)


def _outcomes(c, a, rhs, basis, start, scale) -> list:
    """The optimal outcome of every row from its final basis and the
    tableau's basic values (start, 0 at masked rows).

    x is start plus one correction, solved from the basis columns of the
    data [A | I] against the residual of the rows as given, so that a
    tableau that drifted from its data is brought back to it. A masked row
    keeps an artificial column in the basis, whose value stays out of x. A
    singular basis, a basic variable below zero or a residual beyond the
    tolerance raises.
    """
    n, m = basis.shape
    k = a.shape[1]
    at = np.arange(n)[:, None]
    x = np.zeros((n, k + m))
    x[at, basis] = start
    mat = np.hstack([a, np.eye(m)])[:, basis].transpose(1, 0, 2)
    gap = rhs - (a * x[:, None, :k]).sum(axis=2)
    try:
        step = np.linalg.solve(mat, gap[:, :, None])[:, :, 0]
        solvable = np.ones(n, dtype=bool)
    except np.linalg.LinAlgError:  # some basis is singular: find which
        solvable = np.linalg.slogdet(mat)[0] != 0.0
        step = np.zeros((n, m))
        step[solvable] = np.linalg.solve(mat[solvable],
                                         gap[solvable, :, None])[:, :, 0]
    x[at, basis] += step
    x = np.ascontiguousarray(x[:, :k])
    low = x.min(axis=1, initial=0.0)
    residual = np.abs((a * x[:, None, :]).sum(axis=2) - rhs).max(
        axis=1, initial=0.0)
    value = (x * c).sum(axis=1)
    bound = _FEAS_TOL * scale
    out: list = [LPSolution(LPStatus.OPTIMAL, xi, v)
                 for xi, v in zip(x, value.tolist())]
    for i in np.flatnonzero(~(solvable & (low >= -bound)
                              & (residual <= bound))):
        out[i] = LPNumericalError(
            "singular final basis" if not solvable[i]
            else f"basic variable {low[i]:.3e} below zero" if low[i] < -bound[i]
            else f"solution residual {residual[i]:.3e} exceeds {_FEAS_TOL:g}")
    return out


def _solve_block(c, a, rhs) -> list:
    """Two-phase simplex at every row of rhs, one result per row. Equations
    with a negative right-hand side are negated for the tableau; x is solved
    and checked against the rows as given."""
    m, k = a.shape
    out: list = [None] * len(rhs)
    flip = rhs < 0
    b = np.where(flip, -rhs, rhs)
    scale = np.maximum(1.0, np.abs(b).max(axis=1, initial=0.0))

    # Phase one: [A | I | b] per row, minimize the sum of the artificials.
    tab = np.zeros((len(b), m, k + m + 1))
    tab[:, :, :k] = np.where(flip[:, :, None], -a, a)
    tab[:, np.arange(m), k + np.arange(m)] = 1.0
    tab[:, :, -1] = b
    basis = np.tile(k + np.arange(m), (len(b), 1))
    live = np.ones((len(b), m), dtype=bool)
    cost = np.zeros((len(b), k + m + 1))
    cost[:, k:k + m] = 1.0
    for r in range(m):
        cost -= cost[:, k + r, None] * tab[:, r]
    feasible, _ = _iterate(tab, cost, basis, live, k + m, bounded=True)
    short = -cost[feasible, -1] > _FEAS_TOL * scale[feasible]
    for i in feasible[short]:
        out[i] = LPSolution(LPStatus.INFEASIBLE, None, None)
    feasible = feasible[~short]

    # Drive leftover artificials out of the basis; mask redundant rows.
    for r in np.flatnonzero((basis[feasible] >= k).any(axis=0)):
        lps = feasible[basis[feasible, r] >= k]
        big = np.abs(tab[lps, r, :k]) > _PIVOT_TOL
        found = big.any(axis=1)
        if found.any():
            _pivot(tab, cost, basis, live, lps[found], np.full(found.sum(), r),
                   big[found].argmax(axis=1))
        lost = lps[~found]
        bad = np.abs(tab[lost, r, -1]) > _FEAS_TOL * scale[lost]
        for i in lost[bad]:
            out[i] = LPNumericalError("inconsistent redundant row in phase one")
        live[lost, r] = False
        if bad.any():
            feasible = np.setdiff1d(feasible, lost[bad])

    # Phase two with the real objective, on the feasible tableaus alone.
    tab, basis, live = tab[feasible], basis[feasible], live[feasible]
    cost = np.zeros((feasible.size, k + m + 1))
    cost[:, :k] = c
    at = np.arange(feasible.size)
    for r in range(m):
        cost = np.where(live[:, r, None],
                        cost - cost[at, basis[:, r], None] * tab[:, r], cost)
    done, rays = _iterate(tab, cost, basis, live, k)
    for i in feasible[rays]:
        out[i] = LPSolution(LPStatus.UNBOUNDED, None, None)
    start = np.where(live[done], tab[done, :, -1], 0.0)
    rows = feasible[done]
    for i, sol in zip(rows, _outcomes(c, a, rhs[rows], basis[done], start,
                                      scale[rows])):
        out[i] = sol
    return out


def solve_rows(objective, matrix, rhs_rows) -> list[LPSolution | LPNumericalError]:
    """Two-phase simplex at every row of rhs_rows, in lockstep.

    One entry per row: its LPSolution, or the LPNumericalError that solving
    that row alone raises. Infeasibility is a status. A malformed matrix,
    objective or array of rows raises for the whole call.
    """
    a = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs_rows, dtype=float)
    c = np.asarray(objective, dtype=float)
    if a.ndim != 2:
        raise LPNumericalError("constraint matrix must be two dimensional")
    m, k = a.shape
    if c.shape != (k,) or rhs.ndim != 2 or rhs.shape[1] != m:
        raise LPNumericalError("inconsistent problem shapes")
    out: list = [None] * len(rhs)
    finite = (np.isfinite(rhs).all(axis=1) & np.isfinite(a).all()
              & np.isfinite(c).all())
    for i in np.flatnonzero(~finite):
        out[i] = LPNumericalError("nonfinite data in problem")
    todo = np.flatnonzero(finite)
    step = max(1, core._BLOCK_ELEMS // max(1, m * (k + m + 1)))
    for s in range(0, todo.size, step):
        idx = todo[s:s + step]
        for i, sol in zip(idx, _solve_block(c, a, rhs[idx])):
            out[i] = sol
    return out


def solve(problem: LPProblem) -> LPSolution:
    """Two-phase simplex. Infeasibility is a status, numerical trouble raises."""
    out = solve_rows(problem.objective, problem.eq_matrix,
                     np.asarray(problem.eq_rhs, dtype=float)[None])[0]
    if isinstance(out, LPNumericalError):
        raise out
    return out
