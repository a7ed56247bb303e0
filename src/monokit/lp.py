"""Dense two-phase simplex for small equality-form linear programs, run in
lockstep over many right-hand sides.

Solves min c.x subject to A x = b, x >= 0 for one objective c and one matrix
A at every row b of an (N, m) array. Instances here are tiny (a handful of
rows, up to a few hundred columns), so each right-hand side gets a dense
tableau of its own, one slice of a 3-D array, and the tableaus pivot
together: each step picks every active tableau's entering column and
leaving row, then pivots them all at once. Every rule is applied tableau by
tableau, in the order and with the arithmetic of a one-tableau simplex, so
each row's outcome is bit for bit the one it gets when solved alone, and
never depends on the rows beside it. Bland's rule keeps it deterministic:
the entering variable is the lowest index with a negative reduced cost, and
ratio ties pick the leaving row whose basic variable has the lowest index.
Bland's rule also rules out cycling. `solve` is the one-row call.
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


def _leaving_rows(tab, basis, live, lps, cols):
    """The ratio test of every tableau in lps on its entering column, one
    row at a time in row order; -1 where no row qualifies."""
    col = tab[lps, :, cols]
    bas = basis[lps]
    # Rows that fail the pivot test get a NaN ratio, which no comparison
    # takes; while nothing is picked, best is inf and no ratio ties it.
    ok = live[lps] & (col > _PIVOT_TOL)
    ratio = np.divide(tab[lps, :, -1], col, out=np.full(col.shape, np.nan),
                      where=ok)
    best = np.full(lps.size, np.inf)
    pick = np.full(lps.size, -1)
    pick_bas = np.zeros(lps.size, dtype=bas.dtype)
    for r in np.flatnonzero(ok.any(axis=0)):
        rr = ratio[:, r]
        take = (rr < best - _PIVOT_TOL) | (
            (np.abs(rr - best) <= _PIVOT_TOL) & (bas[:, r] < pick_bas))
        best = np.where(take, rr, best)
        pick = np.where(take, r, pick)
        pick_bas = np.where(take, bas[:, r], pick_bas)
    return pick


def _iterate(tab, cost, basis, live, lps, ncols):
    """Pivot the tableaus in lps (sorted) until each is optimal or
    unbounded, Bland's rule throughout; returns the (optimal, unbounded)
    tableau indices, the optimal ones sorted."""
    optimal, unbounded = [lps[:0]], [lps[:0]]
    while lps.size:
        neg = cost[lps, :ncols] < -_COST_TOL
        going = neg.any(axis=1)
        optimal.append(lps[~going])
        lps, cols = lps[going], neg[going].argmax(axis=1)
        rows = _leaving_rows(tab, basis, live, lps, cols)
        stuck = rows < 0
        unbounded.append(lps[stuck])
        lps, rows, cols = lps[~stuck], rows[~stuck], cols[~stuck]
        if lps.size:
            _pivot(tab, cost, basis, live, lps, rows, cols)
    return np.sort(np.concatenate(optimal)), np.concatenate(unbounded)


def _solve_block(c, a, rhs) -> list:
    """Two-phase simplex at every row of rhs, one result per row. Equations
    with a negative right-hand side are negated for phase one; the residual
    is checked against the rows as given."""
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
    feasible, stuck = _iterate(tab, cost, basis, live, np.arange(len(b)),
                               k + m)
    for i in stuck:
        out[i] = LPNumericalError("phase one terminated without an optimum")
    short = -cost[feasible, -1] > _FEAS_TOL * scale[feasible]
    for i in feasible[short]:
        out[i] = LPSolution(LPStatus.INFEASIBLE, None, None)
    feasible = feasible[~short]

    # Drive leftover artificials out of the basis; mask redundant rows.
    for r in range(m):
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

    # Phase two with the real objective.
    cost[feasible] = 0.0
    cost[feasible, :k] = c
    for r in range(m):
        f = cost[feasible, basis[feasible, r]]
        cost[feasible] = np.where(live[feasible, r, None],
                                  cost[feasible] - f[:, None] * tab[feasible, r],
                                  cost[feasible])
    done, rays = _iterate(tab, cost, basis, live, feasible, k)
    for i in rays:
        out[i] = LPSolution(LPStatus.UNBOUNDED, None, None)

    for i in done:
        x = np.zeros(k)
        x[basis[i, live[i]]] = tab[i, live[i], -1]
        residual = np.abs(a @ x - rhs[i])
        if residual.size and residual.max() > _FEAS_TOL * scale[i]:
            out[i] = LPNumericalError(
                f"solution residual {residual.max():.3e} exceeds {_FEAS_TOL:g}")
        else:
            out[i] = LPSolution(LPStatus.OPTIMAL, x, float(c @ x))
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
    finite = np.isfinite(rhs).all(axis=1)
    if not (np.isfinite(a).all() and np.isfinite(c).all()):
        finite[:] = False
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
