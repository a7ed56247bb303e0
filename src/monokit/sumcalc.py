"""Sums of operators and the split-dual function that represents them.

For a summand A and a closed box C, the candidate representative of A + N_C
at z = (x, x*) is

    rho#(z) = min over u* of psi_A(x, u*) + indicator_C(x) + sigma_C(x* - u*),

the conjugate of the infimal convolution of the two coupling envelopes. The
minimum is searched over the dual lattice augmented with every dual value of
the enumerated summand graph; piecewise-affine structure puts the true
minimizer in that set for lattice evaluation points. A general second
summand replaces the support term with its sampled envelope and the result
is flagged approximate.

There is one sum construction, PairSum: add_normal_cone, operator_sum and the
sum_normal_cone spec kind all build it. Sum membership is decided from the
summands' dual fibers at the point itself, at no grid at all.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import core
from .convex import Envelope
from .core import (INF, PrimalDualPoint, Tolerance, coupling, coupling_rows,
                   distinct_rows, point_rows, row_points)
from .errors import UnsatisfiedHypothesis, ValidationError
from .fitzpatrick import scan_rows
from .operators import (NormalConeBox, OperatorHandle, PairSum, is_monotone,
                        meets_domain, with_defaults)
from .regions import Box, GridSpec, Region
from .verdicts import Property, finish


def add_normal_cone(A: OperatorHandle, C: Box,
                    g: GridSpec | None = None,
                    tol: Tolerance | None = None) -> PairSum:
    """The operator A + N_C; requires the domain of A to reach int C."""
    g, tol = with_defaults(g, tol)
    if not isinstance(C, Box):
        raise ValidationError("the constraint set must be a box")
    if not meets_domain(A, C.interior(), g):
        raise UnsatisfiedHypothesis(
            "the summand domain meets the interior of the constraint set")
    return PairSum(A, NormalConeBox(C), match_tol=tol.delta_dom)


def operator_sum(A: OperatorHandle, B: OperatorHandle,
                 g: GridSpec | None = None,
                 tol: Tolerance | None = None) -> PairSum:
    """Pointwise sum with primal matching at the domain radius.

    An empty sum (no primal matches at sampling density) is legal; the
    handle carries an empty flag rather than raising.
    """
    g, tol = with_defaults(g, tol)
    out = PairSum(A, B, match_tol=tol.delta_dom)
    if not out.enumerate_graph(None, g):
        out = PairSum(A, B, match_tol=tol.delta_dom, empty=True)
    return out


class RhoValue(NamedTuple):
    """A split-dual minimum: the value, the minimizing u*, and whether any
    consumed term was sampled rather than closed form."""

    value: float
    split: tuple[float, ...] | None
    approximate: bool


class _RhoMachine:
    """Shared evaluator over the summand envelope and the candidate duals."""

    def __init__(self, A: OperatorHandle, second, V: Region | None,
                 g: GridSpec, tol: Tolerance):
        self.tol = tol
        n = self.dimension = A.dimension
        a_pts = A.enumerate_graph(V, g)
        self.env_a = Envelope(tuple((w, coupling(w)) for w in a_pts), n)
        cands = set(g.dual_lattice(n))
        cands.update(w.xstar for w in a_pts)
        self.candidates = sorted(cands)
        self._cand_rows = np.array(self.candidates, dtype=float).reshape(-1, n)
        self.approximate = not A.enumeration_exact
        if isinstance(second, Box):
            self.cone: Box | None = second
            self.env_b = None
        elif isinstance(second, NormalConeBox):
            self.cone = second.box
            self.env_b = None
        elif isinstance(second, OperatorHandle):
            self.cone = None
            b_pts = second.enumerate_graph(V, g)
            self.env_b = Envelope(
                tuple((w, coupling(w)) for w in b_pts), n)
            self.approximate = True
        else:
            raise ValidationError(
                "second summand must be an operator or a closed box")

    def values_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The split-dual minimum at every [x, x*] row, and the index into
        candidates of its first minimizer (-1 where the minimum is +inf).

        psi_A is evaluated once per distinct (x, u*) pair of the rows whose
        x lies in the cone, in one row call, in the order a row-by-row scan
        first meets them.
        """
        n, cands = self.dimension, self._cand_rows
        q = len(cands)
        values = np.full(len(rows), INF)
        split = np.full(len(rows), -1)
        first, inverse = distinct_rows(rows[:, :n])
        xs = rows[first, :n]
        keep = np.ones(len(xs), dtype=bool)
        if self.cone is not None:
            keep[:] = [self.cone.contains(x) for x in xs.tolist()]
        pairs = np.hstack([np.repeat(xs[keep], q, axis=0),
                           np.tile(cands, (int(keep.sum()), 1))])
        psi = self.env_a.evaluate_rows(pairs).reshape(-1, q)
        slot = np.cumsum(keep) - 1
        live = np.flatnonzero(keep[inverse])
        step = max(1, core._BLOCK_ELEMS // max(1, q * n))
        for s in range(0, live.size, step):
            idx = live[s:s + step]
            a = psi[slot[inverse[idx]]]
            rest = rows[idx, None, n:] - cands[None, :, :]
            if self.cone is not None:
                b = self.cone.support_rows(rest.reshape(-1, n)).reshape(a.shape)
            else:
                # The sampled envelope is evaluated only where psi_A is finite.
                b = np.full(a.shape, INF)
                hit = np.flatnonzero(a.reshape(-1) != INF)
                zb = np.hstack([np.repeat(rows[idx, :n], q, axis=0)[hit],
                                rest.reshape(-1, n)[hit]])
                b.reshape(-1)[hit] = self.env_b.evaluate_rows(zb)
            total = np.where((a != INF) & (b != INF), a + b, INF)
            j = total.argmin(axis=1)
            best = total[np.arange(idx.size), j]
            values[idx] = best
            split[idx] = np.where(best < INF, j, -1)
        return values, split

    def value(self, z: PrimalDualPoint) -> RhoValue:
        values, split = self.values_rows(point_rows([z], self.dimension))
        j = int(split[0])
        return RhoValue(float(values[0]), self.candidates[j] if j >= 0 else None,
                        self.approximate)


def rho_square_eval(A: OperatorHandle, second, V: Region | None,
                    z: PrimalDualPoint, g: GridSpec | None = None,
                    tol: Tolerance | None = None) -> RhoValue:
    """One split-dual minimum; see the module docstring for the candidates.

    second is either a closed box (exact support term) or an operator
    (sampled envelope term, flagged approximate).
    """
    g, tol = with_defaults(g, tol)
    return _RhoMachine(A, second, V, g, tol).value(z)


def verify_sum_representative(A: OperatorHandle, second, V: Region,
                              g: GridSpec | None = None,
                              tol: Tolerance | None = None):
    """Scan the window grid for the three representative conditions.

    (a) the split minimum never drops below coupling - eps_eq, (b) points in
    its equality band belong to the sum graph, and (c) enumerated sum graph
    points sit in the band at a 10x widened margin absorbing the stacked LP
    layers. The summand must be monotone; the box construction additionally
    requires the domain to reach the interior of the box; an empty pair sum
    cannot be verified. Each gate raises UnsatisfiedHypothesis.
    """
    g, tol = with_defaults(g, tol)
    mono = is_monotone(A, tol, g)
    if not mono.value:
        raise UnsatisfiedHypothesis("the summand is monotone",
                                    f"witness pair {mono.witnesses[:1]}")
    notes = []
    if isinstance(second, Region):
        if not isinstance(second, Box):
            raise ValidationError("the constraint set must be a box")
        S: OperatorHandle = add_normal_cone(A, second, g, tol)
        notes.append("second term: exact box support")
    elif isinstance(second, NormalConeBox):
        S = operator_sum(A, second, g, tol)
        if S.empty:
            raise UnsatisfiedHypothesis("the summands share a primal point")
        notes.append("second term: exact box support")
    elif isinstance(second, OperatorHandle):
        S = operator_sum(A, second, g, tol)
        if S.empty:
            raise UnsatisfiedHypothesis("the summands share a primal point")
        duals = [w.xstar for w in second.enumerate_graph(V, g)]
        bound = max((max(abs(c) for c in d) for d in duals), default=0.0)
        if bound > g.dual_bound:
            notes.append("second summand duals exceed the dual clip")
        notes.append("second term: sampled envelope")
    else:
        raise ValidationError(
            "second summand must be an operator or a closed box")

    machine = _RhoMachine(A, second, V, g, tol)
    rows = scan_rows(V, g)
    graph = S.enumerate_graph(V, g)
    values, _ = machine.values_rows(
        np.vstack([rows, point_rows(graph, S.dimension)]))
    rho, c = values[:len(rows)], coupling_rows(rows)
    below = rho < c - tol.eps_eq
    band = np.abs(rho - c) <= tol.eps_eq
    pick = below | band
    failures = [z for z, low in zip(row_points(rows[pick]), below[pick])
                if low or not S.graph_contains(z, tol)]
    for w, wv in zip(graph, values[len(rows):].tolist()):
        if abs(wv - coupling(w)) > 10.0 * tol.eps_eq:
            if w not in failures:
                failures.append(w)
    return finish(Property.V_REPRESENTABLE, failures,
                  approximate=machine.approximate or not S.enumeration_exact,
                  grid=g, tol=tol, region_ids=(V.describe(),),
                  notes=tuple(notes) or ("sum construction",))
