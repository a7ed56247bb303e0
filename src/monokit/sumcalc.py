"""Sums of operators and the split-dual function that represents them.

For a summand A and a closed box C, the candidate representative of A + N_C
at z = (x, x*) is

    rho#(z) = min over u* of psi_A(x, u*) + indicator_C(x) + sigma_C(x* - u*),

the conjugate of the infimal convolution of the two coupling envelopes. The
minimum is searched over the dual lattice augmented with every dual value of
the enumerated summand graph, as sorted distinct rows; piecewise-affine
structure puts the true minimizer in that set for lattice evaluation
points. A general second summand replaces the support term with its sampled
envelope and the result is flagged approximate.

There is one sum construction, PairSum: add_normal_cone, operator_sum and the
sum_normal_cone spec kind all build it. verify_sum_representative checks the
sum its gate returns, and the split-dual minimum reads that PairSum: each
summand's own rows over the sum's joint window (PairSum._joint_window) come
from the pools the sum matches its graph rows from, built once per joint
window and grid. Sum membership is decided from the summands' dual fibers at
the point itself, at no grid at all.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import core
from .core import (INF, PrimalDualPoint, Tolerance, coupling_rows,
                   distinct_rows, point_rows)
from .errors import UnsatisfiedHypothesis, ValidationError
from .fitzpatrick import _coupling_envelope, _with_off_band, scan_rows
from .operators import (NormalConeBox, OperatorHandle, PairSum,
                        SumNormalCone, is_monotone, meets_domain,
                        with_defaults)
from .regions import Box, GridSpec, Region
from .verdicts import Property, finish


def add_normal_cone(A: OperatorHandle, C: Box,
                    g: GridSpec | None = None,
                    tol: Tolerance | None = None) -> PairSum:
    """The operator A + N_C; requires the domain of A to reach int C.

    tol is taken in the checkers' call shape; no margin is compared here,
    and PairSum matches primals at its own fixed radius.
    """
    g, _ = with_defaults(g, tol)
    if not isinstance(C, Box):
        raise ValidationError("the constraint set must be a box")
    # An invalid box is a ValidationError whatever the summand's domain.
    cone = NormalConeBox(C)
    if not meets_domain(A, C.interior(), g):
        raise UnsatisfiedHypothesis(
            "the summand domain meets the interior of the constraint set")
    return PairSum(A, cone)


def operator_sum(A: OperatorHandle, B: OperatorHandle,
                 g: GridSpec | None = None,
                 tol: Tolerance | None = None) -> PairSum:
    """The pointwise sum A + B; requires the summands to share a primal
    point at the sampling density of g, else raises UnsatisfiedHypothesis.

    tol is taken in the checkers' call shape; no margin is compared here,
    and PairSum matches primals at its own fixed radius.
    """
    g, _ = with_defaults(g, tol)
    out = PairSum(A, B)
    if not len(out.graph_rows(None, g)):
        raise UnsatisfiedHypothesis("the summands share a primal point")
    return out


class RhoValue(NamedTuple):
    """A split-dual minimum: the value, the minimizing u*, and whether any
    consumed term was sampled rather than closed form."""

    value: float
    split: tuple[float, ...] | None
    approximate: bool


class _RhoMachine:
    """The split-dual minimum of a PairSum: psi_A and the candidate duals
    come from its first summand, the second term from its second: the exact
    box support of a NormalConeBox, else its sampled envelope. Each summand's
    rows are its own over the sum's joint window, read from the pools the
    sum matches its graph rows from (PairSum._build)."""

    def __init__(self, S: PairSum, V: Region | None, g: GridSpec):
        n = self.dimension = S.dimension
        a, b = S._build(V, g)["pools"]
        graph = a.own
        self.env_a = _coupling_envelope(graph, n)
        # Listed first, the dual lattice's 0.0 stands for a summand's -0.0.
        cands = np.vstack([g.dual_rows(n), graph[:, n:]])
        cands = cands[distinct_rows(cands)[0]]
        self.candidates = cands[np.lexsort(cands.T[::-1])]
        self.approximate = not S.first.enumeration_exact
        self.cone = self.env_b = None
        if isinstance(S.second, NormalConeBox):
            self.cone = S.second.box
        else:
            self.env_b = _coupling_envelope(b.own, n)
            self.approximate = True

    def _second_rows(self, xs: np.ndarray, rest: np.ndarray) -> np.ndarray:
        """The second term at rows x and x* - u*: indicator_C(x) +
        sigma_C(x* - u*) for a box, else the sampled envelope."""
        if self.cone is not None:
            return np.where(self.cone.contains_rows(xs),
                            self.cone.support_rows(rest), INF)
        return self.env_b.evaluate_rows(np.hstack([xs, rest]))

    def values_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The split-dual minimum at every [x, x*] row, and the index into
        candidates of its first minimizer (-1 where the minimum is +inf).

        psi_A is evaluated once per distinct (x, u*) pair of the rows, in one
        row call, in the order a row-by-row scan first meets them; the
        second term only where psi_A is finite.
        """
        n, cands = self.dimension, self.candidates
        q = len(cands)
        values = np.full(len(rows), INF)
        split = np.full(len(rows), -1)
        first, inverse = distinct_rows(rows[:, :n])
        xs = rows[first, :n]
        pairs = np.hstack([np.repeat(xs, q, axis=0),
                           np.tile(cands, (len(xs), 1))])
        psi = self.env_a.evaluate_rows(pairs).reshape(-1, q)
        step = max(1, core._BLOCK_ELEMS // max(1, q * n))
        for s in range(0, len(rows), step):
            idx = np.arange(s, min(s + step, len(rows)))
            a = psi[inverse[idx]]
            b = np.full(a.shape, INF)
            hit = np.flatnonzero(a.reshape(-1) != INF)
            rest = (rows[idx, None, n:] - cands[None, :, :]).reshape(-1, n)
            b.reshape(-1)[hit] = self._second_rows(
                np.repeat(rows[idx, :n], q, axis=0)[hit], rest[hit])
            total = np.where((a != INF) & (b != INF), a + b, INF)
            j = total.argmin(axis=1)
            best = total[np.arange(idx.size), j]
            values[idx] = best
            split[idx] = np.where(best < INF, j, -1)
        return values, split

    def value(self, z: PrimalDualPoint) -> RhoValue:
        values, split = self.values_rows(point_rows([z], self.dimension))
        j = int(split[0])
        return RhoValue(float(values[0]),
                        tuple(self.candidates[j].tolist()) if j >= 0 else None,
                        self.approximate)


def _pair_sum(A: OperatorHandle, second, g: GridSpec | None = None,
              tol: Tolerance | None = None) -> PairSum:
    """The sum every split-dual evaluation reads: A + N_C for a closed box C,
    the pair sum for an operator. Given a grid, the sum its gate returns: a
    box needs the interior (add_normal_cone), an operator a shared primal
    point (operator_sum)."""
    if isinstance(second, Box):
        return (SumNormalCone(A, second) if g is None
                else add_normal_cone(A, second, g, tol))
    if isinstance(second, OperatorHandle):
        return (PairSum(A, second) if g is None
                else operator_sum(A, second, g, tol))
    raise ValidationError("second summand must be an operator or a closed box")


def rho_square_eval(A: OperatorHandle, second, V: Region | None,
                    z: PrimalDualPoint, g: GridSpec | None = None,
                    tol: Tolerance | None = None) -> RhoValue:
    """One split-dual minimum; see the module docstring for the candidates.

    second is either a closed box (exact support term; an open, unbounded
    or empty box raises ValidationError, as NormalConeBox does) or an
    operator (sampled envelope term, flagged approximate, unless it is a box
    normal cone). tol is taken in the checkers' call shape; the minimum
    compares no margin.
    """
    g, _ = with_defaults(g, tol)
    return _RhoMachine(_pair_sum(A, second), V, g).value(z)


def verify_sum_representative(A: OperatorHandle, second, V: Region,
                              g: GridSpec | None = None,
                              tol: Tolerance | None = None):
    """Scan the window grid for the three representative conditions.

    (a) the split minimum never drops below coupling - eps_eq, (b) points in
    its equality band belong to the sum graph, and (c) enumerated sum graph
    points sit in the band at a 10x widened margin absorbing the stacked LP
    layers. The summand must be monotone; a closed box additionally requires
    the domain to reach the interior of the box, and an operator a shared
    primal point. Each gate raises UnsatisfiedHypothesis. A window with no
    scan row and no sum graph point gives a vacuous verdict.
    """
    g, tol = with_defaults(g, tol)
    mono = is_monotone(A, tol, g)
    if not mono.value:
        raise UnsatisfiedHypothesis("the summand is monotone",
                                    f"witness pair {mono.witnesses[:1]}")
    S = _pair_sum(A, second, g, tol)
    machine = _RhoMachine(S, V, g)
    notes = []
    if machine.env_b is not None and (
            np.abs(machine.env_b.rows[:, A.dimension:]) > g.dual_bound).any():
        notes.append("second summand duals exceed the dual clip")
    notes.append("second term: exact box support" if machine.cone is not None
                 else "second term: sampled envelope")
    rows = scan_rows(V, g)
    graph = S.graph_rows(V, g)
    values, _ = machine.values_rows(np.vstack([rows, graph]))
    rho, c = values[:len(rows)], coupling_rows(rows)
    below = rho < c - tol.eps_eq
    band = np.abs(rho - c) <= tol.eps_eq
    pick = rows[below | band]
    fail = below[below | band] | ~S.graph_contains_rows(pick, tol)
    failures = _with_off_band(pick[fail], graph, values[len(rows):],
                              10.0 * tol.eps_eq)
    return finish(Property.V_REPRESENTABLE, failures,
                  approximate=machine.approximate or not S.enumeration_exact,
                  grid=g, tol=tol, region_ids=(V.describe(),),
                  vacuous=not len(rows) and not len(graph),
                  notes=tuple(notes))
