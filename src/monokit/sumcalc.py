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

from .convex import Envelope, envelope_eval
from .core import (INF, PrimalDualPoint, Tolerance, coupling, coupling_rows,
                   row_points)
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
    """Shared evaluator with the summand envelope and psi values memoized."""

    def __init__(self, A: OperatorHandle, second, V: Region | None,
                 g: GridSpec, tol: Tolerance):
        self.tol = tol
        n = A.dimension
        a_pts = A.enumerate_graph(V, g)
        self.env_a = Envelope(tuple((w, coupling(w)) for w in a_pts), n)
        cands = set(g.dual_lattice(n))
        cands.update(w.xstar for w in a_pts)
        self.candidates = sorted(cands)
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
        self._psi_a: dict[PrimalDualPoint, float] = {}

    def psi_a(self, w: PrimalDualPoint) -> float:
        if w not in self._psi_a:
            self._psi_a[w] = envelope_eval(self.env_a, w)
        return self._psi_a[w]

    def second_value(self, x, rest) -> float:
        if self.cone is not None:
            return self.cone.support(rest)
        return envelope_eval(self.env_b, PrimalDualPoint(x, rest))

    def value(self, z: PrimalDualPoint) -> RhoValue:
        if self.cone is not None and not self.cone.contains(z.x):
            return RhoValue(INF, None, self.approximate)
        best, best_split = INF, None
        for u in self.candidates:
            a = self.psi_a(PrimalDualPoint(z.x, u))
            if a == INF:
                continue
            rest = tuple(s - t for s, t in zip(z.xstar, u))
            b = self.second_value(z.x, rest)
            if b == INF:
                continue
            total = a + b
            if total < best:
                best, best_split = total, u
        return RhoValue(best, best_split, self.approximate)


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
    failures = []
    rows = scan_rows(V, g)
    for z, c in zip(row_points(rows), coupling_rows(rows).tolist()):
        rv = machine.value(z)
        if rv.value < c - tol.eps_eq or (abs(rv.value - c) <= tol.eps_eq
                                         and not S.graph_contains(z, tol)):
            failures.append(z)
    for w in S.enumerate_graph(V, g):
        rv = machine.value(w)
        if abs(rv.value - coupling(w)) > 10.0 * tol.eps_eq:
            if w not in failures:
                failures.append(w)
    return finish(Property.V_REPRESENTABLE, failures,
                  approximate=machine.approximate or not S.enumeration_exact,
                  grid=g, tol=tol, region_ids=(V.describe(),),
                  notes=tuple(notes) or ("sum construction",))
