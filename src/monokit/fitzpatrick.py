"""The two canonical convex functions attached to a restricted operator.

phi is the affine sup over the graph, psi the lower convex envelope of the
coupling on the graph. For finite graphs both are exact; for analytic kinds
phi has closed forms per kind while psi is built on the sampled graph and
reported approximate. The representative test scans the window-times-dual
grid for the equality band [h = c] and compares it with the graph.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import (Envelope, conjugate, envelope_eval, max_affine_eval_batch)
from .core import (INF, PrimalDualPoint, Tolerance, coupling, coupling_rows,
                   point_rows)
from .errors import BelowCoupling
from .operators import DEFAULT_GRID, OperatorHandle
from .regions import GridSpec, Region, grid_sample


def scan_grid(V: Region, g: GridSpec) -> list[PrimalDualPoint]:
    """The lattice over V x (clipped dual box), lexicographic in both parts."""
    primal = grid_sample(V, g)
    duals = g.dual_lattice(V.dimension)
    return [PrimalDualPoint(x, s) for x in primal for s in duals]


def phi_eval(T: OperatorHandle, V: Region | None, z: PrimalDualPoint,
             g: GridSpec | None = None) -> float:
    """sup over graph points w in V of z . w - <u, u*>; -inf when none.

    Closed form when the kind provides one for this window, otherwise the
    sup over the graph enumerated at g, which must then be given and which
    only bounds from below.
    """
    return T.phi(V, z, g)


def penot_envelope(T: OperatorHandle, V: Region | None,
                   g: GridSpec | None = None) -> tuple[Envelope, bool]:
    """Envelope data (w, <u, u*>) over the enumerated graph in V.

    The flag reports exactness: True when the enumeration is the whole
    graph, False when the kind was sampled.
    """
    pts = T.enumerate_graph(V, g or DEFAULT_GRID)
    env = Envelope(tuple((w, coupling(w)) for w in pts), T.dimension)
    return env, T.enumeration_exact


def psi_eval(T: OperatorHandle, V: Region | None, z: PrimalDualPoint,
             g: GridSpec | None = None) -> float:
    env, _ = penot_envelope(T, V, g)
    return envelope_eval(env, z)


def coupling_band(env: Envelope, zs: list[PrimalDualPoint], tol: Tolerance,
                  *, monotone_data: bool = False) -> list[PrimalDualPoint]:
    """Grid points where the envelope meets the coupling within eps_eq.

    With monotone_data the affine sup over the data minorizes the envelope
    up to eps_eq, so points with sup > c + 3 eps_eq are discarded without an
    exact evaluation. Without that guarantee every point is evaluated.
    """
    if not env.points or not zs:
        return []
    candidates = _near_band(env, zs, tol) if monotone_data else zs
    return [z for z in candidates
            if abs(envelope_eval(env, z) - coupling(z)) <= tol.eps_eq]


def _near_band(env: Envelope, zs: list[PrimalDualPoint],
               tol: Tolerance) -> list[PrimalDualPoint]:
    """The points of a nonempty zs where the affine sup over the envelope
    data is at most coupling + 3 eps_eq, in scan order.

    When the data is a monotone graph with its coupling values that sup
    minorizes the envelope, so every dropped point is off the band.
    """
    rows = point_rows(zs, zs[0].dimension)
    ell = max_affine_eval_batch(conjugate(env), rows)
    keep = np.nonzero(ell <= coupling_rows(rows) + 3.0 * tol.eps_eq)[0]
    return [zs[int(i)] for i in keep]


@dataclass(frozen=True)
class RepresentativeReport:
    """Result of matching the [h = c] grid band against a graph."""

    is_representative: bool
    mismatch_witnesses: tuple[PrimalDualPoint, ...]
    tolerances: Tolerance
    grid: GridSpec
    approximate: bool = False


def is_representative(h, T: OperatorHandle, V: Region, g: GridSpec,
                      tol: Tolerance, *,
                      assume_above_coupling: bool = False
                      ) -> RepresentativeReport:
    """Whether the grid trace of [h = c] over V x (dual clip) is the graph.

    Scans two inclusions: grid points with |h - c| <= eps_eq must be graph
    members within delta_dom, and enumerated graph points in the window must
    sit in that band. A value h < c - eps_strict raises BelowCoupling, a
    class failure distinct from a false verdict.

    assume_above_coupling may be set when h is the coupling envelope of a
    point set already verified pairwise monotone; it enables a sound sup
    prefilter (the affine sup minorizes the envelope in that case) so only
    near-band points pay for an exact evaluation.
    """
    zs = scan_grid(V, g)
    witnesses: list[PrimalDualPoint] = []
    if (assume_above_coupling and isinstance(h, Envelope) and h.points
            and zs):
        zs = _near_band(h, zs, tol)

    for z in zs:
        hv = h.evaluate(z)
        c = coupling(z)
        if hv < c - tol.eps_strict:
            raise BelowCoupling(
                f"candidate dips to {hv} below coupling {c}", witness=z)
        if abs(hv - c) <= tol.eps_eq and not T.graph_contains(z, tol):
            witnesses.append(z)

    for w in T.enumerate_graph(V, g):
        hv = h.evaluate(w)
        if hv == INF or abs(hv - coupling(w)) > tol.eps_eq:
            if w not in witnesses:
                witnesses.append(w)

    return RepresentativeReport(
        is_representative=not witnesses,
        mismatch_witnesses=tuple(witnesses),
        tolerances=tol,
        grid=g,
        approximate=not T.enumeration_exact,
    )
