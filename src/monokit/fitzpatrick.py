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
                   point_rows, row_points)
from .errors import BelowCoupling
from .operators import OperatorHandle
from .regions import GridSpec, Region, grid_sample


def scan_rows(V: Region, g: GridSpec) -> np.ndarray:
    """The lattice over V x (clipped dual box) as an (N, 2n) array of
    [x, x*] rows, lexicographic in both parts; the one lattice builder."""
    n = V.dimension
    primal = np.array(grid_sample(V, g), dtype=float).reshape(-1, n)
    duals = np.array(g.dual_lattice(n), dtype=float)
    pairs = np.broadcast_arrays(primal[:, None, :], duals[None, :, :])
    return np.concatenate(pairs, axis=2).reshape(-1, 2 * n)


def scan_grid(V: Region, g: GridSpec) -> list[PrimalDualPoint]:
    """The scan lattice as points, in scan_rows order."""
    return row_points(scan_rows(V, g))


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
    pts = T._enumerate(V, g)
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
    if not zs:
        return []
    return band_points(env, point_rows(zs, zs[0].dimension), tol,
                       monotone_data)


def band_points(env: Envelope, rows: np.ndarray, tol: Tolerance,
                monotone_data: bool) -> list[PrimalDualPoint]:
    """coupling_band over [x, x*] rows; only the rows that reach the exact
    evaluation become points."""
    if monotone_data:
        rows = rows[_near_band(env, rows, tol)]
    return [z for z, c in zip(row_points(rows), coupling_rows(rows).tolist())
            if abs(envelope_eval(env, z) - c) <= tol.eps_eq]


def _near_band(env: Envelope, rows: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Mask of the rows where the affine sup over the envelope data is at
    most coupling + 3 eps_eq.

    When the data is a monotone graph with its coupling values that sup
    minorizes the envelope, so every dropped row is off the band.
    """
    ell = max_affine_eval_batch(conjugate(env), rows)
    return ell <= coupling_rows(rows) + 3.0 * tol.eps_eq


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
    rows = scan_rows(V, g)
    if assume_above_coupling and isinstance(h, Envelope):
        rows = rows[_near_band(h, rows, tol)]

    witnesses: list[PrimalDualPoint] = []
    for z, c in zip(row_points(rows), coupling_rows(rows).tolist()):
        hv = h.evaluate(z)
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
