"""The two canonical convex functions attached to a restricted operator.

phi is the affine sup over the graph, psi the lower convex envelope of the
coupling on the graph. For finite graphs both are exact; for analytic kinds
phi has closed forms per kind while psi is built on the sampled graph and
reported approximate. The representative test scans the window-times-dual
grid for the equality band [h = c] and compares it with the graph.
"""
from __future__ import annotations

import numpy as np

from .convex import (Envelope, conjugate, envelope_eval, envelope_rows,
                     max_affine_eval_batch)
from .core import (INF, PrimalDualPoint, Tolerance, coupling, coupling_rows,
                   distinct_rows, mr_rows, point_rows, row_points)
from .errors import BelowCoupling
from .operators import OperatorHandle
from .regions import GridSpec, Region, grid_sample
from .verdicts import Property, Verdict, finish


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


def coupling_band(env: Envelope, zs: list[PrimalDualPoint],
                  tol: Tolerance) -> list[PrimalDualPoint]:
    """Grid points where the envelope meets the coupling within eps_eq.

    Points that _near_band proves off the band are discarded without an
    exact evaluation; every other point is evaluated.
    """
    if not zs:
        return []
    return band_points(env, point_rows(zs, zs[0].dimension), tol)


def band_points(env: Envelope, rows: np.ndarray,
                tol: Tolerance) -> list[PrimalDualPoint]:
    """coupling_band over [x, x*] rows; only the rows that reach the exact
    evaluation become points."""
    rows = rows[_near_band(env, rows, tol)]
    gap = np.abs(envelope_rows(env, rows) - coupling_rows(rows))
    return row_points(rows[gap <= tol.eps_eq])


def _near_band(env: Envelope, rows: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Mask of the rows that may lie on the band [env = coupling].

    When the data carries its coupling values and is pairwise monotone
    within eps_eq, the affine sup over it minorizes the envelope up to that
    margin (Fitzpatrick's phi <= psi), so rows where the sup exceeds
    coupling + 3 eps_eq are off the band. Both conditions are checked here,
    with the gap kernel is_monotone runs; when either fails, or there is no
    data, every row is kept.
    """
    keep = np.ones(len(rows), dtype=bool)
    if not env.points:
        return keep
    _, _, matrix, values = env._lp
    data = matrix[:-1].T
    if not (np.array_equal(values, coupling_rows(data))
            and mr_rows(data, data, tol.eps_eq).all()):
        return keep
    ell = max_affine_eval_batch(conjugate(env), rows)
    return ell <= coupling_rows(rows) + 3.0 * tol.eps_eq


def is_representative(h, T: OperatorHandle, V: Region, g: GridSpec,
                      tol: Tolerance) -> Verdict:
    """Whether the grid trace of [h = c] over V x (dual clip) is the graph.

    Scans two inclusions: grid points with |h - c| <= eps_eq must be graph
    members within delta_dom, and enumerated graph points in the window must
    sit in that band; the mismatches are the witnesses of a v_representable
    Verdict. A value h < c - eps_strict raises BelowCoupling, a class
    failure distinct from a false verdict. An Envelope h drops the rows
    _near_band proves off the band first. h is evaluated once per distinct
    point of the remaining scan rows and the graph, in one row call.
    """
    rows = scan_rows(V, g)
    if isinstance(h, Envelope):
        rows = rows[_near_band(h, rows, tol)]
    graph = T.enumerate_graph(V, g)
    both = np.vstack([rows, point_rows(graph, T.dimension)])
    first, inverse = distinct_rows(both)
    values = h.evaluate_rows(both[first])[inverse]
    hv, c = values[:len(rows)], coupling_rows(rows)

    below = hv < c - tol.eps_strict
    if below.any():
        i = int(below.argmax())
        raise BelowCoupling(
            f"candidate dips to {hv[i].item()} below coupling {c[i].item()}",
            witness=row_points(rows[i:i + 1])[0])
    witnesses = [z for z in row_points(rows[np.abs(hv - c) <= tol.eps_eq])
                 if not T.graph_contains(z, tol)]
    for w, wv in zip(graph, values[len(rows):].tolist()):
        if wv == INF or abs(wv - coupling(w)) > tol.eps_eq:
            if w not in witnesses:
                witnesses.append(w)
    return finish(Property.V_REPRESENTABLE, witnesses,
                  approximate=not T.enumeration_exact, grid=g, tol=tol,
                  region_ids=(V.describe(),))
