"""The two canonical convex functions attached to a restricted operator.

phi is the affine sup over the graph, psi the lower convex envelope of the
coupling on the graph. For finite graphs both are exact; for analytic kinds
phi has closed forms per kind while psi is built on the sampled graph and
reported approximate. The representative test scans the window-times-dual
grid for the equality band [h = c] and compares it with the graph, on rows.

The envelope's LPs are solved only where Fitzpatrick's inequality leaves
the band open. When the envelope carries the coupling of data that is
monotone within eps_eq, phi <= psi + eps_eq everywhere, and at a data point
w also c(w) <= phi(w) and psi(w) <= c(w). So rows where phi exceeds the
coupling by more than 3 eps_eq are off the band, and rows equal to a data
point are on it with value c(w); _near_band and _values decide them, and
only the other rows are evaluated.
"""
from __future__ import annotations

import numpy as np

from .convex import Envelope, envelope_eval
from .core import (PrimalDualPoint, Tolerance, coupling_rows,
                   distinct_rows, pairing_below_rows, point_rows, row_points)
from .errors import BelowCoupling
from .operators import OperatorHandle
from .regions import GridSpec, Region, lattice_rows
from .verdicts import Property, Verdict, finish


def scan_rows(V: Region, g: GridSpec) -> np.ndarray:
    """The lattice over V x (clipped dual box) as an (N, 2n) array of
    [x, x*] rows, lexicographic in both parts; the one lattice builder."""
    n = V.dimension
    primal = lattice_rows(V, g, g.resolution)
    duals = g.dual_rows(n)
    out = np.empty((len(primal), len(duals), 2 * n))
    out[:, :, :n] = primal[:, None, :]
    out[:, :, n:] = duals[None, :, :]
    return out.reshape(-1, 2 * n)


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
    """Envelope data (w, <u, u*>) over the graph rows in V.

    The flag reports exactness: True when the rows are the whole graph,
    False when the kind was sampled.
    """
    return _coupling_envelope(T._enumerate(V, g), T.dimension), \
        T.enumeration_exact


def _coupling_envelope(graph: np.ndarray, n: int) -> Envelope:
    """The envelope of the coupling over the given graph rows."""
    return Envelope(graph, coupling_rows(graph), n)


def psi_eval(T: OperatorHandle, V: Region | None, z: PrimalDualPoint,
             g: GridSpec | None = None) -> float:
    return envelope_eval(penot_envelope(T, V, g)[0], z)


def coupling_band(env: Envelope, zs: list[PrimalDualPoint],
                  tol: Tolerance) -> list[PrimalDualPoint]:
    """Grid points where the envelope meets the coupling within eps_eq.

    Points that _near_band proves off the band are discarded and points
    on its data are kept, both without an exact evaluation; every other
    point is evaluated.
    """
    if not zs:
        return []
    return row_points(_band_rows(env, point_rows(zs, zs[0].dimension), tol))


def _band_rows(env: Envelope, rows: np.ndarray, tol: Tolerance) -> np.ndarray:
    """coupling_band over [x, x*] rows, as the rows on the band in row
    order."""
    rows = rows[_near_band(env, rows, tol)]
    gap = np.abs(_values(env, rows, tol) - coupling_rows(rows))
    return rows[gap <= tol.eps_eq]


def _near_band(h, rows: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The rows that may lie on the band [h = c].

    Let h be an Envelope psi over data (w_i, c(w_i)) that is pairwise
    monotone within eps_eq (_coupling_data), and phi(z) the affine sup
    max_i (z . w_i - c(w_i)) over it. For z = sum_i l_i w_i, each term of
    phi is sum_i l_i (c(w_i) - gap(w_i, w_j)) <= sum_i l_i c(w_i) + eps_eq,
    so phi <= psi + eps_eq (Fitzpatrick's inequality) and rows where phi
    exceeds c + 3 eps_eq are off the band. At a data point w, its own term
    gives c(w) <= phi(w), and all weight on w gives psi(w) <= c(w), so
        c(w) <= phi(w) <= psi(w) + eps_eq  and  psi(w) <= c(w):
    w lies on the band and not below the coupling, and _values gives it
    c(w) without a solve. Without that data every row is near.
    """
    data = _coupling_data(h, tol)
    if data is None:
        return np.ones(len(rows), dtype=bool)
    return pairing_below_rows(data, -coupling_rows(data), rows,
                              coupling_rows(rows) + 3.0 * tol.eps_eq)


def _coupling_data(h, tol: Tolerance) -> np.ndarray | None:
    """The data rows of h when h is an Envelope whose values are the
    couplings of its data and whose data is pairwise monotone within eps_eq
    (the envelope's own gap scan, kept per eps_eq); else None."""
    if (isinstance(h, Envelope) and len(h.rows)
            and np.array_equal(h.values, coupling_rows(h.rows))
            and h._gap_failure(tol.eps_eq) is None):
        return h.rows
    return None


def _values(h, rows: np.ndarray, tol: Tolerance) -> np.ndarray:
    """h at every row: the coupling on the rows equal (==, as in
    distinct_rows) to a row of _coupling_data, and one row call over the
    other distinct rows."""
    out = coupling_rows(rows)
    rest = np.ones(len(rows), dtype=bool)
    data = _coupling_data(h, tol)
    if data is not None:
        first, inverse = distinct_rows(np.vstack([data, rows]))
        rest = first[inverse[len(data):]] >= len(data)
    first, inverse = distinct_rows(rows[rest])
    out[rest] = h.evaluate_rows(rows[rest][first])[inverse]
    return out


def is_representative(h, T: OperatorHandle, V: Region, g: GridSpec,
                      tol: Tolerance) -> Verdict:
    """Whether the grid trace of [h = c] over V x (dual clip) is the graph.

    Scans two inclusions: grid points with |h - c| <= eps_eq must be graph
    members within delta_dom, and the graph rows in the window must sit in
    that band; the mismatches are the witnesses of a v_representable
    Verdict. A value h < c - eps_strict raises BelowCoupling, a class
    failure distinct from a false verdict. An Envelope h drops the scan
    rows _near_band proves off the band, and the rows on its data take the
    coupling. h is evaluated once per distinct row of the other scan
    rows and graph rows, in one row call.
    """
    return _representative(h, T, V, g, tol, T._enumerate(V, g))


def _representative(h, T: OperatorHandle, V: Region, g: GridSpec,
                    tol: Tolerance, graph: np.ndarray) -> Verdict:
    """is_representative against graph, the rows of T over V."""
    rows = scan_rows(V, g)
    rows = rows[_near_band(h, rows, tol)]
    values = _values(h, np.vstack([rows, graph]), tol)
    hv, c = values[:len(rows)], coupling_rows(rows)

    below = hv < c - tol.eps_strict
    if below.any():
        i = int(below.argmax())
        raise BelowCoupling(
            f"candidate dips to {hv[i].item()} below coupling {c[i].item()}",
            witness=row_points(rows[i:i + 1])[0])
    band = rows[np.abs(hv - c) <= tol.eps_eq]
    failures = _with_off_band(band[~T.graph_contains_rows(band, tol)],
                              graph, values[len(rows):], tol.eps_eq)
    return finish(Property.V_REPRESENTABLE, failures,
                  approximate=not T.enumeration_exact, grid=g, tol=tol,
                  region_ids=(V.describe(),))


def _with_off_band(failures: np.ndarray, graph: np.ndarray,
                   values: np.ndarray, margin: float) -> np.ndarray:
    """failures plus each graph row whose value lies more than margin off
    its coupling, once, unless a (distinct) scan row failed there too."""
    off = np.abs(values - coupling_rows(graph)) > margin
    if not off.any():
        return failures
    failures = np.vstack([failures, graph[off]])
    return failures[distinct_rows(failures)[0]]
