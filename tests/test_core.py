"""Pairing arithmetic and tolerance plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from monokit import (
    INF,
    DimensionMismatch,
    Tolerance,
    ToleranceError,
    ValidationError,
    coupling,
    monotone_gap,
    natural_pairing,
    pdp,
    supremum,
)
from monokit.core import distinct_rows

coords = st.floats(min_value=-50, max_value=50, allow_nan=False)


def vec(draw_dim):
    return st.lists(coords, min_size=draw_dim, max_size=draw_dim)


def test_coupling_is_dot_product():
    z = pdp([1.0, 2.0], [3.0, -1.0])
    assert coupling(z) == 1.0 * 3.0 + 2.0 * (-1.0)


def test_pdp_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        pdp([1.0], [1.0, 2.0])


def test_pairing_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        natural_pairing(pdp([1.0], [0.0]), pdp([1.0, 0.0], [0.0, 0.0]))


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(vec(n), vec(n), vec(n), vec(n))))
def test_pairing_identities(parts):
    x, s, u, t = parts
    z, w = pdp(x, s), pdp(u, t)
    # z . w is symmetric and z . z doubles the coupling
    assert natural_pairing(z, w) == pytest.approx(natural_pairing(w, z), abs=1e-9)
    assert natural_pairing(z, z) == pytest.approx(2.0 * coupling(z), abs=1e-9)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(vec(n), vec(n), vec(n), vec(n))))
def test_gap_expansion(parts):
    x, s, u, t = parts
    z, w = pdp(x, s), pdp(u, t)
    expanded = coupling(z) + coupling(w) - natural_pairing(z, w)
    assert monotone_gap(z, w) == pytest.approx(expanded, abs=1e-12 * (1 + abs(expanded)))


def test_gap_of_point_with_itself_is_zero():
    z = pdp([1.5, -2.0], [0.25, 4.0])
    assert monotone_gap(z, z) == 0.0


def test_empty_extrema_conventions():
    assert supremum([]) == -INF
    assert supremum([1.0, INF]) == INF


def test_tolerance_validation():
    Tolerance(eps_eq=1e-9, eps_strict=1e-6, delta_dom=1e-6)
    with pytest.raises(ToleranceError):
        Tolerance(eps_eq=1e-6, eps_strict=1e-9, delta_dom=1e-6)
    with pytest.raises(ToleranceError):
        Tolerance(eps_eq=0.0, eps_strict=1e-6, delta_dom=1e-6)
    with pytest.raises(ToleranceError):
        Tolerance(eps_eq=1e-9, eps_strict=1e-6, delta_dom=-1.0)


def test_points_detach_from_input_arrays():
    x = np.array([1.0, 2.0])
    z = pdp(x, [0.0, 0.0])
    x[0] = 99.0
    assert z.x[0] == 1.0


def test_nan_coordinates_rejected():
    with pytest.raises(ValidationError):
        pdp([math.nan], [0.0])


def unique_distinct_rows(rows):
    """distinct_rows through np.unique(axis=0), the reference for the sort."""
    _, index, inverse = np.unique(rows, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(index)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return index[order], rank[inverse.reshape(-1)]


def test_distinct_rows_matches_np_unique():
    """Same (first, inverse) arrays on rows with +-0.0, +-inf, repeats and
    no rows at all."""
    rng = np.random.default_rng(0)
    values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, INF, -INF])
    for _ in range(500):
        rows = values[rng.integers(0, len(values),
                                   (rng.integers(0, 25), rng.integers(1, 5)))]
        first, inverse = distinct_rows(rows)
        want_first, want_inverse = unique_distinct_rows(rows)
        assert np.array_equal(first, want_first)
        assert np.array_equal(inverse, want_inverse)
        assert np.array_equal(rows[first][inverse], rows)
