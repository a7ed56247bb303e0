"""Envelopes, max-affine functions, and the square conjugate.

The envelope LP is checked against hand-computed convex combinations of a
three point staircase graph, then the conjugate pair is exercised both
structurally (data swap) and numerically (Fenchel-Young).
"""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from monokit import (
    INF,
    DimensionMismatch,
    Envelope,
    MaxAffine,
    conjugate,
    envelope,
    envelope_eval,
    max_affine_eval_batch,
    natural_pairing,
    pdp,
    square_conjugate_eval,
)
from monokit import core
from monokit.convex import envelope_rows
from monokit.core import point_rows
from monokit.errors import LPNumericalError

import numpy as np

STAIR = [
    (pdp([0.0], [0.0]), 0.0),
    (pdp([0.5], [1.0]), 0.5),
    (pdp([1.0], [1.0]), 1.0),
]


@pytest.fixture
def stair_env():
    return envelope(STAIR)


class TestEnvelope:
    def test_hand_computed_interior_value(self, stair_env):
        # half of (0,0;0) plus half of (1,1;1) lands on (0.5,0.5)
        assert envelope_eval(stair_env, pdp([0.5], [0.5])) == pytest.approx(0.5, abs=1e-9)

    def test_hand_computed_edge_value(self, stair_env):
        # mix of the two points with dual 1
        assert envelope_eval(stair_env, pdp([0.75], [1.0])) == pytest.approx(0.75, abs=1e-9)

    def test_data_points_can_only_drop(self, stair_env):
        for p, v in STAIR:
            got = envelope_eval(stair_env, p)
            assert got <= v + 1e-9

    def test_outside_hull_is_inf(self, stair_env):
        assert envelope_eval(stair_env, pdp([2.0], [2.0])) == INF
        assert envelope_eval(stair_env, pdp([0.25], [-1.0])) == INF

    def test_empty_envelope_is_inf(self):
        f = Envelope((), 1)
        assert envelope_eval(f, pdp([0.0], [0.0])) == INF

    def test_strict_shrink_above_a_chord(self):
        bump = envelope([
            (pdp([0.0], [0.0]), 0.0),
            (pdp([0.5], [0.0]), 1.0),
            (pdp([1.0], [0.0]), 0.0),
        ])
        # the middle point sits above the chord and gets flattened
        assert envelope_eval(bump, pdp([0.5], [0.0])) == pytest.approx(0.0, abs=1e-9)

    def test_lower_bound_really_is_one(self, stair_env):
        # The coupling-band prefilter: the affine sup over the data, read as
        # the conjugate's max-affine, stays below the envelope.
        zs = [pdp([0.5], [0.5]), pdp([0.25], [0.5]), pdp([1.0], [1.0])]
        lo = max_affine_eval_batch(conjugate(stair_env), point_rows(zs, 1))
        for z, bound in zip(zs, lo):
            assert bound <= envelope_eval(stair_env, z) + 1e-9

    def test_dimension_checked(self, stair_env):
        with pytest.raises(DimensionMismatch):
            envelope_eval(stair_env, pdp([0.0, 0.0], [0.0, 0.0]))


class TestMaxAffine:
    def test_evaluate_is_max_of_planes(self):
        f = MaxAffine(((pdp([1.0], [0.0]), 0.0), (pdp([0.0], [1.0]), -1.0)),
                      1)
        z = pdp([2.0], [3.0])
        # z . w for w=(1,0) is <2,0> + <1,3> = 3; for w=(0,1) it is 2
        assert f.evaluate(z) == pytest.approx(3.0)

    def test_empty_max_affine_is_minus_inf(self):
        f = MaxAffine((), 1)
        assert f.evaluate(pdp([0.0], [0.0])) == -INF

    def test_batch_matches_pointwise(self):
        """Bit for bit, n = 1 to 3, at the default block size and at the
        tiny ones that tile the rows x pieces product."""
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            pieces = [(pdp(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)),
                       float(rng.uniform(-1, 1))) for _ in range(9)]
            f = MaxAffine(tuple(pieces), n)
            zs = rng.uniform(-2, 2, (40, 2 * n))
            want = [f.evaluate(pdp(row[:n], row[n:])) for row in zs]
            assert max_affine_eval_batch(f, zs).tolist() == want
            for block in (3, 7, 16, 61):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(core, "_BLOCK_ELEMS", block)
                    assert max_affine_eval_batch(f, zs).tolist() == want

    def test_batch_memory_is_bounded(self):
        """10k rows against 500 pieces: an unblocked product needs two
        40 MB temporaries; the blocked kernel a few of 1 MiB."""
        rng = np.random.default_rng(6)
        f = MaxAffine(tuple((pdp(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)),
                             float(rng.uniform(-1, 1))) for _ in range(500)),
                      2)
        zs = rng.uniform(-2, 2, (10_000, 4))
        tracemalloc.start()
        try:
            max_affine_eval_batch(f, zs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestConjugate:
    def test_structural_swap_round_trip(self, stair_env):
        twice = conjugate(conjugate(stair_env))
        assert isinstance(twice, Envelope)
        assert twice == stair_env

    def test_envelope_conjugate_is_exact_max(self, stair_env):
        z = pdp([0.0], [0.0])
        assert square_conjugate_eval(stair_env, z).value == pytest.approx(
            0.0, abs=1e-12)
        z2 = pdp([1.0], [1.0])
        want = max(natural_pairing(z2, p) - v for p, v in STAIR)
        assert square_conjugate_eval(stair_env, z2).value == pytest.approx(want)

    def test_max_affine_conjugate_is_envelope_of_pieces(self):
        f = MaxAffine(((pdp([0.0], [0.0]), 0.0), (pdp([1.0], [1.0]), -1.0)),
                      1)
        g = conjugate(f)
        z = pdp([0.5], [0.5])
        assert square_conjugate_eval(f, z).value == pytest.approx(
            envelope_eval(g, z), abs=1e-9)

    def test_fenchel_young_holds_on_hull(self, stair_env):
        rng = np.random.default_rng(11)
        for _ in range(50):
            lam = rng.dirichlet(np.ones(len(STAIR)))
            x = sum(l * p.x[0] for l, (p, _) in zip(lam, STAIR))
            s = sum(l * p.xstar[0] for l, (p, _) in zip(lam, STAIR))
            z = pdp([x], [s])
            fz = envelope_eval(stair_env, z)
            assert fz < INF
            w = pdp(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
            conj = square_conjugate_eval(stair_env, w)
            assert conj.value >= natural_pairing(z, w) - fz - 1e-7


@given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2),
                          st.floats(-2, 2)), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_envelope_never_exceeds_data(raw):
    pts = [(pdp([a], [b]), v) for a, b, v in raw]
    f = envelope(pts)
    for p, v in pts:
        assert envelope_eval(f, p) <= v + 1e-7


# Near-degenerate envelopes on which the LP's absolute residual bound
# raises (see test_envelope_never_exceeds_data), with the index of the
# first data point whose evaluation raises.
BAD_ENVELOPES = [
    ([(0.0, 2.0, 0.0), (0.0, 1e-09, 0.0), (0.0, -1.0, -1.0)], 1),
    ([(-1e-09, 0.0, 0.0), (0.6347615062836858, 0.0, 0.0),
      (-1.625, 0.0, 0.0)], 0),
    ([(0.0, 1.0, 0.0), (0.0, 1.2368237147313691e-09, 0.0),
      (0.0, -1.0, -1.0)], 1),
    ([(0.0, 0.5, 0.0), (0.0, 1e-09, 0.0), (0.0, -1.0, -1.0)], 1),
]


def _pointwise(f, rows):
    """[envelope_eval(f, z) for z in rows], and the index and message of
    the first row that raises instead (None, None when none does)."""
    n = f.dimension
    values = []
    for i, row in enumerate(rows):
        try:
            values.append(envelope_eval(f, pdp(row[:n], row[n:])))
        except LPNumericalError as err:
            return values, i, str(err)
    return values, None, None


@pytest.mark.parametrize("raw, first_bad", BAD_ENVELOPES)
def test_envelope_rows_raises_like_the_pointwise_loop(raw, first_bad):
    """The batch raises the loop's message at the loop's first failing row:
    the rows before it evaluate, the row itself raises."""
    f = envelope([(pdp([a], [b]), v) for a, b, v in raw])
    rows = point_rows((p for p, _ in f.points), 1)
    before, at, message = _pointwise(f, rows)
    assert at == first_bad
    assert envelope_rows(f, rows[:at]).tolist() == before
    with pytest.raises(LPNumericalError) as err:
        envelope_rows(f, rows)
    assert str(err.value) == message
    with pytest.raises(LPNumericalError) as err:
        envelope_rows(f, rows[at:at + 1])
    assert str(err.value) == message


_COORD = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -1.5, 1e-9])


@st.composite
def _envelope_and_rows(draw):
    n = draw(st.integers(1, 2))
    pts = draw(st.lists(st.tuples(st.lists(_COORD, min_size=2 * n,
                                           max_size=2 * n),
                                  st.floats(-2, 2)),
                        min_size=1, max_size=7))
    f = envelope([(pdp(c[:n], c[n:]), v) for c, v in pts])
    data = point_rows((p for p, _ in f.points), n)
    extra = np.array(draw(st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, -0.75, 1.0, 3.0]),
                 min_size=2 * n, max_size=2 * n), max_size=8)),
        dtype=float).reshape(-1, 2 * n)
    mixed = [(a + b) / 2 for a, b in zip(data, data[::-1])]
    return f, np.vstack([data, extra, np.array(mixed).reshape(-1, 2 * n)])


@given(_envelope_and_rows())
@settings(max_examples=80, deadline=None)
def test_envelope_rows_matches_pointwise_bit_for_bit(case):
    """Data points, their midpoints and lattice-like points in and out of
    the hull: the batch equals the one-point evaluations bit for bit, or
    raises the same message where the loop first raises."""
    f, rows = case
    values, at, message = _pointwise(f, rows)
    if at is None:
        got = envelope_rows(f, rows)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in values]
    else:
        with pytest.raises(LPNumericalError) as err:
            envelope_rows(f, rows)
        assert str(err.value) == message


def test_envelope_rows_checks_the_row_width(stair_env):
    with pytest.raises(DimensionMismatch):
        envelope_rows(stair_env, np.zeros((2, 4)))
    assert envelope_rows(stair_env, np.zeros((0, 2))).shape == (0,)
