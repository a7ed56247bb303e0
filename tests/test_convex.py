"""Envelopes, max-affine functions, and the square conjugate.

The envelope LP is checked against hand-computed convex combinations of a
three point staircase graph, then the conjugate pair is exercised both
structurally (data swap) and numerically (Fenchel-Young).
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

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
from monokit import convex, core, lp
from monokit.convex import _beyond_hull, envelope_rows
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
        f = Envelope(np.empty((0, 2)), (), 1)
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

    def test_points_of_mixed_dimensions_are_refused(self):
        pts = [(pdp([0.0], [0.0]), 0.0), (pdp([1.0, 1.0], [1.0, 1.0]), 1.0)]
        with pytest.raises(DimensionMismatch, match="dimension 2 != .* 1"):
            envelope(pts)
        with pytest.raises(DimensionMismatch, match="dimension 1 != .* 2"):
            envelope(pts, 2)


class TestMaxAffine:
    def test_evaluate_is_max_of_planes(self):
        f = MaxAffine([[1.0, 0.0], [0.0, 1.0]], [0.0, -1.0], 1)
        z = pdp([2.0], [3.0])
        # z . w for w=(1,0) is <2,0> + <1,3> = 3; for w=(0,1) it is 2
        assert f.evaluate(z) == pytest.approx(3.0)

    def test_empty_max_affine_is_minus_inf(self):
        f = MaxAffine(np.empty((0, 2)), (), 1)
        assert f.evaluate(pdp([0.0], [0.0])) == -INF

    def test_batch_matches_pointwise(self):
        """Bit for bit, n = 1 to 3, at the default block size and at the
        tiny ones that tile the rows x pieces product."""
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            pieces = [(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                       rng.uniform(-1, 1)) for _ in range(9)]
            f = MaxAffine([np.concatenate(p[:2]) for p in pieces],
                          [p[2] for p in pieces], n)
            zs = rng.uniform(-2, 2, (40, 2 * n))
            want = [f.evaluate(pdp(row[:n], row[n:])) for row in zs]
            assert max_affine_eval_batch(f, zs).tolist() == want
            for block in (3, 7, 16, 61):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(core, "_BLOCK_ELEMS", block)
                    assert max_affine_eval_batch(f, zs).tolist() == want

    def test_rows_of_the_wrong_width_are_refused(self):
        """The batch checks row shapes as envelope_rows does, and both
        classes check their data's shapes."""
        f = MaxAffine([[1.0, 2.0, 3.0, 4.0]], [0.0], 2)
        for zs in (np.array([[1.0, 1.0]]), np.ones(4)):
            with pytest.raises(DimensionMismatch):
                max_affine_eval_batch(f, zs)
            with pytest.raises(DimensionMismatch):
                envelope_rows(conjugate(f), zs)
        for cls in (MaxAffine, Envelope):
            with pytest.raises(DimensionMismatch):
                cls([[1.0, 2.0]], [0.0], 2)
            with pytest.raises(DimensionMismatch):
                cls([[1.0, 2.0]], [0.0, 1.0], 1)

    def test_batch_memory_is_bounded(self):
        """10k rows against 500 pieces: an unblocked product needs two
        40 MB temporaries; the blocked kernel a few of 1 MiB."""
        rng = np.random.default_rng(6)
        pieces = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
                   rng.uniform(-1, 1)) for _ in range(500)]
        f = MaxAffine([np.concatenate(p[:2]) for p in pieces],
                      [p[2] for p in pieces], 2)
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
        f = conjugate(stair_env)
        assert isinstance(f, MaxAffine) and f != stair_env
        assert conjugate(conjugate(f)) == f

    def test_envelope_conjugate_is_exact_max(self, stair_env):
        z = pdp([0.0], [0.0])
        assert square_conjugate_eval(stair_env, z) == pytest.approx(
            0.0, abs=1e-12)
        z2 = pdp([1.0], [1.0])
        want = max(natural_pairing(z2, p) - v for p, v in STAIR)
        assert square_conjugate_eval(stair_env, z2) == pytest.approx(want)

    def test_max_affine_conjugate_is_envelope_of_pieces(self):
        f = MaxAffine([[0.0, 0.0], [1.0, 1.0]], [0.0, -1.0], 1)
        g = conjugate(f)
        z = pdp([0.5], [0.5])
        assert square_conjugate_eval(f, z) == pytest.approx(
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
            assert conj >= natural_pairing(z, w) - fz - 1e-7


@given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2),
                          st.floats(-2, 2)), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_envelope_never_exceeds_data(raw):
    pts = [(pdp([a], [b]), v) for a, b, v in raw]
    f = envelope(pts)
    for p, v in pts:
        assert envelope_eval(f, p) <= v + 1e-7


# Near-degenerate envelopes on which test_envelope_never_exceeds_data has
# failed; with x read off the tableau alone, the first five fail its
# residual check.
NEAR_DEGENERATE_ENVELOPES = [
    [(0.0, 2.0, 0.0), (0.0, 1e-09, 0.0), (0.0, -1.0, -1.0)],
    [(-1e-09, 0.0, 0.0), (0.6347615062836858, 0.0, 0.0), (-1.625, 0.0, 0.0)],
    [(0.0, 1.0, 0.0), (0.0, 1.2368237147313691e-09, 0.0), (0.0, -1.0, -1.0)],
    [(0.0, 0.5, 0.0), (0.0, 1e-09, 0.0), (0.0, -1.0, -1.0)],
    [(0, 1, 0), (1, 8.243130836781013e-08, 0), (0, -1.870360410552597, 0),
     (1, 0, 0), (2, 1, 0)],
    [(0, 0.7727510000467528, 0), (1, -2, 0), (-1, 0, 0),
     (-1.998046875, 5.960464477539063e-08, 0)],
]


@pytest.mark.parametrize("raw", NEAR_DEGENERATE_ENVELOPES)
def test_near_degenerate_envelope_never_exceeds_data(raw):
    pts = [(pdp([a], [b]), v) for a, b, v in raw]
    f = envelope(pts)
    for p, v in pts:
        assert envelope_eval(f, p) <= v + 1e-7


# Envelopes with data entries near 1e-9 on which the LP still raises, with
# the index of the first data point whose evaluation raises: two final
# bases whose data solution has a negative entry, a program reported
# unbounded, and a singular final basis.
BAD_ENVELOPES = [
    ([(0.0, 1.0, 0.0), (-1e-09, 1e-09, 1.0), (-1e-09, -1e-07, 0.0),
      (1e-09, -1e-07, 0.5)], 1),
    ([(0.5, 1e-09, 0.5), (1e-08, 1e-08, 0.5), (0.5, 1e-08, 0.0),
      (0.0, -1.0, 0.5)], 0),
    ([(0.0, 0.5, -1.0), (1e-09, 0.0, 0.5), (-1.5, 1e-09, -1.0),
      (0.0, -1.0, 1.0)], 1),
    ([(2.0, -1e-07, 0.5), (1e-09, -1e-07, 1.0), (1.0, -1e-07, 0.0)], 1),
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


def _no_table(f, rhs):
    """A _facet_rows that answers no row, so every row inside the cuts
    reaches the LP."""
    return np.zeros(len(rhs), dtype=bool), np.empty(0)


@pytest.mark.parametrize("raw, first_bad", BAD_ENVELOPES)
def test_envelope_rows_raises_like_the_pointwise_loop(raw, first_bad,
                                                      monkeypatch):
    """With the facet table bypassed, the batch raises the loop's message
    at the loop's first failing row: the rows before it evaluate, the row
    itself raises."""
    monkeypatch.setattr(convex, "_facet_rows", _no_table)
    f = envelope([(pdp([a], [b]), v) for a, b, v in raw])
    rows = f.rows
    before, at, message = _pointwise(f, rows)
    assert at == first_bad
    assert envelope_rows(f, rows[:at]).tolist() == before
    with pytest.raises(LPNumericalError) as err:
        envelope_rows(f, rows)
    assert str(err.value) == message
    with pytest.raises(LPNumericalError) as err:
        envelope_rows(f, rows[at:at + 1])
    assert str(err.value) == message


def _linprog_values(f, rows, **options):
    """scipy's linprog (HiGHS) on the envelope program at every row, None
    where it finds none; skips without scipy."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    _, _, matrix, values = f._lp
    out = []
    for b in convex._lp_rhs(rows):
        ref = linprog(values, A_eq=matrix, b_eq=b, bounds=(0, None),
                      method="highs", options=options)
        out.append(ref.fun if ref.status == 0 else None)
    return out


def _close(value, ref):
    """Within 1e-9 (1 + |ref|): linprog solves to a feasibility tolerance
    of 1e-7, which moves its value by about 1e-9 on data entries near
    1e-9."""
    return ref is not None and abs(value - ref) <= 1e-9 * (1.0 + abs(ref))


@pytest.mark.parametrize("raw", [raw for raw, _ in BAD_ENVELOPES[2:]])
def test_facet_table_answers_where_the_lp_raises(raw):
    """The LP raises at a data point of these envelopes; the facet table
    answers every data point, with linprog's value."""
    f = envelope([(pdp([a], [b]), v) for a, b, v in raw])
    rows = f.rows
    got = envelope_rows(f, rows).tolist()
    assert [envelope_eval(f, pdp(*row)) for row in rows.tolist()] == got
    assert all(g <= v + 1e-9 for g, v in zip(got, f.values))
    for g, ref in zip(got, _linprog_values(f, rows)):
        assert _close(g, ref), (g, ref)


_COORD = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -1.5, 1e-9])


@st.composite
def _envelope_and_rows(draw):
    n = draw(st.integers(1, 2))
    pts = draw(st.lists(st.tuples(st.lists(_COORD, min_size=2 * n,
                                           max_size=2 * n),
                                  st.floats(-2, 2)),
                        min_size=1, max_size=7))
    f = envelope([(pdp(c[:n], c[n:]), v) for c, v in pts])
    data = f.rows
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


# --- hull cuts -----------------------------------------------------------

def _outcome(f, rows):
    """envelope_rows as hex values, or the message it raises."""
    try:
        return [v.hex() for v in envelope_rows(f, rows).tolist()]
    except LPNumericalError as err:
        return str(err)


def _cut_free(f, rows):
    """_outcome with every row inside the bounding box sent to the LP."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convex, "_beyond_hull",
                   lambda f, rows: np.zeros(len(rows), dtype=bool))
        return _outcome(f, rows)


def _check_hull_cuts(f, rows):
    """No row the cuts drop is one the LP solves: solved directly it is
    infeasible, or the LP raises (its pivots on entries near 1e-9 can end
    phase one in a broken basis). envelope_rows equals the cut-free
    evaluation bit for bit, errors included; where the LP raises on a
    dropped row, the cut-free evaluation of the other rows with +inf at the
    dropped ones. Returns the number of rows dropped."""
    lower, upper, matrix, values = f._lp
    cut = ~((rows < lower) | (rows > upper)).any(axis=1)
    cut[cut] = _beyond_hull(f, rows[cut])
    rhs = np.hstack([rows[cut], np.ones((cut.sum(), 1))])
    sols = lp.solve_rows(values, matrix, rhs)
    for sol in sols:
        assert isinstance(sol, LPNumericalError) \
            or sol.status is lp.LPStatus.INFEASIBLE
    if not any(isinstance(sol, LPNumericalError) for sol in sols):
        assert _outcome(f, rows) == _cut_free(f, rows)
    else:
        want = _cut_free(f, rows[~cut])
        if isinstance(want, list):
            spliced = np.full(len(rows), INF)
            spliced[~cut] = [float.fromhex(v) for v in want]
            want = [v.hex() for v in spliced.tolist()]
        assert _outcome(f, rows) == want
    return int(cut.sum())


def _probe_rows(f):
    """The data, its midpoints, the data nudged by 1e-9 and 1e-5 along
    every axis, and a lattice over the data's bounding box."""
    data = f.rows
    width = data.shape[1]
    nudges = np.vstack([s * np.eye(width)
                        for s in (1e-9, -1e-9, 1e-5, -1e-5)])
    per_axis = 5 if width == 2 else 3
    axes = [np.linspace(lo, hi, per_axis)
            for lo, hi in zip(data.min(axis=0), data.max(axis=0))]
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return np.vstack([data, (data + data[::-1]) / 2,
                      (data[:, None, :] + nudges).reshape(-1, width),
                      lattice.reshape(-1, width)])


def _raw_envelope(raw):
    return envelope([(pdp([a], [b]), v) for a, b, v in raw])


# Data entries near 1e-9 on which the LP has raised or nearly so, and the
# three shapes whose projections degenerate: a segment, duplicate points
# and a single point.
HULL_CASES = NEAR_DEGENERATE_ENVELOPES + [raw for raw, _ in BAD_ENVELOPES] + [
    [(0.0, 1e-12, 0.0), (0.0, 0.0, 0.0), (0.0, 1e-05, 0.0), (1.0, 0.0, 0.0)],
    [(0.25, 2.0, -1.0), (0.25, 0.5, 0.0), (1e-09, 1e-07, 0.0),
     (0.25, 0.0, 1.0)],
    [(0.0, 1.0, -1.0), (1e-08, 0.0, 1.0), (0.25, -1.0, 0.5),
     (-1.0, 1e-09, -1.0)],
    [(-1.0, -0.5, 0.5), (0.0, 0.0, 0.0), (0.5, 0.25, 0.125), (1.0, 0.5, 0.5)],
    [(0.0, 1.0, 0.0), (1.0, 0.0, 1.0), (0.0, 1.0, 2.0), (1.0, 0.0, 1.0)],
    [(0.5, -0.5, 1.0), (0.5, -0.5, 0.0)],
    [(0.5, -0.5, 1.0)],
]


def test_hull_cuts_answer_where_the_lp_raises():
    """A row 1e-5 off the hull of data with an entry of 1e-9: the LP alone
    ends phase one in a broken basis and raises, the cuts give +inf."""
    f = envelope([(pdp([0.0, 0.0], [1.0, 1e-9]), 0.0),
                  (pdp([0.0, 1.0], [0.0, 0.0]), 0.0),
                  (pdp([0.0, 0.0], [0.0, -1.0]), 0.0)])
    row = np.array([[0.0, 1.0, 1e-5, 0.0]])
    assert isinstance(lp.solve_rows(f._lp[3], f._lp[2],
                                    [np.append(row, 1.0)])[0],
                      LPNumericalError)
    assert envelope_rows(f, row).tolist() == [INF]
    assert _check_hull_cuts(f, row) == 1


@pytest.mark.parametrize("raw", HULL_CASES)
def test_hull_cuts_change_no_value(raw):
    f = _raw_envelope(raw)
    _check_hull_cuts(f, _probe_rows(f))


def test_hull_cuts_rule_out_rows_off_a_segment():
    """Collinear data: of the box's lattice only the segment's rows stay."""
    f = _raw_envelope([(-1.0, -0.5, 0.5), (0.0, 0.0, 0.0), (1.0, 0.5, 0.5)])
    grid = np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-0.5, 0.5, 5),
                       indexing="ij")
    rows = np.stack(grid, axis=-1).reshape(-1, 2)
    kept = rows[~_beyond_hull(f, rows)]
    assert kept.tolist() == [[-1.0, -0.5], [-0.5, -0.25], [0.0, 0.0],
                             [0.5, 0.25], [1.0, 0.5]]
    assert _check_hull_cuts(f, rows) == 40


@st.composite
def _hull_envelope(draw):
    n = draw(st.integers(1, 2))
    coord = st.lists(_COORD, min_size=2 * n, max_size=2 * n)
    shape = draw(st.sampled_from(["cloud", "line", "point"]))
    if shape == "cloud":
        coords = draw(st.lists(coord, min_size=1, max_size=7))
    elif shape == "line":
        base, step = np.array(draw(coord)), np.array(draw(coord))
        ts = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, -1.0, 2.0, 1e-9]),
                           min_size=2, max_size=5))
        coords = [(base + t * step).tolist() for t in ts]
    else:
        coords = [draw(coord)] * draw(st.integers(1, 3))
    if draw(st.booleans()):
        coords = coords + coords[:1]
    vals = draw(st.lists(st.floats(-2, 2), min_size=len(coords),
                         max_size=len(coords)))
    return envelope([(pdp(c[:n], c[n:]), v) for c, v in zip(coords, vals)])


@given(_hull_envelope())
@settings(max_examples=80, deadline=None)
def test_hull_cuts_change_no_value_on_drawn_envelopes(f):
    _check_hull_cuts(f, _probe_rows(f))


# --- facet table ---------------------------------------------------------

def _facet_answers(f, rows):
    """The rows the facet table answers, and their values."""
    answered, values = convex._facet_rows(f, convex._lp_rhs(rows))
    return rows[answered], values


def _exact_value(f, row):
    """The envelope program's optimum at row in rational arithmetic: the
    least objective over the bases of the data (column sets as large as its
    rank) whose solution is nonnegative and meets every row; inf when no
    basis does. Exhaustive, so only for a few points."""
    c = f._lp[3]
    a, b = _exact_rows(f, row)
    best = None
    for cols in itertools.combinations(range(len(c)), _exact_rank(a)):
        w = _exact_solve(a, b, cols)
        if w is not None and min(w) >= 0:
            value = sum(Fraction(c[j]) * wj for j, wj in zip(cols, w))
            best = value if best is None else min(best, value)
    return INF if best is None else float(best)


def _exact_rank(a):
    rows, rank = [r[:] for r in a], 0
    for col in range(len(a[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            q = rows[i][col] / rows[rank][col]
            rows[i] = [x - q * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _exact_solve(a, b, cols):
    """The w with sum_j w_j a[:, cols[j]] = b exactly, or None when the
    columns are dependent or no such w exists."""
    rows = [[r[j] for j in cols] + [bi] for r, bi in zip(a, b)]
    width, rank = len(cols), 0
    for col in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            return None
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [x / rows[rank][col] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                q = rows[i][col]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    if any(r[-1] for r in rows[width:]):
        return None
    return [r[-1] for r in rows[:width]]


def _exact_rows(f, row):
    """The program's matrix and the row's right-hand side, as Fractions."""
    a = [[Fraction(v) for v in r] for r in f._lp[2].tolist()]
    return a, [Fraction(v) for v in row.tolist()] + [Fraction(1)]


def _held_by_the_table(f, row):
    """Whether a basis of the table holds the row exactly: rational weights,
    all nonnegative, that meet every row of the program."""
    a, b = _exact_rows(f, row)
    span, _, bases = f._facets
    for cols in bases[:, span].tolist():
        w = _exact_solve(a, b, cols)
        if w is not None and min(w) >= 0:
            return True
    return False


def _agree(value, ref):
    return ref is not None and abs(value - ref) <= 1e-9 * max(1.0, abs(ref))


def _check_rows(f, refs, answered, values):
    """Each answered row agrees with its reference value to 1e-9 relative.
    Where it does not, the exact optimum decides: at a row that a basis of
    the table holds exactly the table's value equals it, and elsewhere (a
    row within the LP's tolerance of a cone, or next to a basis the table
    leaves out as ill-conditioned) it is at most the optimum, since the
    table's bases are dual feasible."""
    for row, v, ref in zip(answered, values, refs):
        if _agree(v, ref):
            continue
        exact = _exact_value(f, row)
        if _held_by_the_table(f, row):
            assert _agree(v, exact), (row, v, ref, exact)
        else:
            assert v <= exact + 1e-9 * max(1.0, abs(exact)), (row, v, exact)


def _check_against_simplex(f, rows):
    """The table against the simplex solving each answered row directly;
    where the simplex raises or finds the row infeasible there is no
    reference. On entries near 1e-9 its phase one can call a data point
    infeasible, and its pivots can end a little off the optimum (ROADMAP
    item 7). Returns the number of rows answered."""
    answered, values = _facet_answers(f, rows)
    _, _, matrix, c = f._lp
    refs = [None if isinstance(sol, LPNumericalError)
            or sol.status is not lp.LPStatus.OPTIMAL else sol.value
            for sol in lp.solve_rows(c, matrix, convex._lp_rhs(answered))]
    _check_rows(f, refs, answered, values)
    return len(answered)


def _check_against_linprog(f, rows):
    """The table against linprog, as _check_against_simplex: HiGHS drops
    matrix entries of 1e-9 and below and solves to a tolerance of 1e-7, so
    on such data the exact optimum decides."""
    answered, values = _facet_answers(f, rows)
    _check_rows(f, _linprog_values(f, answered), answered, values)
    return len(answered)


@given(_envelope_and_rows())
@settings(max_examples=80, deadline=None)
def test_facet_rows_match_the_simplex(case):
    _check_against_simplex(*case)


@given(_envelope_and_rows())
@settings(max_examples=30, deadline=None)
def test_facet_rows_match_linprog(case):
    _check_against_linprog(*case)


def _monotone_data(n, k, seed):
    """k points of the graph of x -> M x + q with M + M^T positive
    definite, lifted by the coupling; the envelope data of a monotone
    linear graph."""
    rng = np.random.default_rng(seed)
    skew = rng.uniform(-1, 1, (n, n))
    m = np.eye(n) + skew - skew.T
    xs = np.round(rng.uniform(-1, 1, (k, n)), 2)
    duals = xs @ m.T + 0.25
    return envelope([(pdp(x, d), float(x @ d)) for x, d in zip(xs, duals)])


FACET_CASES = {
    **{f"near-degenerate-{i}": _raw_envelope(raw)
       for i, raw in enumerate(NEAR_DEGENERATE_ENVELOPES)},
    # rank 2: the dual row is an affine function of the primal one
    "collinear": _raw_envelope([(-1.0, -0.5, 0.5), (0.0, 0.0, 0.0),
                                (0.5, 0.25, 0.125), (1.0, 0.5, 0.5)]),
    "collinear-linear-graph": _monotone_data(1, 9, 3),
    "n2-linear-graph": _monotone_data(2, 9, 4),
    "n2-cloud": envelope([(pdp(np.round(p[:2], 2), np.round(p[2:], 2)),
                           float(v)) for p, v in zip(
        np.random.default_rng(5).uniform(-1, 1, (8, 4)),
        np.random.default_rng(6).uniform(-1, 1, 8))]),
}


@pytest.mark.parametrize("name", FACET_CASES)
def test_facet_rows_match_the_simplex_on_cases(name):
    f = FACET_CASES[name]
    assert _check_against_simplex(f, _probe_rows(f)) > 0


@pytest.mark.parametrize("name", FACET_CASES)
def test_facet_rows_match_linprog_on_cases(name):
    f = FACET_CASES[name]
    assert _check_against_linprog(f, _probe_rows(f)) > 0


def test_rank_deficient_data_pads_the_basis():
    """Collinear data spans two rows; each basis takes two data columns
    and the artificial column of the third row."""
    f = FACET_CASES["collinear"]
    rows, inverses, bases = f._facets
    assert rows.tolist() == [0, 2]
    assert inverses.shape[1:] == (2, 2)
    assert (bases[:, 1] == len(f.rows) + 1).all()


def test_envelopes_above_the_cap_keep_an_empty_table():
    """C(30, 3) = 4060 bases: every row inside the cuts goes to the LP."""
    rng = np.random.default_rng(7)
    f = envelope([(pdp(p[:1], p[1:]), float(v)) for p, v in zip(
        rng.uniform(-1, 1, (30, 2)), rng.uniform(-1, 1, 30))])
    assert f._facets[0].size == 3
    assert math.comb(30, 3) > convex._FACET_CAP
    assert len(f._facets[2]) == 0
    assert _facet_answers(f, _probe_rows(f))[0].shape[0] == 0


def test_rows_settled_before_the_table_never_build_it(stair_env):
    """Rows outside the box or beyond a cut need no table."""
    rows = np.array([[2.0, 2.0], [0.25, -1.0], [1.0, 0.0], [0.9, 0.1]])
    assert envelope_rows(stair_env, rows).tolist() == [INF] * 4
    assert "_facets" not in stair_env.__dict__
    envelope_rows(stair_env, np.array([[0.5, 0.5]]))
    assert "_facets" in stair_env.__dict__
