"""Boxes, half-spaces, lattices, and normal cones."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monokit import core, verdicts
from monokit import (
    DEFAULT_TOL,
    Box,
    Flat,
    GridSpec,
    HalfSpace,
    Intersection,
    NormalConeBox,
    PairSum,
    RegionError,
    box_from_literal,
    closed_box,
    grid_sample,
    intersect_regions,
    interval,
    pdp,
    whole_space,
)


class TestBoxMembership:
    def test_open_and_closed_faces(self):
        b = interval(0.0, 1.0, lo_open=True)
        assert not b.contains([0.0])
        assert b.contains([1.0])
        assert b.contains([0.5])

    def test_closure_and_interior(self):
        b = interval(0.0, 1.0, lo_open=True, hi_open=True)
        assert b.closure().contains([0.0])
        assert not b.interior().contains([0.0])
        assert not b.is_closed
        assert b.closure().is_closed

    def test_empty_normalization(self):
        a = interval(0.0, 1.0)
        c = interval(2.0, 3.0)
        assert a.intersect(c).is_empty()
        assert not a.intersect(interval(0.5, 2.0)).is_empty()

    def test_degenerate_interval_is_nonempty(self):
        point = interval(1.0, 1.0)
        assert point.contains([1.0])
        assert not point.is_empty()
        # the same pinch with an open end is empty
        assert interval(1.0, 1.0, hi_open=True).is_empty()

    def test_whole_space_membership(self):
        w = whole_space(2)
        assert w.contains([1e6, -1e6])
        assert w.is_whole_space


def test_box_describe_round_trip():
    b = Box(lower=(0.0, -1.0), upper=(1.0, 1.0),
            lower_open=(True, False), upper_open=(True, False))
    text = b.describe()
    assert text == "(0, 1) x [-1, 1]"


def test_describe_renders_floats_as_format_scalar():
    """Regions and verdicts share the one float formatter."""
    b = Box(lower=(-np.inf, -0.0, 1e-13),
            upper=(1 / 3, np.inf, 123456789012345.0),
            lower_open=(True, False, False), upper_open=(False, True, False))
    assert b.describe() \
        == "(-inf, 0.333333333333] x [-0, inf) x [1e-13, 1.23456789012e+14]"
    h = HalfSpace((2.0, -0.5), 1e16, False)
    assert h.describe() == "halfspace (2, -0.5) < 1e+16"
    assert verdicts.format_scalar is core.format_scalar


def test_box_from_literal():
    b = box_from_literal("(0, 1) x [-1, 1]")
    assert b.lower == (0.0, -1.0)
    assert b.lower_open == (True, False)
    assert b.upper_open == (True, False)
    with pytest.raises(RegionError):
        box_from_literal("nonsense")


def test_support_function_of_interval():
    b = interval(-1.0, 2.0)
    assert b.support([1.0]) == 2.0
    assert b.support([-1.0]) == 1.0
    assert b.support([0.0]) == 0.0
    # open ends do not change the supremum
    assert interval(-1.0, 2.0, hi_open=True).support([1.0]) == 2.0


@given(st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_support_positive_homogeneity(scale, direction):
    b = closed_box([-1.0, 0.0], [2.0, 1.0])
    d = [direction, 1.0 - direction]
    one = b.support(d)
    scaled = b.support([scale * c for c in d])
    assert scaled == pytest.approx(scale * one, rel=1e-9, abs=1e-9)


bound = st.sampled_from((-np.inf, -1.5, -0.25, -0.0, 0.0, 0.25, 1.5, np.inf))
direction = st.sampled_from((-2.0, -0.5, -0.0, 0.0, 0.5, 1.25, 3.0)) \
    | st.floats(-1e3, 1e3)


@st.composite
def support_cases(draw):
    n = draw(st.integers(1, 3))
    lo, hi, opens = [], [], []
    for _ in range(n):
        a, b = sorted((draw(bound), draw(bound)))
        if draw(st.booleans()):
            b = a  # degenerate axis
        lo.append(a)
        hi.append(b)
        opens.append((draw(st.booleans()), draw(st.booleans())))
    box = Box(tuple(lo), tuple(hi), tuple(o[0] for o in opens),
              tuple(o[1] for o in opens))
    dirs = draw(st.lists(st.tuples(*[direction] * n), min_size=1,
                         max_size=6))
    return box, dirs


@given(support_cases())
@settings(max_examples=300, deadline=None)
def test_support_rows_equal_the_scalar_support(case):
    """The row form equals Box.support with ==, signed zeros and +-inf
    included, on degenerate, empty and half-infinite boxes."""
    box, dirs = case
    got = box.support_rows(np.array(dirs, dtype=float))
    want = [box.support(d) for d in dirs]
    assert got.tolist() == want
    assert np.signbit(got).tolist() == np.signbit(want).tolist()


class TestHalfSpaceAndPolytope:
    def test_halfspace_membership(self):
        h = HalfSpace(normal=[1.0, 0.0], offset=1.0)
        assert h.contains([1.0, 5.0])
        assert not h.contains([1.1, 0.0])
        strict = HalfSpace(normal=[1.0, 0.0], offset=1.0, closed=False)
        assert not strict.contains([1.0, 0.0])

    def test_intersection_region(self):
        r = intersect_regions(interval(0.0, 2.0),
                              HalfSpace(normal=[1.0], offset=1.0))
        assert isinstance(r, Intersection)
        assert r.contains([0.5])
        assert not r.contains([1.5])


@pytest.mark.parametrize("field, value, message", [
    ("dual_bound", 0.0, "positive"), ("ambient_bound", -1.0, "positive"),
    ("dual_bound", float("nan"), "finite"),
    ("dual_bound", float("inf"), "finite"),
    ("ambient_bound", float("inf"), "finite")])
def test_grid_bounds_are_positive_and_finite(field, value, message):
    with pytest.raises(RegionError, match=f"grid bounds must be {message}"):
        GridSpec(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("resolution", 2.5), ("dual_resolution", 9.5), ("resolution", 9.0),
    ("resolution", "9")])
def test_grid_resolutions_are_integers(field, value):
    """A fractional resolution would give a lattice that is not uniform;
    numpy integers stay accepted."""
    with pytest.raises(RegionError, match="grid resolutions must be integers"):
        GridSpec(**{field: value})
    g = GridSpec(resolution=np.int64(5), dual_resolution=np.int32(3))
    assert grid_sample(interval(0.0, 1.0), g) == [
        (0.0,), (0.25,), (0.5,), (0.75,), (1.0,)]


class TestGridSampling:
    def test_closed_interval_lattice(self):
        pts = grid_sample(interval(0.0, 1.0), GridSpec(resolution=5))
        xs = [p[0] for p in pts]
        assert xs == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_open_end_steps_inside(self):
        pts = grid_sample(interval(0.0, 1.0, lo_open=True, hi_open=True),
                          GridSpec(resolution=5))
        xs = [p[0] for p in pts]
        # step (hi-lo)/(k-1+open_count) with one offset per open end
        step = 1.0 / 6.0
        assert xs == pytest.approx([step * (i + 1) for i in range(5)])
        assert all(0.0 < x < 1.0 for x in xs)

    def test_lex_order_in_two_dims(self):
        pts = grid_sample(closed_box([0.0, 0.0], [1.0, 1.0]),
                          GridSpec(resolution=3))
        assert len(pts) == 9
        assert pts[0] == pytest.approx([0.0, 0.0])
        assert pts[1] == pytest.approx([0.0, 0.5])
        assert pts[3] == pytest.approx([0.5, 0.0])

    def test_unbounded_region_clipped_to_ambient(self):
        g = GridSpec(resolution=5, ambient_bound=10.0)
        pts = grid_sample(whole_space(1), g)
        xs = [p[0] for p in pts]
        assert xs[0] == -10.0 and xs[-1] == 10.0

    def test_samples_respect_membership(self):
        region = interval(-0.5, 0.75, hi_open=True)
        for p in grid_sample(region, GridSpec(resolution=17)):
            assert region.contains(p)

    def test_closed_upper_end_is_pinned(self):
        # The stepped last sample rounds to 0.3800000000000001 here.
        box = closed_box((-1.34,), (0.38,))
        pts = grid_sample(box, GridSpec(resolution=13))
        assert pts[-1] == (0.38,)
        assert all(box.contains(p) for p in pts)

    @staticmethod
    def check_random_boxes(seed, opens):
        """400 random boxes, with random open ends when opens is set: every
        axis gets its full count of samples and each lies in the box."""
        rng = np.random.default_rng(seed)
        for _ in range(400):
            n = int(rng.integers(1, 3))
            lo = np.round(rng.uniform(-2.0, 2.0, n), 2)
            hi = np.round(lo + rng.uniform(0.01, 2.0, n), 2)
            flags = (rng.integers(0, 2, (2, n)) if opens
                     else np.zeros((2, n))).astype(bool)
            lo_open, hi_open = (tuple(map(bool, f)) for f in flags)
            box = Box(tuple(map(float, lo)), tuple(map(float, hi)),
                      lo_open, hi_open)
            g = GridSpec(resolution=int(rng.integers(2, 24)))
            pts = grid_sample(box, g)
            assert len(pts) == g.resolution ** n
            for p in pts:
                assert box.contains(p), (box.describe(), p)

    def test_random_closed_boxes_contain_their_samples(self):
        self.check_random_boxes(3, opens=False)

    def test_random_open_boxes_contain_their_samples(self):
        self.check_random_boxes(4, opens=True)

    def test_lattice_points_land_exactly(self):
        # Stepping from the first open sample put the 0 here at -1.11e-16.
        pts = grid_sample(interval(-1.0, 3.0, True, True),
                          GridSpec(resolution=11))
        assert (0.0,) in pts and (1.0,) in pts and (2.0,) in pts

    def test_dual_lattice_shape(self):
        g = GridSpec(resolution=41, dual_bound=10.0, dual_resolution=41)
        lat = g.dual_lattice(1)
        assert len(lat) == 41
        assert lat[0][0] == -10.0 and lat[-1][0] == 10.0
        assert len(g.dual_lattice(2)) == 41 * 41


class TestNormalCones:
    def test_interior_point_has_trivial_cone(self):
        cone = NormalConeBox(closed_box([0.0], [1.0]))
        assert cone.graph_contains(pdp([0.5], [0.0]), DEFAULT_TOL)
        assert not cone.graph_contains(pdp([0.5], [0.1]), DEFAULT_TOL)

    def test_face_points_have_signed_cone(self):
        cone = NormalConeBox(closed_box([0.0], [1.0]))
        assert cone.graph_contains(pdp([1.0], [3.0]), DEFAULT_TOL)
        assert not cone.graph_contains(pdp([1.0], [-0.1]), DEFAULT_TOL)
        assert cone.graph_contains(pdp([0.0], [-2.0]), DEFAULT_TOL)

    def test_outside_point_has_empty_cone(self):
        cone = NormalConeBox(closed_box([0.0], [1.0]))
        assert not cone.graph_contains(pdp([2.0], [0.0]), DEFAULT_TOL)

    def test_corner_cone_in_two_dims(self):
        cone = NormalConeBox(closed_box([0.0, 0.0], [1.0, 1.0]))
        assert cone.graph_contains(pdp([1.0, 1.0], [2.0, 5.0]), DEFAULT_TOL)
        assert not cone.graph_contains(pdp([1.0, 1.0], [2.0, -1.0]),
                                       DEFAULT_TOL)

    def test_cone_alone_and_in_a_sum_agree_inside_the_band(self):
        # One membership rule: the cone's own test and a sum with the zero
        # map both allow delta_dom on the pinned axis.
        cone = NormalConeBox(closed_box([0.0], [1.0]))
        total = PairSum(Flat(whole_space(1), (0.0,)), cone)
        z = pdp([0.5], [1e-7])
        assert cone.graph_contains(z, DEFAULT_TOL)
        assert total.graph_contains(z, DEFAULT_TOL)


def test_restrict_composition_matches_intersection():
    a = interval(0.0, 2.0, hi_open=True)
    b = interval(1.0, 3.0)
    both = a.intersect(b)
    for x in np.linspace(-0.5, 3.5, 41):
        assert both.contains([x]) == (a.contains([x]) and b.contains([x]))
