"""One scan per window in a classify run.

A classify run builds one scan per window and hands it to every property
(cli._run_scans, cli._dispatch). Each property must then equal the public
call that builds its own scan (check_* or is_monotone), for every demo
description and for drawn operators of every kind; the run must build the
lattice and the closed-form phi once, and the graph at most once per
window; and no scan may outlive its run.
"""
import contextlib
import gc
import io
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import monokit
from monokit import (
    DEFAULT_TOL,
    Flat,
    GridSpec,
    Tolerance,
    check_condition_c,
    check_identifies,
    check_locates,
    check_maximal_on_grid,
    check_v_representable,
    check_vni,
    interval,
    is_monotone,
    parse_spec,
    whole_space,
)
from monokit import classify, cli, fitzpatrick
from monokit.core import coupling_rows
from monokit.errors import MonokitError
from monokit.operators import OperatorHandle
from monokit.specfile import RunConfig
from monokit.verdicts import Property
from test_graph_rows import _subclasses
from test_scan_kernel import cases

SPECS = sorted((Path(__file__).resolve().parent.parent
                / "demos" / "specs").glob("*.spec"))

# Every property a run answers from its window scans, in two orders: what a
# property reads first must not change what another reads.
SCANNED = (Property.MONOTONE, Property.VNI, Property.NI, Property.LOCATES,
           Property.IDENTIFIES, Property.V_REPRESENTABLE,
           Property.CONDITION_C, Property.MAXIMAL_ON_GRID)


def separate(prop: Property, config: RunConfig):
    """The property as a public call with its own scan, asked as classify
    asks it."""
    T, g, tol = config.operator, config.grid, config.tol
    window = config.window if config.window is not None \
        else whole_space(T.dimension)
    if prop is Property.MONOTONE:
        return is_monotone(T, tol, g, V=config.window)
    if prop is Property.VNI:
        return check_vni(T, window, g, tol)
    if prop is Property.NI:
        return replace(check_vni(T, whole_space(T.dimension), g, tol),
                       property=Property.NI)
    if prop is Property.LOCATES:
        return check_locates(T, window, g, tol, target=config.target)
    if prop is Property.IDENTIFIES:
        return check_identifies(T, window, g, tol)
    if prop is Property.V_REPRESENTABLE:
        return check_v_representable(T, window, g, tol)
    if prop is Property.CONDITION_C:
        return check_condition_c(T, window, g, tol)
    assert prop is Property.MAXIMAL_ON_GRID
    return check_maximal_on_grid(T, config.window, g, tol)


def outcome(call):
    """The verdict, or the type and message of the error raised."""
    try:
        return call()
    except MonokitError as exc:
        return type(exc), str(exc)


def assert_run_matches_separate_calls(config: RunConfig):
    """Each property of one run, in both orders, equals its separate call:
    value, witnesses, witness_count, flags, regions and notes (Verdict's
    ==), or the same error."""
    want = {p: outcome(lambda: separate(p, config)) for p in SCANNED}
    for order in (SCANNED, SCANNED[::-1]):
        scans = cli._run_scans(config)
        got = {p: outcome(lambda: cli._dispatch(p, config, scans))
               for p in order}
        assert got == want


@pytest.mark.parametrize("spec", SPECS, ids=lambda p: p.stem)
def test_each_demo_property_equals_its_separate_call(spec):
    config = parse_spec(spec.read_text())
    assert_run_matches_separate_calls(config)


@given(cases())
@settings(max_examples=60, deadline=None)
def test_drawn_properties_equal_their_separate_calls(case):
    T, V, g = case
    assert_run_matches_separate_calls(RunConfig(
        operator=T, window=V, target=None, properties=SCANNED, grid=g,
        tol=DEFAULT_TOL))


def test_closed_form_selections_are_the_batch_masks_at_ties():
    """On the closed route a scan compares its one phi with the coupling
    itself; at margins that phi meets exactly on lattice rows, its rows
    below and related are still below_batch's and mr_batch's."""
    T, V = Flat(interval(0.0, 1.0), (0.0,)), interval(-2.0, 2.0)
    g = GridSpec(resolution=9, dual_bound=2.0, dual_resolution=9)
    tol = Tolerance(eps_eq=0.25, eps_strict=0.25, delta_dom=1e-6)
    s = classify._Scan(T, V, g, tol)
    rows, c = s.rows, coupling_rows(s.rows)
    phi = T.phi_batch(V, rows, g)
    assert (phi == c - 0.25).any() and (phi == c + 0.25).any()
    assert np.array_equal(s.below, rows[T.below_batch(V, rows, c - 0.25, g)])
    assert np.array_equal(s.related, rows[T.mr_batch(V, rows, tol, g)])


@pytest.fixture
def calls(monkeypatch):
    """A count of scan_rows calls, wherever monokit binds it, and of the
    _phi_closed and _enumerate calls made on each operator, by window; and
    the configurations that classify parsed, in order."""
    out = {"scan_rows": 0, "_phi_closed": [], "_enumerate": [],
           "configs": []}
    real_scan, real_parse = fitzpatrick.scan_rows, cli.parse_spec

    def parse_spec(text):
        out["configs"].append(real_parse(text))
        return out["configs"][-1]

    monkeypatch.setattr(cli, "parse_spec", parse_spec)

    def scan_rows(V, g):
        out["scan_rows"] += 1
        return real_scan(V, g)

    for name in dir(monokit):
        module = getattr(monokit, name)
        if getattr(module, "scan_rows", None) is real_scan:
            monkeypatch.setattr(module, "scan_rows", scan_rows)
    for cls in [OperatorHandle] + _subclasses(OperatorHandle):
        for method in ("_phi_closed", "_enumerate"):
            real = cls.__dict__.get(method)
            if real is None:
                continue

            def counted(self, V, *args, real=real, method=method):
                out[method].append((id(self), V))
                return real(self, V, *args)

            monkeypatch.setattr(cls, method, counted)
    return out


def classify_run(tmp_path, text: str) -> int:
    spec = tmp_path / "run.spec"
    spec.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["classify", "--spec", str(spec),
                         "--out", str(tmp_path / "report")])


WINDOW_PROPERTIES = ("properties:\n  - vni\n  - locates\n  - identifies\n"
                     "  - condition_c\n  - maximal_on_grid\n"
                     "grid:\n  resolution: 7\n  dual_bound: 2\n"
                     "  dual_resolution: 5\n")

# (operator block, window line, closed form): closed-form kinds read one
# phi, the others one graph over the window.
RUNS = [
    ("operator:\n  kind: abs_subdiff\n  slope: 1\n", "window: [-1, 1]\n",
     True),
    ("operator:\n  kind: normal_cone_box\n  box: [-1, 1] x [-0.5, 1]\n",
     "window: (-1.5, 1.5) x [-1, 1.5]\n", True),
    ("operator:\n  kind: flat\n  region: (0, 1)\n  wstar: 0.5\n",
     "window: [-1, 2]\n", True),
    ("operator:\n  kind: point_complement\n  anchor: [0, 0.5]\n",
     "window: [-1, 1] x [0, 1]\n", True),
    ("operator:\n  kind: linear\n  matrix:\n    - [0.5]\n", "", True),
    ("operator:\n  kind: linear\n  matrix:\n    - [0.5]\n",
     "window: [-1, 1]\n", False),
    ("operator:\n  kind: finite_graph\n  points:\n    - [0, 0]\n"
     "    - [0.5, 1]\n", "window: [-1, 1]\n", False),
    ("operator:\n  kind: sum_normal_cone\n  operator:\n    kind: abs_subdiff\n"
     "    slope: 1\n  box: [-0.5, 1]\n", "window: (-1.5, 2)\n", False),
]


@pytest.mark.parametrize("operator, window, closed", RUNS,
                         ids=["abs", "cone-2d", "flat", "point-complement",
                              "linear-whole", "linear-box", "finite",
                              "sum-cone"])
def test_a_run_builds_one_lattice_one_phi_and_one_graph(
        operator, window, closed, calls, tmp_path):
    """vni, locates, identifies, condition_c and maximal_on_grid on one
    window: one scan_rows call, one closed-form phi on the closed route
    (none on the graph route), and at most one enumeration per window."""
    assert classify_run(tmp_path, operator + window + WINDOW_PROPERTIES) \
        <= 1
    assert calls["scan_rows"] == 1
    assert len(calls["_phi_closed"]) == (1 if closed else 0)
    outer = {i for i, _ in calls["_enumerate"]}
    for i in outer:
        asked = [V for j, V in calls["_enumerate"] if j == i]
        assert len(asked) == len(set(map(id, asked))), asked


@pytest.mark.parametrize("spec", [s for s in SPECS
                                  if s.stem != "low_representable_finite_graph"],
                         ids=lambda p: p.stem)
def test_each_demo_run_builds_one_lattice(spec, calls, tmp_path):
    """A demo run without a family scan builds one scan lattice, and each
    window's graph of the operator at most once."""
    assert classify_run(tmp_path, spec.read_text()) <= 1
    assert calls["scan_rows"] == 1
    [config] = calls["configs"]
    T = config.operator
    closed = T._closed_route(config.window)
    assert [i for i, _ in calls["_phi_closed"]].count(id(T)) == \
        (1 if closed else 0)
    own = [V for i, V in calls["_enumerate"] if i == id(T)]
    assert len(own) == len(set(map(id, own))), own


def test_two_runs_build_two_scans(calls, tmp_path, monkeypatch):
    """Nothing of a run's scans is kept for the next run: each run builds
    its lattice and its phi again, and no scan is alive after its run."""
    made = []
    real_init = classify._Scan.__init__

    def init(self, *args):
        made.append(weakref.ref(self))
        real_init(self, *args)

    monkeypatch.setattr(classify._Scan, "__init__", init)
    text = RUNS[0][0] + RUNS[0][1] + WINDOW_PROPERTIES
    for k in (1, 2):
        assert classify_run(tmp_path, text) <= 1
        assert calls["scan_rows"] == k
        assert len(calls["_phi_closed"]) == k
        gc.collect()
        assert made and all(ref() is None for ref in made)
