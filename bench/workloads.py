"""Seeded job lists for the three benchmark workloads.

Every workload is a fixed grid of job cells (kind, dimension, resolution,
property) whose numeric parameters alone come from the seed, so two seeds
give about the same amount of work on different inputs. The program only ever
sees the generated operators, windows, grids and spec files.

A job is one call into the public API or one in-process `monokit` command
line; `call` is the timed part. Everything needed to check the outcome
(the grid and tolerance passed, the lattice the witnesses must lie on, the
twin it must agree with) is described here and evaluated after timing.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from monokit import classify, cli, fitzpatrick, gallery, operators, sumcalc
from monokit.core import DEFAULT_TOL, PrimalDualPoint, Tolerance
from monokit.operators import (AbsSubdiff, FiniteGraph, Flat, Linear,
                               NormalConeBox, PointComplement)
from monokit.regions import (Box, GridSpec, HalfSpace, closed_box,
                             grid_sample, interval, open_box, whole_space)
from monokit.verdicts import Property

TOL = DEFAULT_TOL


@dataclass
class Job:
    """One unit of work with what is needed to check its outcome.

    kind is "verdict" (call returns a Verdict), "cli" (call returns the
    exit code and captured standard output of monokit.cli.main), "gallery"
    or "export". scans lists (window, grid) lattices the job scans; it
    gives the input size and the lattice every witness must lie on.
    graph lists (operator, window, grid) enumerations whose points are also
    legal witnesses (representability and monotone checks). props are the
    properties a classify spec asks for; explain names the known defect
    behind a twin disagreement.
    """

    name: str
    call: Callable[[], object]
    kind: str = "verdict"
    grid: GridSpec | None = None
    tol: Tolerance | None = None
    scans: list = field(default_factory=list)
    graph: list = field(default_factory=list)
    twin: str | None = None
    pinned: bool = False
    props: tuple[str, ...] = ()
    explain: Callable[[], str] | None = None


# ---------------------------------------------------------------- helpers

def _num(v: float) -> str:
    return repr(float(v))


def _axis_literal(lo, hi, lo_open, hi_open) -> str:
    return (("(" if lo_open else "[") + f"{_num(lo)}, {_num(hi)}"
            + (")" if hi_open else "]"))


def _box_literal(box: Box) -> str:
    return " x ".join(
        _axis_literal(lo, hi, lo_o, hi_o) for lo, hi, lo_o, hi_o in
        zip(box.lower, box.upper, box.lower_open, box.upper_open))


def _r2(v) -> float:
    return float(np.round(v, 2))


def _centre(rng, n, spread) -> tuple[float, ...]:
    return tuple(_r2(rng.uniform(-spread, spread)) for _ in range(n))


def _box_around(rng, centre, half, *, closed=False) -> Box:
    """A box of fixed half-width at a seeded centre, with random open ends
    unless closed. Fixed widths keep lattice, graph and overlap sizes, and
    so the work per job, the same from seed to seed."""
    n = len(centre)
    lo = tuple(_r2(c - half) for c in centre)
    hi = tuple(_r2(c + half) for c in centre)
    if closed:
        return closed_box(lo, hi)
    return Box(lo, hi, tuple(bool(rng.random() < 0.5) for _ in range(n)),
               tuple(bool(rng.random() < 0.5) for _ in range(n)))


def _random_vector(rng, n, scale=2.0) -> tuple[float, ...]:
    return tuple(_r2(rng.uniform(-scale, scale)) for _ in range(n))


def _abs(rng) -> AbsSubdiff:
    """|x| scaled by a slope near 1. The enumerated graph holds every dual
    lattice value strictly between -slope and slope at the kink, so a wider
    slope range would change the work per job from seed to seed."""
    return AbsSubdiff(_r2(rng.uniform(0.9, 1.1)))


def _monotone_matrix(rng, n) -> tuple[tuple[float, ...], ...]:
    root = rng.uniform(-1.0, 1.0, (n, n))
    skew = rng.uniform(-0.5, 0.5, (n, n))
    m = root @ root.T + 0.2 * np.eye(n) + (skew - skew.T)
    return tuple(tuple(_r2(c) for c in row) for row in m)


def _monotone_points(rng, n, npts) -> tuple[PrimalDualPoint, ...]:
    """Monotone samples: a joint sort on the line, a convex quadratic's
    gradient in the plane."""
    if n == 1:
        xs = np.sort(rng.uniform(-2.0, 2.0, npts)) + np.arange(npts) * 1e-3
        ss = np.sort(rng.uniform(-2.0, 2.0, npts))
        return tuple(PrimalDualPoint((float(x),), (float(s),))
                     for x, s in zip(xs, ss))
    root = rng.uniform(-0.6, 0.6, (n, n))
    A = root @ root.T
    b = rng.uniform(-0.5, 0.5, n)
    pts = []
    for _ in range(npts):
        x = rng.uniform(-2.0, 2.0, n)
        pts.append(PrimalDualPoint(tuple(float(c) for c in x),
                                   tuple(float(c) for c in A @ x + b)))
    return tuple(pts)


def _spanning_points(rng, n, npts, xspan, sspan):
    """Separable monotone samples whose coordinates reach +-xspan and
    +-sspan, so the data's bounding box is the whole lattice box and every
    envelope value on the lattice is an LP solve."""
    axes = []
    for _ in range(n):
        xs = np.sort(rng.uniform(-xspan, xspan, npts))
        ss = np.sort(rng.uniform(-sspan, sspan, npts))
        xs[0], xs[-1], ss[0], ss[-1] = -xspan, xspan, -sspan, sspan
        order = rng.permutation(npts)
        axes.append((xs[order], ss[order]))
    return tuple(
        PrimalDualPoint(tuple(float(a[0][k]) for a in axes),
                        tuple(float(a[1][k]) for a in axes))
        for k in range(npts))


def _verdict_job(name, fn, V, g, *, scans=None, graph=(), twin=None,
                 pinned=False, tol=TOL, explain=None) -> Job:
    return Job(name=name, call=fn, grid=g, tol=tol,
               scans=list(scans if scans is not None else [(V, g)]),
               graph=list(graph), twin=twin, pinned=pinned, explain=explain)


def _sum_twin_cause(C: Box, V: Box, g: GridSpec):
    """Which known defect can make the two sum constructions disagree.

    SumNormalCone drops lattice points outside the closed box and PairSum
    keeps them, so a lattice that overshoots the box splits the twins; in
    n >= 2 PairSum decides membership by enumerating at DEFAULT_GRID
    instead of the grid passed (ROADMAP item 3).
    """
    def cause():
        cut = C.intersect(V)
        out = [x for x in grid_sample(cut, g) if not C.contains(x)]
        if out:
            return (f"known cause: grid_sample returns {out[0]} outside the "
                    f"closed box {C.describe()}")
        if C.dimension > 1:
            return ("known cause: PairSum membership enumerates at "
                    "DEFAULT_GRID, not the grid passed")
        return "cause not identified"
    return cause


_CHECKS = {
    "vni": lambda T, V, g: classify.check_vni(T, V, g, TOL),
    "locates": lambda T, V, g: classify.check_locates(T, V, g, TOL),
    "identifies": lambda T, V, g: classify.check_identifies(T, V, g, TOL),
    "condition_c": lambda T, V, g: classify.check_condition_c(T, V, g, TOL),
}


# ---------------------------------------------------------------- closed-form

# (kind, dimensions); linear runs on the whole space, where phi is exact.
# The box normal cone stops at n = 2: its phi scans 3^n faces per point and
# its boundary enumeration grows with dual_resolution^n, so in n = 3 a few
# jobs would outweigh the rest of the workload.
CF_KINDS = (("flat", (1, 2, 3)), ("normal_cone_box", (1, 2)),
            ("abs_subdiff", (1,)), ("point_complement", (1, 2, 3)),
            ("finite_graph", (1, 2)), ("linear", (1, 2, 3)))
# (resolution, dual_resolution) steps per dimension.
CF_STEPS = {1: ((11, 11), (21, 21), (41, 21)),
            2: ((3, 5), (5, 5), (7, 5)),
            3: ((2, 3), (3, 3), (4, 3))}
CF_PROPS = (("vni", "locates"), ("identifies", "condition_c"),
            ("vni", "identifies"), ("locates", "condition_c"),
            ("vni", "condition_c"), ("locates", "identifies"))
CF_REPEAT = 3
CF_DUAL_BOUND = 4.0


def _cf_operator(rng, kind, n, centre) -> tuple[list[str], object]:
    """Spec lines of the operator block and the operator it parses to.

    Regions, boxes and anchors sit near the window centre, so the window
    always holds the operator's structure.
    """
    near = tuple(_r2(c + d) for c, d in zip(centre, _centre(rng, n, 0.3)))
    if kind == "flat":
        region, w = _box_around(rng, near, 1.0), _random_vector(rng, n)
        return ([f"  region: {_box_literal(region)}",
                 f"  wstar: [{', '.join(_num(c) for c in w)}]"],
                Flat(region, w))
    if kind == "normal_cone_box":
        box = _box_around(rng, near, 1.0, closed=True)
        return [f"  box: {_box_literal(box)}"], NormalConeBox(box)
    if kind == "abs_subdiff":
        a = _r2(rng.uniform(0.5, 2.0))
        return [f"  slope: {_num(a)}"], AbsSubdiff(a)
    if kind == "point_complement":
        return ([f"  anchor: [{', '.join(_num(c) for c in near)}]"],
                PointComplement(near))
    if kind == "finite_graph":
        pts = _monotone_points(rng, n, 8)
        rows = ["  points:"] + [
            "    - [" + ", ".join(_num(c) for c in p.x + p.xstar) + "]"
            for p in pts]
        return rows, FiniteGraph(pts)
    m = _monotone_matrix(rng, n)
    rows = ["  matrix:"] + ["    - [" + ", ".join(_num(c) for c in row) + "]"
                            for row in m]
    return rows, Linear(m)


def closed_form(seed: int, workdir: Path) -> list[Job]:
    """`monokit classify` spec runs over every closed-form kind."""
    rng = np.random.default_rng([seed, 1])
    cells = [(kind, n, step) for kind, dims in CF_KINDS for n in dims
             for step in CF_STEPS[n]]
    jobs = []
    for i in range(CF_REPEAT * len(cells)):
        kind, n, (r, dr) = cells[i % len(cells)]
        props = ("monotone",) + CF_PROPS[i % len(CF_PROPS)]
        centre = _centre(rng, n, 0.5)
        op_lines, T = _cf_operator(rng, kind, n, centre)
        if kind == "linear":
            window = None
        elif kind == "finite_graph":
            # Holds every sample point: they lie in [-2, 2]^n.
            window = _box_around(rng, (0.0,) * n, 2.2)
        else:
            window = _box_around(rng, centre, 1.5)
        g = GridSpec(resolution=r, dual_bound=CF_DUAL_BOUND,
                     dual_resolution=dr)
        lines = ["operator:", f"  kind: {kind}"] + op_lines
        if window is not None:
            lines.append(f"window: {_box_literal(window)}")
        lines += ["grid:", f"  resolution: {r}",
                  f"  dual_resolution: {dr}",
                  f"  dual_bound: {_num(CF_DUAL_BOUND)}",
                  "properties:"] + [f"  - {p}" for p in props]
        name = f"cf-{i:03d}-{kind}-n{n}-r{r}"
        path = workdir / f"{name}.spec"
        path.write_text("\n".join(lines) + "\n")
        V = window if window is not None else whole_space(n)
        jobs.append(Job(
            name=name, kind="cli",
            call=_cli_call(["classify", "--spec", str(path)]),
            grid=g, tol=TOL, scans=[(V, g)] * (len(props) - 1),
            graph=[(T, window, g)], props=props))
    return jobs


def _cli_call(argv):
    import contextlib
    import io

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()
    return call


# ---------------------------------------------------------------- sampled-scan

SUM2D_GRID = GridSpec(resolution=5, dual_bound=4.0, dual_resolution=5)
SUM_KINDS = ("abs_subdiff", "linear", "flat")
PROPS = ("vni", "locates", "identifies", "condition_c")


def _sum_summand(rng, kind, n):
    if kind == "abs_subdiff":
        return _abs(rng)
    if kind == "linear":
        return Linear(_monotone_matrix(rng, n))
    return Flat(whole_space(1), _random_vector(rng, 1))


def _sum_twins(tag, A, C, V, g, prop, twin) -> list[Job]:
    check = _CHECKS[prop]
    cause = _sum_twin_cause(C, V, g)
    return [
        _verdict_job(
            f"{tag}-cone-{prop}",
            lambda: check(sumcalc.add_normal_cone(A, C, g, TOL), V, g),
            V, g, twin=twin, explain=cause),
        _verdict_job(
            f"{tag}-pair-{prop}",
            lambda: check(sumcalc.operator_sum(A, NormalConeBox(C), g, TOL),
                          V, g),
            V, g, twin=twin, explain=cause),
    ]


def sampled_scan(seed: int, workdir: Path) -> list[Job]:
    """Checks whose phi falls back to the enumerated graph."""
    rng = np.random.default_rng([seed, 2])
    jobs: list[Job] = []
    gg = gallery.GALLERY_GRID
    jobs.append(Job(
        name="gallery-all", kind="gallery",
        call=lambda: gallery.run_gallery("all"), pinned=True,
        scans=[(interval(0.0, 1.0, True, True), gg), (interval(0.0, 1.0), gg),
               (interval(-1.0, 1.0, True, True), gg), (whole_space(1), gg),
               (whole_space(1), gg)]))

    # Pinned: the 2-D linear-plus-box-cone identifies twin at resolution 5.
    lin2 = Linear(((1.0, 0.5), (-0.5, 1.0)))
    box2 = closed_box((-1.0, -1.0), (1.0, 1.0))
    win2 = open_box((-2.0, -2.0), (2.0, 2.0))
    pinned2 = _sum_twins("sum2d-r5", lin2, box2, win2, SUM2D_GRID,
                         "identifies", "sum2d-r5")
    for job in pinned2:
        job.pinned = True
    jobs += pinned2

    # Linear maps on bounded windows: phi is the sampled sup.
    for i in range(16):
        n = 1 + i % 2
        r = (11, 21)[i // 2 % 2] if n == 1 else (3, 4)[i // 2 % 2]
        prop = PROPS[i // 4]
        T = Linear(_monotone_matrix(rng, n))
        V = _box_around(rng, _centre(rng, n, 0.5), 1.5)
        g = GridSpec(resolution=r, dual_bound=4.0, dual_resolution=r)
        jobs.append(_verdict_job(f"lin-{i:02d}-n{n}-r{r}-{prop}",
                                 _bind(_CHECKS[prop], T, V, g), V, g))

    # The closed-form kinds on half-space windows: the sampled route. The
    # offset is fixed, so the share of the clipped box that the half-space
    # keeps does not depend on the seeded normal.
    for i in range(24):
        kind = ("flat", "normal_cone_box", "abs_subdiff")[i % 3]
        n = 1 if kind == "abs_subdiff" else 1 + i // 3 % 2
        r = (11, 21)[i // 6 % 2] if n == 1 else (3, 4)[i // 6 % 2]
        prop = PROPS[i // 6]
        if kind == "flat":
            T = Flat(_box_around(rng, _centre(rng, n, 0.5), 1.0),
                     _random_vector(rng, n))
        elif kind == "normal_cone_box":
            T = NormalConeBox(_box_around(rng, _centre(rng, n, 0.5), 1.0,
                                          closed=True))
        else:
            T = _abs(rng)
        normal = tuple(float(c) for c in rng.choice([-1.0, 1.0], n))
        V = HalfSpace(normal, 0.5)
        g = GridSpec(resolution=r, dual_bound=4.0, dual_resolution=r,
                     ambient_bound=2.0)
        jobs.append(_verdict_job(f"half-{i:02d}-{kind}-n{n}-r{r}-{prop}",
                                 _bind(_CHECKS[prop], T, V, g), V, g))

    # add_normal_cone sums with their operator_sum twins. The window reaches
    # past the box by a fixed margin. In n = 2 the pair sum's membership
    # test enumerates at the default grid (ROADMAP item 3), so an identifies
    # scan costs seconds; the pinned twin above covers that case.
    for i in range(20):
        kind, prop = SUM_KINDS[i % 3], PROPS[i // 3 % 3]
        r = (11, 15)[i // 9 % 2]
        c = _centre(rng, 1, 0.8)
        C = _box_around(rng, c, 0.6, closed=True)
        V = _box_around(rng, c, 1.2)
        g = GridSpec(resolution=r, dual_bound=4.0, dual_resolution=r)
        jobs += _sum_twins(f"sum-{i:02d}-{kind}-n1-r{r}",
                           _sum_summand(rng, kind, 1), C, V, g, prop,
                           f"sum-{i:02d}")
    for i in range(10):
        prop = PROPS[i % 2]
        c = _centre(rng, 2, 0.8)
        C = _box_around(rng, c, 0.6, closed=True)
        V = _box_around(rng, c, 1.2)
        g = GridSpec(resolution=3, dual_bound=4.0, dual_resolution=3)
        jobs += _sum_twins(f"sum2-{i:02d}-linear-n2-r3",
                           _sum_summand(rng, "linear", 2), C, V, g, prop,
                           f"sum2-{i:02d}")

    # Grid maximality of sums: the whole-ambient identifies scan.
    for i in range(4):
        A = _abs(rng)
        C = _box_around(rng, _centre(rng, 1, 0.8), 0.6, closed=True)
        g = GridSpec(resolution=11, dual_bound=4.0, dual_resolution=11,
                     ambient_bound=3.0)
        amb = whole_space(1)
        jobs.append(_verdict_job(
            f"maximal-{i}",
            lambda A=A, C=C, g=g, amb=amb: classify.check_maximal_on_grid(
                sumcalc.add_normal_cone(A, C, g, TOL), amb, g, TOL),
            amb, g))
    return jobs


def _bind(check, T, V, g):
    return lambda: check(T, V, g)


# ---------------------------------------------------------------- envelope-lp

def envelope_lp(seed: int, workdir: Path) -> list[Job]:
    """Coupling-envelope checks: every value is an LP solve."""
    rng = np.random.default_rng([seed, 3])
    jobs: list[Job] = []

    T = AbsSubdiff(1.0)
    V = interval(-2.0, 2.0, True, True)
    g = GridSpec(resolution=161, dual_resolution=161)
    jobs.append(_verdict_job(
        "vrep-abs-r161", lambda: classify.check_v_representable(T, V, g, TOL),
        V, g, graph=[(T, V, g)], pinned=True))

    # Seeded monotone finite graphs, every point inside the window.
    for i in range(30):
        n = 1 if i % 3 else 2
        npts = 8 + 4 * (i % 4)
        r = 41 if n == 1 else (5, 7)[i % 2]
        Tg = FiniteGraph(_monotone_points(rng, n, npts))
        Vg = closed_box((-2.2,) * n, (2.2,) * n)
        gg = GridSpec(resolution=r, dual_bound=3.0, dual_resolution=r)
        jobs.append(_verdict_job(
            f"vrep-graph-{i:02d}-n{n}-p{npts}-r{r}",
            _bind(lambda T, V, g: classify.check_v_representable(T, V, g, TOL),
                  Tg, Vg, gg),
            Vg, gg, graph=[(Tg, Vg, gg)]))

    # Analytic kinds at stepped resolutions. The window is fixed and the
    # region or box has a fixed width at a seeded position, so the graph
    # and the band keep their size from seed to seed.
    Vk = open_box((-2.5,), (2.5,))
    for i in range(18):
        kind = ("abs_subdiff", "flat", "normal_cone_box")[i % 3]
        # The normal cone's boundary points carry every dual magnitude, so
        # its envelope has the most data; it stays at the lowest step.
        r = 41 if kind == "normal_cone_box" else (41, 61, 81)[i // 3 % 3]
        c = _r2(rng.uniform(-1.0, 1.0))
        if kind == "abs_subdiff":
            Tk = _abs(rng)
        elif kind == "flat":
            Tk = Flat(Box((c - 1.0,), (c + 1.0,), (bool(rng.random() < 0.5),),
                          (bool(rng.random() < 0.5),)),
                      _random_vector(rng, 1))
        else:
            Tk = NormalConeBox(closed_box((c - 1.0,), (c + 1.0,)))
        gk = GridSpec(resolution=r, dual_bound=3.0, dual_resolution=r)
        jobs.append(_verdict_job(
            f"vrep-{kind}-{i:02d}-r{r}",
            _bind(lambda T, V, g: classify.check_v_representable(T, V, g, TOL),
                  Tk, Vk, gk),
            Vk, gk, graph=[(Tk, Vk, gk)]))

    # Split-dual verification: box and normal-cone twins, sampled second term.
    # Summands enumerate on the lattice: a pair sum matches primals on the
    # shared lattice, so a finite-graph summand has no cone twin.
    # The window reaches past the box by a fixed margin, so the share of
    # lattice points inside the box, where the split minimum runs, is the
    # same for every seed.
    for i in range(12):
        A = (_abs(rng) if i % 2
             else Linear(((_r2(rng.uniform(0.2, 1.5)),),)))
        c = _r2(rng.uniform(-0.8, 0.8))
        C = closed_box((_r2(c - 0.6),), (_r2(c + 0.6),))
        V = closed_box((_r2(c - 1.2),), (_r2(c + 1.2),))
        r = (9, 13, 17)[i % 3]
        gs = GridSpec(resolution=r, dual_bound=3.0, dual_resolution=r)
        tag = f"split-{i:02d}-r{r}"
        scans, graph = [(V, gs)], [(_SumGraph(A, C), V, gs)]
        jobs.append(_verdict_job(
            f"{tag}-box",
            lambda A=A, C=C, V=V, g=gs: sumcalc.verify_sum_representative(
                A, C, V, g, TOL),
            V, gs, scans=scans, graph=graph, twin=tag,
            explain=_sum_twin_cause(C, V, gs)))
        jobs.append(_verdict_job(
            f"{tag}-cone",
            lambda A=A, C=C, V=V, g=gs: sumcalc.verify_sum_representative(
                A, NormalConeBox(C), V, g, TOL),
            V, gs, scans=scans, graph=graph, twin=tag,
            explain=_sum_twin_cause(C, V, gs)))
    for i in range(6):
        A = _abs(rng)
        B = Linear(((_r2(rng.uniform(0.2, 1.5)),),))
        c = _r2(rng.uniform(-0.8, 0.8))
        V = closed_box((_r2(c - 1.0),), (_r2(c + 1.0),))
        gs = GridSpec(resolution=(7, 9)[i % 2], dual_bound=3.0,
                      dual_resolution=(7, 9)[i % 2])
        jobs.append(_verdict_job(
            f"split-sampled-{i}-r{gs.resolution}",
            lambda A=A, B=B, V=V, g=gs: sumcalc.verify_sum_representative(
                A, B, V, g, TOL),
            V, gs, graph=[(_PairGraph(A, B), V, gs)]))

    # Low-representability family scans.
    for i in range(10):
        Tf = FiniteGraph(_monotone_points(rng, 1, 5 + i % 3))
        gf = GridSpec(resolution=9, dual_bound=3.0, dual_resolution=9,
                      ambient_bound=2.5)
        amb = gf.primal_clip(1)

        def run(T=Tf, g=gf, amb=amb):
            fam = classify.dyadic_open_boxes(amb, 2, T, g, TOL)
            return classify.family_scan(T, fam, Property.LOW_REPRESENTABLE,
                                        g, TOL)
        jobs.append(_verdict_job(f"lowrep-{i}", run, whole_space(1), gf,
                                 graph=[(Tf, None, gf)]))

    # `monokit export --fn psi` on finite graphs that span the lattice box.
    for i in range(24):
        n = 1 if i % 2 else 2
        k = (15, 21, 29)[i // 2 % 3] if n == 1 else (3, 4, 5)[i // 2 % 3]
        pts = _spanning_points(rng, n, 6 + i % 5, 2.0, 3.0)
        W = closed_box((-2.0,) * n, (2.0,) * n)
        lines = ["operator:", "  kind: finite_graph", "  points:"] + [
            "    - [" + ", ".join(_num(c) for c in p.x + p.xstar) + "]"
            for p in pts] + [f"window: {_box_literal(W)}", "grid:",
                             "  dual_bound: 3.0"]
        name = f"export-psi-{i:02d}-n{n}-g{k}"
        path = workdir / f"{name}.spec"
        path.write_text("\n".join(lines) + "\n")
        ge = GridSpec(resolution=k, dual_bound=3.0, dual_resolution=k)
        jobs.append(Job(name=name, kind="export",
                        call=_cli_call(["export", "--spec", str(path),
                                        "--fn", "psi", "--grid", str(k)]),
                        grid=ge, scans=[(W, ge)]))
    return jobs


@dataclass(frozen=True)
class _SumGraph:
    """Enumerates A + N_C for the witness lattice of a split-dual check."""

    A: object
    C: Box

    def enumerate_graph(self, V, g):
        return operators.SumNormalCone(self.A, self.C).enumerate_graph(V, g) \
            + operators.PairSum(self.A, NormalConeBox(self.C)) \
            .enumerate_graph(V, g)


@dataclass(frozen=True)
class _PairGraph:
    A: object
    B: object

    def enumerate_graph(self, V, g):
        return operators.PairSum(self.A, self.B).enumerate_graph(V, g)


GENERATORS = {"closed-form": closed_form, "sampled-scan": sampled_scan,
            "envelope-lp": envelope_lp}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    return GENERATORS[workload](seed, workdir)


def warmup_job(jobs: list[Job]) -> Job:
    """The job with the smallest scan among the first few, run once at
    set-up so first-call costs stay out of the timed passes."""
    return min(jobs[:12], key=lambda j: sum(
        len(fitzpatrick.scan_grid(V, g)) for V, g in j.scans))
