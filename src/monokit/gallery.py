"""Pinned scenario suite exercising the documented example operators.

Each scenario builds an operator, runs the relevant checks at the pinned
grid and tolerances, and asserts the expected outcome, including designated
witness points whose arithmetic is verified directly rather than read off
the scan order. One scenario records maximality evidence for a sum operator
without asserting it; clip-edge artifacts are expected there and the point
is the stable record, not a theorem.
"""
from __future__ import annotations

from dataclasses import asdict

from .classify import (RegionFamily, check_identifies, check_locates,
                       check_maximal_on_grid, check_vni, family_scan)
from .core import DEFAULT_TOL, coupling, pdp
from .operators import (AbsSubdiff, Flat, NormalConeBox, PointComplement,
                        mr_test)
from .regions import GridSpec, closed_box, interval, whole_space
from .sumcalc import add_normal_cone
from .verdicts import Property, Verdict, format_point, format_scalar

GALLERY_TOL = DEFAULT_TOL
GALLERY_GRID = GridSpec(resolution=41, dual_bound=10.0, dual_resolution=41,
                        ambient_bound=10.0)


def _claim(label: str, expected, verdict: Verdict, extra=None,
           extra_ok: bool = True) -> dict:
    out = {
        "label": label,
        "expected": "record" if expected is None else str(expected).lower(),
        "actual": verdict.value,
        "approximate": verdict.approximate,
        "witness_count": verdict.witness_count,
    }
    if verdict.witnesses:
        out["first_witness"] = format_point(verdict.witnesses[0])
    if extra:
        out.update(extra)
    if expected is None:
        out["passed"] = True
    else:
        out["passed"] = (verdict.value is expected) and extra_ok
    return out


def scenario_vbar() -> dict:
    """A flat piece over an open interval: the interval identifies it, but
    the closed interval fails to locate at the boundary point."""
    T = Flat(interval(0.0, 1.0, True, True), (0.0,))
    open_win = interval(0.0, 1.0, True, True)
    closed_win = interval(0.0, 1.0)

    ident = check_identifies(T, open_win, GALLERY_GRID, GALLERY_TOL)
    c1 = _claim("open domain window identifies the operator", True, ident)

    loc = check_locates(T, closed_win, GALLERY_GRID, GALLERY_TOL)
    z0 = pdp(0.0, 0.0)
    designated_mr = mr_test(T, closed_win, z0, GALLERY_TOL, GALLERY_GRID)
    designated_dom = T.domain_contains(z0.x, GALLERY_TOL)
    c2 = _claim(
        "closed window fails to locate", False, loc,
        extra={
            "designated_witness": format_point(z0),
            "designated_is_related": designated_mr,
            "designated_in_domain": designated_dom,
        },
        extra_ok=designated_mr and not designated_dom)
    return {"title": "flat piece over an open interval",
            "claims": [c1, c2]}


def scenario_point_complement() -> dict:
    """All nonzero duals over one point: locatable through every window
    around that point, never identifiable there."""
    T = PointComplement((0.0,))
    family = RegionFamily(
        (interval(-1.0, 1.0, True, True),
         interval(-0.5, 0.5, True, True),
         interval(-0.25, 0.25, True, True)),
        "intervals-around-origin")

    loc = family_scan(T, family, Property.LOCATES, GALLERY_GRID, GALLERY_TOL)
    c1 = _claim("every window around the point locates", True, loc)

    ident = family_scan(T, family, Property.IDENTIFIES, GALLERY_GRID,
                        GALLERY_TOL)
    z0 = pdp(0.0, 0.0)
    witness_is_origin = bool(ident.witnesses) and ident.witnesses[0] == z0
    c2 = _claim(
        "no window identifies; the origin is the missing point", False,
        ident,
        extra={"designated_witness": format_point(z0),
               "witness_matches": witness_is_origin},
        extra_ok=witness_is_origin)
    return {"title": "all nonzero duals over a single point",
            "claims": [c1, c2]}


def scenario_normal_cone() -> dict:
    """The normal cone of [-1, 1] is interior-window positive, while the
    bare flat piece it restricts to fails on the whole space."""
    cone = NormalConeBox(closed_box((-1.0,), (1.0,)))
    inner = interval(-1.0, 1.0, True, True)
    vni = check_vni(cone, inner, GALLERY_GRID, GALLERY_TOL)
    c1 = _claim("interior window keeps phi above coupling", True, vni)

    flat = Flat(interval(-1.0, 1.0, True, True), (0.0,))
    ambient = whole_space(1)
    bad = check_vni(flat, ambient, GALLERY_GRID, GALLERY_TOL)
    z = pdp(2.0, 3.0)
    phi_z = flat.phi(None, z)
    c_z = coupling(z)
    arithmetic_ok = (abs(phi_z - 3.0) <= 1e-12
                     and phi_z < c_z - GALLERY_TOL.eps_strict)
    c2 = _claim(
        "standalone flat piece drops below coupling", False, bad,
        extra={
            "designated_witness": format_point(z),
            "designated_phi": format_scalar(phi_z),
            "designated_coupling": format_scalar(c_z),
        },
        extra_ok=arithmetic_ok)
    return {"title": "normal cone of an interval versus its interior slice",
            "claims": [c1, c2]}


def scenario_sum_evidence() -> dict:
    """Maximality evidence for a subdifferential plus a normal cone.

    Recorded, not asserted: the answer is a statement about the clipped
    grid, not the continuum operator.
    """
    S = add_normal_cone(AbsSubdiff(1.0), closed_box((0.0,), (2.0,)),
                        GALLERY_GRID, GALLERY_TOL)
    verdict = check_maximal_on_grid(S, whole_space(1), GALLERY_GRID,
                                    GALLERY_TOL)
    claim = _claim("grid maximality of the sum, recorded as evidence", None,
                   verdict)
    return {"title": "sum evidence: subdifferential plus normal cone",
            "claims": [claim]}


SCENARIOS = {
    "vbar": scenario_vbar,
    "point-complement": scenario_point_complement,
    "normal-cone": scenario_normal_cone,
    "sum-evidence": scenario_sum_evidence,
}


def run_gallery(name: str) -> tuple[dict, bool]:
    """Run one scenario or all; returns the report tree and overall pass."""
    if name == "all":
        names = tuple(SCENARIOS)
    elif name in SCENARIOS:
        names = (name,)
    else:
        known = ", ".join(SCENARIOS)
        raise KeyError(f"unknown scenario {name!r}; known: {known}, all")
    scenarios = {}
    all_passed = True
    for n in names:
        result = SCENARIOS[n]()
        claims = {}
        for i, c in enumerate(result["claims"], start=1):
            label = c.pop("label")
            claims[f"{i:02d} {label}"] = c
            all_passed = all_passed and c["passed"]
        scenarios[n] = {"title": result["title"], "claims": claims}
    report = {
        "grid": asdict(GALLERY_GRID),
        "tolerance": asdict(GALLERY_TOL),
        "scenarios": scenarios,
        "overall": "pass" if all_passed else "fail",
    }
    return report, all_passed
