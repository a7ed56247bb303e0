"""Command line entry points: classify, gallery, export.

Reports are structured text rendered deterministically: dictionary keys
sorted, floats at 12 significant digits, inf literals spelled out. Exit
codes: 0 all requested checks hold, 1 some verdict is false, 2 parse or
hypothesis-gate errors.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .classify import (check_condition_c, check_identifies, check_locates,
                       check_maximal_on_grid, check_v_representable,
                       check_vni, dyadic_open_boxes, family_scan)
from .convex import envelope_rows
from .errors import MonokitError, SpecFormatError
from .fitzpatrick import penot_envelope, scan_rows
from .gallery import run_gallery
from .operators import is_monotone
from .regions import whole_space
from .specfile import RunConfig, parse_spec
from .verdicts import (Property, Verdict, format_scalar, witness_strings)


def verdict_to_dict(v: Verdict) -> dict:
    out = {
        "property": v.property.value,
        "value": v.value,
        "approximate": v.approximate,
        "vacuous": v.vacuous,
        "witness_count": v.witness_count,
    }
    ws = witness_strings(v)
    if ws:
        out["witnesses"] = ws
    if v.region_ids:
        out["regions"] = list(v.region_ids)
    if v.notes:
        out["notes"] = list(v.notes)
    return out


def render_report(tree: dict) -> str:
    """Stable text form: sorted keys, two-space indents, list dashes."""
    lines: list[str] = []

    def scalar(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if v is None:
            return "none"
        if isinstance(v, float):
            return format_scalar(v)
        return str(v)

    def emit(node, indent):
        pad = "  " * indent
        if isinstance(node, dict):
            for key in sorted(node):
                val = node[key]
                if isinstance(val, (dict, list)):
                    lines.append(f"{pad}{key}:")
                    emit(val, indent + 1)
                else:
                    lines.append(f"{pad}{key}: {scalar(val)}")
        elif isinstance(node, list):
            for item in node:
                lines.append(f"{pad}- {scalar(item)}")
        else:
            lines.append(f"{pad}{scalar(node)}")

    emit(tree, 0)
    return "\n".join(lines) + "\n"


def _write_out(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _dispatch(prop: Property, config: RunConfig) -> Verdict:
    T = config.operator
    g, tol = config.grid, config.tol
    window = config.window if config.window is not None \
        else whole_space(T.dimension)
    if prop is Property.MONOTONE:
        return is_monotone(T, tol, g, V=config.window)
    if prop is Property.VNI:
        return check_vni(T, window, g, tol)
    if prop is Property.NI:
        inner = check_vni(T, whole_space(T.dimension), g, tol)
        return replace(inner, property=Property.NI)
    if prop is Property.LOCATES:
        return check_locates(T, window, g, tol, target=config.target)
    if prop is Property.IDENTIFIES:
        return check_identifies(T, window, g, tol)
    if prop is Property.V_REPRESENTABLE:
        return check_v_representable(T, window, g, tol)
    if prop is Property.CONDITION_C:
        return check_condition_c(T, window, g, tol)
    if prop is Property.MAXIMAL_ON_GRID:
        return check_maximal_on_grid(T, config.window, g, tol)
    family = dyadic_open_boxes(g.primal_clip(T.dimension), 2, T, g, tol)
    if prop is Property.LOCALLY_NI:
        return family_scan(T, family, Property.VNI, g, tol)
    if prop is Property.LOW_REPRESENTABLE:
        return family_scan(T, family, Property.LOW_REPRESENTABLE, g, tol)
    raise MonokitError(f"no dispatch for property {prop.value}")


def _cmd_classify(args) -> int:
    config = parse_spec(Path(args.spec).read_text())
    verdicts: dict[str, dict] = {}
    had_error = False
    all_true = True
    for prop in config.properties:
        try:
            v = _dispatch(prop, config)
        except MonokitError as exc:
            verdicts[prop.value] = {"error": str(exc)}
            had_error = True
            print(f"{prop.value}: error ({exc})")
            continue
        verdicts[prop.value] = verdict_to_dict(v)
        all_true = all_true and v.value
        suffix = " (approximate)" if v.approximate else ""
        print(f"{prop.value}: {'true' if v.value else 'false'}{suffix}")
    report = {
        "operator": config.operator.describe(),
        "window": (config.window.describe() if config.window is not None
                   else "whole space"),
        "grid": asdict(config.grid),
        "tolerance": asdict(config.tol),
        "verdicts": verdicts,
    }
    _write_out(render_report(report), args.out)
    if had_error:
        return 2
    return 0 if all_true else 1


def _cmd_gallery(args) -> int:
    try:
        report, passed = run_gallery(args.name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    for sname, scenario in report["scenarios"].items():
        for claim_key, claim in scenario["claims"].items():
            tag = "pass" if claim["passed"] else "FAIL"
            print(f"[{tag}] {sname}: {claim_key}")
    _write_out(render_report(report), args.out)
    return 0 if passed else 1


def _format_column(values) -> list[str]:
    """format_scalar of every entry, each distinct value formatted once.
    Values are told apart by their bits, as 0.0 and -0.0 print apart."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    text = [format_scalar(v) for v in keys.view(float).tolist()]
    return [text[i] for i in inverse.tolist()]


def _cmd_export(args) -> int:
    config = parse_spec(Path(args.spec).read_text())
    T = config.operator
    n = T.dimension
    g = config.grid
    if args.grid is not None:
        g = replace(g, resolution=args.grid, dual_resolution=args.grid)
    window = config.window if config.window is not None else whole_space(n)
    rows = scan_rows(window, g)
    if args.fn == "phi":
        values = T.phi_batch(config.window, rows, g)
    else:
        env, _ = penot_envelope(T, config.window, g)
        values = envelope_rows(env, rows)
    header = ",".join([f"x{i + 1}" for i in range(n)]
                      + [f"xstar{i + 1}" for i in range(n)] + ["value"])
    columns = [_format_column(c) for c in (*rows.T, values)]
    lines = [header] + [",".join(cells) for cells in zip(*columns)]
    _write_out("\n".join(lines) + "\n", args.out)
    print(f"wrote {len(rows)} rows")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monokit",
        description="Grid-scale calculus of monotone operator graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify",
                       help="run the checks requested by a description file")
    p.add_argument("--spec", required=True, help="description file path")
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("gallery", help="run the pinned scenario suite")
    p.add_argument("--name", required=True,
                   help="scenario name, or 'all'")
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.set_defaults(func=_cmd_gallery)

    p = sub.add_parser("export", help="evaluate phi or psi over the grid")
    p.add_argument("--spec", required=True, help="description file path")
    p.add_argument("--fn", choices=("phi", "psi"), required=True)
    p.add_argument("--grid", type=int, default=None,
                   help="override both grid resolutions")
    p.add_argument("--out", default=None, help="csv path (default stdout)")
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecFormatError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except (MonokitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
