"""Command line entry points: classify, gallery, export.

A classify run reads one scan per window it asks about (classify._Scan):
the lattice of the window times the dual box, its couplings, phi on the
lattice (closed form, or the sup over the graph), the graph over the
window and the rows below and related that the window properties select.
Each is computed once, when the first property that needs it asks, and
every property of the run over that window reads it; the monotone
property reads the graph of the run's window too. The scans end with the
run.

Reports are structured text rendered deterministically: dictionary keys
sorted, floats at 12 significant digits, inf literals spelled out. Exit
codes: 0 all requested checks hold, 1 some verdict is false, 2 parse or
hypothesis-gate errors, or a scan over the row budget (one line on stderr,
and no report).
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .classify import (_condition_c, _identifies, _locates,
                       _maximal_on_grid, _Scan, _v_representable, _vni,
                       dyadic_open_boxes, family_scan)
from .convex import envelope_rows
from .errors import MonokitError, ScanTooLarge, SpecFormatError
from .fitzpatrick import penot_envelope, scan_rows
from .gallery import run_gallery
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


class _RunScans(NamedTuple):
    """The scans one classify run reads, by the window each property asks:
    window, the run's window (the whole space when the spec names none);
    whole, the whole space (ni); graph, no window at all (the whole graph,
    maximal_on_grid's monotone gate); and monotone, the scan whose graph
    the monotone property reads, over the run's window or, without one,
    the whole graph. Equal windows are one scan."""

    window: _Scan
    whole: _Scan
    graph: _Scan
    monotone: _Scan


def _run_scans(config: RunConfig) -> _RunScans:
    """The run's scans; none computes anything until a property reads it."""
    T, g, tol = config.operator, config.grid, config.tol
    whole = whole_space(T.dimension)
    graph = _Scan(T, None, g, tol)
    if config.window is None:
        window = _Scan(T, whole, g, tol)
        return _RunScans(window, window, graph, graph)
    window = _Scan(T, config.window, g, tol)
    return _RunScans(window, _Scan(T, whole, g, tol), graph, window)


def _dispatch(prop: Property, config: RunConfig,
              scans: _RunScans) -> Verdict:
    T = config.operator
    g, tol = config.grid, config.tol
    if prop is Property.MONOTONE:
        return scans.monotone.monotone
    if prop is Property.VNI:
        return _vni(scans.window)
    if prop is Property.NI:
        return replace(_vni(scans.whole), property=Property.NI)
    if prop is Property.LOCATES:
        return _locates(scans.window, config.target)
    if prop is Property.IDENTIFIES:
        return _identifies(scans.window)
    if prop is Property.V_REPRESENTABLE:
        return _v_representable(scans.window)
    if prop is Property.CONDITION_C:
        return _condition_c(scans.window)
    if prop is Property.MAXIMAL_ON_GRID:
        return _maximal_on_grid(scans.graph, scans.window)
    family = dyadic_open_boxes(g.primal_clip(T.dimension), 2, T, g, tol)
    if prop is Property.LOCALLY_NI:
        return family_scan(T, family, Property.VNI, g, tol)
    if prop is Property.LOW_REPRESENTABLE:
        return family_scan(T, family, Property.LOW_REPRESENTABLE, g, tol)
    raise MonokitError(f"no dispatch for property {prop.value}")


def _cmd_classify(args) -> int:
    config = parse_spec(Path(args.spec).read_text())
    scans = _run_scans(config)
    verdicts: dict[str, dict] = {}
    had_error = False
    all_true = True
    for prop in config.properties:
        try:
            v = _dispatch(prop, config, scans)
        except ScanTooLarge:
            raise  # the grid itself is too fine: no report is written
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
