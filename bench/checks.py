"""Outcome records, digests and the outside checks applied to every job.

A record is what a verdict says: value, witness count, witnesses,
approximate and vacuous flags, notes, or the class of the hypothesis-gate
exception raised instead. Records are compared three ways: across passes
(determinism), across twin routes (agreement) and against the reference
stored for the seed (verdict_changes, reported but not gated).
"""
from __future__ import annotations

import hashlib
import json

from monokit import cli
from monokit.errors import BelowCoupling, ToleranceError, UnsatisfiedHypothesis
from monokit.fitzpatrick import scan_grid
from monokit.verdicts import Verdict, format_point, format_scalar

# Exceptions a check raises by design when its hypothesis fails; any
# other exception is an unexpected error.
GATES = (UnsatisfiedHypothesis, BelowCoupling, ToleranceError)


class Outcome:
    """The result of one timed job call: a value or a raised exception."""

    __slots__ = ("value", "error")

    def __init__(self, value=None, error=None):
        self.value = value
        self.error = error


def record(job, out: Outcome) -> dict:
    if out.error is not None:
        if isinstance(out.error, GATES):
            return {"gate": type(out.error).__name__}
        return {"unexpected": f"{type(out.error).__name__}: {out.error}"}
    if job.kind == "verdict":
        return verdict_record(out.value)
    if job.kind == "gallery":
        report, passed = out.value
        return {"report": cli.render_report(report), "passed": passed}
    code, text = out.value
    if job.kind == "export":
        return {"exit": code, "csv": _csv_summary(text)}
    return {"exit": code, "report": text}


def verdict_record(v: Verdict) -> dict:
    return {
        "property": v.property.value,
        "value": v.value,
        "witness_count": v.witness_count,
        "witnesses": [format_point(w) for w in v.witnesses],
        "approximate": v.approximate,
        "vacuous": v.vacuous,
        "notes": list(v.notes),
    }


def _csv_summary(text: str) -> dict:
    """Row count and values at 9 significant digits.

    The export tabulates LP values; rounding keeps the digest about the
    envelope, not about the solver's last bits.
    """
    lines = text.strip().splitlines()
    rows = [ln for ln in lines[1:] if not ln.startswith("wrote ")]
    vals = []
    for row in rows:
        cell = row.rsplit(",", 1)[-1]
        v = float(cell)
        vals.append(cell if v in (float("inf"), float("-inf"))
                    else format(v, ".9g"))
    return {"rows": len(rows), "footer": lines[-1] if lines else "",
            "values": hashlib.sha256(",".join(vals).encode()).hexdigest()}


def digest(rec: dict) -> str:
    return hashlib.sha256(
        json.dumps(rec, sort_keys=True).encode()).hexdigest()[:16]


def twin_view(rec: dict):
    """The part of a record two routes to the same verdict must share."""
    if "property" not in rec:
        return rec
    return (rec["value"], rec["witness_count"], tuple(rec["witnesses"]),
            rec["vacuous"])


# ---------------------------------------------------------------- invariants

def _allowed_points(job) -> set:
    pts = set()
    for V, g in job.scans:
        pts.update(scan_grid(V, g))
    for T, V, g in job.graph:
        if T is not None:
            pts.update(T.enumerate_graph(V, g))
    return pts


def invariant_problems(job, out: Outcome, rec: dict) -> list[str]:
    """Outside invariants a verdict must meet whatever its value.

    The grid and tolerance recorded are the ones passed, the witness count
    covers the witnesses listed, and every witness lies on the scanned
    lattice or, for representability and monotone checks, on the
    enumerated graph.
    """
    if "unexpected" in rec:
        return [f"unexpected error: {rec['unexpected']}"]
    if "gate" in rec:
        return []
    if job.kind == "verdict":
        return _verdict_problems(job, out.value)
    if job.kind == "gallery":
        return [] if rec["passed"] else ["a pinned gallery claim failed"]
    if job.kind == "export":
        return _export_problems(job, rec)
    return _cli_problems(job, rec)


def _verdict_problems(job, v: Verdict) -> list[str]:
    problems = []
    if v.grid != job.grid:
        problems.append(f"recorded grid {v.grid} is not the grid passed")
    if v.tol != job.tol:
        problems.append(f"recorded tolerance {v.tol} is not the one passed")
    if v.witness_count < len(v.witnesses):
        problems.append(f"witness_count {v.witness_count} < "
                        f"{len(v.witnesses)} witnesses")
    allowed = _allowed_points(job)
    for w in v.witnesses:
        parts = w if isinstance(w, tuple) and len(w) == 2 \
            and hasattr(w[0], "xstar") else (w,)
        for p in parts:
            if p not in allowed:
                problems.append(f"witness {format_point(p)} is off the "
                                "scanned lattice")
    return problems


def _export_problems(job, rec: dict) -> list[str]:
    want = sum(len(scan_grid(V, g)) for V, g in job.scans)
    csv = rec["csv"]
    problems = []
    if rec["exit"] != 0:
        problems.append(f"export exited {rec['exit']}")
    if csv["rows"] != want or csv["footer"] != f"wrote {want} rows":
        problems.append(f"export wrote {csv['rows']} rows, lattice has {want}")
    return problems


def parse_report(text: str, skip: int) -> dict:
    """Read back the indented report the classify command prints after
    its `skip` one-line verdict summaries."""
    lines = text.splitlines()[skip:]
    root: dict = {}
    stack = [(-1, root)]
    pending = None  # (indent, parent, key) of a "key:" awaiting its block
    for line in lines:
        indent = len(line) - len(line.lstrip(" "))
        text_ = line.strip()
        if pending is not None:
            p_indent, parent, key = pending
            pending = None
            if indent > p_indent:
                parent[key] = [] if text_.startswith("- ") else {}
                stack.append((p_indent, parent[key]))
        while stack[-1][0] >= indent:
            stack.pop()
        node = stack[-1][1]
        if text_.startswith("- "):
            node.append(text_[2:])
            continue
        key, _, val = text_.partition(":")
        if val.strip():
            node[key] = val.strip()
        else:
            node[key] = None
            pending = (indent, node, key)
    return root


def _grid_dict(g) -> dict:
    return {"resolution": str(g.resolution),
            "dual_bound": format_scalar(g.dual_bound),
            "dual_resolution": str(g.dual_resolution),
            "ambient_bound": format_scalar(g.ambient_bound)}


def _tol_dict(tol) -> dict:
    return {"eps_eq": format_scalar(tol.eps_eq),
            "eps_strict": format_scalar(tol.eps_strict),
            "delta_dom": format_scalar(tol.delta_dom)}


def _cli_problems(job, rec: dict) -> list[str]:
    props = job.props
    problems = []
    if rec["exit"] not in (0, 1):
        problems.append(f"classify exited {rec['exit']}")
    report = parse_report(rec["report"], len(props))
    if report.get("grid") != _grid_dict(job.grid):
        problems.append("reported grid is not the grid passed")
    if report.get("tolerance") != _tol_dict(job.tol):
        problems.append("reported tolerance is not the one passed")
    verdicts = report.get("verdicts") or {}
    lattice = {format_point(z) for V, g in job.scans[:1]
               for z in scan_grid(V, g)}
    graph = {format_point(w) for T, V, g in job.graph
             for w in T.enumerate_graph(V, g)}
    for prop in props:
        v = verdicts.get(prop)
        if v is None:
            problems.append(f"{prop}: missing from the report")
            continue
        if "error" in v:
            problems.append(f"{prop}: unexpected error {v['error']}")
            continue
        ws = v.get("witnesses") or []
        if int(v["witness_count"]) < len(ws):
            problems.append(f"{prop}: witness_count {v['witness_count']} < "
                            f"{len(ws)} witnesses")
        for w in ws:
            if w.startswith("pair["):
                a, _, b = w[5:-1].partition(" | ")
                ok = a in graph and b in graph
            else:
                ok = w in lattice
            if not ok:
                problems.append(f"{prop}: witness {w} is off the scanned "
                                "lattice")
    return problems
