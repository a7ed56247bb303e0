"""Verdict records produced by every grid-scale decision.

finish is the one place where a check's failing [x, x*] rows become witness
points, and only the first WITNESS_CAP of them do."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Tolerance, format_scalar, row_points
from .regions import GridSpec

WITNESS_CAP = 12


class Property(Enum):
    MONOTONE = "monotone"
    VNI = "vni"
    LOCATES = "locates"
    IDENTIFIES = "identifies"
    V_REPRESENTABLE = "v_representable"
    NI = "ni"
    LOCALLY_NI = "locally_ni"
    MAXIMAL_ON_GRID = "maximal_on_grid"
    CONDITION_C = "condition_c"
    LOW_REPRESENTABLE = "low_representable"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one property check over one sampled grid.

    witnesses hold the first few counterexamples in scan order (lexicographic
    over the grid); witness_count is the full tally. approximate marks that
    some consumed value came from a sampled rather than closed-form source.
    vacuous marks checks whose quantifier ranged over an empty set.
    """

    property: Property
    value: bool
    witnesses: tuple = ()
    approximate: bool = False
    grid: GridSpec | None = None
    tol: Tolerance | None = None
    region_ids: tuple[str, ...] = ()
    vacuous: bool = False
    witness_count: int = 0
    notes: tuple[str, ...] = ()


def format_point(z) -> str:
    """Render a primal-dual point, or a pair of them, deterministically."""
    if isinstance(z, tuple) and len(z) == 2 and hasattr(z[0], "xstar"):
        return f"pair[{format_point(z[0])} | {format_point(z[1])}]"
    xs = ", ".join(format_scalar(c) for c in z.x)
    ss = ", ".join(format_scalar(c) for c in z.xstar)
    return f"({xs} ; {ss})"


def witness_strings(v: Verdict) -> list[str]:
    return [format_point(w) for w in v.witnesses]


def finish(property, rows, *, approximate=False, grid=None, tol=None,
           region_ids=(), vacuous=False, notes=()) -> Verdict:
    """Fold the (F, 2n) array of failing [x, x*] rows, in scan order, into
    a Verdict; only the first WITNESS_CAP rows become points."""
    return Verdict(
        property=property,
        value=not len(rows),
        witnesses=tuple(row_points(rows[:WITNESS_CAP])),
        approximate=approximate,
        grid=grid,
        tol=tol,
        region_ids=tuple(region_ids),
        vacuous=vacuous,
        witness_count=len(rows),
        notes=tuple(notes),
    )
