"""Grid-scale calculus of monotone operator graphs on R^n x R^n.

Build an operator handle, restrict it to a window, evaluate the affine sup
(phi) or coupling envelope (psi) attached to the restriction, and decide
window-local properties on sampled grids with explicit tolerances.
"""

from .core import (DEFAULT_TOL, INF, PrimalDualPoint, Tolerance, as_vector,
                   coupling, monotone_gap, natural_pairing, pdp, supremum)
from .errors import (BelowCoupling, DimensionMismatch, LPNumericalError,
                     MonokitError, RegionError, ScanTooLarge,
                     SpecFormatError, ToleranceError, UnsatisfiedHypothesis,
                     ValidationError)
from .regions import (Box, GridSpec, HalfSpace, Intersection, Region,
                      box_from_literal, closed_box, grid_sample,
                      intersect_regions, interval, open_box, whole_space)
from .convex import (ConvexFn, Envelope, MaxAffine, conjugate, envelope,
                     envelope_eval, max_affine_eval_batch,
                     square_conjugate_eval)
from .operators import (AbsSubdiff, FiniteGraph, Flat, Linear, NormalConeBox,
                        OperatorHandle, PairSum, PointComplement, Restriction,
                        SumNormalCone, build_operator, is_monotone, mr_test,
                        restrict)
from .fitzpatrick import (coupling_band, is_representative, penot_envelope,
                          phi_eval, psi_eval, scan_grid)
from .classify import (RegionFamily, check_condition_c, check_identifies,
                       check_locates, check_maximal_on_grid,
                       check_v_representable, check_vni, dyadic_open_boxes,
                       family_scan, unique_extension)
from .sumcalc import (RhoValue, add_normal_cone, operator_sum,
                      rho_square_eval, verify_sum_representative)
from .specfile import RunConfig, parse_spec
from .verdicts import (Property, Verdict, format_point, format_scalar,
                       witness_strings)
from .gallery import run_gallery

__version__ = "0.1.0"

__all__ = [
    "AbsSubdiff", "BelowCoupling", "Box", "ConvexFn",
    "DEFAULT_TOL", "DimensionMismatch", "Envelope", "FiniteGraph", "Flat",
    "GridSpec", "HalfSpace", "INF", "Intersection", "Linear",
    "LPNumericalError", "MaxAffine", "MonokitError", "NormalConeBox",
    "OperatorHandle", "PairSum", "PointComplement", "PrimalDualPoint",
    "Property", "Region", "RegionError", "RegionFamily", "Restriction",
    "RhoValue", "RunConfig", "ScanTooLarge",
    "SpecFormatError", "SumNormalCone", "Tolerance", "ToleranceError",
    "UnsatisfiedHypothesis", "ValidationError", "Verdict", "add_normal_cone",
    "as_vector", "box_from_literal", "build_operator", "check_condition_c",
    "check_identifies", "check_locates", "check_maximal_on_grid",
    "check_v_representable", "check_vni", "closed_box", "conjugate",
    "coupling", "coupling_band", "dyadic_open_boxes", "envelope",
    "envelope_eval", "family_scan", "format_point", "format_scalar",
    "grid_sample", "intersect_regions", "interval", "is_monotone",
    "is_representative", "max_affine_eval_batch", "monotone_gap", "mr_test",
    "natural_pairing", "open_box", "operator_sum", "parse_spec", "pdp",
    "penot_envelope", "phi_eval", "psi_eval", "restrict", "rho_square_eval",
    "run_gallery", "scan_grid", "square_conjugate_eval", "supremum",
    "unique_extension", "verify_sum_representative", "whole_space",
    "witness_strings",
]
