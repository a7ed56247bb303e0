"""Description-file parsing: happy paths and line-tagged rejection."""

import pytest

from monokit import (
    AbsSubdiff,
    Flat,
    PairSum,
    Property,
    Restriction,
    SpecFormatError,
    parse_spec,
)

GOOD = """\
# a flat piece checked two ways
operator:
  kind: flat
  region: (0, 1)
  wstar: 0
window: (0, 1)
properties:
  - identifies
  - locates
"""


def test_minimal_document():
    cfg = parse_spec(GOOD)
    assert isinstance(cfg.operator, Flat)
    assert cfg.window is not None and cfg.window.contains([0.5])
    assert cfg.properties == (Property.IDENTIFIES, Property.LOCATES)
    # untouched settings fall back to package defaults
    assert cfg.grid.resolution == 41
    assert cfg.tol.eps_eq == 1e-9
    assert cfg.target is None


def test_defaults_when_only_operator_given():
    cfg = parse_spec("operator:\n  kind: abs_subdiff\n  slope: 2\n")
    assert isinstance(cfg.operator, AbsSubdiff)
    assert cfg.window is None
    assert cfg.properties == (Property.MONOTONE,)


def test_grid_and_tolerance_blocks():
    cfg = parse_spec(
        "operator:\n"
        "  kind: abs_subdiff\n"
        "  slope: 1\n"
        "grid:\n"
        "  resolution: 11\n"
        "  dual_bound: 4\n"
        "  dual_resolution: 9\n"
        "tolerance:\n"
        "  eps_eq: 1e-8\n"
        "  eps_strict: 1e-5\n"
    )
    assert cfg.grid.resolution == 11
    assert cfg.grid.dual_bound == 4.0
    assert cfg.grid.dual_resolution == 9
    assert cfg.tol.eps_eq == 1e-8
    assert cfg.tol.eps_strict == 1e-5
    assert cfg.tol.delta_dom == 1e-6  # untouched default


def test_nested_operator_kinds():
    cfg = parse_spec(
        "operator:\n"
        "  kind: restriction\n"
        "  operator:\n"
        "    kind: abs_subdiff\n"
        "    slope: 1\n"
        "  region: [-1, 1]\n"
    )
    assert isinstance(cfg.operator, Restriction)
    cfg2 = parse_spec(
        "operator:\n"
        "  kind: pair_sum\n"
        "  first:\n"
        "    kind: abs_subdiff\n"
        "    slope: 1\n"
        "  second:\n"
        "    kind: normal_cone_box\n"
        "    box: [0, 2]\n"
    )
    assert isinstance(cfg2.operator, PairSum)


def test_matrix_and_points_rows():
    cfg = parse_spec(
        "operator:\n"
        "  kind: linear\n"
        "  matrix:\n"
        "    - [0, 1]\n"
        "    - [-1, 0]\n"
    )
    assert cfg.operator.dimension == 2
    cfg2 = parse_spec(
        "operator:\n"
        "  kind: finite_graph\n"
        "  points:\n"
        "    - [0, 0]\n"
        "    - [1, 1]\n"
    )
    assert len(cfg2.operator.points) == 2


def test_inf_literals_in_regions():
    cfg = parse_spec(
        "operator:\n"
        "  kind: flat\n"
        "  region: (-inf, inf)\n"
        "  wstar: 0\n"
    )
    assert cfg.operator.region.is_whole_space


class TestRejection:
    def expect(self, text, fragment, line=None):
        with pytest.raises(SpecFormatError) as err:
            parse_spec(text)
        assert fragment in str(err.value)
        if line is not None:
            assert f"line {line}" in str(err.value)

    def test_tabs(self):
        self.expect("operator:\n\tkind: flat\n", "tab", line=2)

    def test_empty_document(self):
        self.expect("# only a comment\n", "empty")

    def test_unknown_top_key(self):
        self.expect(
            "operator:\n  kind: abs_subdiff\n  slope: 1\nfrobnicate: 3\n",
            "frobnicate", line=4)

    def test_duplicate_key(self):
        self.expect("operator:\n  kind: flat\n  kind: flat\n",
                    "duplicate", line=3)

    def test_unknown_operator_field(self):
        self.expect(
            "operator:\n  kind: flat\n  region: (0, 1)\n  wstar: 0\n"
            "  bogus: 1\n",
            "unknown field 'bogus'", line=5)

    def test_missing_operator_field(self):
        self.expect("operator:\n  kind: flat\n  region: (0, 1)\n",
                    "needs field")

    def test_unknown_property(self):
        self.expect(
            "operator:\n  kind: abs_subdiff\n  slope: 1\n"
            "properties:\n  - improbable\n",
            "improbable", line=5)

    def test_bad_number(self):
        self.expect("operator:\n  kind: abs_subdiff\n  slope: many\n",
                    "bad number", line=3)

    def test_bad_indent(self):
        self.expect("operator:\n   kind: flat\n", "indent", line=2)

    def test_bad_region_literal(self):
        self.expect(
            "operator:\n  kind: flat\n  region: nonsense\n  wstar: 0\n",
            "", line=3)

    def test_non_integer_resolution(self):
        self.expect(
            "operator:\n  kind: abs_subdiff\n  slope: 1\n"
            "grid:\n  resolution: 2.5\n",
            "integer", line=5)

    def test_invalid_tolerance_combination(self):
        self.expect(
            "operator:\n  kind: abs_subdiff\n  slope: 1\n"
            "tolerance:\n  eps_eq: 1e-3\n",
            "eps_eq")

    def test_unknown_grid_key(self):
        self.expect(
            "operator:\n  kind: abs_subdiff\n  slope: 1\n"
            "grid:\n  resolution: 11\n  spacing: 2\n",
            "line 6: unknown grid key 'spacing'")

    def test_unknown_tolerance_key(self):
        self.expect(
            "operator:\n  kind: abs_subdiff\n  slope: 1\n"
            "tolerance:\n  eps_eq: 1e-8\n  slack: 1\n",
            "line 6: unknown tolerance key 'slack'")

    def test_rejected_grid_is_tagged_at_its_block(self):
        self.expect(
            "operator:\n  kind: abs_subdiff\n  slope: 1\n"
            "grid:\n  dual_bound: 4\n  resolution: 1\n",
            "line 4: grid resolutions must be at least 2")

    def test_rejected_tolerance_is_tagged_at_its_block(self):
        self.expect(
            "operator:\n  kind: abs_subdiff\n  slope: 1\n"
            "tolerance:\n  eps_strict: 1e-6\n  eps_eq: 1e-3\n",
            "line 4: eps_eq must not exceed eps_strict")

    @pytest.mark.parametrize("key, value", [
        ("resolution", "inf"), ("resolution", "nan"),
        ("dual_resolution", "-inf")])
    def test_non_finite_resolution(self, key, value):
        self.expect(
            "operator:\n  kind: abs_subdiff\n  slope: 1\n"
            f"grid:\n  {key}: {value}\n",
            f"line 5: expected an integer, got {value!r}")

    @pytest.mark.parametrize("key, value", [
        ("dual_bound", "nan"), ("dual_bound", "inf"),
        ("ambient_bound", "inf")])
    def test_non_finite_grid_bound(self, key, value):
        self.expect(
            "operator:\n  kind: abs_subdiff\n  slope: 1\n"
            f"grid:\n  resolution: 5\n  {key}: {value}\n",
            "line 4: grid bounds must be finite")

    def test_non_finite_operator_data(self):
        self.expect(
            "operator:\n  kind: linear\n  matrix:\n"
            "    - [1, 0]\n    - [0, inf]\n",
            "line 1: matrix entries must be finite")

    @pytest.mark.parametrize("text, fragment, line", [
        ("operator:\n  kind: restriction\n  operator:\n"
         "    kind: normal_cone_box\n    box: (-1, 1)\n  region: [-1, 1]\n",
         "normal cones require a closed box", 3),
        ("operator:\n  kind: sum_normal_cone\n  box: [0, 1]\n  operator:\n"
         "    kind: abs_subdiff\n    slope: -1\n",
         "slope must be positive", 4),
        ("operator:\n  kind: pair_sum\n  first:\n    kind: linear\n"
         "    matrix:\n      - [1]\n  second:\n    kind: pair_sum\n"
         "    first:\n      kind: abs_subdiff\n      slope: 1\n"
         "    second:\n      kind: linear\n      matrix:\n"
         "        - [1, 0]\n        - [0]\n",
         "matrix must be square", 12),
        # The nested operators are valid; the sum of them is not.
        ("operator:\n  kind: pair_sum\n  first:\n    kind: abs_subdiff\n"
         "    slope: 1\n  second:\n    kind: point_complement\n"
         "    anchor: [0, 0]\n",
         "summands disagree in dimension", 1),
    ])
    def test_a_nested_operator_error_carries_its_own_line(self, text,
                                                          fragment, line):
        with pytest.raises(SpecFormatError) as err:
            parse_spec(text)
        assert str(err.value) == f"line {line}: {fragment}"

    def test_operator_validation_is_line_tagged(self):
        # a semantically invalid operator surfaces at the operator line
        self.expect(
            "operator:\n  kind: abs_subdiff\n  slope: -1\n", "", line=1)
