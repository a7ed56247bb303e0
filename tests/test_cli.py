"""End-to-end command line behavior through main(argv)."""

import subprocess
import sys

import numpy as np
import pytest

from monokit.cli import _format_column, main
from monokit.verdicts import format_scalar

SMALL_GRID = (
    "grid:\n"
    "  resolution: 11\n"
    "  dual_bound: 4\n"
    "  dual_resolution: 11\n"
)

ALL_TRUE = (
    "operator:\n"
    "  kind: normal_cone_box\n"
    "  box: [-1, 1]\n"
    "window: (-1, 1)\n"
    "properties:\n"
    "  - monotone\n"
    "  - vni\n"
) + SMALL_GRID

ONE_FALSE = (
    "operator:\n"
    "  kind: point_complement\n"
    "  anchor: 0\n"
    "window: (-1, 1)\n"
    "properties:\n"
    "  - v_representable\n"
) + SMALL_GRID


def write(tmp_path, text, name="case.spec"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_classify_all_true(tmp_path, capsys):
    code = main(["classify", "--spec", write(tmp_path, ALL_TRUE)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    # graph enumeration backs the monotone check here, hence the flag
    assert lines[0] == "monotone: true (approximate)"
    assert lines[1] == "vni: true"


def test_classify_false_verdict_and_approximate_suffix(tmp_path, capsys):
    code = main(["classify", "--spec", write(tmp_path, ONE_FALSE)])
    out = capsys.readouterr().out
    assert code == 1
    assert "v_representable: false (approximate)" in out


def test_classify_report_file(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code = main(["classify", "--spec", write(tmp_path, ONE_FALSE),
                 "--out", str(report)])
    capsys.readouterr()
    assert code == 1
    text = report.read_text()
    assert "window: (-1, 1)" in text
    assert "verdicts:" in text
    assert "value: false" in text
    assert "witnesses:" in text


def test_classify_report_is_deterministic(tmp_path, capsys):
    spec = write(tmp_path, ALL_TRUE)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["classify", "--spec", spec, "--out", str(a)])
    main(["classify", "--spec", spec, "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_classify_hypothesis_gate_is_exit_2(tmp_path, capsys):
    spec = write(tmp_path, (
        "operator:\n"
        "  kind: finite_graph\n"
        "  points:\n"
        "    - [0, 1]\n"
        "    - [1, 0]\n"
        "properties:\n"
        "  - maximal_on_grid\n"
    ) + SMALL_GRID)
    code = main(["classify", "--spec", spec])
    out = capsys.readouterr().out
    assert code == 2
    assert "maximal_on_grid: error" in out
    assert "monotone" in out  # names the failed hypothesis


@pytest.mark.parametrize("operator, window, target", [
    ("  kind: finite_graph\n  points:\n    - [0, 0, 0, 0]\n",
     "[-1, 1] x [-1, 1]", "[-0.5, 0.5]"),
    ("  kind: abs_subdiff\n  slope: 1\n", "[-1, 1]", "[-0.5, 0.5] x [0, 1]"),
], ids=["1d-target-2d-operator", "2d-target-1d-operator"])
def test_target_of_another_dimension_is_exit_2(tmp_path, capsys, operator,
                                               window, target):
    spec = write(tmp_path, (
        "operator:\n" + operator + f"window: {window}\ntarget: {target}\n"
        "properties:\n  - locates\n") + SMALL_GRID)
    code = main(["classify", "--spec", spec])
    assert code == 2
    assert "locates: error (point dimension does not match region)" \
        in capsys.readouterr().out


def test_window_of_another_dimension_is_exit_2(tmp_path, capsys):
    """Every property of a 1-D operator on a 2-D window is an error."""
    props = ("monotone", "vni", "locates", "identifies", "v_representable",
             "condition_c", "maximal_on_grid")
    spec = write(tmp_path, (
        "operator:\n  kind: abs_subdiff\n  slope: 1\n"
        "window: [-1, 1] x [-1, 1]\nproperties:\n"
        + "".join(f"  - {p}\n" for p in props)) + SMALL_GRID)
    report = tmp_path / "report.txt"
    code = main(["classify", "--spec", spec, "--out", str(report)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count(": error (") == len(props)
    text = report.read_text()
    assert text.count("    error: ") == len(props)
    assert "window dimension does not match operator" in text


def test_spec_error_rendering(tmp_path, capsys):
    spec = write(tmp_path, (
        "operator:\n"
        "  kind: flat\n"
        "  region: (0, 1)\n"
        "  wstar: 0\n"
        "  bogus: 1\n"
    ))
    code = main(["classify", "--spec", spec])
    err = capsys.readouterr().err
    assert code == 2
    assert "spec error: line 5: unknown field 'bogus' for kind 'flat'" in err


NON_FINITE = [
    ("  resolution: inf\n", 5),
    ("  resolution: nan\n", 5),
    ("  dual_bound: nan\n", 4),
    ("  ambient_bound: inf\n", 4),
]


def non_finite_spec(tmp_path, grid_line):
    return write(tmp_path, "operator:\n  kind: abs_subdiff\n  slope: 1\n"
                 "grid:\n" + grid_line)


@pytest.mark.parametrize("grid_line, line", NON_FINITE)
def test_non_finite_spec_value_is_exit_2(tmp_path, capsys, grid_line, line):
    code = main(["classify", "--spec", non_finite_spec(tmp_path, grid_line)])
    assert code == 2
    assert f"spec error: line {line}: " in capsys.readouterr().err


@pytest.mark.parametrize("grid_line, line", NON_FINITE)
def test_non_finite_spec_value_is_exit_2_from_the_module(tmp_path, grid_line,
                                                        line):
    proc = subprocess.run(
        [sys.executable, "-m", "monokit.cli", "classify", "--spec",
         non_finite_spec(tmp_path, grid_line)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert f"spec error: line {line}: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_gallery_single_scenario(tmp_path, capsys):
    report = tmp_path / "gallery.txt"
    code = main(["gallery", "--name", "vbar", "--out", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass] vbar: 01 open domain window identifies the operator" in out
    assert "FAIL" not in out
    assert "overall: pass" in report.read_text()


def test_gallery_unknown_name(capsys):
    code = main(["gallery", "--name", "nope"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown scenario 'nope'" in err


EXPORT_SPEC = (
    "operator:\n"
    "  kind: abs_subdiff\n"
    "  slope: 1\n"
    "grid:\n"
    "  resolution: 5\n"
    "  dual_bound: 2\n"
    "  dual_resolution: 3\n"
    "  ambient_bound: 2\n"
)


def test_export_phi_csv(tmp_path, capsys):
    csv = tmp_path / "phi.csv"
    code = main(["export", "--spec", write(tmp_path, EXPORT_SPEC),
                 "--fn", "phi", "--out", str(csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote 15 rows" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "x1,xstar1,value"
    assert len(lines) == 16
    # every data row is numeric or an inf literal
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == 3
        float(cells[0]), float(cells[1])
        assert cells[2] == "inf" or float(cells[2]) < 1e18


def test_export_column_formats_as_format_scalar():
    """Each distinct value is formatted once, told apart by its bits, so
    0.0 and -0.0 (equal as floats) still print apart."""
    column = np.array([0.0, -0.0, 1.5, 0.0, np.inf, -np.inf, -0.0, 1 / 3])
    assert _format_column(column) == [format_scalar(v) for v in column]
    assert _format_column(column)[:2] == ["0", "-0"]
    assert _format_column(np.zeros(0)) == []


def test_export_grid_override(tmp_path, capsys):
    code = main(["export", "--spec", write(tmp_path, EXPORT_SPEC),
                 "--fn", "psi", "--grid", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote 16 rows" in out
    data = [row for row in out.splitlines() if "," in row]
    assert len(data) == 17  # header plus 4 x 4 lattice


def test_export_empty_window(tmp_path, capsys):
    spec = write(tmp_path, EXPORT_SPEC + "window: (0, 0)\n")
    code = main(["export", "--spec", spec, "--fn", "phi"])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote 0 rows" in out
    data = [row for row in out.splitlines() if "," in row]
    assert data == ["x1,xstar1,value"]


def test_missing_spec_file_is_exit_2(tmp_path, capsys):
    code = main(["classify", "--spec", str(tmp_path / "absent.spec")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "monokit.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "classify" in proc.stdout
    assert "gallery" in proc.stdout
    assert "export" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["export", "--fn", "phi"],          # missing --spec
    ["classify"],                        # missing --spec
    ["export", "--spec", "x", "--fn", "rho"],  # bad choice
])
def test_argparse_rejections(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
