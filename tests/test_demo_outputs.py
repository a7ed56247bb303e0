"""The demo scripts, the gallery and every description file's classify and
exports, run in-process and compared byte for byte with demos/expected/.

Classify may exit 1, a false verdict that the report pins; 2 is an error.
"""
import runpy
from pathlib import Path

import pytest

from monokit.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"
EXPECTED = DEMOS / "expected"

# (arguments after --spec, expected file name with {} for the spec's name)
SPEC_RUNS = [
    (["classify"], "classify_{}.txt"),
    (["export", "--fn", "phi"], "export_{}_phi.csv"),
    (["export", "--fn", "psi", "--grid", "9"], "export_{}_psi_grid9.csv"),
]


@pytest.mark.parametrize("script", sorted(DEMOS.glob("0*.py")),
                         ids=lambda p: p.stem)
def test_demo_output(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.encode() == \
        (EXPECTED / f"{script.stem}.txt").read_bytes()


def test_gallery_all(capsys):
    assert main(["gallery", "--name", "all"]) == 0
    assert capsys.readouterr().out.encode() == \
        (EXPECTED / "gallery_all.txt").read_bytes()


@pytest.mark.parametrize("spec", sorted(DEMOS.glob("specs/*.spec")),
                         ids=lambda p: p.stem)
@pytest.mark.parametrize("args, expected", SPEC_RUNS,
                         ids=["classify", "phi", "psi_grid9"])
def test_spec_output(spec, args, expected, tmp_path):
    out = tmp_path / "out"
    code = main([args[0], "--spec", str(spec), *args[1:], "--out", str(out)])
    assert code <= 1 if args[0] == "classify" else code == 0
    assert out.read_bytes() == \
        (EXPECTED / expected.format(spec.stem)).read_bytes()
