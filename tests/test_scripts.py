"""Smoke tests of the scripts under scripts/ that no command runs: each
experiment of measure_constants.py runs once at its smallest settings, so
that a moved or renamed import fails here rather than at the next
re-measurement."""

import pytest

from builders import load_module

MEASURE_CONSTANTS = load_module("scripts/measure_constants.py", "measure_constants")

SMALLEST = [
    "--max-gap", "1",
    "--max-power", "3",
    "--endpoint-denom", "2",
    "--annulus-denom", "3",
    "--pairs", "2",
    "--coeffs", "50",
]


@pytest.mark.parametrize("name", sorted(MEASURE_CONSTANTS.EXPERIMENTS))
def test_measure_constants_experiment_runs(capsys, name):
    assert MEASURE_CONSTANTS.main(["--only", name, *SMALLEST]) == 0
    out = capsys.readouterr().out
    assert out.split()[0].rstrip(":") == name
    if name == "thickness":
        # the thin-tube law: the min sampled systole is about sqrt(2/coeff)
        measured, law = map(float, out.splitlines()[-1].split()[1:])
        assert measured == pytest.approx(law, abs=2e-4)
