"""Smoke tests of the scripts under scripts/ that no command runs: each
experiment of measure_constants.py runs once at its smallest settings, so
that a moved or renamed import fails here rather than at the next
re-measurement, and cold_source.py lists one cold run's modules."""

import pytest

from builders import example_builders, load_module

MEASURE_CONSTANTS = load_module("scripts/measure_constants.py", "measure_constants")
COLD_SOURCE = load_module("scripts/cold_source.py", "cold_source")

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


def test_cold_source_counts_the_source_of_each_loaded_module(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    chain.write_text(example_builders()["chain"]().canonical_json())
    assert COLD_SOURCE.main(["validate", "--input", str(chain)]) == 0
    head, columns, *rows, total = (line.split() for line in capsys.readouterr().out.splitlines())
    assert (head[-2:], columns, total[0]) == (["exit", "0"], ["module", "KiB", "tokens"], "total")
    # the modules that COLD_MODULES pins for a cold validate on the torus
    assert [row[0] for row in rows] == [
        "glueforge", "cli", "errors", "gluing", "ioutil", "record", "surface", "torus"
    ]
    counts = [int(row[2].replace(",", "")) for row in rows]
    assert all(count > 0 for count in counts)
    assert int(total[2].replace(",", "")) == sum(counts)
    # names, operators and literals count; comments, blank lines, line
    # breaks and indentation do not
    assert COLD_SOURCE.tokens("x = 1  # one\n\nif x:\n    y = 'a'\n") == 9
