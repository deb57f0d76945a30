"""Smoke test of scripts/cold_source.py, which CI runs on each example:
one cold run's modules are listed with their source in KiB and tokens,
so that a moved import or a miscount fails in tier-1 rather than in CI."""

from builders import example_builders, load_module

COLD_SOURCE = load_module("scripts/cold_source.py", "cold_source")


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
