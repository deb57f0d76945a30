"""Print the glueforge source that one cold command line compiles.

    python3 scripts/cold_source.py report --input chain.json --R 6

Runs the command line once in a fresh interpreter with ``src`` on the
path, as the benchmark runs an op, and lists each glueforge module that
the run loaded (``glueforge/__init__.py`` included) with the size of its
source in KiB and in tokens, then the totals.  The tokens are those of
Python's tokenizer less comments, line breaks and indentation: what the
compiler reads.  A run without bytecode, as in the benchmark, compiles
exactly this source, so the totals count compile work that timing noise
cannot blur.  The command's output and messages are discarded and its
exit code is printed.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Runs main(argv) and writes its exit code and the source file of every
# glueforge module then loaded, as JSON, to the path in argv[1].
PROBE = (
    "import sys\n"
    "from glueforge import cli\n"
    "code = cli.main(sys.argv[2:])\n"
    "files = {m: sys.modules[m].__file__ for m in list(sys.modules)"
    " if m.partition('.')[0] == 'glueforge'}\n"
    "import json\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    json.dump([code, files], fh)\n"
)

# tokens that the compiler does not read
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def tokens(source: str) -> int:
    return sum(t.type not in SKIPPED for t in tokenize.generate_tokens(io.StringIO(source).readline))


def loaded_modules(argv: list[str]) -> tuple[int, dict[str, str]]:
    """The exit code of a cold run of `glueforge argv` and the source file
    of each glueforge module it loaded, by module name."""
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp, "modules.json")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        subprocess.run(
            [sys.executable, "-c", PROBE, str(report), *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
            check=True,
            timeout=600,
        )
        code, files = json.loads(report.read_text())
    return code, files


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    code, files = loaded_modules(argv)
    print(f"glueforge {' '.join(argv)}: exit {code}")
    print(f"{'module':<14} {'KiB':>7} {'tokens':>8}")
    total_bytes = total_tokens = 0
    for name in sorted(files):
        source = pathlib.Path(files[name]).read_bytes()
        size, count = len(source), tokens(source.decode("utf-8"))
        total_bytes += size
        total_tokens += count
        print(f"{name.removeprefix('glueforge.'):<14} {size / 1024:>7.1f} {count:>8,}")
    print(f"{'total':<14} {total_bytes / 1024:>7.1f} {total_tokens:>8,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
