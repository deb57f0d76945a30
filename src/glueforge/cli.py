"""Batch front-end.

Every command reads one input file, runs the corresponding pipeline, and
emits a deterministic JSON report carrying the sha256 of the file's bytes
and the flags the command reads (`COMMANDS`), so identical invocations are
byte identical.  One argparse parser serves every command line, and a
command takes only its own flags: any other is a usage error.  Exit codes
are fixed for scripting: 0 pass, 1 verdict fail, 2 parse trouble, 3
invariant violation, 4 the all-bundle fibered case, 5 internal error (any
other exception, reported on one stderr line as a fault of glueforge,
with the input's sha256).
"""

from __future__ import annotations

import argparse
import gc
import sys
import warnings
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

# Each command imports the layers it runs, so that a cold `hyplab` loads
# no torus or gluing code and a cold `validate` no collapse or skeleton.
from .errors import GlueforgeError, ParseError, ValidationError, ascii_int
from .ioutil import canonical_dumps, sha256_of_bytes

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_FIBERED = 4
EXIT_INTERNAL = 5

# Largest input the CLI reads, in bytes.  The run time of every command is
# bounded by the input size (slopes with many digits cost more), so this
# bound, not the interpreter's int/str digit limit, caps the work.
MAX_INPUT_BYTES = 1 << 20

# Largest --samples.  A sample costs about 0.05 ms per tube in doubles, and
# on the decimal path 0.5 ms at axis power 30 and 5 ms at 180.
MAX_SAMPLES = 10_000

# Every flag some command reads, by its name in the report; the flag is
# that name after '--', with '-' for '_'.  Each has its argparse settings
# and the checks of its value, each with the message of the invariant
# violation when the value fails it.
FLAGS: dict[str, tuple[dict[str, Any], tuple]] = {
    "R": ({"type": ascii_int, "default": 6}, ((lambda r: r >= 1, "R must be at least 1"),)),
    "D": ({"type": ascii_int, "default": 1}, ((lambda d: d >= 0, "D must be non-negative"),)),
    "h": ({"type": ascii_int, "default": 1}, ((lambda h: h >= 0, "h must be non-negative"),)),
    "denom_bound": (
        {"type": ascii_int, "default": None},
        ((lambda b: b is None or b >= 1, "denominator bound must be at least 1"),),
    ),
    "eps0": (
        {"type": float, "default": 0.1},
        ((lambda e: e > 0, "eps0 must be positive"), (lambda e: e < float("inf"), "eps0 must be finite")),
    ),
    "samples": (
        {"type": ascii_int, "default": 9},
        (
            (lambda n: n >= 2, "sample count must be at least 2"),
            (lambda n: n <= MAX_SAMPLES, f"sample count must be at most {MAX_SAMPLES}"),
        ),
    ),
    "format": ({"choices": ("json", "obj"), "default": "json"}, ()),
}


def _build_parser() -> argparse.ArgumentParser:
    """The one parser of every command line: a subparser per command, each
    with the flags that command reads.  Subparsers take no abbreviated
    flags, so that a flag a command does not read is a usage error even
    where it begins another (--h and --help)."""
    parser = argparse.ArgumentParser(
        prog="glueforge",
        description="exact decorated-gluing toolkit: validation, certificates,"
        " collapse, decomposition, model skeletons, graph experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, reads, _) in COMMANDS.items():
        cmd = sub.add_parser(name, help=blurb, allow_abbrev=False)
        cmd.add_argument("--input", required=True, help="input file path")
        for flag in reads:
            cmd.add_argument("--" + flag.replace("_", "-"), **FLAGS[flag][0])
        if name == "collapse":
            cmd.add_argument(
                "--emit-correspondence",
                action="store_true",
                help="include the stack-to-slot table in the report",
            )
        cmd.add_argument("--out", default=None, help="write output here instead of stdout")
    return parser


def _read_input(path: str) -> tuple[bytes, str]:
    """The file's bytes and their text as strict UTF-8, without newline
    translation: the report hashes the bytes, so a CRLF file is not its LF
    twin."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_INPUT_BYTES + 1)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if len(data) > MAX_INPUT_BYTES:
        raise ParseError(f"input {path} is larger than {MAX_INPUT_BYTES} bytes")
    try:
        return data, data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc


def _emit(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "wb") as fh:
            fh.write(text.encode())
    except OSError as exc:
        raise ValidationError(f"cannot write {out}: {exc.strerror}") from exc


def _emit_report(args: argparse.Namespace, params: dict, data: bytes, result: dict) -> None:
    envelope = {
        "command": args.command,
        "input_sha256": sha256_of_bytes(data),
        "params": params,
        "result": result,
    }
    _emit(args.out, canonical_dumps(envelope))


def cmd_validate(args: argparse.Namespace, text: str) -> tuple[dict | str, int]:
    from .gluing import validate_gluing

    x = validate_gluing(text)
    return {
        "valid": True,
        "pieces": len(x.pieces),
        "identifications": len(x.identifications),
        "unburied": [f"{p}:{b}" for p, b in x.slots() if not x.is_buried((p, b))],
    }, EXIT_PASS


def cmd_report(args: argparse.Namespace, text: str) -> tuple[dict | str, int]:
    from .certify import check_bounded_combinatorics
    from .gluing import validate_gluing

    x = validate_gluing(text)
    cert = check_bounded_combinatorics(x, args.R, args.D, args.denom_bound)
    return cert.to_json(), EXIT_PASS if cert.passed else EXIT_VERDICT


def cmd_collapse(args: argparse.Namespace, text: str) -> tuple[dict | str, int]:
    from .gluing import validate_gluing
    from .transforms import collapse_ibundles

    x = validate_gluing(text)
    res = collapse_ibundles(x, args.R, args.h, args.denom_bound)
    code = EXIT_FIBERED if res.fibered else EXIT_PASS if res.ok else EXIT_VERDICT
    return res.to_json(emit_correspondence=args.emit_correspondence), code


def cmd_decompose(args: argparse.Namespace, text: str) -> tuple[dict | str, int]:
    from .decompose import full_and_maximal_decomposition
    from .gluing import validate_gluing

    return full_and_maximal_decomposition(validate_gluing(text)).to_json(), EXIT_PASS


def cmd_model(args: argparse.Namespace, text: str) -> tuple[dict | str, int]:
    from .gluing import validate_gluing
    from .model import build_skeleton, export_skeleton, verify_thickness

    skeleton = build_skeleton(validate_gluing(text), samples=args.samples)
    if args.format == "obj":
        return export_skeleton(skeleton), EXIT_PASS
    report = verify_thickness(skeleton, args.eps0)
    result = {"skeleton": skeleton.to_json(), "thickness": report.to_json()}
    return result, EXIT_PASS if report.ok else EXIT_VERDICT


def cmd_hyplab(args: argparse.Namespace, text: str) -> tuple[dict | str, int]:
    from .hypgraph import geodesic_interval
    from .hyplab import (
        check_qconvex_stability,
        four_point_delta,
        quasiconvexity_constant,
        read_graph,
    )

    graph = read_graph(text)
    delta = four_point_delta(graph)
    # the widest geodesic interval doubles as the stability test bed: the
    # first diametral pair in row-major order
    rows = graph.rows()
    diameter = max(map(max, rows))
    x = next(u for u, row in enumerate(rows) if max(row) == diameter)
    y = rows[x].index(diameter)
    interval = geodesic_interval(graph, x, y)
    stability = check_qconvex_stability(graph, interval, args.R)
    return {
        "vertices": graph.vertex_count,
        "delta": [delta.numerator, delta.denominator],
        "diameter": diameter,
        "interval": {
            "endpoints": [x, y],
            "vertices": interval,
            "quasiconvexity": quasiconvexity_constant(graph, interval),
        },
        "stability": stability.to_json(),
    }, EXIT_PASS


# Each command: its help line, the flags it reads, in the order its report
# echoes them, and its runner, which maps the parsed command line, whose
# flags `main` has checked against `FLAGS`, and the input's text to the
# report's `result` (or the text of an OBJ export) and the exit code.  Every
# command also takes --input and --out, and collapse --emit-correspondence,
# which its report does not echo.
COMMANDS = {
    "validate": ("parse a gluing file and check every structural invariant", (), cmd_validate),
    "report": ("certify bounded combinatorics at (R, D)", ("R", "D", "denom_bound"), cmd_report),
    "collapse": (
        "combine I-bundle stacks and rewire the gluing",
        ("R", "h", "denom_bound"),
        cmd_collapse,
    ),
    "decompose": ("expand splittings and cut along maximal compressions", (), cmd_decompose),
    "model": (
        "assemble, verify and export the metric skeleton",
        ("eps0", "samples", "format"),
        cmd_model,
    ),
    "hyplab": ("measure hyperbolicity and stability on a finite graph", ("R",), cmd_hyplab),
}


@contextmanager
def _any_int_digits() -> Iterator[None]:
    """Lift CPython's int/str digit limit (4,300 digits by default) while a
    command runs: slopes may have any number of digits, and the input
    bound caps the work.  The old limit comes back for an in-process
    caller."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:  # interpreters without the limit
        yield
        return
    saved = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """One line per warning, without the source line that the default
    format reads from the caller's file."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    data = None
    try:
        with _any_int_digits(), warnings.catch_warnings():
            warnings.showwarning = _show_warning
            params = {name: getattr(args, name) for name in COMMANDS[args.command][1]}
            for name, value in params.items():
                for test, message in FLAGS[name][1]:
                    if not test(value):
                        raise ValidationError(message)
            data, text = _read_input(args.input)
            result, code = COMMANDS[args.command][2](args, text)
            if isinstance(result, str):  # an OBJ export, written as it is
                _emit(args.out, result)
            else:
                _emit_report(args, params, data, result)
            return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GlueforgeError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception as exc:
        # the input's hash, so that a fault report names what it ran on
        where = "" if data is None else f"; input sha256 {sha256_of_bytes(data)}"
        print(f"internal error: {type(exc).__name__}: {exc}{where}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> int:
    """Process entry of `python -m glueforge.cli` and of the `glueforge`
    script: main() on the command line with the cyclic collector off, then
    gc.freeze().  A command makes few reference cycles, so the collections
    that allocation triggers reclaim almost nothing.  At exit the
    interpreter runs a full collection over every tracked object, most of
    them loaded at start-up, only to let the process end; frozen objects
    are left out of it.  main() leaves the collector alone, and entry()
    turns it back on after main() if it was on, so in-process callers keep
    theirs as it was.  Stdout is UTF-8 in every locale: a report prints the
    bytes that --out writes.  So is stderr, where a character UTF-8 cannot
    encode (an undecodable byte of a path) prints as its backslash escape."""
    sys.stdout.reconfigure(encoding="utf-8")
    sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    enabled = gc.isenabled()
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(entry())
