"""Batch front-end.

Every command reads one input file, runs the corresponding pipeline, and
emits a deterministic JSON report carrying the sha256 of the file's bytes
and the flags the command reads (`COMMANDS`), so identical invocations are
byte identical.  One reader takes every command line from the
`COMMANDS` and `FLAGS` tables: the command, then distinct `--flag value`
pairs of the flags it takes.  A line with --help or -h prints help
written from the same tables, and any other line is a usage error, one
stderr line that names its first bad token.  Exit codes are fixed for
scripting: 0 pass, 1 verdict fail, 2 parse trouble, 3 invariant
violation, 4 the all-bundle fibered case, 5 internal error (any other
exception, reported on one stderr line as a fault of glueforge, with the
input's sha256).
"""

from __future__ import annotations

import gc
import os
import sys
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Any, Callable, Iterator, NoReturn, Sequence

# Each command imports the layers it runs, so that a cold `hyplab` loads
# no torus or gluing code and a cold `validate` no collapse or skeleton,
# and only a JSON report loads its writer (`ioutil`).
from .errors import GlueforgeError, ParseError, ValidationError, ascii_float, ascii_int, clip

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


def _json_or_obj(text: str) -> str:
    """The value of --format."""
    if text not in ("json", "obj"):
        raise ValueError(text)
    return text


# Every flag some command reads, by its name in the report; the flag is
# that name after '--', with '-' for '_'.  Each has the reader of its
# value, which raises ValueError on a spelling it refuses, its default, and
# the checks of its value, each with the message of the invariant
# violation when the value fails it.
FLAGS: dict[str, tuple[Callable[[str], Any], Any, tuple]] = {
    "R": (ascii_int, 6, ((lambda r: r >= 1, "R must be at least 1"),)),
    "D": (ascii_int, 1, ((lambda d: d >= 0, "D must be non-negative"),)),
    "h": (ascii_int, 1, ((lambda h: h >= 0, "h must be non-negative"),)),
    "denom_bound": (ascii_int, None, ((lambda b: b is None or b >= 1, "denominator bound must be at least 1"),)),
    "eps0": (
        ascii_float,
        0.1,
        ((lambda e: e > 0, "eps0 must be positive"), (lambda e: e < float("inf"), "eps0 must be finite")),
    ),
    "format": (_json_or_obj, "json", ()),
}


def _options(command: str) -> dict[str, str]:
    """The flags of a command, in the order of its help, each with the
    field it sets: --input, the flags it reads, --emit-correspondence on
    collapse, and --out."""
    switches = ["emit_correspondence"] if command == "collapse" else []
    names = ["input", *COMMANDS[command][1], *switches, "out"]
    return {"--" + name.replace("_", "-"): name for name in names}


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | str:
    """The fields of a command line: a command, then its flags
    (`_options`), each at most once and --input among them, each but
    --emit-correspondence with a value, the next token whatever it begins
    with, read by its flag's reader.  For any other line, the usage error
    that names its first bad token."""
    if not argv or argv[0] not in COMMANDS:
        named = f"unknown command {clip(argv[0])}" if argv else "no command"
        return f"{named}; the commands are {', '.join(COMMANDS)}"
    command, options = argv[0], _options(argv[0])
    fields = {"command": command, "out": None, "emit_correspondence": False}
    fields.update((name, FLAGS[name][1]) for name in COMMANDS[command][1])
    tokens = iter(argv[1:])
    for option in tokens:
        name = options.pop(option, None)
        if name is None:
            given = option in _options(command)
            return f"{clip(option)} is given twice" if given else f"{command} does not take {clip(option)}"
        if name == "emit_correspondence":
            fields[name] = True
            continue
        value = next(tokens, None)
        if value is None:
            return f"{clip(option)} needs a value"
        try:
            fields[name] = FLAGS[name][0](value) if name in FLAGS else value
        except ValueError:
            return f"{clip(option)} does not take {clip(value)}"
    return f"{command} needs --input" if "--input" in options else SimpleNamespace(**fields)


def _help(command: str | None) -> str:
    """The help of a command, or of glueforge for None, from the tables."""
    if command is None:
        rows = "".join(f"  {name:<10} {blurb}\n" for name, (blurb, _, _) in COMMANDS.items())
        return (
            f"usage: glueforge <command> --input INPUT [--flag value ...] [--out OUT]\n\n{rows}\n"
            "glueforge <command> --help lists the flags of a command\n"
        )
    flags = [
        flag if name == "emit_correspondence" else f"{flag} {name.upper()}"
        for flag, name in _options(command).items()
    ]
    usage = " ".join([flags[0], *(f"[{flag}]" for flag in flags[1:])])
    return f"usage: glueforge {command} {usage}\n\n{COMMANDS[command][0]}\n"


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
    """Write text to --out or to stdout, flushed: a reader that closed the
    pipe is an invariant violation, as an unwritable --out is."""
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            raise ValidationError(f"cannot write stdout: {exc.strerror}") from exc
        return
    try:
        with open(out, "wb") as fh:
            fh.write(text.encode())
    except OSError as exc:
        raise ValidationError(f"cannot write {out}: {exc.strerror}") from exc


def _emit_report(args: SimpleNamespace, params: dict, data: bytes, result: dict) -> None:
    from .ioutil import canonical_dumps, sha256_of_bytes

    envelope = {
        "command": args.command,
        "input_sha256": sha256_of_bytes(data),
        "params": params,
        "result": result,
    }
    _emit(args.out, canonical_dumps(envelope))


def cmd_validate(args: SimpleNamespace, text: str) -> tuple[dict | str, int]:
    from .gluing import validate_gluing

    x = validate_gluing(text)
    return {
        "valid": True,
        "pieces": len(x.pieces),
        "identifications": len(x.identifications),
        "unburied": [f"{p}:{b}" for p, b in x.slots() if not x.is_buried((p, b))],
    }, EXIT_PASS


def cmd_report(args: SimpleNamespace, text: str) -> tuple[dict | str, int]:
    from .certify import check_bounded_combinatorics
    from .gluing import validate_gluing

    x = validate_gluing(text)
    cert = check_bounded_combinatorics(x, args.R, args.D, args.denom_bound)
    return cert.to_json(), EXIT_PASS if cert.passed else EXIT_VERDICT


def cmd_collapse(args: SimpleNamespace, text: str) -> tuple[dict | str, int]:
    from .gluing import validate_gluing
    from .transforms import collapse_ibundles

    x = validate_gluing(text)
    res = collapse_ibundles(x, args.R, args.h, args.denom_bound)
    code = EXIT_FIBERED if res.fibered else EXIT_PASS if res.ok else EXIT_VERDICT
    return res.to_json(emit_correspondence=args.emit_correspondence), code


def cmd_decompose(args: SimpleNamespace, text: str) -> tuple[dict | str, int]:
    from .decompose import full_and_maximal_decomposition
    from .gluing import validate_gluing

    return full_and_maximal_decomposition(validate_gluing(text)).to_json(), EXIT_PASS


def cmd_model(args: SimpleNamespace, text: str) -> tuple[dict | str, int]:
    from .gluing import validate_gluing
    from .model import build_skeleton, export_skeleton, verify_thickness

    skeleton = build_skeleton(validate_gluing(text))
    for p, b in skeleton.omitted:
        print(f"warning: unburied slot {p}:{b} has no free marking; boundary tube omitted", file=sys.stderr)
    if args.format == "obj":
        return export_skeleton(skeleton), EXIT_PASS
    report = verify_thickness(skeleton, args.eps0)
    result = {"skeleton": skeleton.to_json(), "thickness": report.to_json()}
    return result, EXIT_PASS if report.ok else EXIT_VERDICT


def cmd_hyplab(args: SimpleNamespace, text: str) -> tuple[dict | str, int]:
    from .hyplab import lab_report

    return lab_report(text, args.R), EXIT_PASS


# Each command: its help line, the flags it reads, in the order its report
# echoes them, and its runner, which maps the parsed command line, whose
# flags `main` has checked against `FLAGS`, and the input's text to the
# report's `result` (or the text of an OBJ export) and the exit code; model
# also writes a stderr line per boundary tube it omits.  Every command also
# takes --input and --out, and collapse --emit-correspondence, which its
# report does not echo.
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
        "assemble, verify and export the metric skeleton as json or obj",
        ("eps0", "format"),
        cmd_model,
    ),
    "hyplab": ("measure hyperbolicity and stability on a finite graph", ("R",), cmd_hyplab),
}


@contextmanager
def _any_int_digits() -> Iterator[None]:
    """Lift CPython's int/str digit limit (4,300 digits by default) while
    the CLI reads a command line and runs its command: flags and slopes may
    have any number of digits, and the input bound caps the work.  The old
    limit comes back for an in-process caller."""
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


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if "--help" in argv or "-h" in argv:
        print(_help(argv[0] if argv[0] in COMMANDS else None), end="")
        return EXIT_PASS
    with _any_int_digits():
        args = _read_argv(argv)
        if isinstance(args, str):
            print(f"glueforge: error: {args}", file=sys.stderr)
            return EXIT_PARSE
        data = None
        try:
            params = {name: getattr(args, name) for name in COMMANDS[args.command][1]}
            for name, value in params.items():
                for test, message in FLAGS[name][2]:
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
            from .ioutil import sha256_of_bytes

            where = "" if data is None else f"; input sha256 {sha256_of_bytes(data)}"
            print(f"internal error: {type(exc).__name__}: {exc}{where}", file=sys.stderr)
            return EXIT_INTERNAL


def entry() -> NoReturn:
    """Process entry of `python -m glueforge.cli` and of the `glueforge`
    script: main() on the command line with the cyclic collector off, then
    os._exit with its code.  A command makes few reference cycles, so the
    collections that allocation triggers reclaim almost nothing, and the
    teardown after main() only frees what the process is about to give
    back: a full collection over every tracked object, most of them loaded
    at start-up, and every module.  main() has flushed the report, and
    leaves the collector alone for in-process callers; entry() flushes
    help.  Stdout is UTF-8 in every locale: a report prints the bytes that
    --out writes.  So is stderr, where a character UTF-8 cannot encode (an
    undecodable byte of a path) prints as its backslash escape."""
    sys.stdout.reconfigure(encoding="utf-8")
    sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
    except OSError:  # main() reported a report's failed write; help's goes unreported
        pass
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
