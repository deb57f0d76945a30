"""Batch front-end.

Every command reads one input file, runs the corresponding pipeline, and
emits a deterministic JSON report carrying the input's content hash and
all parameters, so identical invocations are byte identical.  Exit codes
are fixed for scripting: 0 pass, 1 verdict fail, 2 parse trouble, 3
invariant violation, 4 the all-bundle fibered case, 5 internal error (any
other exception, reported on one stderr line as a fault of glueforge).
"""

from __future__ import annotations

import argparse
import gc
import sys
import warnings
from contextlib import contextmanager
from typing import Iterator, Sequence

# Each command imports the layers it runs, so that a cold `hyplab` loads
# no torus or gluing code and a cold `validate` no collapse or skeleton.
from .errors import GlueforgeError, ParseError, ValidationError
from .ioutil import canonical_dumps, sha256_of_text
from .record import Record

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


class RunConfig(Record):
    """One fully resolved invocation."""

    command: str
    input: str
    r_bound: int
    d_bound: int
    h_bound: int
    eps0: float
    samples: int
    denom_bound: int | None
    out: str | None
    format: str
    seed: int
    emit_correspondence: bool

    def __post_init__(self) -> None:
        if self.r_bound < 1:
            raise ValidationError("R must be at least 1")
        if self.d_bound < 0:
            raise ValidationError("D must be non-negative")
        if self.h_bound < 0:
            raise ValidationError("h must be non-negative")
        if not self.eps0 > 0:
            raise ValidationError("eps0 must be positive")
        if self.samples < 2:
            raise ValidationError("sample count must be at least 2")
        if self.samples > MAX_SAMPLES:
            raise ValidationError(f"sample count must be at most {MAX_SAMPLES}")
        if self.denom_bound is not None and self.denom_bound < 1:
            raise ValidationError("denominator bound must be at least 1")
        if self.format not in ("json", "obj"):
            raise ValidationError(f"unknown output format {self.format!r}")

    def params_json(self) -> dict:
        return {
            "R": self.r_bound,
            "D": self.d_bound,
            "h": self.h_bound,
            "eps0": self.eps0,
            "samples": self.samples,
            "denom_bound": self.denom_bound,
            "format": self.format,
            "seed": self.seed,
        }


def _build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The parser, for argv when given.  Every command gets its subparser,
    for the top-level help and the list of choices, but with argv only the
    command that argv names gets its arguments: the top level takes no
    option with a value, so that command is the first argument not
    starting with '-'."""
    named = None if argv is None else next((a for a in argv if not a.startswith("-")), "")
    parser = argparse.ArgumentParser(
        prog="glueforge",
        description="exact decorated-gluing toolkit: validation, certificates,"
        " collapse, decomposition, model skeletons, graph experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("validate", "parse a gluing file and check every structural invariant"),
        ("report", "certify bounded combinatorics at (R, D)"),
        ("collapse", "combine I-bundle stacks and rewire the gluing"),
        ("decompose", "expand splittings and cut along maximal compressions"),
        ("model", "assemble, verify and export the metric skeleton"),
        ("hyplab", "measure hyperbolicity and stability on a finite graph"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        if named is not None and name != named:
            continue
        cmd.add_argument("--input", required=True, help="input file path")
        cmd.add_argument("--R", type=int, default=6, dest="r_bound")
        cmd.add_argument("--D", type=int, default=1, dest="d_bound")
        cmd.add_argument("--h", type=int, default=1, dest="h_bound")
        cmd.add_argument("--eps0", type=float, default=0.1)
        cmd.add_argument("--samples", type=int, default=9)
        cmd.add_argument("--denom-bound", type=int, default=None)
        cmd.add_argument("--out", default=None, help="write output here instead of stdout")
        cmd.add_argument("--format", choices=("json", "obj"), default="json")
        cmd.add_argument("--seed", type=int, default=0)
        if name == "collapse":
            cmd.add_argument(
                "--emit-correspondence",
                action="store_true",
                help="include the stack-to-slot table in the report",
            )
    return parser


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        input=args.input,
        r_bound=args.r_bound,
        d_bound=args.d_bound,
        h_bound=args.h_bound,
        eps0=args.eps0,
        samples=args.samples,
        denom_bound=args.denom_bound,
        out=args.out,
        format=args.format,
        seed=args.seed,
        emit_correspondence=getattr(args, "emit_correspondence", False),
    )


def _read_input(cfg: RunConfig) -> str:
    try:
        with open(cfg.input, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_INPUT_BYTES + 1)
    except OSError as exc:
        raise ParseError(f"cannot read {cfg.input}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {cfg.input}: not UTF-8 text ({exc.reason})") from exc
    if len(text) > MAX_INPUT_BYTES or len(text.encode("utf-8")) > MAX_INPUT_BYTES:
        raise ParseError(f"input {cfg.input} is larger than {MAX_INPUT_BYTES} bytes")
    return text


def _emit(cfg: RunConfig, payload: bytes) -> None:
    if cfg.out is None:
        sys.stdout.write(payload.decode())
        return
    try:
        with open(cfg.out, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ValidationError(f"cannot write {cfg.out}: {exc.strerror}") from exc


def _emit_report(cfg: RunConfig, text: str, result: dict) -> None:
    envelope = {
        "command": cfg.command,
        "input_sha256": sha256_of_text(text),
        "params": cfg.params_json(),
        "result": result,
    }
    _emit(cfg, canonical_dumps(envelope).encode())


def cmd_validate(cfg: RunConfig) -> int:
    from .gluing import validate_gluing

    text = _read_input(cfg)
    x = validate_gluing(text)
    _emit_report(
        cfg,
        text,
        {
            "valid": True,
            "pieces": len(x.pieces),
            "identifications": len(x.identifications),
            "unburied": [f"{p}:{b}" for p, b in x.slots() if not x.is_buried((p, b))],
        },
    )
    return EXIT_PASS


def cmd_report(cfg: RunConfig) -> int:
    from .certify import check_bounded_combinatorics
    from .gluing import validate_gluing

    text = _read_input(cfg)
    x = validate_gluing(text)
    cert = check_bounded_combinatorics(x, cfg.r_bound, cfg.d_bound, cfg.denom_bound)
    _emit_report(cfg, text, cert.to_json())
    return EXIT_PASS if cert.passed else EXIT_VERDICT


def cmd_collapse(cfg: RunConfig) -> int:
    from .gluing import validate_gluing
    from .transforms import collapse_ibundles

    text = _read_input(cfg)
    x = validate_gluing(text)
    res = collapse_ibundles(x, cfg.r_bound, cfg.h_bound, cfg.denom_bound)
    _emit_report(cfg, text, res.to_json(emit_correspondence=cfg.emit_correspondence))
    if res.fibered:
        return EXIT_FIBERED
    return EXIT_PASS if res.ok else EXIT_VERDICT


def cmd_decompose(cfg: RunConfig) -> int:
    from .decompose import full_and_maximal_decomposition
    from .gluing import validate_gluing

    text = _read_input(cfg)
    x = validate_gluing(text)
    res = full_and_maximal_decomposition(x)
    _emit_report(cfg, text, res.to_json())
    return EXIT_PASS


def cmd_model(cfg: RunConfig) -> int:
    from .gluing import validate_gluing
    from .model import build_skeleton, export_skeleton, verify_thickness

    text = _read_input(cfg)
    x = validate_gluing(text)
    skeleton = build_skeleton(x, samples=cfg.samples)
    if cfg.format == "obj":
        _emit(cfg, export_skeleton(skeleton))
        return EXIT_PASS
    report = verify_thickness(skeleton, cfg.eps0)
    _emit_report(
        cfg,
        text,
        {"skeleton": skeleton.to_json(), "thickness": report.to_json()},
    )
    return EXIT_PASS if report.ok else EXIT_VERDICT


def cmd_hyplab(cfg: RunConfig) -> int:
    from .hypgraph import all_pairs_distances, geodesic_interval
    from .hyplab import (
        check_qconvex_stability,
        four_point_delta,
        quasiconvexity_constant,
        read_graph,
    )

    text = _read_input(cfg)
    graph = read_graph(text)
    table = all_pairs_distances(graph)
    delta = four_point_delta(table)
    # the widest geodesic interval doubles as the stability test bed: the
    # first diametral pair in row-major order
    rows = table.rows()
    diameter = max(map(max, rows))
    x = next(u for u, row in enumerate(rows) if max(row) == diameter)
    y = rows[x].index(diameter)
    interval = geodesic_interval(table, x, y)
    stability = check_qconvex_stability(table, interval, cfg.r_bound)
    _emit_report(
        cfg,
        text,
        {
            "vertices": table.n,
            "delta": [delta.numerator, delta.denominator],
            "diameter": diameter,
            "interval": {
                "endpoints": [x, y],
                "vertices": interval,
                "quasiconvexity": quasiconvexity_constant(table, interval),
            },
            "stability": stability.to_dict(),
        },
    )
    return EXIT_PASS


_COMMANDS = {
    "validate": cmd_validate,
    "report": cmd_report,
    "collapse": cmd_collapse,
    "decompose": cmd_decompose,
    "model": cmd_model,
    "hyplab": cmd_hyplab,
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
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        with _any_int_digits(), warnings.catch_warnings():
            warnings.showwarning = _show_warning
            cfg = _config(args)
            return _COMMANDS[cfg.command](cfg)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GlueforgeError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
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
    theirs as it was."""
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
