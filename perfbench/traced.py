"""Run one ``glueforge`` command with every layer's public functions timed.

    python3 perfbench/traced.py TRACE_OUT <glueforge argv...>

Behaves like ``python -m glueforge.cli <argv...>``: same stdout, same exit
code, and an escaping exception still prints its traceback and exits 1.
On exit, or on SIGTERM when the op runs past its time limit, it writes a
JSON summary to TRACE_OUT: the import time of ``glueforge.cli`` and, per
wrapped function, the call count, total and self seconds, and the
exceptions that left its layer.

Wrapping happens here, in the benchmark, not in the package: every
top-level function without a leading underscore in each layer module is
replaced by a timing wrapper, in its own module and in every
``glueforge`` module that imported it by name.  Self time is a span's
duration minus the wrapped calls nested in it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pathlib
import signal
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

LAYERS = ("cli", "ioutil", "gluing", "transforms", "model", "surface", "hypgraph", "torus")

# Exit status of an op stopped at its time limit; the parent has already
# classified it as a timeout, so the value is informational only.
STOPPED_EXIT = 124


class Tracer:
    """Per-function aggregates of the spans of one process."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.errors = dict.fromkeys(LAYERS, 0)
        self.max_bits = 0
        # open spans, innermost last: [layer, start, nested_s, stat]
        self.open: list[list] = []

    def wrap(self, layer: str, fn):
        key = f"{layer}.{fn.__name__}"
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        open_spans = self.open
        clock = time.perf_counter
        watch_bits = key == "torus.farey_distance"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if watch_bits:
                self.max_bits = max(self.max_bits, *(a.q.bit_length() for a in args))
            open_spans.append([layer, clock(), 0.0, stat])
            try:
                return fn(*args, **kwargs)
            except Exception:
                if len(open_spans) < 2 or open_spans[-2][0] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                self._close(clock())

        return wrapper

    def _close(self, now: float) -> None:
        _, start, nested, stat = self.open.pop()
        elapsed = now - start
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - nested
        if self.open:
            self.open[-1][2] += elapsed

    def close_all(self) -> None:
        """Account the spans still open as ending now."""
        now = time.perf_counter()
        while self.open:
            self._close(now)

    def summary(self, import_s: float) -> dict:
        return {
            "import_s": import_s,
            "functions": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in self.stats.items()},
            "errors": self.errors,
            "farey_max_bits": self.max_bits,
        }


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public functions and rebind them wherever the
    package imported them by name."""
    replaced = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"glueforge.{layer}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            replaced[obj] = tracer.wrap(layer, obj)
            setattr(mod, name, replaced[obj])
    for modname, mod in list(sys.modules.items()):
        if modname != "glueforge" and not modname.startswith("glueforge."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, name, replaced[obj])


def main(argv: list[str]) -> int:
    out = pathlib.Path(argv[0])
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    cli = importlib.import_module("glueforge.cli")
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    instrument(tracer)

    def write() -> None:
        out.write_text(json.dumps(tracer.summary(import_s)), encoding="utf-8")

    def on_term(signum, frame) -> None:
        tracer.close_all()
        write()
        os._exit(STOPPED_EXIT)

    signal.signal(signal.SIGTERM, on_term)
    try:
        return cli.main(argv[1:])
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        write()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
