"""Cold-CLI benchmark of glueforge.

    python3 perfbench/run.py --workload torus-certify --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  Each op is one cold
``python -m glueforge.cli <command> --input FILE ...`` process with ``src``
on ``PYTHONPATH``, the way the test suite runs the package.

Load model: a closed loop with one client.  The benchmark starts one child
at a time and starts the next only when the previous one has exited; the
parent sleeps on a pidfd meanwhile, so the second core is left to the
parent and to background noise.  A run generates the workload's inputs
from the seed (in a child, so that only the files reach the program),
runs one untimed warm-up op, and then runs the op list in whole passes:
as many as ``--seconds`` holds at the workload's nominal pass time, at
least one.  Whole passes keep the op mix, and so every ratio, independent
of speed.  After every timed op a speed probe is timed too (see
SPEED_PROBE), and the run's times are scaled to the machine's nominal
speed.

Every op is checked.  It fails when it passes the time limit, prints a
Python traceback, ends with an unexpected exit code, or its output fails
the check (malformed report, wrong ``input_sha256``, a digest that differs
from the stored reference or from an earlier repetition).  A failed op is
charged the time limit as its latency, so fixing a crash or a hang can
only improve the figures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and one pass under ``perfbench/traced.py``, checks that both
print the same bytes for every op, and prints the per-layer metrics.  The
last line of stdout is the JSON result; the full record of the run,
including every op and every failed one, goes to
``.perfbench/<workload>/result-seed<n>-trace<0|1>.json``.

``--record-reference`` reruns every op of every workload at the default
seed and stores the exit code and digest of each op that succeeds in
``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import pathlib
import platform
import random
import select
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

from traced import LAYERS

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
REFERENCE = BENCH / "reference.json"

# Per-op wall-time limit.  The slowest op that finishes at the baseline,
# ``model`` on the axis-7 stack, takes about 4.4 s; the limit leaves room
# for a noisy neighbour and for tracing.
LIMIT_S = 15.0
SETUP_REPEATS = 3
DEFAULT_SEED = 1
# Grace period between SIGTERM and SIGKILL for a traced op at its limit,
# so that perfbench/traced.py can write the spans it has.
TERM_GRACE_S = 3.0
# Seconds one pass of the op list takes on the reference machine (2-core
# Xeon, Python 3.11); a run makes round(seconds / pass time) passes, at
# least one.
PASS_SECONDS = {"torus-certify": 24.0, "graph-lab": 22.0, "skeleton": 42.0}
TAIL_ABOVE = 10
# The machine the benchmark was tuned on (a 2-core VM) drifts in speed by
# up to 1.5x over minutes, with cold interpreter start slowing most.
# After every timed op the benchmark times this probe, which runs no
# glueforge code, and scales the run's times by PROBE_NOMINAL_S over the
# probe's median: the figures read as seconds at the machine's nominal
# speed, and raw times stay in the record.
SPEED_PROBE = ("-c", "import numpy")
PROBE_NOMINAL_S = 0.2

TRACED_FUNCTIONS = {
    "torus": (
        "farey_distance",
        "farey_geodesic",
        "normalizer_to_infinity",
        "annular_projection_distance",
        "max_subsurface_projection",
        "shortest_slope",
        "systole",
        "sigma_of_marking",
        "teich_geodesic",
    ),
    "surface": ("curve_distance", "sup_projection", "geodesic_between", "marking_distance"),
    "hypgraph": (
        "all_pairs_distances",
        "four_point_delta",
        "local_to_global_report",
        "quasiconvexity_constant",
    ),
    "gluing": ("validate_gluing", "induced_markings", "check_bounded_combinatorics"),
    "transforms": (
        "combine_stack",
        "collapse_ibundles",
        "measured_r_bound",
        "full_and_maximal_decomposition",
    ),
    "model": ("build_skeleton", "sample_tube", "verify_thickness", "export_skeleton"),
    "ioutil": ("canonical_dumps",),
}
END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_frac": "1",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; it exits without a result."""


@dataclass
class Outcome:
    """What one child process did."""

    exit_code: int
    latency_s: float
    cpu_s: float
    timed_out: bool
    max_rss_kb: int
    stdout: bytes
    stderr: str


@dataclass
class OpResult:
    name: str
    outcome: Outcome
    ok: bool
    kind: str | None = None  # timeout, traceback, exit, digest
    detail: str = ""
    digest: str | None = None
    verified: bool = False
    trace: dict | None = field(default=None, repr=False)

    def record(self) -> dict:
        out = {
            "op": self.name,
            "ok": self.ok,
            "latency_s": self.outcome.latency_s,
            "cpu_s": self.outcome.cpu_s,
            "exit_code": self.outcome.exit_code,
            "max_rss_kb": self.outcome.max_rss_kb,
            "verified": self.verified,
            "digest": self.digest,
        }
        if not self.ok:
            out.update(kind=self.kind, detail=self.detail, stderr_tail=last_line(self.outcome.stderr))
        return out


def last_line(text: str) -> str:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], scratch: pathlib.Path, limit: float, term_first: bool = False) -> Outcome:
    """Run ``python argv...`` from the checkout root, wait for it for at
    most ``limit`` seconds, and reap it with its resource usage."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(), file_actions=actions)
    pidfd = os.pidfd_open(pid)
    usage = None
    try:
        exited, _, _ = select.select([pidfd], [], [], limit)
        end = time.perf_counter()
        timed_out = not exited
        if timed_out:
            # the child is not reaped yet, so its pid cannot be reused
            if term_first:
                os.kill(pid, signal.SIGTERM)
                if not select.select([pidfd], [], [], TERM_GRACE_S)[0]:
                    os.kill(pid, signal.SIGKILL)
            else:
                os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        if usage is None:
            # interrupted or terminated while waiting: leave no child behind
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        os.close(pidfd)
    return Outcome(
        exit_code=os.waitstatus_to_exitcode(status),
        latency_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        timed_out=timed_out,
        max_rss_kb=usage.ru_maxrss,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def output_digest(op: dict, stdout: bytes, input_sha256: str) -> tuple[str | None, str]:
    """Digest of the op's answer, or None and the reason it is malformed.

    JSON reports are digested on their ``result`` object, OBJ exports on
    their bytes."""
    if op["output"] == "obj":
        lines = stdout.decode("utf-8", errors="replace").splitlines()
        if not lines or not lines[0].startswith("# skeleton/"):
            return None, "OBJ export lacks its skeleton header"
        if not all(ln[:2] in ("o ", "v ", "f ") for ln in lines[1:]) or not any(
            ln.startswith("v ") for ln in lines
        ):
            return None, "OBJ export has a malformed line"
        return hashlib.sha256(stdout).hexdigest(), ""
    try:
        report = json.loads(stdout)
    except ValueError:
        return None, "stdout is not a JSON report"
    if not isinstance(report, dict) or set(report) != {"command", "input_sha256", "params", "result"}:
        return None, "report lacks the envelope keys"
    if report["command"] != op["argv"][0]:
        return None, f"report names command {report['command']!r}"
    if report["input_sha256"] != input_sha256:
        return None, "report input_sha256 differs from the input file's hash"
    canon = json.dumps(report["result"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest(), ""


def reference_key(op: dict) -> str:
    argv = [a for a in op["argv"] if a != op["input"]]
    argv.remove("--input")
    return " ".join(argv) + "@" + op["input_sha256"]


def classify(op: dict, outcome: Outcome, input_sha256: str, reference: dict) -> OpResult:
    """Decide whether one op succeeded, and why not when it did not."""
    ref = reference.get(reference_key(op))
    if outcome.timed_out:
        return OpResult(op["name"], outcome, False, "timeout", f"no exit within {LIMIT_S:g} s")
    if "Traceback (most recent call last)" in outcome.stderr:
        return OpResult(op["name"], outcome, False, "traceback", "Python traceback on stderr")
    if ref is not None:
        expected = {ref["exit"]}
    elif op["expect"] is not None:
        expected = {op["expect"]}
    else:
        expected = {0, 1}
    if outcome.exit_code not in expected:
        want = "/".join(str(c) for c in sorted(expected))
        return OpResult(op["name"], outcome, False, "exit", f"exit {outcome.exit_code}, expected {want}")
    digest, why = output_digest(op, outcome.stdout, input_sha256)
    if digest is None:
        return OpResult(op["name"], outcome, False, "digest", why)
    if ref is not None and digest != ref["digest"]:
        return OpResult(op["name"], outcome, False, "digest", "output differs from the reference", digest)
    return OpResult(op["name"], outcome, True, digest=digest, verified=ref is not None)


@dataclass
class Workload:
    """The generated inputs of one workload and the ops that read them."""

    seed: int
    directory: pathlib.Path
    ops: list[dict]
    input_hashes: dict[str, str]

    def argv(self, op: dict) -> list[str]:
        rel = self.directory.relative_to(ROOT)
        return [str(rel / a) if a == op["input"] else a for a in op["argv"]]


def generate(workload: str, seed: int, scratch: pathlib.Path) -> Workload:
    directory = WORK / workload / "inputs"
    gen = [str(BENCH / "inputs.py"), "--workload", workload, "--seed", str(seed), "--out", str(directory)]
    outcome = spawn(gen, scratch, 120.0)
    if outcome.exit_code != 0:
        raise BenchError(f"input generation failed: {last_line(outcome.stderr) or outcome.exit_code}")
    manifest = json.loads((directory / "ops.json").read_text(encoding="utf-8"))
    hashes = {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in manifest["inputs"]
    }
    if hashes != manifest["inputs"]:
        raise BenchError("input files differ from the hashes their generator recorded")
    return Workload(seed, directory, manifest["ops"], hashes)


def run_op(w: Workload, op: dict, scratch: pathlib.Path, reference: dict, trace_out: pathlib.Path | None = None) -> OpResult:
    argv = ["-m", "glueforge.cli", *w.argv(op)]
    if trace_out is not None:
        trace_out.unlink(missing_ok=True)
        argv = [str(BENCH / "traced.py"), str(trace_out), *w.argv(op)]
    outcome = spawn(argv, scratch, LIMIT_S, term_first=trace_out is not None)
    result = classify(op, outcome, w.input_hashes[op["input"]], reference)
    if trace_out is not None and trace_out.exists():
        result.trace = json.loads(trace_out.read_text(encoding="utf-8"))
    return result


def setup(workload: str, seed: int, scratch: pathlib.Path, reference: dict) -> tuple[Workload, list[float]]:
    """Generate the inputs and run one untimed warm-up op, several times;
    every repetition must produce the same input files."""
    times, w = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        again = generate(workload, seed, scratch)
        run_op(again, again.ops[0], scratch, reference)
        times.append(time.perf_counter() - start)
        if w is not None and again.input_hashes != w.input_hashes:
            raise BenchError("the same seed generated different inputs")
        w = again
    assert w is not None
    return w, times


def run_passes(w: Workload, ops: list[dict], passes: int, scratch: pathlib.Path, reference: dict, trace_out: pathlib.Path | None = None, probes: list[float] | None = None) -> list[OpResult]:
    """Run the ops in whole passes, each in a seeded random order so that
    cheap ops sample the machine across the whole run, not only between
    two long ops.  With ``probes``, time the speed probe after every op."""
    results: list[OpResult] = []
    first: dict[str, OpResult] = {}
    for i in range(passes):
        order = list(ops)
        random.Random(f"{w.seed}/{i}").shuffle(order)
        for op in order:
            r = run_op(w, op, scratch, reference, trace_out)
            prev = first.setdefault(op["name"], r)
            if r.ok and prev.ok and (r.digest, r.outcome.exit_code) != (prev.digest, prev.outcome.exit_code):
                r.ok, r.kind, r.detail = False, "digest", "output differs between repetitions"
            results.append(r)
            if probes is not None:
                probes.append(spawn(list(SPEED_PROBE), scratch, LIMIT_S).latency_s)
    return results


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest percentile that leaves at
    least TAIL_ABOVE samples above it (the maximum for short runs)."""
    return max(n - TAIL_ABOVE - 1, 0) if n > TAIL_ABOVE else n - 1


def end_to_end(results: list[OpResult], scale: float = 1.0) -> dict[str, float]:
    """End-to-end metrics, with measured times multiplied by ``scale``."""
    charged = sorted(r.outcome.latency_s * scale if r.ok else LIMIT_S for r in results)
    succeeded = sum(r.ok for r in results)
    return {
        "ops_per_s": succeeded / sum(charged),
        "op_p50_s": statistics.median(charged),
        "op_tail_s": charged[tail_index(len(charged))],
        "ok_frac": succeeded / len(results),
        "peak_rss_mb": max(r.outcome.max_rss_kb for r in results) / 1024,
    }


def per_layer(traced: list[OpResult], untraced: list[OpResult]) -> dict[str, float]:
    funcs: dict[str, list[float]] = {}
    errors = dict.fromkeys(LAYERS, 0)
    imports, max_bits = [], 0
    for r in traced:
        t = r.trace
        if t is None:
            continue
        imports.append(t["import_s"])
        max_bits = max(max_bits, t["farey_max_bits"])
        for layer, n in t["errors"].items():
            errors[layer] += n
        for key, s in t["functions"].items():
            agg = funcs.setdefault(key, [0, 0.0])
            agg[0] += s["calls"]
            agg[1] += s["self_s"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [v for k, v in funcs.items() if k.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(v[0] for v in mine)
        out[f"{layer}.self_s"] = sum(v[1] for v in mine)
        out[f"{layer}.errors"] = errors[layer]
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    for layer, names in TRACED_FUNCTIONS.items():
        for name in names:
            calls, self_s = funcs.get(f"{layer}.{name}", [0, 0.0])
            out[f"{layer}.{name}.calls"] = calls
            out[f"{layer}.{name}.self_s"] = self_s
    out["torus.farey_distance.max_bits"] = max_bits
    searches = out["torus.max_subsurface_projection.calls"]
    out["torus.projection_candidates_per_search"] = (
        out["torus.annular_projection_distance.calls"] / searches if searches else 0.0
    )
    out["trace.overhead_ops_per_s"] = end_to_end(untraced)["ops_per_s"] - end_to_end(traced)["ops_per_s"]
    return out


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "errors": "count", "import_s": "s", "max_bits": "bits"}


def per_layer_unit(name: str) -> str:
    if name == "torus.projection_candidates_per_search":
        return "1"
    if name == "trace.overhead_ops_per_s":
        return "ops/s"
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "op_limit_s": LIMIT_S,
    }


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check_checkout() -> None:
    if not (ROOT / "src" / "glueforge" / "cli.py").is_file():
        raise BenchError(f"no glueforge sources under {ROOT / 'src'}; run from a checkout of the repository")


def run(workload: str, seed: int, seconds: float, trace: bool, max_ops: int | None = None) -> dict:
    """One benchmark run; returns the full record, whose ``summary`` is
    the result line."""
    check_checkout()
    reference = load_reference()
    scratch = WORK / workload
    scratch.mkdir(parents=True, exist_ok=True)
    w, setup_times = setup(workload, seed, scratch, reference)
    ops = w.ops[:max_ops] if max_ops else w.ops
    record: dict = {"workload": workload, "seed": seed, "machine": machine_facts(), "setup_s": setup_times}
    if trace:
        untraced = run_passes(w, ops, 1, scratch, reference)
        traced = run_passes(w, ops, 1, scratch, reference, scratch / "trace.json")
        plain = {r.name: r.outcome.stdout for r in untraced}
        record["byte_mismatch"] = [r.name for r in traced if r.outcome.stdout != plain[r.name]]
        results = untraced + traced
        metrics = {k: (v, per_layer_unit(k)) for k, v in per_layer(traced, untraced).items()}
    else:
        passes = max(1, round(seconds / PASS_SECONDS[workload]))
        probes: list[float] = []
        results = run_passes(w, ops, passes, scratch, reference, probes=probes)
        scale = PROBE_NOMINAL_S / statistics.median(probes)
        values = end_to_end(results, scale)
        values["setup_s"] = statistics.median(setup_times) * scale
        record.update(probe_s=probes, scale=scale)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        n = len(results)
        record.update(passes=passes, tail={"percentile": 100 * (tail_index(n) + 1) / n, "ops": n})
    failed = [r for r in results if not r.ok]
    record.update(
        ops=[r.record() for r in results],
        failed=[r.record() for r in failed],
        unverified=sorted({r.name for r in results if r.ok and not r.verified}),
        input_sha256=w.input_hashes,
    )
    record["summary"] = {
        "correct": not record.get("byte_mismatch") and not any(r.kind == "digest" for r in failed),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record


def print_report(record: dict) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  limit {m['op_limit_s']:g} s")
    print(f"python {m['python']}  numpy {m['numpy']}  nproc {m['nproc']}  cpu {m['cpu']}")
    summary = record["summary"]
    for name, v in summary["metrics"].items():
        print(f"  {name:48s} {v['value']:14.6f} {v['unit']}")
    if "tail" in record:
        tail = record["tail"]
        print(f"  op_tail_s is p{tail['percentile']:.1f} of {tail['ops']} ops, {record['passes']} passes")
    fail_frac = summary["failed"] / summary["attempted"]
    print(f"  fail_frac {fail_frac:.4f} ({summary['failed']} of {summary['attempted']} ops)")
    for f in record["failed"]:
        print(f"  FAILED {f['op']}: {f['kind']}, exit {f['exit_code']}: {f['detail']} | {f['stderr_tail']}")
    if record["unverified"]:
        print(f"  unverified (no reference): {', '.join(record['unverified'])}")
    if record.get("byte_mismatch"):
        print(f"  TRACED STDOUT DIFFERS: {', '.join(record['byte_mismatch'])}")


def record_reference() -> None:
    """Store exit code and digest of every op that succeeds at the default seed."""
    check_checkout()
    reference: dict = {}
    for workload in PASS_SECONDS:
        scratch = WORK / workload
        scratch.mkdir(parents=True, exist_ok=True)
        w = generate(workload, DEFAULT_SEED, scratch)
        for op in w.ops:
            r = run_op(w, op, scratch, {})
            if r.ok:
                reference[reference_key(op)] = {"op": op["name"], "exit": r.outcome.exit_code, "digest": r.digest}
            print(f"{workload} {op['name']}: {'recorded' if r.ok else r.kind}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cold-CLI benchmark of glueforge")
    parser.add_argument("--workload", choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    out = WORK / args.workload / f"result-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_report(record)
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
