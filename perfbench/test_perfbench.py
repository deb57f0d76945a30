"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Runs each workload on its first two ops, traced and untraced, and checks
that every metric is reported with its unit; then checks the op
classifier on planted outcomes.
"""

import hashlib
import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import run  # noqa: E402

PER_LAYER = (
    [f"{layer}.{m}" for layer in run.LAYERS for m in ("calls", "self_s", "errors")]
    + ["cli.import_s", "torus.farey_distance.max_bits", "torus.projection_candidates_per_search"]
    + [
        f"{layer}.{fn}.{m}"
        for layer, fns in run.TRACED_FUNCTIONS.items()
        for fn in fns
        for m in ("calls", "self_s")
    ]
)


@pytest.mark.parametrize("workload", sorted(run.PASS_SECONDS))
def test_workload_reports_every_metric(workload):
    plain = run.run(workload, run.DEFAULT_SEED, 1, trace=False, max_ops=2)["summary"]
    assert plain["attempted"] == 2 and plain["correct"]
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == run.END_TO_END_UNITS
    traced = run.run(workload, run.DEFAULT_SEED, 1, trace=True, max_ops=2)
    assert traced["byte_mismatch"] == []
    metrics = traced["summary"]["metrics"]
    assert set(PER_LAYER) <= set(metrics)
    assert all(v["unit"] for v in metrics.values())
    assert metrics["cli.calls"]["value"] >= 2  # cli.main ran once per op


SHA = hashlib.sha256(b"input").hexdigest()
OP = {
    "name": "report:planted",
    "argv": ["report", "--input", "planted.json"],
    "input": "planted.json",
    "input_sha256": SHA,
    "expect": None,
    "output": "json",
}


def outcome(exit_code, stdout=b"", stderr="", timed_out=False):
    return run.Outcome(exit_code, 0.25, 0.2, timed_out, 40000, stdout, stderr)


def report(sha=SHA):
    envelope = {"command": "report", "input_sha256": sha, "params": {}, "result": {"passed": False}}
    return json.dumps(envelope).encode()


def test_classifier_counts_verdict_fail_as_success():
    r = run.classify(OP, outcome(1, report()), SHA, {})
    assert r.ok and not r.verified


def test_classifier_fails_planted_traceback():
    stderr = 'Traceback (most recent call last):\n  File "x"\nRecursionError: maximum recursion depth exceeded\n'
    r = run.classify(OP, outcome(1, b"", stderr), SHA, {})
    assert not r.ok and r.kind == "traceback"
    assert run.last_line(stderr).startswith("RecursionError")


def test_classifier_failure_kinds():
    assert run.classify(OP, outcome(-9, timed_out=True), SHA, {}).kind == "timeout"
    assert run.classify(OP, outcome(3, report()), SHA, {}).kind == "exit"
    assert run.classify(OP, outcome(0, report(sha="0" * 64)), SHA, {}).kind == "digest"
    ref = {run.reference_key(OP): {"exit": 1, "digest": "0" * 64}}
    assert run.classify(OP, outcome(1, report()), SHA, ref).kind == "digest"
    assert run.classify(OP, outcome(0, report()), SHA, ref).kind == "exit"
    fibered = dict(OP, expect=4)
    assert run.classify(fibered, outcome(4, report()), SHA, {}).ok
