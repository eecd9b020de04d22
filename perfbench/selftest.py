"""Smoke-scale self-test of the benchmark.

Run from the root of a checkout::

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

It checks that every workload prints every metric BENCHMARK.json names,
as a finite number with its unit, traced and untraced; that a correct run
reports no failures; that an answer corrupted on its way out of the
library raises ``fail_frac``; and that the command fails, printing no
result, where there is no program to build.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE = ["--seed", "1", "--seconds", "0.5", "--scale", "0.05"]
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, trace: int) -> tuple[dict, list[str]]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", str(trace), *SMOKE],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def _check_metrics(result: dict, names: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), (m["name"], got)


def test_every_metric_present_and_numeric():
    spec = _spec()
    for w in spec["workloads"]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, lines = _run(w["name"], trace)
            _check_metrics(result, names)
            assert result["correct"] and result["failed"] == 0, (w["name"], trace, lines[:3])
            assert result["attempted"] >= 1
            env = json.loads(lines[0].split(" ", 1)[1])
            assert {"cores", "python", "numpy", "git_sha", "seed", "sizes"} <= set(env)
            if trace == 0:
                for name in ("ops_per_s", "op_tail_ms", "peak_rss_mb", "setup_s"):
                    assert result["metrics"][name]["value"] > 0, (w["name"], name)


def _fail_frac_with(patch_owner, attr: str, corrupt, workload: str) -> float:
    """Run ``workload`` in-process with ``patch_owner.attr`` corrupting
    its answers; returns the reported fail_frac."""
    original = getattr(patch_owner, attr)

    def wrong(*args, **kwargs):
        return corrupt(original(*args, **kwargs))

    setattr(patch_owner, attr, wrong)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", workload, "--trace", "0", *SMOKE])
    finally:
        setattr(patch_owner, attr, original)
    assert code == 0
    lines = buf.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] > 0
    failures = json.loads(next(x for x in lines if x.startswith("failures ")).split(" ", 1)[1])
    return failures["fail_frac"]


def _flip_first(values: list):
    values = list(values)
    values[0] = b"\x00" if values[0] is None else None
    return values


def test_injected_wrong_answer_raises_fail_frac():
    from repro.core.multiepoch import MultiEpochStore

    def bad_lookup(out):
        values, found, stats = out
        return _flip_first(values), found, stats

    assert _fail_frac_with(MultiEpochStore, "lookup_many", bad_lookup, "bulk_lookup") > 0

    def bad_get(out):
        values, stats = out
        return _flip_first(values), stats

    assert _fail_frac_with(MultiEpochStore, "get_many", bad_get, "ingest_compact") > 0


def test_fails_without_the_program():
    bare = os.path.join(ROOT, run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bulk_lookup", "--trace", "0", *SMOKE],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
