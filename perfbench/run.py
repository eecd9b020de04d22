"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bulk_lookup --seed 3 --seconds 10 --trace 0

Stdout carries, in order: an ``env`` line (machine, versions, sizes), a
``named`` line with the workload's own metrics by name and unit, a
``failures`` line, and last one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are
the per-layer metrics, and the traced spans are written under
``.perfbench-out/``.

The program is imported from ``src/`` of the checkout the command runs
in; without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
WORKLOADS = ("ingest_compact", "bulk_lookup", "serve_tcp_zipf")


def load_spec() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def git_sha(root: str) -> str | None:
    """HEAD's commit id read from ``root/.git``, or None outside a git tree."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as f:
            return f.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def environment(seed: int, workload: str, sizes: dict) -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(os.getcwd()),
        "seed": seed,
        "workload": workload,
        "sizes": sizes,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink data sizes (the self-test uses this; 1.0 is the benchmark)")
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no src/repro under {os.getcwd()}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    spec = load_spec()

    import workloads

    run = getattr(workloads, args.workload)
    res = run(args.seed, args.seconds, bool(args.trace), scale=args.scale)
    if res.tracer is not None:
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
        res.tracer.write(path)
        res.info["spans_file"] = path
        res.info["spans"] = res.tracer.nspans
    return report(spec, args, res)


def report(spec: dict, args, res) -> int:
    print("env " + json.dumps(environment(args.seed, args.workload, res.info)))
    print("named " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in res.named.items()}))
    failed = res.wrong + res.errors + res.sheds
    print("failures " + json.dumps({
        "wrong": res.wrong, "errors": res.errors, "sheds": res.sheds,
        "attempted": res.attempted,
        "fail_frac": failed / res.attempted if res.attempted else 1.0,
    }))
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = res.layers if args.trace else res.e2e
    metrics = {}
    for m in names:
        # A layer that this workload never calls has no time or count: 0.
        value = values.get(m["name"], 0.0 if args.trace else None)
        if value is None:
            raise KeyError(f"workload {args.workload} did not measure {m['name']}")
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    print(json.dumps({
        "correct": res.wrong == 0 and res.errors == 0,
        "attempted": max(1, res.attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
