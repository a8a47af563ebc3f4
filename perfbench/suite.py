#!/usr/bin/env python3
"""Run every benchmark workload and write one results file with the machine.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--out FILE]

Each workload of BENCHMARK.json runs in its own fresh process, one after
another: first untraced (the end-to-end metrics), then traced (the
per-layer metrics, the tracing overhead and a span file).  Every metric is
printed by name with its unit, followed by each failing instance and the
raw (unscaled) times.  The results, with the machine they were measured
on, go to FILE (default `.bench_out/BENCH_local.json`); spans go next to
it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy

    from flipcells import _kernels

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": _kernels.BACKEND,
    }


def run_workload(name: str, seed: int, seconds: int, trace: int, spans: str | None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s --trace %d exited %d" % (name, trace, proc.returncode))
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]  # failing instances, raw times, absent spans
    return result


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description="Run every flipcells benchmark workload.")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_out", "BENCH_local.json"))
    args = ap.parse_args()
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)

    report = {"machine": machine(), "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    print("machine: " + json.dumps(report["machine"], sort_keys=True))
    for w in spec["workloads"]:
        name = w["name"]
        spans = os.path.join(out_dir, "spans-%s.tsv.gz" % name)
        plain = run_workload(name, args.seed, args.seconds, 0, None)
        traced = run_workload(name, args.seed, args.seconds, 1, spans)
        report["workloads"][name] = {"why": w["why"], "untraced": plain, "traced": traced, "spans": spans}
        print("\n%s: correct %s, failed_ops %d of ops %d" % (name, plain["correct"], plain["failed"], plain["attempted"]))
        for metrics in (plain["metrics"], traced["metrics"]):
            for key, m in metrics.items():
                print("  %-42s %14.6f %s" % (key, m["value"], m["unit"]))
        for line in plain["log"] + [ln for ln in traced["log"] if ln.startswith("absent:")]:
            print("  " + line)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print("\nwrote " + args.out)


if __name__ == "__main__":
    main()
