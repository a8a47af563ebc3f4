#!/usr/bin/env python3
"""Run one flipcells benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

Run from anywhere; the library is imported from `src/` next to this
directory, never from an installed copy.  One process, one thread, one
workload (see `workloads.py` for the workloads and why each is here).

A pass runs every instance of the workload once, in an order drawn from the
seed.  Passes repeat while another one fits in `--seconds`; there is always
at least one.  Each instance's certificate is checked after its call,
outside the timed region: a nonzero exit, a certificate other than betti1 0
with no torsion and pi1 "trivial", or a field that differs from its pin in
`data/pins.json.gz` fails the operation, and each failing instance is
printed once.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json.
Times are scaled to a reference machine speed (see `refspeed.py`), because
this class of shared host drifts by more than any usable bound; the raw
medians are printed on the line before the result.

* `wall_s` -- median over passes of the summed call times of one pass;
* `cert_p50_ms`, `cert_p98_ms` -- the median and the 98th percentile
  (nearest rank) over the instances of the time of one call, each
  instance's time being its median over the passes.  With only 4 instances
  in `z_ladder` and 1 in `homology_z73`, p98 there is the slowest instance;
* `peak_rss_mb` -- peak resident memory of this process;
* `setup_s` -- the median over five fresh interpreters of the time to
  import flipcells and generate or load the workload's inputs (for
  `homology_z73`, reading the stored complex through the validating
  `TwoComplex` constructor).

With `--trace 1`, each instance of a pass runs twice back to back, once
untraced and once traced, and the metrics are the per-layer ones of
BENCHMARK.json, per pass and in raw seconds: for a span
`<module>.<function>`, `.s` is its inclusive time, `.self_s` the part not
covered by wrapped callees, and `.calls` its call count; counts are read at
span boundaries (see `spans.py`); `.per_vertex` divides calls by the
vertices that layer enumerated; `trace.overhead_s` is the median over
passes of the traced minus the untraced call times.  `--spans FILE` also
writes every span.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  `failed` counts operations that
failed in any way.  `correct` is false only when an operation raised, exited
nonzero or differed from a pin; a certificate that honestly reports a
complex as not simply connected counts in `failed` alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import refspeed
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_ROUNDS = 5
# Set-up as a fresh process pays it: argv is src dir, this dir, workload.
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import flipcells.cli, workloads\n"
    "workloads.WORKLOADS[sys.argv[3]].inputs()\n"
    "print(time.perf_counter() - t)\n"
)
PER_VERTEX = {
    "zonotope.available_flips.per_vertex": ("zonotope.available_flips.calls", "zonotope.vertices"),
    "plabic.available_moves.per_vertex": ("plabic.available_moves.calls", "plabic.vertices"),
    "tcd.tcd_neighbors.per_vertex": ("tcd.tcd_neighbors.calls", "tcd.vertices"),
}


def fail(msg: str) -> None:
    print("error: " + msg, file=sys.stderr)
    sys.exit(2)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_layer(names, agg: dict, passes: int, overhead_s: float) -> dict[str, float]:
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = overhead_s
        elif name in PER_VERTEX:
            calls, verts = PER_VERTEX[name]
            out[name] = agg.get(calls, 0.0) / agg[verts] if agg.get(verts) else 0.0
        elif name in spans.MEASURED:
            out[name] = agg.get(name, 0.0) / passes
        else:
            fail("BENCHMARK.json names a per-layer metric this benchmark does not measure: " + name)
    return out


def timed_call(wl, inp, out: str):
    t = time.perf_counter()
    try:
        raw = wl.call(inp, out)
    except Exception as exc:  # an operation that raises fails; the run goes on
        raw = exc
    return raw, time.perf_counter() - t


def run_pass(wl, order, pins: dict, out: str):
    """Run and check every instance once.  Returns the raw summed call time,
    (instance, scaled call time) pairs and (instance, problems) pairs."""
    segments = refspeed.Segmenter()
    timed, failures = [], []
    raw_wall = 0.0
    for key, inp in order:
        raw, dt = timed_call(wl, inp, out)
        raw_wall += dt
        timed += segments.add(key, dt)
        found = wl.check(raw, out, pins.get(key))
        if found:
            failures.append((key, found))
    timed += segments.flush()
    return raw_wall, timed, failures


def traced_pass(wl, order, pins: dict, out: str, tracer):
    """Run and check every instance twice back to back, untraced and traced
    in alternating order, so that the machine's drift cancels in their
    difference.  Returns the summed traced time minus the summed untraced
    time, and (instance, problems) pairs for both calls."""
    overhead, failures = 0.0, []
    for i, (key, inp) in enumerate(order):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.op += 1
                tracer.install()
            try:
                raw, dt = timed_call(wl, inp, out)
            finally:
                if traced:
                    tracer.uninstall()
            overhead += dt if traced else -dt
            found = wl.check(raw, out, pins.get(key))
            if found:
                failures.append((key, found))
    return overhead, failures


def main() -> None:
    ap = argparse.ArgumentParser(description="Run one flipcells benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", help="with --trace 1, write every span to this gzipped TSV")
    args = ap.parse_args()
    # Keep this process, its set-up children and the speed reference on one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload)
    if not os.path.isfile(os.path.join(SRC, "flipcells", "__init__.py")):
        fail("flipcells sources not found in %s" % SRC)

    sys.path.insert(0, SRC)
    import flipcells.cli  # noqa: F401

    if not os.path.abspath(flipcells.__file__).startswith(SRC + os.sep):
        fail("imported flipcells from %s, not from %s" % (flipcells.__file__, SRC))

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    rounds, raw_rounds = [], []
    for _ in range(SETUP_ROUNDS):
        before = refspeed.sample(0.0)
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, HERE, wl.name],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        raw_rounds.append(float(child.stdout))
        rounds.append(raw_rounds[-1] * refspeed.NOMINAL_S / ((before + refspeed.sample(0.0)) / 2))
    setup_s = statistics.median(rounds)
    instances = wl.inputs()
    pins = workloads.load_pins()[wl.name]

    rng = random.Random(args.seed)
    tracer = spans.Tracer() if args.trace else None
    walls, raw_walls, overheads = [], [], []
    call_s: dict[str, list[float]] = {}
    attempted = failed = 0
    correct = True
    reported: set[str] = set()
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_out"))
    out = os.path.join(tmp, "certificate.json")
    try:
        start = time.perf_counter()
        while True:
            order = list(instances)
            rng.shuffle(order)
            pass_start = time.perf_counter()
            if tracer is None:
                raw_wall, timed, failures = run_pass(wl, order, pins, out)
                walls.append(sum(dt for _, dt in timed))
                raw_walls.append(raw_wall)
                for key, dt in timed:
                    call_s.setdefault(key, []).append(dt)
                attempted += len(order)
            else:
                overhead, failures = traced_pass(wl, order, pins, out, tracer)
                overheads.append(overhead)
                attempted += 2 * len(order)
            failed += len(failures)
            for key, found in failures:
                correct = correct and all(kind == "uncertified" for kind, _ in found)
                if key not in reported:
                    reported.add(key)
                    print("FAIL %s %s: %s" % (wl.name, key, "; ".join("%s: %s" % f for f in found)))
            now = time.perf_counter()
            if (now - start) + (now - pass_start) > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if tracer is None:
        print("measured: wall_s %r setup_s %r (before reference-speed scaling)"
              % (statistics.median(raw_walls), statistics.median(raw_rounds)))
        per_call = [statistics.median(v) for v in call_s.values()]
        values = {
            "wall_s": statistics.median(walls),
            "cert_p50_ms": 1e3 * statistics.median(per_call),
            "cert_p98_ms": 1e3 * percentile(per_call, 0.98),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        listed = spec["end_to_end"]
    else:
        if tracer.absent:
            print("absent: " + " ".join(tracer.absent))
        if args.spans:
            tracer.write(args.spans)
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(names, tracer.aggregate(), len(overheads), statistics.median(overheads))
        listed = spec["per_layer"]
    metrics = {}
    for m in listed:
        if m["name"] not in values:
            fail("BENCHMARK.json names an end-to-end metric this benchmark does not measure: " + m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
