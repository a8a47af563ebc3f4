#!/usr/bin/env python3
"""Regenerate the benchmark's stored input and its pinned outputs.

    python3 perfbench/generate.py

Builds the Z(7,3) complex with `enumerate_tilings` and `build_z_complex`,
checks its canonical hash against `workloads.Z73_HASH`, and writes it to
`data/z73.json.gz`.  Then certifies every instance of every workload once
and writes the pinned fields of each certificate to `data/pins.json.gz`.
Pins record the outputs of the commit that wrote them, so regenerate only
when an output is meant to change.  Takes about two minutes on 2 cores.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from flipcells import zonotope  # noqa: E402

import workloads  # noqa: E402


def write_gz_json(path: str, data) -> None:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(gzip.compress(text.encode(), compresslevel=9, mtime=0))


def main() -> None:
    os.makedirs(workloads.DATA, exist_ok=True)
    graph = zonotope.enumerate_tilings(zonotope.zonotope_spec(7, 3))
    z73, _ = zonotope.build_z_complex(graph)
    if z73.canonical_hash() != workloads.Z73_HASH:
        sys.exit("Z(7,3) complex hash %s != pinned %s" % (z73.canonical_hash(), workloads.Z73_HASH))
    write_gz_json(workloads.Z73_PATH, z73.to_json())

    pins = {}
    tmp = tempfile.mkdtemp()
    out = os.path.join(tmp, "certificate.json")
    try:
        for wl in workloads.WORKLOADS.values():
            pins[wl.name] = {}
            for key, inp in wl.inputs():
                cert = wl.certificate(wl.call(inp, out), out)
                pins[wl.name][key] = {f: cert[f] for f in wl.pinned}
            print("%s: %d pins" % (wl.name, len(pins[wl.name])))
    finally:
        shutil.rmtree(tmp)
    write_gz_json(workloads.PINS_PATH, pins)


if __name__ == "__main__":
    main()
