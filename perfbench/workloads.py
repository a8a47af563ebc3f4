"""The benchmark's workloads: inputs, the timed operation, and output checks.

One operation is one certificate, produced through the entry point a user
calls: `flipcells.cli.main([..., "--out", file])` for the CLI workloads and
`topology.certificate` for the stored Z(7,3) complex.  Every workload is an
exhaustive ladder, so the seed only sets the order of its instances.

Why each workload is here:

* `z_ladder` -- the one-connectivity path, where the zonotopal cell finder
  dominates and Smith normal form is small.
* `homology_z73` -- the only workload whose d2 rank (14,939) is large enough
  for SNF pivoting and fill-in to dominate; it bypasses every builder.
* `plabic_sweep6` -- thousands of small X/Y complexes, so per-instance fixed
  costs (seed extension, candidate families, move rescans) dominate.
* `tcd_sweep6` -- the only user of the `tcd` layer and of the budget-exhaust
  path of `certify_trivial`; it carries the known T-complex defect (34 of
  the 720 permutations of 6 have H1 != 0).
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

from flipcells import cli, combinat, topology

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
Z73_PATH = os.path.join(DATA, "z73.json.gz")
PINS_PATH = os.path.join(DATA, "pins.json.gz")
Z73_HASH = "248107008509410045b37dd532e2c9fc58aba35bcc22f6eca3aaa35d6dec9ee4"
Z_LADDER = [(6, 2), (8, 5), (7, 4), (6, 3)]
TCD_BUDGET = 100_000


class OpError(Exception):
    """An operation ended without a certificate."""


def decorated_arg(p: combinat.DecoratedPermutation) -> str:
    """CLI form of a decorated permutation: fixed points carry w or b."""
    out = []
    for i, v in enumerate(p.image, start=1):
        tok = str(v)
        if v == i:
            tok += "w" if p.color_of(i) == combinat.WHITE else "b"
        out.append(tok)
    return ",".join(out)


def tcd_arg(image) -> str:
    # The CLI rejects bare fixed points, while tcd.build_t_complex colours
    # them white; pass the colour the library would choose.
    return ",".join(str(v) + ("w" if v == i else "") for i, v in enumerate(image, start=1))


def z_ladder_inputs():
    return [("Z(%d,%d)" % (n, d), ["zcomplex", str(n), str(d), "--certify"]) for n, d in Z_LADDER]


def plabic_sweep6_inputs():
    out = []
    for p in combinat.all_decorated_permutations(6):
        arg = decorated_arg(p)
        for kind in ("X", "Y"):
            out.append(("%s %s" % (kind, arg), ["plabic", arg, "--kind", kind, "--certify"]))
    return out


def tcd_sweep6_inputs():
    out = []
    for image in itertools.permutations(range(1, 7)):
        arg = tcd_arg(image)
        out.append((arg, ["tcd", arg, "--certify", "--budget", str(TCD_BUDGET)]))
    return out


def load_z73() -> topology.TwoComplex:
    """The stored complex, built through the validating public constructor."""
    with gzip.open(Z73_PATH, "rt") as fh:
        data = json.load(fh)
    return topology.TwoComplex(
        data["nv"],
        tuple(tuple(e) for e in data["edges"]),
        tuple(tuple(c) for c in data["cells"]),
    )


def homology_z73_inputs():
    return [("Z(7,3)", load_z73())]


def cli_call(argv, out: str):
    return cli.main(argv + ["--out", out])


def cli_certificate(rc, out: str) -> dict:
    if rc != 0:
        raise OpError("exit code %d" % rc)
    with open(out) as fh:
        return json.load(fh)["certificate"]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[], list[tuple[str, Any]]]  # set-up: (instance id, input)
    call: Callable[[Any, str], Any]  # the timed operation
    certificate: Callable[[Any, str], dict]  # its certificate, read untimed
    pinned: tuple[str, ...]  # certificate fields compared with the pins

    def check(self, raw, out: str, pin: dict | None) -> list[tuple[str, str]]:
        """(kind, detail) for each way an operation went wrong, given what
        its call returned or raised.  Kind is "error" when it raised or
        exited nonzero, "uncertified" when the complex was not certified
        simply connected, and "mismatch" when a pinned field differs.
        `wall_time_s` is never compared."""
        if isinstance(raw, Exception):
            return [("error", "raised %r" % raw)]
        try:
            cert = self.certificate(raw, out)
        except OpError as exc:
            return [("error", str(exc))]
        found = []
        if cert["betti1"] != 0 or cert["torsion"] or cert["pi1"] != "trivial":
            found.append(
                ("uncertified", "betti1 %s torsion %s pi1 %s" % (cert["betti1"], cert["torsion"], cert["pi1"]))
            )
        if pin is None:
            return found + [("mismatch", "no pinned value")]
        for key, want in sorted(pin.items()):
            if cert.get(key) != want:
                found.append(("mismatch", "%s %r, pinned %r" % (key, cert.get(key), want)))
        return found


WORKLOADS = {
    w.name: w
    for w in [
        Workload("z_ladder", z_ladder_inputs, cli_call, cli_certificate, ("input_hash",)),
        Workload(
            "homology_z73",
            homology_z73_inputs,
            lambda k, out: topology.certificate(k),
            lambda cert, out: cert,
            ("input_hash",),
        ),
        Workload("plabic_sweep6", plabic_sweep6_inputs, cli_call, cli_certificate, ("input_hash",)),
        # T pins V and E only: fixing the known defect adds cells, not vertices.
        Workload("tcd_sweep6", tcd_sweep6_inputs, cli_call, cli_certificate, ("V", "E")),
    ]
}


def load_pins() -> dict:
    with gzip.open(PINS_PATH, "rt") as fh:
        return json.load(fh)
