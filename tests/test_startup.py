"""Start-up cost: a certificate loads only the modules it runs.

No command loads numpy, which only the tests' reference scan
(`_kernels`) uses, and a CLI call loads neither argparse nor getopt.
`sections` (cross sections, dual graphs, UP/DOWN, realization, SVG) and
`exact` (exact tiling checks, with `fractions`, and tiling JSON) load on
first use: no certificate command compiles them, and each command that
runs them loads them.

Each case runs in a fresh interpreter, because this test session has
already imported numpy and both lazy modules.  The snippet's last stdout
line reports the modules loaded at its end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flipcells
from flipcells import cli, exact, sections
from flipcells import plabic as P
from flipcells import zonotope as Z

SRC = str(Path(__file__).resolve().parents[1] / "src")

DISK = (
    "from flipcells import topology\n"
    "k = topology.TwoComplex.from_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [[0, 1, 2, 3]])\n"
    "assert topology.certificate(k)['pi1'] == 'trivial'\n"
)
LAZY = ("flipcells.sections", "flipcells.exact", "fractions")


def _run(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    code += "import sys\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    *out, loaded = proc.stdout.splitlines()
    return out, loaded == "True"


def _loaded(code):
    """The modules of LAZY that `code` leaves loaded."""
    probe = "import json, sys\nprint(json.dumps([m for m in %r if m in sys.modules]))\n" % (LAZY,)
    out, _ = _run(code + probe)
    return set(json.loads(out[-1]))


def _main(*argv):
    return "from flipcells import cli\nassert cli.main(%r) == 0\n" % (list(argv),)


CERTIFICATES = {
    "import": "import flipcells\n",
    "import-cli": "import flipcells.cli\n",
    "plabic": _main("plabic", "cyclic", "5", "2", "--certify"),
    "tcd": _main("tcd", "3,4,5,1,2", "--certify"),
    "certificate": DISK,
    "zcomplex": _main("zcomplex", "4", "2", "--certify"),
}


@pytest.mark.parametrize(
    "code", [*CERTIFICATES.values(), _main("tilings", "4", "2")], ids=[*CERTIFICATES, "tilings"]
)
def test_numpy_not_loaded(code):
    _, loaded = _run(code)
    assert not loaded


@pytest.mark.parametrize("code", list(CERTIFICATES.values()), ids=list(CERTIFICATES))
def test_certificates_load_no_lazy_module(code):
    assert _loaded(code) == set()


def test_kernels_module_is_not_imported_with_the_package():
    out, loaded = _run("import sys, flipcells\nprint('flipcells._kernels' in sys.modules)\n")
    assert out == ["False"] and not loaded


def test_cli_call_does_not_load_argparse():
    probe = "import sys\nprint('argparse' in sys.modules, 'getopt' in sys.modules)\n"
    out, _ = _run(_main("plabic", "cyclic", "5", "2", "--certify") + probe)
    assert out[-1] == "False False"


def test_zcomplex_certifies_without_numpy():
    out, loaded = _run(_main("zcomplex", "4", "2", "--certify"))
    assert not loaded
    assert json.loads(out[0])["certificate"]["pi1"] == "trivial"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The minimal tiling of Z(5,3) and the seed of 2,1,5,3,4, as CLI input files."""
    root = tmp_path_factory.mktemp("inputs")
    tiling, sigma = root / "tiling.json", root / "sigma.json"
    tiling.write_text(json.dumps(exact.tiling_to_json(Z.minimal_tiling(Z.zonotope_spec(5, 3)))))
    sigma.write_text(json.dumps(P.seed_triangulation(cli.parse_permutation("2,1,5,3,4")).to_json()))
    return {"tiling": str(tiling), "sigma": str(sigma)}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["cross-section", "--tiling", "{tiling}", "--level", "2"], {"sections", "exact"}),
        (
            ["cross-section", "--tiling", "{tiling}", "--level", "2", "--format", "svg", "--dual", "--strands"],
            {"sections", "exact"},
        ),
        (["updown", "--triangulation", "{sigma}", "--dir", "down"], {"sections"}),
        (["realize-move", "--tiling", "{tiling}", "--level", "2", "--move-index", "0"], {"sections", "exact"}),
        (["align", "--tiling-a", "{tiling}", "--tiling-b", "{tiling}", "--level", "1"], {"sections", "exact"}),
        (["export", "--triangulation", "{sigma}", "--format", "svg", "--strands"], {"sections"}),
        (["export", "--triangulation", "{sigma}"], set()),
        (["tilings", "4", "2"], set()),
    ],
    ids=["cross-section", "cross-section-svg", "updown", "realize-move", "align", "export-svg", "export", "tilings"],
)
def test_commands_load_the_modules_they_run(files, argv, modules):
    loaded = _loaded(_main(*(arg.format(**files) for arg in argv)))
    assert {m.split(".")[1] for m in loaded if m.startswith("flipcells.")} == modules
    assert ("fractions" in loaded) == ("exact" in modules)


# Every name `flipcells` exported before `sections` and `exact` were split
# off, the moved ones last.
PUBLIC = """
BLACK WHITE DecoratedPermutation GrassmannNecklace LabelCollection cyclic_decorated decorated_of
extend_to_maximal_ws helicity is_weakly_separated necklace_of necklace_shift
Move PlabicTriangulation apply_move available_moves build_plabic_complex enumerate_plabic
GroupPresentation TwoComplex certificate certify_trivial h1 pi1_presentation
FlipSite SignedSubset Tiling ZonotopeSpec apply_flip available_flips build_z_complex enumerate_tilings
minimal_tiling zonotope_spec
PlabicGraph TripleCrossingDiagram align_tilings as_tcd cross_section dual_graph embed_in_cyclic
extend_to_tiling flip_move_correspondence is_reduced layer_step realize_trivalent_move
strand_permutation triangulation_from_labels up_down_graph to_tile validate_tiling
""".split()


def test_public_names_resolve():
    assert sorted(flipcells.__all__) == sorted(PUBLIC)
    listed = dir(flipcells)
    for name in PUBLIC:
        assert name in listed
        assert getattr(flipcells, name) is not None
    assert flipcells.cross_section is sections.cross_section
    assert flipcells.as_tcd is sections.as_tcd
    assert flipcells.validate_tiling is exact.validate_tiling
    with pytest.raises(AttributeError):
        flipcells.tiling_to_json


def test_moved_names_load_their_module_on_first_use():
    code = "import flipcells\nassert flipcells.dual_graph and flipcells.to_tile\n"
    assert _loaded("import flipcells\n") == set()
    assert _loaded(code) == {"flipcells.sections", "flipcells.exact", "fractions"}
