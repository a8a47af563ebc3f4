"""Start-up cost: numpy loads only where the zonotopal flip scan runs, and a
CLI call loads neither argparse nor getopt.

Each case runs in a fresh interpreter, because this test session has
already imported numpy.  The snippet's last stdout line says whether numpy
was loaded at the end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

DISK = (
    "from flipcells import topology\n"
    "k = topology.TwoComplex.from_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [[0, 1, 2, 3]])\n"
    "assert topology.certificate(k)['pi1'] == 'trivial'\n"
)


def _run(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    code += "import sys\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    *out, loaded = proc.stdout.splitlines()
    return out, loaded == "True"


def _main(*argv):
    return "from flipcells import cli\nassert cli.main(%r) == 0\n" % (list(argv),)


@pytest.mark.parametrize(
    "code",
    [
        "import flipcells\n",
        "import flipcells.cli\n",
        _main("plabic", "cyclic", "5", "2", "--certify"),
        _main("tcd", "3,4,5,1,2", "--certify"),
        DISK,
    ],
    ids=["import", "import-cli", "plabic", "tcd", "certificate"],
)
def test_numpy_not_loaded(code):
    _, loaded = _run(code)
    assert not loaded


def test_kernels_module_is_imported_with_the_package():
    out, loaded = _run("import sys, flipcells\nprint('flipcells._kernels' in sys.modules)\n")
    assert out == ["True"] and not loaded


def test_cli_call_does_not_load_argparse():
    probe = "import sys\nprint('argparse' in sys.modules, 'getopt' in sys.modules)\n"
    out, _ = _run(_main("plabic", "cyclic", "5", "2", "--certify") + probe)
    assert out[-1] == "False False"


def test_zcomplex_loads_numpy_on_first_enumeration():
    out, loaded = _run(_main("zcomplex", "4", "2", "--certify"))
    assert loaded
    assert json.loads(out[0])["certificate"]["pi1"] == "trivial"
