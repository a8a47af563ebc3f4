"""CLI subcommands: outputs, determinism, error handling."""

import hashlib
import itertools
import json

import pytest

from flipcells import cli
from flipcells import exact as E
from flipcells import plabic as P
from flipcells import sections as S
from flipcells import zonotope as Z
from flipcells.combinat import elems_of


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_tilings_5_3(self, capsys):
        code, out = run(capsys, "tilings", "5", "3")
        assert code == 0
        data = json.loads(out)
        assert data["n_vertices"] == 10
        assert len(data["edges"]) == 10
        assert data["rank_range"] == [0, 5]
        assert data["single_cycle"] is True

    def test_tilings_dot(self, capsys):
        code, out = run(capsys, "--format", "dot", "tilings", "4", "2")
        assert code == 0
        assert out.startswith("graph") and "rank=same" in out

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["tilings", "5", "3"], "91282977fdda5d044454871389869370e3b54357f2fc376483d0ae741bb8944d"),
            (["--format", "dot", "tilings", "4", "2"], "ee4e73e3526a40f5a7136d6a4b0a6b8e3ba450b34a783abc860b6622501bb57b"),
        ],
    )
    def test_tilings_output_is_pinned(self, capsys, argv, digest):
        # sha256 of the output computed when tilings were eager tuple payloads
        code, out = run(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_zcomplex_certify(self, capsys):
        code, out = run(capsys, "zcomplex", "5", "3", "--certify")
        data = json.loads(out)
        cert = data["certificate"]
        assert (cert["betti1"], cert["torsion"], cert["pi1"]) == (0, [], "trivial")
        assert data["cells"] == ["gon10"]

    def test_plabic_cyclic_certify(self, capsys):
        code, out = run(capsys, "plabic", "cyclic", "5", "1", "--kind", "X", "--certify")
        data = json.loads(out)
        assert (data["V"], data["E"], data["F"]) == (5, 5, 1)
        cert = data["certificate"]
        assert cert["betti1"] == 0 and cert["pi1"] == "trivial"

    def test_plabic_explicit_perm(self, capsys):
        code, out = run(capsys, "plabic", "2,1,3w,4b", "--kind", "X")
        assert code == 0
        assert json.loads(out)["V"] == 1

    def test_tcd(self, capsys):
        code, out = run(capsys, "tcd", "3,4,5,1,2", "--certify")
        data = json.loads(out)
        assert data["cells"] == ["decagon"]
        assert data["certificate"]["pi1"] == "trivial"

    def test_tcd_bare_fixed_points_are_white(self, capsys):
        code, bare = run(capsys, "tcd", "2,1,3", "--certify")
        assert code == 0
        _, marked = run(capsys, "tcd", "2,1,3w", "--certify")
        d1, d2 = json.loads(bare), json.loads(marked)
        d1["certificate"].pop("wall_time_s")
        d2["certificate"].pop("wall_time_s")
        assert d1 == d2
        assert d1["connectivity"]["fixed_color"] == {"3": "white"}

    def test_tcd_black_fixed_point_is_usage_error(self, capsys):
        assert cli.main(["tcd", "2,1,3b"]) == 2
        assert "undecorated" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "perm",
        [['{"n":3,"image":[2,1,3],"fixed_color":{"3":"black"}}'], ["cyclic", "3", "3"]],
        ids=["json", "cyclic"],
    )
    def test_tcd_black_fixed_point_by_other_routes_is_usage_error(self, capsys, perm):
        # the JSON form is read as given, and pi(3, 3) is the identity with
        # every fixed point black
        assert cli.main(["tcd", *perm]) == 2
        assert "undecorated" in capsys.readouterr().err

    def test_updown_necklace(self, capsys):
        code, out = run(
            capsys, "updown", "--necklace", "[[1,2],[2,3],[3,4],[4,5],[5,1]]", "--dir", "down"
        )
        assert code == 0
        assert json.loads(out) == [[1], [2], [3], [4], [5]]

    def test_cross_section_and_exports(self, capsys, tmp_path):
        tiling = Z.minimal_tiling(Z.zonotope_spec(5, 3))
        tfile = tmp_path / "tiling.json"
        tfile.write_text(json.dumps(E.tiling_to_json(tiling)))
        code, out = run(capsys, "cross-section", "--tiling", str(tfile), "--level", "2")
        assert code == 0
        sec = json.loads(out)
        assert sec["k"] == 2
        sfile = tmp_path / "sigma.json"
        sfile.write_text(out)
        code, out = run(capsys, "--format", "svg", "export", "--triangulation", str(sfile), "--dual")
        assert code == 0 and out.startswith("<svg")
        code, out = run(capsys, "updown", "--triangulation", str(sfile), "--dir", "up")
        assert code == 0
        assert json.loads(out)["k"] == 3

    def test_realize_and_align(self, capsys, tmp_path):
        spec = Z.zonotope_spec(5, 3)
        g = Z.enumerate_tilings(spec)
        a = g.payloads[0]
        afile = tmp_path / "a.json"
        afile.write_text(json.dumps(E.tiling_to_json(a)))
        code, out = run(
            capsys, "realize-move", "--tiling", str(afile), "--level", "2", "--move-index", "0"
        )
        assert code == 0
        assert json.loads(out)["verified"] is True
        # align a tiling with itself: empty verified sequence
        code, out = run(
            capsys, "align", "--tiling-a", str(afile), "--tiling-b", str(afile), "--level", "2"
        )
        data = json.loads(out)
        assert data["flips"] == [] and data["verified"] is True

    def test_zcomplex_counts_without_certify(self, capsys):
        code, out = run(capsys, "zcomplex", "5", "3")
        assert code == 0
        assert json.loads(out) == {"E": 10, "F": 1, "V": 10, "cells": ["gon10"], "d": 3, "n": 5, "schema_version": 1}

    @pytest.mark.parametrize("kind, level, flips", [("M1", "2", [[2, 3, 4, 5]]), ("M3", "3", [[1, 2, 3, 4]])])
    def test_realize_move_of_each_kind(self, capsys, tmp_path, kind, level, flips):
        tfile = tmp_path / "tiling.json"
        tfile.write_text(json.dumps(E.tiling_to_json(Z.minimal_tiling(Z.zonotope_spec(5, 3)))))
        code, out = run(capsys, "realize-move", "--tiling", str(tfile), "--level", level, "--kind", kind)
        assert code == 0
        data = json.loads(out)
        assert (data["move_kind"], data["flips"], data["verified"]) == (kind, flips, True)

    def test_align_tilings_sharing_a_section(self, capsys, tmp_path):
        # two distinct tilings of Z(5,3) with one level-1 section: a
        # nonempty flip sequence that keeps the section at every step
        g = Z.enumerate_tilings(Z.zonotope_spec(5, 3))
        a, b = next(
            (a, b)
            for a, b in itertools.combinations(g.payloads, 2)
            if S.cross_section(a, 1) == S.cross_section(b, 1)
        )
        files = []
        for name, tiling in (("a", a), ("b", b)):
            files.append(tmp_path / (name + ".json"))
            files[-1].write_text(json.dumps(E.tiling_to_json(tiling)))
        code, out = run(capsys, "align", "--tiling-a", str(files[0]), "--tiling-b", str(files[1]), "--level", "1")
        assert code == 0
        data = json.loads(out)
        assert data["flips"] and data["verified"] is True

    def test_updown_necklace_from_a_file(self, capsys, tmp_path):
        nfile = tmp_path / "necklace.json"
        nfile.write_text("[[1,2],[2,3],[3,4],[4,5],[5,1]]")
        code, out = run(capsys, "updown", "--necklace", str(nfile), "--dir", "down")
        assert code == 0
        assert json.loads(out) == [[1], [2], [3], [4], [5]]

    def test_flipgraph_export_dot(self, capsys, tmp_path):
        code, out = run(capsys, "tilings", "4", "2")
        gfile = tmp_path / "graph.json"
        gfile.write_text(out)
        code, out = run(capsys, "--format", "dot", "export", "--flip-graph", str(gfile))
        assert code == 0 and out.startswith("graph")


class TestDeterminismAndErrors:
    def test_byte_identical_output(self, capsys):
        _, out1 = run(capsys, "plabic", "cyclic", "5", "2", "--kind", "Y", "--certify")
        _, out2 = run(capsys, "plabic", "cyclic", "5", "2", "--kind", "Y", "--certify")
        d1, d2 = json.loads(out1), json.loads(out2)
        d1["certificate"].pop("wall_time_s")
        d2["certificate"].pop("wall_time_s")
        assert d1 == d2

    def test_bad_permutation_is_usage_error(self, capsys):
        code = cli.main(["plabic", "1,1,2"])
        assert code == 2
        # plabic fixed points need a color
        assert cli.main(["plabic", "2,1,3"]) == 2

    @pytest.mark.parametrize("command", ["plabic", "tcd"])
    def test_non_ascii_digit_is_usage_error(self, capsys, command):
        assert cli.main([command, "\u00b2,1"]) == 2
        assert capsys.readouterr().err.startswith("error: bad permutation token")

    @pytest.mark.parametrize("command", ["plabic", "tcd"])
    def test_color_on_non_fixed_point_is_usage_error(self, capsys, command):
        assert cli.main([command, "2w,1"]) == 2
        assert capsys.readouterr().err == "error: colors given for non-fixed points [1]\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["realize-move", "--level", "2", "--move-index", "99"], "move index 99 out of range (1 trivalent moves)"),
            (["realize-move", "--level", "2", "--kind", "M3"], "move index 0 out of range (0 trivalent moves)"),
            (["updown", "--necklace", "[[1,2],[2],[3,1]]", "--dir", "down"], "all necklace entries must have equal size"),
            (["plabic", "3,3,1"], "image is not a bijection"),
            (["plabic", "cyclic", "5"], "usage: cyclic n k"),
            (["plabic", "2,1", "3,4"], "expected one permutation argument"),
        ],
        ids=["move-index", "no-move-of-kind", "necklace-sizes", "not-a-bijection", "cyclic-arity", "two-words"],
    )
    def test_input_error_exits_2(self, capsys, tmp_path, argv, message):
        if argv[0] == "realize-move":
            tfile = tmp_path / "tiling.json"
            tfile.write_text(json.dumps(E.tiling_to_json(Z.minimal_tiling(Z.zonotope_spec(5, 3)))))
            argv = [*argv, "--tiling", str(tfile)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_updown_without_input_is_usage_error(self, capsys):
        assert cli.main(["updown", "--dir", "up"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: updown needs --necklace or --triangulation\n"

    def test_updown_walk_through_a_triangle_is_usage_error(self, capsys, tmp_path):
        # the UP layer of this vertex has a triangle whose centroid lies on
        # the shifted necklace walk, so the layer does not restrict to it
        sigma = P.enumerate_plabic(cli.parse_permutation("1w,3,4,5,6,2")).payloads[4]
        sfile = tmp_path / "sigma.json"
        sfile.write_text(json.dumps(sigma.to_json()))
        assert cli.main(["updown", "--triangulation", str(sfile), "--dir", "up"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: necklace walk passes through triangle [(1, 6), (3, 6), (4, 6)]\n"

    @pytest.mark.parametrize("command", ["plabic", "tcd"])
    def test_non_integer_cyclic_is_usage_error(self, capsys, command):
        assert cli.main([command, "cyclic", "6", "x"]) == 2
        assert capsys.readouterr().err.startswith("error: cyclic n k needs integers")

    def test_bad_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    @pytest.mark.parametrize(
        "flags", [["--cap", "0"], ["--budget", "0"], ["--jobs", "2"], ["--seed-order", "colex"]]
    )
    def test_nonpositive_or_unknown_flag_is_usage_error(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            cli.main(flags + ["tilings", "4", "2"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_cap_exceeded_exit_code(self, capsys):
        code = cli.main(["--cap", "5", "tilings", "5", "2"])
        assert code == 3
        # after the subcommand too; and a subcommand flag does not reset
        # the cap given before it
        assert cli.main(["tilings", "5", "2", "--cap", "5"]) == 3
        assert cli.main(["--cap", "5", "tilings", "5", "2", "--budget", "7"]) == 3

    def test_cap_bounds_the_tiling_setup(self, capsys, monkeypatch):
        # C(20, 11) + 1 tilings lie on one maximal chain, far above the cap,
        # so neither the flip tables nor the minimal tiling are built
        built = []
        monkeypatch.setattr(Z.ZonotopeSpec, "flip_sites_table", lambda self: built.append("sites"))
        monkeypatch.setattr(Z, "minimal_tiling", lambda spec: built.append("minimal"))
        assert cli.main(["--cap", "5", "tilings", "20", "10"]) == 3
        assert "vertex cap 5 exceeded enumerating Z(20,10)" in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize("argv", [["zcomplex", "66", "1"], ["tilings", "70", "2"]])
    def test_more_than_64_elements_is_usage_error(self, capsys, argv):
        assert cli.main(argv) == 2
        assert "n <= 64" in capsys.readouterr().err

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "res.json"
        code = cli.main(["tilings", "3", "2", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["n_vertices"] == 2

    def test_out_file_overwrites_longer_file(self, capsys, tmp_path):
        out = tmp_path / "res.json"
        out.write_text("x" * 100_000 + "\n")
        assert cli.main(["tilings", "3", "2", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.endswith("}\n") and json.loads(text)["n_vertices"] == 2
        cli.main(["tilings", "3", "2"])
        assert text == capsys.readouterr().out


class TestParser:
    """One row per argv: how `main` ends ("return" or "exit" by SystemExit,
    and the code), and a text that stdout and stderr must hold (None: empty).
    OUT stands for a file in the test's directory."""

    @pytest.mark.parametrize(
        "argv, ended, out, err",
        [
            pytest.param(["--cap", "100", "tilings", "3", "2"], "return 0", '"n_vertices":2', None, id="common-first"),
            pytest.param(["tilings", "3", "2", "--cap", "100"], "return 0", '"n_vertices":2', None, id="common-last"),
            pytest.param(["tilings", "3", "2", "--out=OUT"], "return 0", None, None, id="out-equals"),
            pytest.param(["plabic", "3,1,2", "--cert"], "return 0", '"certificate"', None, id="prefix-certify"),
            pytest.param(
                ["updown", "--necklace", "[[1],[2],[3]]", "--d", "up"], "return 0", "[[1,2],", None, id="prefix-dir"
            ),
            pytest.param(
                ["tilings", "3", "2", "--cap", "1", "--cap", "9"], "return 0", '"n_vertices"', None, id="last-wins"
            ),
            pytest.param(
                ["tilings", "3", "2", "--cap", "9", "--cap", "1"], "return 3", None, "cap 1 ", id="last-wins-cap"
            ),
            pytest.param(["-h"], "exit 0", "usage:", None, id="help"),
            pytest.param(["--help"], "exit 0", "usage:", None, id="help-long"),
            pytest.param(["plabic", "-h"], "exit 0", "usage:", None, id="command-help"),
            pytest.param(["plabic", "--help"], "exit 0", "usage:", None, id="command-help-long"),
            pytest.param(["align", "--tiling", "x", "--level", "2"], "exit 2", None, "usage:", id="ambiguous-prefix"),
            pytest.param(["plabic", "3,1,2", "--kind"], "exit 2", None, "usage:", id="missing-value"),
            pytest.param(["tilings", "x", "2"], "exit 2", None, "usage:", id="bad-int"),
            pytest.param(["--format", "png", "tilings", "3", "2"], "exit 2", None, "usage:", id="bad-choice"),
            pytest.param(["cross-section", "--level", "2"], "exit 2", None, "usage:", id="missing-required"),
            pytest.param(["frobnicate"], "exit 2", None, "usage:", id="unknown-command"),
            pytest.param([], "exit 2", None, "usage:", id="no-command"),
            # getopt's edge cases: `--` makes the next word a positional, and a run of flags between
            # two positionals has its names and arity checked before any value is read
            pytest.param(["--", "tilings", "3", "2"], "return 0", '"n_vertices":2', None, id="dashdash-first"),
            pytest.param(["tilings", "3", "--", "2"], "return 0", '"n_vertices":2', None, id="dashdash-between"),
            pytest.param(["tilings", "--", "-1", "2"], "return 2", None, "error: need 1 <= d < n", id="dashdash-negative"),
            pytest.param(["tilings", "-1", "2"], "exit 2", None, "option -1 not recognized", id="negative"),
            pytest.param(["-h", "--bogus"], "exit 2", None, "option --bogus not recognized", id="help-then-unknown"),
            pytest.param(["--bogus", "-h"], "exit 2", None, "option --bogus not recognized", id="unknown-then-help"),
            pytest.param(["plabic", "3,1,2", "-h", "--kind", "Z"], "exit 0", "usage:", None, id="help-then-bad-choice"),
            pytest.param(
                ["plabic", "3,1,2", "--kind", "Z", "-h"], "exit 2", None, "invalid choice", id="bad-choice-then-help"
            ),
            pytest.param(["-hx"], "exit 2", None, "option -x not recognized", id="short-cluster"),
            pytest.param(
                ["plabic", "3,1,2", "--certify=1"], "exit 2", None, "must not have an argument", id="switch-value"
            ),
            pytest.param(["plabic", "3,1,2", "--he"], "exit 0", "usage:", None, id="prefix-help"),
            pytest.param(["tilings", "3", "2", "-"], "exit 2", None, "tilings takes n d", id="lone-dash"),
        ],
    )
    def test_parse(self, capsys, tmp_path, argv, ended, out, err):
        path = tmp_path / "out.json"
        try:
            got = "return %s" % cli.main([a.replace("OUT", str(path)) for a in argv])
        except SystemExit as exc:
            got = "exit %s" % exc.code
        captured = capsys.readouterr()
        assert got == ended
        for text, want in ((captured.out, out), (captured.err, err)):
            assert want in text if want else text == ""
        if "--out=OUT" in argv:
            assert json.loads(path.read_text())["n_vertices"] == 2


class TestFormats:
    """Each command writes only the formats it can; the others are usage errors."""

    @pytest.fixture
    def files(self, tmp_path):
        tiling = Z.minimal_tiling(Z.zonotope_spec(5, 3))
        tfile = tmp_path / "tiling.json"
        tfile.write_text(json.dumps(E.tiling_to_json(tiling)))
        sfile = tmp_path / "sigma.json"
        assert cli.main(["cross-section", "--tiling", str(tfile), "--level", "2", "--out", str(sfile)]) == 0
        gfile = tmp_path / "graph.json"
        assert cli.main(["tilings", "4", "2", "--out", str(gfile)]) == 0
        return {"TILING": str(tfile), "SIGMA": str(sfile), "GRAPH": str(gfile)}

    def _argv(self, files, argv):
        return [files.get(a, a) for a in argv]

    @pytest.mark.parametrize(
        "argv, fmt",
        [
            (["tilings", "3", "2"], "svg"),
            (["cross-section", "--tiling", "TILING", "--level", "2"], "dot"),
            (["export", "--flip-graph", "GRAPH"], "json"),
            (["export", "--flip-graph", "GRAPH"], "svg"),
            (["export", "--triangulation", "SIGMA"], "dot"),
            (["plabic", "3,1,2"], "dot"),
            (["tcd", "3,1,2"], "svg"),
            (["zcomplex", "4", "2"], "dot"),
            (["updown", "--necklace", "[[1],[2],[3]]", "--dir", "up"], "svg"),
        ],
    )
    def test_rejected(self, capsys, files, argv, fmt):
        assert cli.main(self._argv(files, argv) + ["--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, fmt, head",
        [
            (["tilings", "3", "2"], "dot", "graph"),
            (["cross-section", "--tiling", "TILING", "--level", "2"], "svg", "<svg"),
            (["export", "--flip-graph", "GRAPH"], "dot", "graph"),
            (["export", "--triangulation", "SIGMA"], "json", "{"),
            (["plabic", "3,1,2"], "json", "{"),
        ],
    )
    def test_accepted(self, capsys, files, argv, fmt, head):
        code, out = run(capsys, *self._argv(files, argv), "--format", fmt)
        assert code == 0 and out.startswith(head)

    def test_export_needs_an_input(self, capsys):
        assert cli.main(["export", "--format", "svg"]) == 2
        assert "--flip-graph or --triangulation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cross-section", "--tiling", "EMPTY", "--level", "2"],
            ["align", "--tiling-a", "EMPTY", "--tiling-b", "EMPTY", "--level", "2"],
            ["export", "--triangulation", "EMPTY"],
            ["updown", "--triangulation", "EMPTY", "--dir", "up"],
            ["export", "--flip-graph", "EMPTY", "--format", "dot"],
            ["updown", "--dir", "up", "--necklace", "5"],
            ["plabic", "{}"],
            ["plabic", '{"image": [2, 1], "fixed_color": []}'],
            ["plabic", '{"image": [2, 1], "fixed_color": null}'],
            ["plabic", '{"image": [1], "fixed_color": {"x": "white"}}'],
            ["plabic", '{"image": [true, 1]}'],
            ["tcd", '{"image": [2, 1], "fixed_color": null}'],
        ],
    )
    def test_wrong_shaped_json_is_usage_error(self, capsys, tmp_path, argv):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        assert cli.main([str(empty) if a == "EMPTY" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a ")

    @pytest.mark.parametrize(
        "edit",
        [lambda s: s + "+", lambda s: s + "0", lambda s: s[:-1], lambda s: s.replace("0", "x", 1)],
        ids=["extra_plus", "extra_zero", "short", "unknown_char"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["cross-section", "--tiling", "TILING", "--level", "2"],
            ["realize-move", "--tiling", "TILING", "--level", "2", "--move-index", "0"],
        ],
    )
    def test_bad_sign_strings_are_usage_errors(self, capsys, tmp_path, edit, argv):
        # every sign string of a Z(5, 3) tiling has 5 characters from "+-0"
        data = E.tiling_to_json(Z.minimal_tiling(Z.zonotope_spec(5, 3)))
        data["tiles"] = [edit(s) for s in data["tiles"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert cli.main(self._argv({"TILING": str(bad)}, argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "edit, argv",
        [
            (lambda d: d["triangles"].pop(), ["updown", "--triangulation", "SIGMA", "--dir", "up"]),
            (lambda d: d["triangles"].pop(), ["--format", "svg", "export", "--triangulation", "SIGMA"]),
            (lambda d: d.update(k=3), ["--format", "svg", "export", "--triangulation", "SIGMA"]),
            (lambda d: d.update(k=3), ["updown", "--triangulation", "SIGMA", "--dir", "down"]),
            # triangles 0 and 1 have equal area, so the areas still add up
            (lambda d: d["triangles"].__setitem__(1, d["triangles"][0]), ["export", "--triangulation", "SIGMA"]),
            (lambda d: d["triangles"].__setitem__(1, d["triangles"][0]), ["updown", "--triangulation", "SIGMA", "--dir", "up"]),
        ],
        ids=[
            "missing_triangle_updown",
            "missing_triangle_svg",
            "wrong_k_svg",
            "wrong_k_updown",
            "doubled_triangle_json",
            "doubled_triangle_updown",
        ],
    )
    def test_invalid_triangulation_is_usage_error(self, capsys, files, tmp_path, edit, argv):
        data = json.loads(open(files["SIGMA"]).read())
        edit(data)
        bad = tmp_path / "bad_sigma.json"
        bad.write_text(json.dumps(data))
        assert cli.main(self._argv({"SIGMA": str(bad)}, argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("n, d", [(8, 4), (60, 30)])
    @pytest.mark.parametrize(
        "argv",
        [
            ["cross-section", "--tiling", "TILING", "--level", "2"],
            ["realize-move", "--tiling", "TILING", "--level", "2"],
            ["align", "--tiling-a", "TILING", "--tiling-b", "TILING", "--level", "2"],
        ],
    )
    def test_tiling_without_its_tiles_is_usage_error(self, capsys, tmp_path, n, d, argv):
        # the tile count is checked before a table of the C(n, d) zero sets
        # is built: C(60, 30) is about 1.2e17
        bad = tmp_path / "empty_tiles.json"
        bad.write_text(json.dumps({"n": n, "d": d, "tiles": []}))
        assert cli.main(self._argv({"TILING": str(bad)}, argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a fine tiling of Z(%d,%d) has C(%d,%d) tiles, not 0\n" % (n, d, n, d)

    @pytest.mark.parametrize(
        "argv",
        [
            ["updown", "--triangulation", "SIGMA", "--dir", "up"],
            ["export", "--triangulation", "SIGMA"],
        ],
    )
    def test_triangulation_without_triangles_is_usage_error(self, capsys, tmp_path, argv):
        # the area test runs before the weak-separation rows of C(60, 30) bits
        walk = [list(elems_of(m)) for m in P.cyclic_walk(60, 30)]
        bad = tmp_path / "no_triangles.json"
        bad.write_text(json.dumps({"n": 60, "k": 30, "triangles": [], "boundary": walk}))
        assert cli.main(self._argv({"SIGMA": str(bad)}, argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: triangles do not tile the boundary region\n"


class TestHarnessConfig:
    def test_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FLIPCELLS_OUT_DIR", str(tmp_path))
        code = cli.main(["tilings", "3", "2", "--out", "rel.json"])
        assert code == 0
        assert json.loads((tmp_path / "rel.json").read_text())["n_vertices"] == 2

    def test_strand_overlay_svg(self, capsys, tmp_path):
        tiling = Z.minimal_tiling(Z.zonotope_spec(5, 3))
        tfile = tmp_path / "t.json"
        tfile.write_text(json.dumps(E.tiling_to_json(tiling)))
        code, out = run(
            capsys, "--format", "svg", "cross-section", "--tiling", str(tfile),
            "--level", "2", "--dual", "--strands",
        )
        assert code == 0 and "polyline" in out
