"""Command-line interface: enumeration, certification, and exports."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import combinat, flipgraph, plabic, tcd, topology, zonotope
from .combinat import DecoratedPermutation, GrassmannNecklace
from .errors import ArgumentError, PreconditionError, ResourceCapExceeded, ValidationError


def _emit(args, text: str) -> None:
    if args.out:
        path = args.out
        out_dir = os.environ.get("FLIPCELLS_OUT_DIR")
        if out_dir and not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        data = (text if text.endswith("\n") else text + "\n").encode("utf-8")
        # overwrite in place and cut the tail, rather than truncate on open:
        # truncating a file to zero and rewriting it makes ext4 flush on close
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    else:
        print(text)


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def parse_permutation(text: str) -> DecoratedPermutation:
    """One-line images with w/b suffixes on fixed points, e.g. '2,1,3w,4b'."""
    if text.strip().startswith("{"):
        return DecoratedPermutation.from_json(json.loads(text))
    return DecoratedPermutation.make(*_one_line(text))


def _one_line(text: str) -> tuple[tuple[int, ...], dict[int, str]]:
    """The image and the fixed-point colors of a one-line permutation."""
    image = []
    colors = {}
    for pos_, tok in enumerate(text.split(","), start=1):
        tok = tok.strip()
        suffix = None
        if tok and tok[-1] in "wb":
            suffix = tok[-1]
            tok = tok[:-1]
        # ASCII only: str.isdigit also takes digits such as '²' that int() rejects
        if not (tok.isascii() and tok.isdigit()):
            raise ArgumentError("bad permutation token %r" % tok)
        image.append(int(tok))
        if suffix:
            colors[pos_] = combinat.WHITE if suffix == "w" else combinat.BLACK
    return tuple(image), colors


def _parse_conn(args) -> DecoratedPermutation:
    """The connectivity argument.  Triple crossing diagrams take plain
    permutations: their fixed points are white, and a bare one is too."""
    if args.perm[0] == "cyclic":
        if len(args.perm) != 3:
            raise ArgumentError("usage: cyclic n k")
        try:
            n, k = int(args.perm[1]), int(args.perm[2])
        except ValueError:
            raise ArgumentError("cyclic n k needs integers, got %s %s" % tuple(args.perm[1:])) from None
        return combinat.cyclic_decorated(n, k)
    if len(args.perm) != 1:
        raise ArgumentError("expected one permutation argument or 'cyclic n k'")
    text = args.perm[0]
    if args.kind != "T" or text.strip().startswith("{"):
        return parse_permutation(text)
    return tcd.permutation_for_tcd(*_one_line(text))


def _load_necklace(text: str) -> GrassmannNecklace:
    try:
        with open(text) as fh:
            data = json.load(fh)
    except OSError:
        data = json.loads(text)
    if not isinstance(data, list) or not all(combinat.is_subset_json(s, len(data)) for s in data):
        raise ValidationError("a necklace is a JSON list of n subsets of [n], each a list")
    return GrassmannNecklace.make(len(data), data)


def _load_tiling(path: str) -> zonotope.Tiling:
    with open(path) as fh:
        return zonotope.tiling_from_json(json.load(fh))


def cmd_tilings(args) -> int:
    graph = zonotope.enumerate_tilings(zonotope.zonotope_spec(args.n, args.d), vertex_cap=args.cap)
    if args.format == "dot":
        _emit(args, graph.to_dot("tilings_%d_%d" % (args.n, args.d)))
        return 0
    data = zonotope.flipgraph_to_json(graph)
    data["rank_range"] = [0, max(graph.ranks)]
    data["single_cycle"] = graph.is_single_cycle()
    _emit(args, _dump(data))
    return 0


def cmd_zcomplex(args) -> int:
    graph = zonotope.enumerate_tilings(zonotope.zonotope_spec(args.n, args.d), vertex_cap=args.cap)
    complex_, cells = zonotope.build_z_complex(graph)
    data = {
        "schema_version": 1,
        "n": args.n,
        "d": args.d,
        "cells": sorted(kind for kind, _ in cells),
    }
    if args.certify:
        data["certificate"] = topology.certificate(complex_, budget=args.budget)
    else:
        data.update({"V": complex_.nv, "E": len(complex_.edges), "F": len(complex_.cells)})
    _emit(args, _dump(data))
    return 0


def cmd_complex(args) -> int:
    p = _parse_conn(args)
    if args.kind == "T":
        complex_, cells = tcd.build_t_complex(p, vertex_cap=args.cap)
    else:
        complex_, cells = plabic.build_plabic_complex(p, args.kind, vertex_cap=args.cap)
    data = {
        "schema_version": 1,
        "connectivity": p.to_json(),
        "kind": args.kind,
        "V": complex_.nv,
        "E": len(complex_.edges),
        "F": len(complex_.cells),
        "cells": sorted(name for name, _ in cells),
    }
    if args.certify:
        data["certificate"] = topology.certificate(complex_, budget=args.budget)
    _emit(args, _dump(data))
    return 0


def cmd_cross_section(args) -> int:
    tiling = _load_tiling(args.tiling)
    sigma = plabic.cross_section(tiling, args.level)
    if args.format == "svg":
        _emit(args, plabic.triangulation_to_svg(sigma, dual_overlay=args.dual, strands=args.strands))
        return 0
    _emit(args, _dump(sigma.to_json()))
    return 0


def cmd_updown(args) -> int:
    if args.necklace:
        necklace = _load_necklace(args.necklace)
        shifted = combinat.necklace_shift(necklace, args.dir)
        _emit(args, _dump(shifted.to_json()))
        return 0
    if not args.triangulation:
        raise ArgumentError("updown needs --necklace or --triangulation")
    with open(args.triangulation) as fh:
        sigma = plabic.PlabicTriangulation.from_json(json.load(fh))
    out = plabic.up_down_graph(sigma, args.dir)
    _emit(args, _dump(out.to_json()))
    return 0


def cmd_realize_move(args) -> int:
    tiling = _load_tiling(args.tiling)
    sigma = plabic.cross_section(tiling, args.level)
    moves = [m for m in plabic.available_moves(sigma) if m.kind in ("M1", "M3")]
    if args.kind:
        moves = [m for m in moves if m.kind == args.kind]
    if not 0 <= args.move_index < len(moves):
        raise ArgumentError(
            "move index %d out of range (%d trivalent moves)" % (args.move_index, len(moves))
        )
    move = moves[args.move_index]
    seq = plabic.realize_trivalent_move(tiling, args.level, move)
    verified = _verify_realization(tiling, args.level, move, seq)
    data = {
        "schema_version": 1,
        "level": args.level,
        "move_kind": move.kind,
        "flips": [list(s.elements()) for s in seq],
        "verified": verified,
    }
    _emit(args, _dump(data))
    return 0


def _verify_realization(tiling, level, move, seq) -> bool:
    protected = (
        range(level, tiling.spec.n)
        if move.kind == "M3"
        else range(1, level + 1)
    )
    cur = tiling
    for i, site in enumerate(seq):
        before = {l: plabic.cross_section(cur, l) for l in protected if 1 <= l < tiling.spec.n}
        cur = zonotope.apply_flip(cur, site)
        after = {l: plabic.cross_section(cur, l) for l in protected if 1 <= l < tiling.spec.n}
        if i < len(seq) - 1:
            if before != after:
                return False
        else:
            for l in before:
                if l != level and before[l] != after[l]:
                    return False
    target = plabic.apply_move(plabic.cross_section(tiling, level), move)
    return plabic.cross_section(cur, level) == target


def cmd_align(args) -> int:
    ta = _load_tiling(args.tiling_a)
    tb = _load_tiling(args.tiling_b)
    seq = plabic.align_tilings(ta, tb, args.level)
    cur = ta
    ok = True
    for site in seq:
        cur = zonotope.apply_flip(cur, site)
        if plabic.cross_section(cur, args.level) != plabic.cross_section(ta, args.level):
            ok = False
    ok = ok and cur.key() == tb.key()
    data = {
        "schema_version": 1,
        "level": args.level,
        "flips": [list(s.elements()) for s in seq],
        "verified": ok,
    }
    _emit(args, _dump(data))
    return 0


def cmd_export(args) -> int:
    if args.flip_graph:
        if args.format != "dot":
            raise ArgumentError("flip graphs export to dot")
        with open(args.flip_graph) as fh:
            data = json.load(fh)
        edges = data.get("edges") if isinstance(data, dict) else None
        if not isinstance(edges, list) or not all(
            isinstance(e, dict) and type(e.get("u")) is int and type(e.get("v")) is int for e in edges
        ):
            raise ValidationError('a flip graph is {"edges": [{"u": int, "v": int}, ...], ...}')
        lines = ["graph exported {"]
        for e in edges:
            lines.append("  %d -- %d;" % (e["u"], e["v"]))
        lines.append("}")
        _emit(args, "\n".join(lines))
        return 0
    if not args.triangulation:
        raise ArgumentError("export needs --flip-graph or --triangulation")
    if args.format == "dot":
        raise ArgumentError("triangulations export to json or svg")
    with open(args.triangulation) as fh:
        sigma = plabic.PlabicTriangulation.from_json(json.load(fh))
    if args.format == "svg":
        _emit(args, plabic.triangulation_to_svg(sigma, dual_overlay=args.dual, strands=args.strands))
    else:
        _emit(args, _dump(sigma.to_json()))
    return 0


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cap", type=int, default=argparse.SUPPRESS, help="enumeration vertex cap"
    )
    common.add_argument(
        "--budget",
        type=int,
        default=argparse.SUPPRESS,
        help="coset-enumeration budget; bounds only an inconclusive pi1",
    )
    common.add_argument(
        "--format", default=argparse.SUPPRESS, choices=["json", "dot", "svg"]
    )
    common.add_argument("--out", default=argparse.SUPPRESS, help="output path (default: stdout)")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="flipcells",
        parents=[common],
        description="Zonotopal tilings, plabic graphs, triple crossing diagrams, "
        "and certified simply connected flip complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("tilings", parents=[common], help="enumerate fine zonotopal tilings of Z(n,d)")
    s.add_argument("n", type=int)
    s.add_argument("d", type=int)
    s.set_defaults(func=cmd_tilings, formats=("json", "dot"))

    s = sub.add_parser("zcomplex", parents=[common], help="build and certify the zonotopal flip complex")
    s.add_argument("n", type=int)
    s.add_argument("d", type=int)
    s.add_argument("--certify", action="store_true")
    s.set_defaults(func=cmd_zcomplex)

    s = sub.add_parser("plabic", parents=[common], help="build and certify a plabic flip complex")
    s.add_argument("perm", nargs="+", help="'3,4,5,1,2' / '2,1,3w' / cyclic n k")
    s.add_argument("--kind", default="X", choices=["X", "Y"])
    s.add_argument("--certify", action="store_true")
    s.set_defaults(func=cmd_complex)

    s = sub.add_parser("tcd", parents=[common], help="build and certify a triple crossing diagram complex")
    s.add_argument("perm", nargs="+", help="'3,4,5,1,2' / '2,1,3' (fixed points are white) / cyclic n k")
    s.add_argument("--certify", action="store_true")
    s.set_defaults(func=cmd_complex, kind="T")

    s = sub.add_parser("cross-section", parents=[common], help="cross-section of a tiling of Z(n,3)")
    s.add_argument("--tiling", required=True)
    s.add_argument("--level", type=int, required=True)
    s.add_argument("--dual", action="store_true", help="overlay the dual graph in svg output")
    s.add_argument("--strands", action="store_true", help="overlay the strand paths in svg output")
    s.set_defaults(func=cmd_cross_section, formats=("json", "svg"))

    s = sub.add_parser("updown", parents=[common], help="UP/DOWN of a necklace or plabic triangulation")
    s.add_argument("--necklace", help="JSON list of sets, inline or a file path")
    s.add_argument("--triangulation", help="plabic triangulation JSON file")
    s.add_argument("--dir", required=True, choices=["up", "down"])
    s.set_defaults(func=cmd_updown)

    s = sub.add_parser("realize-move", parents=[common], help="realize a trivalent move by zonotopal flips")
    s.add_argument("--tiling", required=True)
    s.add_argument("--level", type=int, required=True)
    s.add_argument("--move-index", type=int, default=0)
    s.add_argument("--kind", choices=["M1", "M3"], default=None)
    s.set_defaults(func=cmd_realize_move)

    s = sub.add_parser("align", parents=[common], help="flip one tiling into another fixing a cross-section")
    s.add_argument("--tiling-a", required=True)
    s.add_argument("--tiling-b", required=True)
    s.add_argument("--level", type=int, required=True)
    s.set_defaults(func=cmd_align)

    s = sub.add_parser("export", parents=[common], help="convert stored JSON to dot/svg")
    s.add_argument("--flip-graph")
    s.add_argument("--triangulation")
    s.add_argument("--dual", action="store_true")
    s.add_argument("--strands", action="store_true")
    # cmd_export checks the format against --flip-graph or --triangulation
    s.set_defaults(func=cmd_export, formats=("json", "dot", "svg"))
    return parser


@functools.lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` reuses, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    # the common flags default to SUPPRESS, since the top-level parser and
    # every subparser share their actions: a subparser default would
    # overwrite a flag given before the subcommand
    defaults = argparse.Namespace(
        cap=flipgraph.DEFAULT_VERTEX_CAP, budget=topology.DEFAULT_PI1_BUDGET, format="json", out=None
    )
    args = parser.parse_args(argv, defaults)
    if args.cap < 1 or args.budget < 1:
        parser.error("cap and budget must be positive")
    try:
        formats = getattr(args, "formats", ("json",))
        if args.format not in formats:
            raise ArgumentError("%s writes %s, not %s" % (args.command, " or ".join(formats), args.format))
        return args.func(args)
    except (ArgumentError, ValidationError, PreconditionError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceCapExceeded as exc:
        print("error: %s (partial count %s)" % (exc, exc.partial_count), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
