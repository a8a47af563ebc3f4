"""Command-line interface: enumeration, certification, and exports."""

from __future__ import annotations

import json
import os
import stat
import sys
from collections import namedtuple
from types import SimpleNamespace

# `sections` and `exact` are imported inside the commands that run them: no certificate compiles them.
from . import combinat, flipgraph, plabic, topology, zonotope
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
        # truncating a file to zero and rewriting it makes ext4 flush on close;
        # a device or pipe has no tail to cut
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    else:
        print(text)


_dump = topology.CANONICAL_JSON.encode


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
    return combinat.permutation_for_tcd(*_one_line(text))


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
    from . import exact

    with open(path) as fh:
        return exact.tiling_from_json(json.load(fh))


def _load_triangulation(path: str) -> plabic.PlabicTriangulation:
    with open(path) as fh:
        return plabic.PlabicTriangulation.from_json(json.load(fh))


def cmd_tilings(args) -> str:
    graph = zonotope.enumerate_tilings(zonotope.zonotope_spec(args.n, args.d), vertex_cap=args.cap)
    if args.format == "dot":
        return graph.to_dot("tilings_%d_%d" % (args.n, args.d))
    data = zonotope.flipgraph_to_json(graph)
    data["rank_range"] = [0, max(graph.ranks)]
    data["single_cycle"] = graph.is_single_cycle()
    return _dump(data)


def cmd_zcomplex(args) -> str:
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
    return _dump(data)


def cmd_complex(args) -> str:
    p = _parse_conn(args)
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
    return _dump(data)


def cmd_cross_section(args) -> str:
    from . import sections

    return _triangulation_out(args, sections.cross_section(_load_tiling(args.tiling), args.level))


def _triangulation_out(args, sigma: plabic.PlabicTriangulation) -> str:
    if args.format == "svg":
        from . import sections

        return sections.triangulation_to_svg(sigma, dual_overlay=args.dual, strands=args.strands)
    return _dump(sigma.to_json())


def cmd_updown(args) -> str:
    if args.necklace:
        return _dump(combinat.necklace_shift(_load_necklace(args.necklace), args.dir).to_json())
    if not args.triangulation:
        raise ArgumentError("updown needs --necklace or --triangulation")
    from . import sections

    return _dump(sections.up_down_graph(_load_triangulation(args.triangulation), args.dir).to_json())


def cmd_realize_move(args) -> str:
    from . import sections

    tiling = _load_tiling(args.tiling)
    sigma = sections.cross_section(tiling, args.level)
    moves = [m for m in plabic.available_moves(sigma) if m.kind in ("M1", "M3")]
    if args.kind:
        moves = [m for m in moves if m.kind == args.kind]
    if not 0 <= args.move_index < len(moves):
        raise ArgumentError("move index %d out of range (%d trivalent moves)" % (args.move_index, len(moves)))
    move = moves[args.move_index]
    seq = sections.realize_trivalent_move(tiling, args.level, move)
    ok = _verify_realization(tiling, args.level, move, seq)
    flips = [list(s.elements()) for s in seq]
    return _dump({"schema_version": 1, "level": args.level, "move_kind": move.kind, "flips": flips, "verified": ok})


def _verify_realization(tiling, level, move, seq) -> bool:
    from . import sections

    protected = range(level, tiling.spec.n) if move.kind == "M3" else range(1, level + 1)
    cur = tiling
    for i, site in enumerate(seq):
        before = {l: sections.cross_section(cur, l) for l in protected if 1 <= l < tiling.spec.n}
        cur = zonotope.apply_flip(cur, site)
        after = {l: sections.cross_section(cur, l) for l in protected if 1 <= l < tiling.spec.n}
        if i < len(seq) - 1:
            if before != after:
                return False
        else:
            for l in before:
                if l != level and before[l] != after[l]:
                    return False
    target = plabic.apply_move(sections.cross_section(tiling, level), move)
    return sections.cross_section(cur, level) == target


def cmd_align(args) -> str:
    from . import sections

    ta, tb = _load_tiling(args.tiling_a), _load_tiling(args.tiling_b)
    seq = sections.align_tilings(ta, tb, args.level)
    section = sections.cross_section(ta, args.level)
    cur, ok = ta, True
    for site in seq:
        cur = zonotope.apply_flip(cur, site)
        if sections.cross_section(cur, args.level) != section:
            ok = False
    ok = ok and cur == tb
    return _dump({"schema_version": 1, "level": args.level, "flips": [list(s.elements()) for s in seq], "verified": ok})


def cmd_export(args) -> str:
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
        return "\n".join(["graph exported {", *("  %d -- %d;" % (e["u"], e["v"]) for e in edges), "}"])
    if not args.triangulation:
        raise ArgumentError("export needs --flip-graph or --triangulation")
    if args.format == "dot":
        raise ArgumentError("triangulations export to json or svg")
    return _triangulation_out(args, _load_triangulation(args.triangulation))


# One row per command; `func` returns the text that `main` writes.  `pos` is ("n", "d"), two ints, or
# ("perm",), one or more words.  A flag's kind is int, str, a tuple of choices, or bool (a switch); unless
# in `defaults`, a switch is False, others None.
Command = namedtuple("Command", "func help pos flags defaults required formats", defaults=({}, (), ("json",)))
COMMANDS = {
    "tilings": Command(cmd_tilings, "enumerate fine zonotopal tilings of Z(n,d)", ("n", "d"), {},
                       formats=("json", "dot")),
    "zcomplex": Command(cmd_zcomplex, "build and certify the zonotopal flip complex", ("n", "d"),
                        {"--certify": bool}),
    "plabic": Command(cmd_complex, "build and certify a plabic flip complex", ("perm",),
                      {"--kind": ("X", "Y"), "--certify": bool}, {"kind": "X"}),
    "tcd": Command(cmd_complex, "build and certify a triple crossing diagram complex", ("perm",),
                   {"--certify": bool}, {"kind": "T"}),
    "cross-section": Command(cmd_cross_section, "cross-section of a tiling of Z(n,3)", (),
                             {"--tiling": str, "--level": int, "--dual": bool, "--strands": bool},
                             required=("--tiling", "--level"), formats=("json", "svg")),
    "updown": Command(cmd_updown, "UP/DOWN of a necklace or plabic triangulation", (),
                      {"--necklace": str, "--triangulation": str, "--dir": ("up", "down")}, required=("--dir",)),
    "realize-move": Command(cmd_realize_move, "realize a trivalent move by zonotopal flips", (),
                            {"--tiling": str, "--level": int, "--move-index": int, "--kind": ("M1", "M3")},
                            {"move_index": 0}, ("--tiling", "--level")),
    "align": Command(cmd_align, "flip one tiling into another fixing a cross-section", (),
                     {"--tiling-a": str, "--tiling-b": str, "--level": int},
                     required=("--tiling-a", "--tiling-b", "--level")),
    # cmd_export checks the format against --flip-graph or --triangulation
    "export": Command(cmd_export, "convert stored JSON to dot/svg", (),
                      {"--flip-graph": str, "--triangulation": str, "--dual": bool, "--strands": bool},
                      formats=("json", "dot", "svg")),
}
_COMMON = {"--cap": int, "--budget": int, "--format": ("json", "dot", "svg"), "--out": str}
_COMMON_HELP = """common flags, before or after the command:
  --cap INT               enumeration vertex cap
  --budget INT            coset-enumeration budget; bounds only an inconclusive pi1
  --format json|dot|svg
  --out STR               output path (default: stdout)"""
_NOTES = {
    "perm": "perm is '3,4,5,1,2', '2,1,3w' or cyclic n k; for tcd, '2,1,3' (fixed points are white)",
    "--necklace": "--necklace: JSON list of sets, inline or a file path; --triangulation: plabic triangulation file",
    "--dual": "--dual and --strands overlay the dual graph and the strand paths in svg output",
}


def _help(command: str | None) -> str:
    """The help of `command`, or of flipcells if None; its first line is the usage."""
    if command is None:
        listing = "\n".join("  %-14s %s" % (name, cmd.help) for name, cmd in COMMANDS.items())
        return "usage: flipcells [-h] [common flags] COMMAND ...\n\ncommands:\n%s\n\n%s" % (listing, _COMMON_HELP)
    cmd = COMMANDS[command]
    words = ["usage: flipcells", command, "[-h] [common flags]", *cmd.pos]
    for flag, kind in cmd.flags.items():
        if kind is not bool:
            flag += " " + ("|".join(kind) if isinstance(kind, tuple) else kind.__name__.upper())
        words.append(flag if flag.split()[0] in cmd.required else "[%s]" % flag)
    notes = "".join("\n  " + note for key, note in _NOTES.items() if key in cmd.pos or key in cmd.flags)
    return "%s\n\n%s%s\n\n%s" % (" ".join(words), cmd.help, notes, _COMMON_HELP)


class UsageError(Exception):
    """A command line that does not parse: `main` prints the usage line and exits 2."""


def _table(flags: dict, defaults: dict) -> tuple[dict, dict]:
    """flag -> (key, kind) of `flags`, the common ones and --help (kind None); and the values before any
    flag is read: the common defaults, then a switch False and another flag None unless in `defaults`."""
    table = {flag: (flag[2:].replace("-", "_"), kind) for flag, kind in {**_COMMON, **flags}.items()}
    start = dict(cap=flipgraph.DEFAULT_VERTEX_CAP, budget=topology.DEFAULT_PI1_BUDGET, format="json", out=None)
    start.update({table[flag][0]: False if kind is bool else None for flag, kind in flags.items()}, **defaults)
    return {**table, "--help": (None, None)}, start


_TABLES = {None: _table({}, {}), **{name: _table(cmd.flags, cmd.defaults) for name, cmd in COMMANDS.items()}}
_POSITIONALS = {"n": ("n", int), "d": ("d", int), "perm": ("perm", list)}


def _read(opts, table: dict, values: dict, command: str | None) -> None:
    for flag, value in opts:
        key, kind = table[flag]
        if kind is None:
            print(_help(command))
            raise SystemExit(0)
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError("%s: invalid int value: %r" % (flag, value)) from None
        elif isinstance(kind, tuple) and value not in kind:
            raise UsageError("%s: invalid choice: %r (choose from %s)" % (flag, value, ", ".join(kind)))
        values[key] = True if kind is bool else value


def main(argv=None) -> int:
    """Run one command line, read in one pass: common flags, the command word, then its positionals and
    flags in any order.  As with getopt, each run of flags up to the next word has every name and arity
    checked before any value is read, and `--` makes the next word a positional or the command.  An
    exact flag is one lookup and a unique prefix stands for a flag.  A usage error exits 2, -h exits 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command, table, values, words, run, word_next = None, _TABLES[None][0], {}, [], [], False
    try:
        rest = iter(argv)
        for arg in rest:
            if word_next or arg[:1] != "-" or arg == "-":  # a word ends the run of flags before it
                _read(run, table, values, command)
                word_next, run = False, []
                if command is None and arg not in COMMANDS:
                    raise UsageError("expected a command (%s), got %r" % (", ".join(COMMANDS), arg))
                if command is None:
                    command, cmd, (table, start) = arg, COMMANDS[arg], _TABLES[arg]
                    values = {**start, **values}
                else:
                    words.append(arg)
            elif arg == "--":
                word_next = True
            elif arg[1] != "-":  # a cluster of short flags, and -h is the only one
                if arg[1:].lstrip("h"):
                    raise UsageError("option -%s not recognized" % arg[1:].lstrip("h")[0])
                run.append(("--help", None))
            else:
                flag, eq, value = arg.partition("=")
                hits = [flag] if flag in table else [name for name in table if name.startswith(flag)]
                if len(hits) != 1:
                    raise UsageError("option %s %s" % (flag, "not a unique prefix" if hits else "not recognized"))
                flag, switch = hits[0], table[hits[0]][1] in (bool, None)
                if switch and eq:
                    raise UsageError("option %s must not have an argument" % flag)
                if not (switch or eq) and (value := next(rest, None)) is None:
                    raise UsageError("option %s requires argument" % flag)
                run.append((flag, value))
        _read(run, table, values, command)
        if command is None:
            raise UsageError("expected a command (%s), got None" % ", ".join(COMMANDS))
        words = [words] if cmd.pos == ("perm",) and words else words
        if len(words) != len(cmd.pos):
            raise UsageError("%s takes %s" % (command, " ".join(cmd.pos) or "no positionals"))
        _read(zip(cmd.pos, words), _POSITIONALS, values, command)
        if any(values[table[flag][0]] is None for flag in cmd.required):
            raise UsageError("%s needs %s" % (command, " and ".join(cmd.required)))
        if values["cap"] < 1 or values["budget"] < 1:
            raise UsageError("cap and budget must be positive")
    except UsageError as exc:
        print("%s\nflipcells: error: %s" % (_help(command).partition("\n")[0], exc), file=sys.stderr)
        raise SystemExit(2) from None
    args = SimpleNamespace(command=command, **values)
    try:
        if args.format not in cmd.formats:
            raise ArgumentError("%s writes %s, not %s" % (args.command, " or ".join(cmd.formats), args.format))
        _emit(args, cmd.func(args))
        return 0
    except (ArgumentError, ValidationError, PreconditionError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceCapExceeded as exc:
        print("error: %s (partial count %s)" % (exc, exc.partial_count), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
