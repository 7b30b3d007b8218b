"""Command-line front end.

Exit codes: 0 success, 1 unparseable input or stdout closed early (a
broken pipe), 2 domain rule violated, 3 size guard tripped.
"""

from __future__ import annotations

import os
import sys
import types
from itertools import chain
from typing import Iterable

from . import bdiagram, generation, inversion, words
from .errors import DEFAULT_CAP, DiagramError
from .perm import Listing, arc_text, letter_sets, parse_perm


# ----------------------------------------------------------------- commands

class _Escapes(dict):
    """``str.translate``'s table from each char to its form in a JSON string."""

    def __missing__(self, code):
        if code > 0xFFFF:
            return self[0xD800 | (code - 0x10000) >> 10] + self[0xDC00 | code & 0x3FF]
        return f"\\u{code:04x}"


_ESCAPES = _Escapes({code: code for code in range(0x20, 0x7F)})
_ESCAPES.update(zip(b'"\\\b\f\n\r\t', map("\\".__add__, '"\\bfnrt')))


def _joined(items, sep: str, head: str, tail: str, between: str = " "):
    """Yield ``head + sep.join(lines) + tail`` in pieces, where ``items`` holds
    lines and listings: a listing stands for its rows, each its entries joined
    by ``between``, 4,096 rows a piece, and each run of lines is one piece."""
    lines = []
    for item in chain(items, [None]):  # None: no more items
        if isinstance(item, str):
            lines.append(item)
            continue
        if lines:
            yield head + sep.join(lines)
            head, lines = sep, []
        if item:
            names = [str(v) for v in range(item.n + 1)].__getitem__  # one table per listing
            marker = between + "1" + between
            for at in range(0, len(item), 4096):
                entries = item.entries(b"".join(item.rows[at : at + 4096]))
                # every row starts at vertex 1 and holds it once, so each
                # between-1-between marks a row's start
                yield head + between.join(map(names, entries)).replace(marker, sep + "1" + between)
                head = sep
    yield tail


def _json(value):
    """Yield ``json.dumps(value, default=lambda listing: [p.seq for p in listing])``
    in pieces, a listing 4,096 rows a piece; raise TypeError on a type no payload
    holds."""
    if isinstance(value, int):  # json writes a bool as true or false, not as 1 or 0
        yield ("false", "true")[value] if value.__class__ is bool else int.__repr__(value)
    elif isinstance(value, str):
        yield '"' + value.translate(_ESCAPES) + '"'
    elif isinstance(value, dict):
        for i, (key, item) in enumerate(value.items()):
            yield f'{", " if i else "{"}"{str.translate(key, _ESCAPES)}": '
            yield from _json(item)
        yield "}" if value else "{}"
    elif isinstance(value, Listing) and value:
        yield from _joined([value], "], [", "[[", "]]", ", ")
    elif isinstance(value, (list, tuple, Listing)):
        for i, item in enumerate(value):
            yield ", " if i else "["
            yield from _json(item)
        yield "]" if value else "[]"
    else:
        raise TypeError(f"no payload holds a {type(value).__name__}")


def _cmd_classify(args) -> tuple[dict, Iterable[str]]:
    word = words.cycle_word(parse_perm(args.perm))
    classes = dict(zip(("R", "Rbar", "K"), map(sorted, letter_sets(word, "rRk"))))
    lines = [name + ": " + " ".join(map(str, members)) for name, members in classes.items()]
    lines.append("word: " + word)
    return {**classes, "word": word}, lines


def _cmd_invert(args) -> tuple[dict, list]:
    # run the oracle first so its size guard fires before the listing starts
    oracle = inversion.perms_from_word_oracle(args.word, args.cap) if args.oracle else None
    perms = inversion.perms_from_word(args.word, args.cap)
    shown = inversion.canonical_half(perms) if args.canonical_half else perms
    payload = {"word": args.word, "perms": shown}
    lines = [shown]
    if oracle is not None:
        status = "MATCH" if perms == oracle else "MISMATCH"
        payload["oracle"] = status
        lines.append(f"oracle: {status}")
    return payload, lines


def _cmd_bword(args) -> tuple[dict, Iterable[str]]:
    b = bdiagram.parse_bdiagram(args.bdiagram)
    word, arcs = bdiagram.block_word(b), b.arc_notation()
    payload = {"word": word, "arcs": arcs, "blocks": b.blocks}
    return payload, ["word: " + word, "arcs: " + arcs]


def _cmd_validate_word(args) -> tuple[dict, Iterable[str]]:
    result = bdiagram.validate_block_word(args.word)
    if result.ok:
        payload = {"valid": True, "witness": str(result.witness)}
        lines = ["Valid", f"witness: {result.witness}"]
    else:
        payload = {"valid": False, "reason": result.reason.value}
        lines = [f"Invalid: {result.reason.value}"]
    return payload, lines


def _cmd_generators(args) -> tuple[dict, list]:
    b = bdiagram.parse_bdiagram(args.bdiagram)
    if not args.list:
        count = generation.count_generators(b)
        return {"count": count}, [str(count)]
    methods = {
        "blocks": generation.enumerate_generators,
        "table": generation.complete_table,
        "oracle": generation.generators_oracle,
    }
    perms = methods[args.method](b, args.cap)
    if args.method == "oracle":  # a tuple, which the writer takes as a listing
        perms = Listing.of(perms, b.n)
    payload = {"count": len(perms), "method": args.method, "perms": perms}
    return payload, [perms]


def _cmd_cutset(args) -> tuple[dict, Iterable[str]]:
    cut = bdiagram.cut_set(parse_perm(args.perm), bdiagram.parse_bdiagram(args.bdiagram))
    return {"arcs": sorted(cut), "size": len(cut)}, [arc_text(cut)]


def _cmd_complement(args) -> tuple[dict, Iterable[str]]:
    p = parse_perm(args.perm)
    result = bdiagram.complement(p, bdiagram.parse_bdiagram(args.bdiagram))
    return {"blocks": result.blocks}, [str(result)]


def _cmd_crossing(args) -> tuple[dict, Iterable[str]]:
    value = bdiagram.max_crossing(bdiagram.parse_bdiagram(args.bdiagram))
    return {"max_crossing": value}, [str(value)]


def _cmd_inflate(args) -> tuple[dict, Iterable[str]]:
    word = words.inflate(args.word)
    return {"word": word}, [word]


def _cmd_edit(args) -> tuple[dict, Iterable[str]]:
    b = bdiagram.parse_bdiagram(args.bdiagram)
    if args.op == "add":
        result = bdiagram.add_arc(b, (args.i, args.j))
    elif args.op == "remove":
        result = bdiagram.remove_arc(b, (args.i, args.j))
    else:
        result = bdiagram.transpose_labels(b, args.i, args.j)
    return {"blocks": result.blocks}, [str(result)]


def _cmd_render(args) -> tuple[dict, Iterable[str]]:
    from . import render  # here, so that no other command compiles it

    if args.kind == "perm":
        word = words.cycle_word(parse_perm(args.input))
    else:
        word = args.input
        if args.kind == "word":
            words.check_cycle_word(word)
    dialect = "block" if args.kind == "bword" else "cycle"
    if args.format == "svg":  # its size grows only with the word, so it takes no cap
        art = render.render_svg(word, dialect)
    else:
        art = render.render_ascii(word, dialect, args.cap)
    payload = {"kind": args.kind, "word": word, "art": art}
    return payload, [art]


def census_report(n: int, cap: int = DEFAULT_CAP):
    """:func:`arcdiagrams.census.census_report`, under the name by which
    perfbench traces the census; ``_cmd_census`` calls it by this name."""
    from . import census

    return census.census_report(n, cap)


def _cmd_census(args) -> tuple[dict, Iterable[str]]:
    from .census import census_json, census_lines

    report = census_report(args.n, args.cap)
    return census_json(report), census_lines(report)


# ------------------------------------------------------------------ parsing

# Every subcommand, read by build_parser and by _plain_args: its handler, its
# help, its arguments and the two of its options that exclude each other. An
# argument is an operand's name or an option's flag, with the settings that
# build_parser hands to argparse's add_argument; each subcommand takes _COMMON
# first.
_SWITCH = "store_true"
_COMMON = (
    ("--json", {"action": _SWITCH, "help": "emit JSON"}),
    ("--cap", {"type": int, "default": DEFAULT_CAP,
               "help": "refuse enumerations larger than this"}),
)
_COMMANDS = {
    "classify": (_cmd_classify, "vertex classes and word", [("perm", {})], ()),
    "invert": (_cmd_invert, "permutations of a word", [
        ("word", {}),
        ("--all", {"action": _SWITCH, "help": "list every permutation (default)"}),
        ("--canonical-half", {"action": _SWITCH, "help": "one permutation per reversal pair"}),
        ("--oracle", {"action": _SWITCH, "help": "cross-check by brute force"}),
    ], ("--all", "--canonical-half")),
    "bword": (_cmd_bword, "word of a block diagram", [("bdiagram", {})], ()),
    "validate-word": (
        _cmd_validate_word, "does a six-letter word have a diagram", [("word", {})], ()
    ),
    "generators": (_cmd_generators, "generators of a diagram", [
        ("bdiagram", {}),
        ("--count", {"action": _SWITCH, "help": "print the count (default)"}),
        ("--list", {"action": _SWITCH, "help": "list the generators"}),
        ("--method", {"choices": ("blocks", "table", "oracle"), "default": "blocks",
                      "help": "how to enumerate when listing"}),
    ], ("--count", "--list")),
    "cutset": (_cmd_cutset, "arcs removed by a generator", [("perm", {}), ("bdiagram", {})], ()),
    "complement": (
        _cmd_complement, "complement of a diagram", [("perm", {}), ("bdiagram", {})], ()
    ),
    "crossing": (_cmd_crossing, "largest crossing family", [("bdiagram", {})], ()),
    "inflate": (_cmd_inflate, "expand to single-step letters", [("word", {})], ()),
    "edit": (_cmd_edit, "add/remove an arc or swap labels", [
        ("op", {"choices": ("add", "remove", "transpose")}),
        ("bdiagram", {}),
        ("i", {"type": int}),
        ("j", {"type": int}),
    ], ()),
    "render": (_cmd_render, "draw a word's path", [
        ("input", {}),
        ("--kind", {"choices": ("perm", "word", "bword"), "default": "word"}),
        ("--format", {"choices": ("ascii", "svg"), "default": "ascii"}),
    ], ()),
    "census": (_cmd_census, "verify word counts for one n", [("n", {"type": int})], ()),
}


def build_parser():
    """The argparse parser of every subcommand, which alone writes help and
    usage errors."""
    import argparse  # here, so that a plain argv never loads it

    parser = argparse.ArgumentParser(
        prog="arcdiagrams",
        description="Arc diagrams of cyclic permutations and acyclic block diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, arguments, exclusive) in _COMMANDS.items():
        s = sub.add_parser(name, help=help)
        group = s.add_mutually_exclusive_group() if exclusive else s
        for arg, settings in (*_COMMON, *arguments):
            (group if arg in exclusive else s).add_argument(arg, **settings)
        s.set_defaults(func=func)
    return parser


def _plain_args(argv):
    """``build_parser().parse_args(argv)`` for a plainly well-formed argv,
    else None.

    Plain means: a subcommand's exact name, then only its exact option
    flags, each valued one followed by its value, and exactly its number of
    operands, with no two options that exclude each other. Every value and
    operand must not start with ``-`` and must convert by its type into its
    choices. Anything else (help, an abbreviation, ``--cap=5``, ``--``, a
    negative number, a usage error) is left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    name, tokens = argv[0], iter(argv[1:])
    func, _, arguments, exclusive = _COMMANDS[name]
    options = {  # flag -> (attribute name, settings)
        flag: (flag[2:].replace("-", "_"), settings)
        for flag, settings in (*_COMMON, *arguments)
        if flag.startswith("-")
    }
    operands = iter([a for a in arguments if not a[0].startswith("-")])
    values = {"command": name, "func": func}
    values.update((dest, settings.get("default", False)) for dest, settings in options.values())
    given = set()
    for token in tokens:
        if token in options:
            given.add(token)
            dest, settings = options[token]
            if settings.get("action") == _SWITCH:
                values[dest] = True
                continue
            token = next(tokens, "-")  # a missing value reads as a bad one
        else:
            operand = next(operands, None)
            if operand is None:  # one operand too many
                return None
            dest, settings = operand
        if token.startswith("-"):
            return None
        try:
            value = settings.get("type", str)(token)
        except ValueError:
            return None
        choices = settings.get("choices")
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if next(operands, None) is not None or len(given.intersection(exclusive)) > 1:
        return None
    return types.SimpleNamespace(**values)


def main(argv=None) -> int:
    # print a generator count whole, past the 4,300 digits str() allows by
    # default, then give the caller its own limit back (0 or absent: none)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _plain_args(argv) or build_parser().parse_args(argv)
        payload, lines = args.func(args)  # ``lines`` may be lazy: read only for text
        text = chain(_json(payload), "\n") if args.json else _joined(lines, "\n", "", "\n")
        sys.stdout.writelines(text)
        return 0
    except SystemExit as exc:  # argparse's usage errors and --help
        return 0 if exc.code in (0, None) else 1
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def run() -> None:
    """The console script: ``main`` on ``sys.argv``, then ``os._exit`` once
    stdout and stderr are flushed. That skips the interpreter's teardown, and
    ``atexit`` handlers with it; in-process callers use :func:`main`."""
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left (``... | head -1``)
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
