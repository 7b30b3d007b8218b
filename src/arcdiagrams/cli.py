"""Command-line front end, path rendering, and the census harness.

Exit codes: 0 success, 1 unparseable input or stdout closed early (a
broken pipe), 2 domain rule violated, 3 size guard tripped.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import accumulate, chain
from math import factorial
from typing import Iterable, NamedTuple

from . import bdiagram, generation, inversion, words
from .errors import DEFAULT_CAP, DiagramError, TooSmall, brief, check_cap, check_scan
from .perm import all_cyclic_perms, arc_text, letter_sets, parse_perm


# ---------------------------------------------------------------- rendering

def _layout(word: str, dialect: str) -> tuple[list[int], list[int], list[int], list[int]]:
    """Steps of the path of ``word``, heights from 0, each letter's first
    column, and the text band each step draws in: the band above its lower end.

    Heights and columns run one entry past the steps: the last height is the
    end height and the last column the width, so letter i spans columns
    ``starts[i]`` up to ``starts[i + 1]``.
    """
    groups = words.step_groups(word, dialect)
    steps = [dy for group in groups for dy in group]
    heights = list(accumulate(steps, initial=0))
    starts = list(accumulate(map(len, groups), initial=0))
    bands = [h - (dy == -1) for dy, h in zip(steps, heights)]
    return steps, heights, starts, bands


def render_ascii(word: str, dialect: str) -> str:
    """Draw the path of ``word`` with ``/``, ``\\`` and ``_`` characters.

    One text column per unit step; vertex indices are printed under the
    first column of each letter's step group.
    """
    steps, _, starts, bands = _layout(word, dialect)
    width = len(steps)
    top, bottom = max(bands), min(bands)
    rows = [[" "] * width for _ in range(top - bottom + 1)]
    for col, (dy, band) in enumerate(zip(steps, bands)):
        rows[top - band][col] = {1: "/", -1: "\\", 0: "_"}[dy]
    labels = [" "] * width
    for index, col in enumerate(starts[:-1], start=1):
        text = str(index)
        free = labels[col : col + len(text)]
        if len(free) == len(text) and set(free) == {" "}:
            labels[col : col + len(text)] = text
    return "\n".join("".join(row).rstrip() for row in rows + [labels])


def render_svg(word: str, dialect: str) -> str:
    """The same path as a minimal SVG polyline with vertex labels."""
    unit, pad, label_space = 20, 10, 16
    steps, heights, starts, _ = _layout(word, dialect)
    top, bottom = max(heights), min(heights)
    width = pad * 2 + unit * len(steps)
    height = pad * 2 + unit * (top - bottom) + label_space

    def x(col: int) -> int:
        return pad + unit * col

    def y(h: int) -> int:
        return pad + unit * (top - h)

    points = " ".join(f"{x(i)},{y(h)}" for i, h in enumerate(heights))
    labels = [
        f'<text x="{x(col) + unit * (end - col) // 2}" y="{height - 4}" font-size="10" '
        f'text-anchor="middle">{index}</text>'
        for index, (col, end) in enumerate(zip(starts, starts[1:]), start=1)
    ]
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<polyline fill="none" stroke="black" points="{points}"/>'
    )
    return "\n".join([head, *labels, "</svg>"])


# ------------------------------------------------------------------- census

class SplitException(NamedTuple):
    """A word whose permutations defy the split by smallest non-r second entry."""

    word: str
    expected_second: int
    count: int
    example: str


class CensusReport(NamedTuple):
    n: int
    perm_count: int
    word_count: int
    motzkin_expected: int
    dyck_count: int
    dyck_expected: int
    split_exceptions: tuple[SplitException, ...]

    @property
    def words_pass(self) -> bool:
        return self.word_count == self.motzkin_expected

    @property
    def dyck_pass(self) -> bool:
        return self.dyck_count == self.dyck_expected


def census_report(n: int, cap: int = DEFAULT_CAP) -> CensusReport:
    """Exhaustively check the word counts over all cyclic permutations of [n].

    Confirms that the number of distinct words matches the Motzkin
    number and the keratoid-free count the Catalan number, and
    lists the words whose permutation sets do not split into "second entry
    equals the smallest non-left-ramphoid vertex" plus reversals.  Raises
    :class:`CapExceeded` before enumerating when (n-1)! exceeds ``cap``.
    """
    if n < 3:
        raise TooSmall(f"census needs n >= 3, got {brief(n)}")
    check_scan(n, "census")
    check_cap(factorial(n - 1), cap, "permutations")
    # per word: [expected second entry, permutations off the split, the
    # first of them]; the enumeration is lexicographic, so the first is the least
    tallies: dict[str, list] = {}
    count = 0
    cycle_word = words.cycle_word  # one lookup, not one per permutation
    for p in all_cyclic_perms(n):
        count += 1
        word = cycle_word(p)
        tally = tallies.get(word)
        if tally is None:
            # the smallest vertex that is not a left ramphoid
            tally = tallies[word] = [len(word) - len(word.lstrip("r")) + 1, 0, None]
        seq = p.seq
        # the reverse of seq has second entry seq[-1]
        if seq[1] != tally[0] and seq[-1] != tally[0]:
            tally[1] += 1
            if tally[2] is None:
                tally[2] = seq
    exceptions = [
        SplitException(word, expected, off, " ".join(map(str, first)))
        for word, (expected, off, first) in sorted(tallies.items())
        if off
    ]
    dyck_expected = words.catalan_number((n - 2) // 2) if n % 2 == 0 else 0
    return CensusReport(
        n=n,
        perm_count=count,
        word_count=len(tallies),
        motzkin_expected=words.motzkin_number(n - 2),
        dyck_count=sum(1 for w in tallies if "k" not in w),
        dyck_expected=dyck_expected,
        split_exceptions=tuple(exceptions),
    )


def census_lines(report: CensusReport) -> list[str]:
    lines = [
        f"n={report.n} cyclic permutations={report.perm_count}",
        f"distinct words: {report.word_count} expected {report.motzkin_expected}"
        f" -> {'PASS' if report.words_pass else 'FAIL'}",
        f"dyck words: {report.dyck_count} expected {report.dyck_expected}"
        f" -> {'PASS' if report.dyck_pass else 'FAIL'}",
        f"second-entry split exceptions: {len(report.split_exceptions)} words",
    ]
    for exc in report.split_exceptions:
        lines.append(
            f"  {exc.word}: expected second entry {exc.expected_second}, "
            f"{exc.count} permutations in neither half (e.g. {exc.example})"
        )
    return lines


# ----------------------------------------------------------------- commands

def _emit(args, payload: dict, lines: Iterable[str]) -> int:
    # ``lines`` may be lazy: it is consumed only when printed as text; the
    # payload's only non-JSON values are CyclicPerms, written as their seq
    if args.json:
        import json  # here, so that a text command never loads it

        print(json.dumps(payload, default=lambda perm: perm.seq))
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)
    return 0


def _cmd_classify(args) -> int:
    word = words.cycle_word(parse_perm(args.perm))
    classes = dict(zip(("R", "Rbar", "K"), map(sorted, letter_sets(word, "rRk"))))
    lines = [name + ": " + " ".join(map(str, members)) for name, members in classes.items()]
    lines.append("word: " + word)
    return _emit(args, {**classes, "word": word}, lines)


def _cmd_invert(args) -> int:
    # run the oracle first so its size guard fires before the listing starts
    oracle = inversion.perms_from_word_oracle(args.word, args.cap) if args.oracle else None
    perms = inversion.perms_from_word(args.word, args.cap)
    shown = inversion.canonical_half(perms) if args.canonical_half else perms
    payload = {"word": args.word, "perms": shown}
    lines: Iterable[str] = map(str, shown)
    if oracle is not None:
        status = "MATCH" if oracle == perms else "MISMATCH"
        payload["oracle"] = status
        lines = chain(lines, [f"oracle: {status}"])
    return _emit(args, payload, lines)


def _cmd_bword(args) -> int:
    b = bdiagram.parse_bdiagram(args.bdiagram)
    word, arcs = bdiagram.block_word(b), b.arc_notation()
    payload = {"word": word, "arcs": arcs, "blocks": b.blocks}
    return _emit(args, payload, ["word: " + word, "arcs: " + arcs])


def _cmd_validate_word(args) -> int:
    result = bdiagram.validate_block_word(args.word)
    if result.ok:
        payload = {"valid": True, "witness": str(result.witness)}
        lines = ["Valid", f"witness: {result.witness}"]
    else:
        payload = {"valid": False, "reason": result.reason.value}
        lines = [f"Invalid: {result.reason.value}"]
    return _emit(args, payload, lines)


def _cmd_generators(args) -> int:
    b = bdiagram.parse_bdiagram(args.bdiagram)
    if not args.list:
        count = generation.count_generators(b)
        return _emit(args, {"count": count}, [str(count)])
    methods = {
        "blocks": generation.enumerate_generators,
        "table": generation.complete_table,
        "oracle": generation.generators_oracle,
    }
    perms = methods[args.method](b, args.cap)
    payload = {"count": len(perms), "method": args.method, "perms": perms}
    return _emit(args, payload, map(str, perms))


def _cmd_cutset(args) -> int:
    cut = bdiagram.cut_set(parse_perm(args.perm), bdiagram.parse_bdiagram(args.bdiagram))
    return _emit(args, {"arcs": sorted(cut), "size": len(cut)}, [arc_text(cut)])


def _cmd_complement(args) -> int:
    p = parse_perm(args.perm)
    result = bdiagram.complement(p, bdiagram.parse_bdiagram(args.bdiagram))
    return _emit(args, {"blocks": result.blocks}, [str(result)])


def _cmd_crossing(args) -> int:
    value = bdiagram.max_crossing(bdiagram.parse_bdiagram(args.bdiagram))
    return _emit(args, {"max_crossing": value}, [str(value)])


def _cmd_inflate(args) -> int:
    word = words.inflate(args.word)
    return _emit(args, {"word": word}, [word])


def _cmd_edit(args) -> int:
    b = bdiagram.parse_bdiagram(args.bdiagram)
    if args.op == "add":
        result = bdiagram.add_arc(b, (args.i, args.j))
    elif args.op == "remove":
        result = bdiagram.remove_arc(b, (args.i, args.j))
    else:
        result = bdiagram.transpose_labels(b, args.i, args.j)
    return _emit(args, {"blocks": result.blocks}, [str(result)])


def _cmd_render(args) -> int:
    if args.kind == "perm":
        word = words.cycle_word(parse_perm(args.input))
        dialect = "cycle"
    elif args.kind == "word":
        words.check_cycle_word(args.input)
        word = args.input
        dialect = "cycle"
    else:
        word = args.input
        dialect = "block"
    if args.format != "svg":  # render_ascii's grid: a column per step, a row per band
        steps, _, _, bands = _layout(word, dialect)
        check_cap((max(bands) - min(bands) + 2) * len(steps), args.cap, "cells to draw")
    art = render_svg(word, dialect) if args.format == "svg" else render_ascii(word, dialect)
    payload = {"kind": args.kind, "word": word, "art": art}
    return _emit(args, payload, [art])


def _cmd_census(args) -> int:
    report = census_report(args.n, args.cap)
    payload = {
        "n": report.n,
        "permutations": report.perm_count,
        "words": {
            "count": report.word_count,
            "expected": report.motzkin_expected,
            "pass": report.words_pass,
        },
        "dyck_words": {
            "count": report.dyck_count,
            "expected": report.dyck_expected,
            "pass": report.dyck_pass,
        },
        "split_exceptions": [e._asdict() for e in report.split_exceptions],
    }
    return _emit(args, payload, census_lines(report))


# ------------------------------------------------------------------ parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcdiagrams",
        description="Arc diagrams of cyclic permutations and acyclic block diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *operands):
        s = sub.add_parser(name, help=help)
        s.add_argument("--json", action="store_true", help="emit JSON")
        s.add_argument(
            "--cap", type=int, default=DEFAULT_CAP, help="refuse enumerations larger than this"
        )
        for operand in operands:
            s.add_argument(operand)
        s.set_defaults(func=func)
        return s

    command("classify", _cmd_classify, "vertex classes and word", "perm")

    s = command("invert", _cmd_invert, "permutations of a word", "word")
    group = s.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="list every permutation (default)")
    group.add_argument(
        "--canonical-half",
        action="store_true",
        help="one permutation per reversal pair",
    )
    s.add_argument("--oracle", action="store_true", help="cross-check by brute force")

    command("bword", _cmd_bword, "word of a block diagram", "bdiagram")
    command(
        "validate-word", _cmd_validate_word, "does a six-letter word have a diagram", "word"
    )

    s = command("generators", _cmd_generators, "generators of a diagram", "bdiagram")
    group = s.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", help="print the count (default)")
    group.add_argument("--list", action="store_true", help="list the generators")
    s.add_argument(
        "--method",
        choices=("blocks", "table", "oracle"),
        default="blocks",
        help="how to enumerate when listing",
    )

    command("cutset", _cmd_cutset, "arcs removed by a generator", "perm", "bdiagram")
    command("complement", _cmd_complement, "complement of a diagram", "perm", "bdiagram")
    command("crossing", _cmd_crossing, "largest crossing family", "bdiagram")
    command("inflate", _cmd_inflate, "expand to single-step letters", "word")

    s = command("edit", _cmd_edit, "add/remove an arc or swap labels")
    s.add_argument("op", choices=("add", "remove", "transpose"))
    s.add_argument("bdiagram")
    s.add_argument("i", type=int)
    s.add_argument("j", type=int)

    s = command("render", _cmd_render, "draw a word's path", "input")
    s.add_argument("--kind", choices=("perm", "word", "bword"), default="word")
    s.add_argument("--format", choices=("ascii", "svg"), default="ascii")

    s = command("census", _cmd_census, "verify word counts for one n")
    s.add_argument("n", type=int)

    return parser


def main(argv=None) -> int:
    # print a generator count whole, past the 4,300 digits str() allows by
    # default, then give the caller its own limit back (0 or absent: none)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
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
