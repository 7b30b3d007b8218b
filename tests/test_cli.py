import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcdiagrams
from arcdiagrams import (
    CyclicPerm,
    Listing,
    all_cyclic_perms,
    arc_set,
    block_word,
    canonical_generator,
    classify,
    cycle_word,
    enumerate_generators,
    parse_bdiagram,
    parse_perm,
    perms_from_word,
)
from arcdiagrams.census import census_report
from arcdiagrams.cli import _COMMANDS, _COMMON, _json, _plain_args, build_parser, main
from arcdiagrams.perm import as_row
from arcdiagrams.render import render_ascii, render_svg
from arcdiagrams.errors import DEFAULT_CAP, CapExceeded
from conftest import (
    census_grouping_oracle,
    elevated_motzkin_words,
    int_str_limit,
    random_bdiagram,
)
from heavy_cases import RAN, REPO, run_own_peak
from output_digests import FUZZ_COMMANDS, FUZZ_TOKENS, benchmark_argvs

MOTZKIN_ART = """\
    _
 /\\/ \\_
/      \\
12345678"""

BLOCK_ART = """\
  /\\
 /  \\/\\
/      \\
12 34 56"""

GOLDEN = Path(__file__).resolve().parent / "golden"
# three paths on 300 vertices, 1..100, 101..255 and 256..300: 16 generators
WIDE_ENDS = ((1, 101), (101, 256), (256, 301))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def draw_ascii(capsys, route, kind, word, *cap):
    """Exit code, stdout and stderr of drawing ``word`` as ASCII art through
    ``main`` or straight through ``render_ascii``, whose refusal is written
    here as ``main`` writes it, and the refusal itself (``None`` from ``main``)."""
    if route is main:
        options = [arg for c in cap for arg in ("--cap", str(c))]
        return (*run(capsys, "render", f"--kind={kind}", word, *options), None)
    try:
        art = render_ascii(word, "block" if kind == "bword" else "cycle", *cap)
    except CapExceeded as exc:
        return 3, "", f"error: {exc}\n", exc
    return 0, art + "\n", "", None


class TestClassify:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "classify", "1 3 2 7 8 4 5 6")
        assert code == 0
        assert out.splitlines() == [
            "R: 1 2 4",
            "Rbar: 3 6 8",
            "K: 5 7",
            "word: rrRrkRkR",
        ]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "classify", "--json", "1 3 2 7 8 4 5 6")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "R": [1, 2, 4],
            "Rbar": [3, 6, 8],
            "K": [5, 7],
            "word": "rrRrkRkR",
        }

    def test_tiny(self, capsys):
        code, out, _ = run(capsys, "classify", "1 2 3")
        assert code == 0 and "word: rkR" in out

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "classify", "1 2 2 3")
        assert code == 1 and "error:" in err

    def test_json_matches_library_classify(self, capsys):
        # the subcommand reads its classes off the word, not through classify
        for n in range(3, 8):
            for p in all_cyclic_perms(n):
                code, out, _ = run(capsys, "classify", "--json", str(p))
                cls = classify(arc_set(p))
                assert code == 0
                assert json.loads(out) == {
                    "R": sorted(cls.R),
                    "Rbar": sorted(cls.Rbar),
                    "K": sorted(cls.K),
                    "word": cycle_word(p),
                }


class TestInvert:
    def test_fig6(self, capsys):
        code, out, _ = run(capsys, "invert", "rkrRkR")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8 and lines[0] == "1 2 4 3 5 6"

    def test_fig7(self, capsys):
        code, out, _ = run(capsys, "invert", "rrRrRR")
        assert code == 0
        assert out.splitlines()[0] == "1 3 2 5 4 6" and len(out.splitlines()) == 4

    def test_canonical_half(self, capsys):
        code, out, _ = run(capsys, "invert", "--canonical-half", "rkrRkR")
        assert code == 0 and len(out.splitlines()) == 4

    def test_oracle_match(self, capsys):
        # rrkkkkkkRR's 8,192 rows span two of the writer's 4,096-line pieces
        for word in ("rkR", "rrkkkkkkRR"):
            code, out, _ = run(capsys, "invert", "--oracle", word)
            rows = [" ".join(map(str, perm.seq)) for perm in perms_from_word(word)]
            assert code == 0 and out == "".join(f"{row}\n" for row in [*rows, "oracle: MATCH"])

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "invert", "rR")
        assert code == 1 and "error:" in err

    def test_oracle_cap(self, capsys):
        word = "r" + "r" * 5 + "k" + "R" * 5 + "R"  # length 13
        code, _, err = run(capsys, "invert", "--oracle", word)
        assert code == 3

    def test_cap(self, capsys):
        code, out, err = run(capsys, "invert", "rrkkkkkkRR", "--cap", "100")
        assert code == 3 and out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("invert", "rrkkkkkkkkkkkkkkRR", "--cap", "200000"),
            ("invert", "--oracle", "rrkkkkkkRR", "--cap", "100"),
        ],
    )
    def test_cap_refuses_before_enumerating(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "cap" in err
        assert time.perf_counter() - start < 1.0

    def test_cap_message_shortens_a_long_word(self, capsys):
        code, out, err = run(capsys, "invert", "r" * 100 + "R" * 100, "--cap", "5")
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and len(err.rstrip("\n")) < 120
        assert "rrrrrrrrrrrrrrrrrrrr… (200 letters) exceed the cap 5" in err

    def test_huge_fibre_refused_in_bounded_time(self, capsys):
        # the refusal comes at the first lower bound past 5, 2000 * 1999 at
        # the first R, before multiplying through the rest of the word
        start = time.perf_counter()
        code, out, err = run(capsys, "invert", "r" * 2000 + "R" * 2000, "--cap", "5")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.startswith("error: at least 3998000 ")

    def test_long_small_fibre_is_fast(self, capsys):
        # n = 20 and 512 permutations: the old candidate-table search took
        # about a minute
        start = time.perf_counter()
        code, out, _ = run(capsys, "invert", "rrRrRrRrRrRrRrRrRrRR", "--json")
        assert time.perf_counter() - start < 2.0
        assert code == 0 and len(json.loads(out)["perms"]) == 512

    def test_cap_at_fibre_size(self, capsys):
        code, out, _ = run(capsys, "invert", "rrkkkkkkRR", "--cap", "8192")
        assert code == 0 and len(out.splitlines()) == 8192

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "invert", "--json", "rkR")
        payload = json.loads(out)
        rebuilt = [parse_perm(" ".join(map(str, seq))) for seq in payload["perms"]]
        assert [str(p) for p in rebuilt] == ["1 2 3", "1 3 2"]


class TestBWordAndValidate:
    def test_bword(self, capsys):
        code, out, _ = run(capsys, "bword", "1 3 | 2 | 4 8 | 5 6 | 7")
        assert code == 0
        assert out.splitlines() == ["word: aeAaaAeA", "arcs: {13,2,48,56,7}"]

    def test_validate_ok(self, capsys):
        code, out, _ = run(capsys, "validate-word", "rarARAA")
        assert code == 0
        assert out.splitlines() == ["Valid", "witness: 2 5 1 4 | 6 3 7"]

    def test_validate_invalid(self, capsys):
        code, out, _ = run(capsys, "validate-word", "RAkear")
        assert code == 0 and out.strip() == "Invalid: NegativePrefix"

    def test_validate_bad_letters(self, capsys):
        code, _, err = run(capsys, "validate-word", "xyz")
        assert code == 1


class TestGenerators:
    @pytest.mark.parametrize("method", ["blocks", "table"])
    def test_rows_past_255_vertices(self, capsys, method):
        # vertices past 255: each row, as text and as JSON, reads as its perm's entries
        diagram = " | ".join(" ".join(map(str, range(*ends))) for ends in WIDE_ENDS)
        rows = [p.seq for p in enumerate_generators(parse_bdiagram(diagram))]
        code, out, _ = run(capsys, "generators", diagram, "--list", "--method", method)
        assert code == 0 and out == "".join(" ".join(map(str, row)) + "\n" for row in rows)
        code, out, _ = run(capsys, "generators", diagram, "--list", "--method", method, "--json")
        payload = {"count": 16, "method": method, "perms": [list(row) for row in rows]}
        assert code == 0 and out == json.dumps(payload) + "\n"

    def test_count(self, capsys):
        code, out, _ = run(capsys, "generators", "1 4 | 2 | 3 6 | 5 8 | 7")
        assert code == 0 and out.strip() == "192"

    def test_list(self, capsys):
        code, out, _ = run(capsys, "generators", "--list", "1 2 3 | 4 7 8 | 5 6")
        assert code == 0 and len(out.splitlines()) == 16

    def test_methods_agree(self, capsys):
        outs = []
        for method in ("blocks", "table", "oracle"):
            code, out, _ = run(
                capsys, "generators", "--list", "--method", method, "2 3 1 4 | 5 8 7 6"
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_cap(self, capsys):
        code, _, err = run(
            capsys, "generators", "--list", "--cap", "3", "1 2 3 | 4 7 8 | 5 6"
        )
        assert code == 3

    def test_oracle_cap(self, capsys):
        seven = "1 | 2 | 3 | 4 | 5 | 6 | 7"
        code, out, err = run(
            capsys, "generators", seven, "--list", "--method", "oracle", "--cap", "5"
        )
        assert code == 3 and out == "" and err.startswith("error:")
        code, out, _ = run(
            capsys, "generators", seven, "--list", "--method", "oracle", "--cap", "720"
        )
        assert code == 0 and len(out.splitlines()) == 720

    def test_count_past_str_digit_limit(self, capsys):
        # 1999! has 5,733 digits, past the 4,300 that str() allows by default
        singletons = " | ".join(map(str, range(1, 2001)))
        with int_str_limit(4300):
            code, out, _ = run(capsys, "generators", singletons)
            _, out_json, _ = run(capsys, "generators", singletons, "--json")
        assert code == 0 and len(out) == 5734 and out.startswith("1")
        with int_str_limit(0):  # the test itself reads all 5,733 digits back
            assert out == f"{math.factorial(1999)}\n"
            assert json.loads(out_json)["count"] == math.factorial(1999)
        code, out, err = run(capsys, "generators", singletons, "--list")
        assert code == 3 and out == "" and "cap" in err

    def test_console_script_prints_a_count_past_str_digit_limit(self):
        # run() in a fresh interpreter under the default limit, which main lifts
        singletons = " | ".join(map(str, range(1, 2001)))
        code, out, err, _, _ = run_own_peak(
            ["-c", "import sys; assert sys.get_int_max_str_digits() == 4300\n"
             "from arcdiagrams.cli import run; run()", "generators", singletons]
        )
        assert (code, err) == (0, "")
        with int_str_limit(0):
            assert out == f"{math.factorial(1999)}\n"

    @pytest.mark.parametrize(
        "argv",
        [["inflate", "aA"], ["inflate", "aQ"], ["census", "11"], ["frobnicate"], ["--help"]],
        ids=["ok", "parse-error", "too-large", "usage-error", "help"],
    )
    def test_main_gives_back_the_callers_digit_limit(self, capsys, argv):
        with int_str_limit(4300):
            main(argv)
            assert sys.get_int_max_str_digits() == 4300
            with pytest.raises(ValueError):
                str(math.factorial(1999))
        with int_str_limit(0):
            main(argv)
            assert sys.get_int_max_str_digits() == 0

    def test_huge_count_over_cap_is_short(self, capsys):
        singletons = " | ".join(map(str, range(1, 2001)))
        code, out, err = run(capsys, "generators", singletons, "--list", "--cap", "1000")
        assert code == 3 and out == "" and len(err) < 200
        assert "5733-digit" in err

    def test_tiny_count(self, capsys):
        code, out, _ = run(capsys, "generators", "1 2 | 3")
        assert code == 0 and out.strip() == "2"

    @pytest.mark.parametrize(
        "flags",
        [(), *(("--list", "--method", m) for m in ("blocks", "table", "oracle"))],
    )
    def test_two_vertices(self, capsys, flags):
        code, out, err = run(capsys, "generators", *flags, "1 | 2")
        assert code == 1 and out == "" and err.startswith("error:")
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        # the inversion search recurses once per letter, table completion
        # once per block; a cap this large lets either run past the stack
        ("invert", "r" + "rR" * 600 + "R", "--cap", str(10**200)),
        ("generators", "|".join(map(str, range(1, 1201))), "--list", "--method", "table",
         "--cap", str(10**4000)),
    ],
)
def test_search_deeper_than_the_stack_is_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200


class TestDiagramCommands:
    def test_cutset(self, capsys):
        code, out, _ = run(capsys, "cutset", "1 3 2 7 8 4 5 6", "3 1 6 | 2 7 8 | 4 5")
        assert code == 0 and out.strip() == "{23,48,56}"

    def test_cutset_not_generator(self, capsys):
        code, _, err = run(capsys, "cutset", "1 2 3 4", "2 4 | 1 | 3")
        assert code == 2 and "error:" in err

    def test_complement(self, capsys):
        code, out, _ = run(
            capsys, "complement", "1 2 3 8 7 5 4 6", "1 6 4 | 2 3 8 | 5 7"
        )
        assert code == 0 and out.strip() == "1 2 | 3 | 4 5 | 6 | 7 8"

    def test_complement_degenerate(self, capsys):
        for blocks, message in [
            ("1 2 | 3", "the arcs form a single path of all vertices"),
            ("1 | 2 | 3", "arcs contain a cycle"),
        ]:
            code, out, err = run(capsys, "complement", "1 2 3", blocks)
            assert (code, out, err) == (2, "", f"error: {message}\n"), blocks

    def test_crossing(self, capsys):
        code, out, _ = run(capsys, "crossing", "1 2 | 3 6 | 4 7 | 5 8")
        assert code == 0 and out.strip() == "3"

    def test_crossing_long(self, capsys):
        # four 500-vertex blocks of a strided labelling; the answer was
        # confirmed by the quadratic chain DP (about two minutes)
        labels = [t * 761 % 2000 + 1 for t in range(2000)]
        text = " | ".join(
            " ".join(map(str, labels[k : k + 500])) for k in range(0, 2000, 500)
        )
        start = time.perf_counter()
        code, out, _ = run(capsys, "crossing", text)
        assert time.perf_counter() - start < 5.0
        assert code == 0 and out.strip() == "760"

    def test_inflate(self, capsys):
        code, out, _ = run(capsys, "inflate", "arAkAA")
        assert code == 0 and out.strip() == "aaaAAaAA"

    def test_edit_add(self, capsys):
        code, out, _ = run(capsys, "edit", "add", "1 2 | 3 | 4", "3", "4")
        assert code == 0 and out.strip() == "1 2 | 3 4"

    def test_edit_remove(self, capsys):
        code, out, _ = run(capsys, "edit", "remove", "2 1 3 4 | 5", "1", "3")
        assert code == 0 and out.strip() == "1 2 | 3 4 | 5"

    def test_edit_transpose(self, capsys):
        code, out, _ = run(capsys, "edit", "transpose", "1 2 | 3", "2", "3")
        assert code == 0 and out.strip() == "1 3 | 2"

    def test_edit_domain_error(self, capsys):
        code, _, err = run(capsys, "edit", "add", "1 2 | 3", "1", "2")
        assert code == 2


class TestRender:
    def test_ascii_golden(self, capsys):
        code, out, _ = run(capsys, "render", "--kind=word", "rrRrkRkR")
        assert code == 0 and out.rstrip("\n") == MOTZKIN_ART

    def test_ascii_direct(self):
        assert render_ascii("rrRrkRkR", "cycle") == MOTZKIN_ART

    def test_perm_kind_matches_word_kind(self, capsys):
        _, from_perm, _ = run(capsys, "render", "--kind=perm", "1 3 2 7 8 4 5 6")
        _, from_word, _ = run(capsys, "render", "--kind=word", "rrRrkRkR")
        assert from_perm == from_word

    def test_bword(self, capsys):
        code, out, _ = run(capsys, "render", "--kind=bword", "arAkAA")
        assert code == 0
        assert out.splitlines()[-1] == "12 34 56"
        assert out.rstrip("\n") == BLOCK_ART

    def test_invalid_word(self, capsys):
        code, _, err = run(capsys, "render", "--kind=word", "rR")
        assert code == 1

    def test_svg(self):
        svg = render_svg("arAkAA", "block")
        assert svg.startswith("<svg") and "<polyline" in svg
        assert svg.count("<text") == 6

    def test_svg_golden(self, capsys):
        code, out, _ = run(capsys, "render", "--kind=bword", "--format=svg", "arAkAA")
        assert code == 0 and out == (GOLDEN / "arAkAA.svg").read_text()

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "render", "--kind=bword", "--format=svg", "arAkAA")
        _, second, _ = run(capsys, "render", "--kind=bword", "--format=svg", "arAkAA")
        assert first == second

    @pytest.mark.parametrize("route", [main, render_ascii], ids=["main", "render_ascii"])
    def test_cap_counts_cells(self, capsys, route):
        # three bands and a label row, eight columns: 32 cells
        code, out, err, _ = draw_ascii(capsys, route, "word", "rrRrkRkR", 31)
        assert code == 3 and out == ""
        assert err == "error: 32 cells to draw exceed the cap 31\n"
        code, out, _, _ = draw_ascii(capsys, route, "word", "rrRrkRkR", 32)
        assert code == 0 and out.rstrip("\n") == MOTZKIN_ART

    @pytest.mark.parametrize("route", [main, render_ascii], ids=["main", "render_ascii"])
    def test_cap_refuses_before_drawing(self, capsys, route):
        # 8,001 rows of 16,000 columns under the default cap: refused without
        # building the grid
        start = time.perf_counter()
        code, out, err, refusal = draw_ascii(capsys, route, "bword", "r" * 4000 + "R" * 4000)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err == "error: 128016000 cells to draw exceed the cap 1000000\n"
        if route is render_ascii:
            assert (refusal.requested, refusal.limit) == (128_016_000, DEFAULT_CAP)

    def test_svg_is_not_capped(self, capsys):
        # its size grows with the word, not with the word's height times its width
        code, out, _ = run(capsys, "render", "--kind=bword", "--format=svg", "arAkAA", "--cap", "1")
        assert code == 0 and out == (GOLDEN / "arAkAA.svg").read_text()


class TestCensus:
    def test_n6(self, capsys):
        code, out, _ = run(capsys, "census", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n=6 cyclic permutations=120"
        assert lines[1] == "distinct words: 9 expected 9 -> PASS"
        assert lines[2] == "dyck words: 2 expected 2 -> PASS"
        assert any(line.strip().startswith("rrkkRR:") for line in lines)

    def test_n4_json(self, capsys):
        code, out, _ = run(capsys, "census", "--json", "4")
        payload = json.loads(out)
        assert payload["words"] == {"count": 2, "expected": 2, "pass": True}
        assert payload["dyck_words"]["count"] == 1

    def test_cap(self, capsys):
        code, _, err = run(capsys, "census", "12")
        assert code == 3

    def test_too_small(self, capsys):
        code, _, err = run(capsys, "census", "2")
        assert code == 1

    def test_cap_flag(self, capsys):
        code, out, err = run(capsys, "census", "9", "--cap", "5")
        assert code == 3 and out == "" and err.startswith("error:")

    def test_cap_at_permutation_count(self, capsys):
        # 5! = 120 cyclic permutations of [6]
        code, out, _ = run(capsys, "census", "6", "--cap", "120")
        assert code == 0 and out.startswith("n=6 cyclic permutations=120")
        code, out, _ = run(capsys, "census", "6", "--cap", "119")
        assert code == 3 and out == ""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_single_pass_matches_grouping_oracle(self, n):
        assert census_report(n) == census_grouping_oracle(n)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_json_matches_grouping_oracle(self, capsys, n):
        oracle = census_grouping_oracle(n)
        code, out, _ = run(capsys, "census", str(n), "--json")
        assert code == 0
        assert json.loads(out) == {
            "n": n,
            "permutations": oracle.perm_count,
            "words": {"count": oracle.word_count, "expected": oracle.motzkin_expected,
                      "pass": True},
            "dyck_words": {"count": oracle.dyck_count, "expected": oracle.dyck_expected,
                           "pass": True},
            "split_exceptions": [
                {"word": e.word, "expected_second": e.expected_second, "count": e.count,
                 "example": e.example}
                for e in oracle.split_exceptions
            ],
        }


# what the payloads hold: str-keyed dicts, lists and tuples (empty ones too),
# bools, ints (past 4,300 digits too), listings of CyclicPerms of one n, and
# text from every code point, with the chars json escapes drawn often
_CHARS = st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=())
_ESCAPED = '"\\\b\f\n\r\t\x00\x1f\x7f\x80\ud800\udc80\uffff\U0001f600'
_TEXT = st.text(_CHARS | st.sampled_from(_ESCAPED))
_LISTINGS = st.integers(3, 8).flatmap(
    lambda n: st.lists(st.permutations(range(2, n + 1)), max_size=9).map(
        lambda rows: Listing([as_row((1, *row)) for row in rows], n)
    )
)
_PAYLOADS = st.recursive(
    st.booleans() | st.integers() | st.integers(4300, 4400).map(lambda k: -(10**k) + 1)
    | _TEXT | _LISTINGS,
    lambda values: st.lists(values) | st.lists(values).map(tuple)
    | st.dictionaries(_TEXT, values),
    max_leaves=12,
)


class TestJsonWriter:
    @given(_PAYLOADS)
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps(self, payload):
        with int_str_limit(0):  # as main lifts it
            expected = json.dumps(payload, default=lambda listing: [p.seq for p in listing])
            assert "".join(_json(payload)) == expected

    def test_a_listing_spans_pieces(self):
        perms = Listing([as_row(p.seq) for p in all_cyclic_perms(8)], 8)  # 5,040 rows: two pieces
        pieces = list(_json(perms))
        assert len(pieces) == 3 and "".join(pieces) == json.dumps([p.seq for p in perms])

    @pytest.mark.parametrize("value", [1.5, object(), None, {1: 2}, CyclicPerm((1, 2, 3))])
    def test_refuses_what_no_payload_holds(self, value):
        with pytest.raises(TypeError):
            "".join(_json({"key": [0, value]}))


SUBMODULES = ("bdiagram", "errors", "generation", "inversion", "perm", "words")

def python(code, *argv, path=(REPO / "src",)):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path)))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.split()


class TestStartup:
    def test_import_loads_no_code_generators(self):
        # every CLI command starts an interpreter, so what the import loads
        # is paid per command: dataclasses alone pulls in inspect, ast, dis
        loaded = set(python("import sys, arcdiagrams.cli; print(*sorted(sys.modules))"))
        assert not {"dataclasses", "inspect"} & loaded
        # perfbench's tracer wraps functions in each of these after the import
        for module in ("perm", "words", "inversion", "bdiagram", "generation", "cli"):
            assert f"arcdiagrams.{module}" in loaded

    @pytest.mark.parametrize(
        "argv, ran",
        [
            ((), ()),  # the import alone
            (("census", "5"), ("words", "census")),
            (("invert", "rkR"), ("inversion", "words")),
            (("crossing", "1 3 | 2"), ("bdiagram",)),
            (("generators", "1 2 | 3"), ("bdiagram", "generation")),
            (("validate-word", "rarARAA"), ("bdiagram", "words")),
            # --json is written by cli itself, with no json package
            (("crossing", "1 3 | 2", "--json"), ("bdiagram",)),
            (("render", "rkR"), ("words", "render")),
            (("--help",), ("argparse", "gettext", "locale")),
            (("classify",), ("argparse", "gettext", "locale")),  # a usage error
            (("invert", "rkR", "--json"), ("inversion", "words")),
            (("generators", "1 2 | 3", "--list", "--json"), ("bdiagram", "generation")),
            (("census", "5", "--json"), ("words", "census")),
            (("render", "rkR", "--json"), ("words", "render")),
        ],
    )
    def test_each_command_runs_only_its_modules(self, argv, ran):
        # every command uses errors and perm; the rest on demand; argparse
        # loads only for help, usage errors and unusual forms
        assert set(python(RAN, *argv)) == {"__init__", "cli", "errors", "perm", *ran}

    def test_argparse_parser_is_built_once(self):
        # a plain argv builds no parser, and the argvs argparse reads share one
        code = """
import argparse, io, sys
from contextlib import redirect_stderr, redirect_stdout
import arcdiagrams.cli
built, init = [], argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))  # a subcommand's parser is "arcdiagrams <name>"
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
for argv in sys.argv[1:]:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        arcdiagrams.cli.main(argv.split(","))
    print(built.count("arcdiagrams"))
"""
        argvs = ["crossing,1 3 | 2", "edit,add,1 2 | 3,-1,2", "census,5,--cap=5"]
        assert python(code, *argvs) == ["0", "1", "1"]

    def test_tracer_restores_functions_of_modules_loaded_under_it(self):
        # the tracer loads bdiagram, generation and inversion as it scans
        # sys.modules; each must bind the functions it imports before the
        # tracer wraps them, or a wrapper outlives the trace. census and
        # render are first imported under it, by the commands that use them
        code = """
import io, sys
from contextlib import redirect_stdout
import arcdiagrams.cli, spans
assert not {"arcdiagrams.census", "arcdiagrams.render"} & set(sys.modules)
rec = spans.Recorder()
with spans.Tracer(rec), redirect_stdout(io.StringIO()):
    arcdiagrams.cli.main(["invert", "rkR"])
    arcdiagrams.cli.main(["crossing", "1 3 | 2"])
    arcdiagrams.cli.main(["census", "5"])
    arcdiagrams.cli.main(["render", "rkR"])
print(*sorted(set(rec.names)))
print(*sorted({rec.names[i] + "<" + rec.names[p] for i, p in enumerate(rec.parents) if p >= 0}))
for name, module in list(sys.modules.items()):
    for attr, value in vars(module).items():
        if name.startswith("arcdiagrams") and getattr(
            getattr(value, "__code__", None), "co_filename", ""
        ).endswith("spans.py"):
            print("left:", name, attr)
"""
        out = python(code, path=(REPO / "src", REPO / "perfbench"))
        assert "left:" not in out
        assert {"inversion.perms_from_word", "bdiagram.max_crossing"} <= set(out)
        # the census nests as perfbench's per-layer metrics read it
        assert {
            "cli.census_report<cli.main",
            "perm.all_cyclic_perms<cli.census_report",
            "words.cycle_word<cli.census_report",
            "perm.arc_set<words.cycle_word",
        } <= set(out)


class TestPackage:
    def test_every_name_is_its_submodules_object(self):
        for name in arcdiagrams.__all__:
            module = getattr(arcdiagrams, arcdiagrams._MODULE_OF[name])
            assert getattr(arcdiagrams, name) is getattr(module, name)

    def test_dir_lists_every_name(self):
        listed = dir(arcdiagrams)
        assert set(arcdiagrams.__all__) | set(SUBMODULES) <= set(listed)
        assert listed == sorted(listed)

    def test_star_import(self):
        namespace = {}
        exec("from arcdiagrams import *", namespace)
        assert set(arcdiagrams.__all__) <= set(namespace)
        assert namespace["perms_from_word"] is arcdiagrams.inversion.perms_from_word

    def test_python_m_runs_the_cli(self):
        # python -m on the package and on its cli module, each as run() does
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))

        def child(*how):
            argv = [sys.executable, *how, "census", "5"]
            return subprocess.run(argv, env=env, capture_output=True, text=True)

        expected = child("-c", "from arcdiagrams.cli import run; run()")
        assert expected.returncode == 0 and "PASS" in expected.stdout
        for module in ("arcdiagrams", "arcdiagrams.cli"):
            done = child("-m", module)
            assert (done.returncode, done.stdout, done.stderr) == (0, expected.stdout, "")

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
            arcdiagrams.frobnicate
        assert not hasattr(arcdiagrams, "frobnicate")
        with pytest.raises(ImportError):
            exec("from arcdiagrams import frobnicate", {})


class TestBrokenPipe:
    # 131,072 rows, far more than a pipe buffers, so the CLI is still writing
    # when the reader closes its end (``... | head -1``)
    @staticmethod
    def leave_early(size, *flags):
        """The first ``size`` bytes of ``invert rrkkkkkkkkRR``, read before the
        reader leaves, and the CLI's stderr; its exit code must be 0-3."""
        code = "from arcdiagrams.cli import run; run()"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "invert", "rrkkkkkkkkRR", *flags],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = proc.stdout.read(size)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (0, 1, 2, 3)
        return first, err

    def test_reader_leaving_early_gives_no_traceback(self):
        line = b"1 3 4 5 6 7 8 9 10 11 2 12\n"
        first, err = self.leave_early(len(line))
        assert first == line
        assert b"Traceback" not in err

    def test_json_reader_leaving_early_gives_no_traceback(self):
        # JSON is written as it is made, so it meets the closed pipe mid-listing
        first, err = self.leave_early(100, "--json")
        assert first == (b'{"word": "rrkkkkkkkkRR", "perms": '
                         b'[[1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 2, 12], [1, 3, 4, 5, 6, 7, 8, 9,')
        assert b"Traceback" not in err


@pytest.mark.parametrize(
    "how",
    [("-c", "from arcdiagrams.cli import run; run()"), ("-m", "arcdiagrams"),
     ("-m", "arcdiagrams.cli")],
    ids=["run", "package", "cli-module"],
)
class TestFastExit:
    # run() ends by os._exit, which flushes no buffer: everything a command
    # writes must reach a reader on the other end of a pipe before that

    @staticmethod
    def child(how, *argv):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), COLUMNS="80")
        argv = [sys.executable, *how, *argv]
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)

    def test_long_listing(self, how):
        done = self.child(how, "invert", "rrkkkkkkkkRR")
        lines = done.stdout.splitlines()
        assert (done.returncode, done.stderr, len(lines)) == (0, "", 131_072)
        assert done.stdout.endswith("\n1 12 10 9 8 7 6 5 4 3 2 11\n")

    def test_long_json(self, how):
        done = self.child(how, "invert", "rrkkkkkkkkRR", "--json")
        assert (done.returncode, done.stderr) == (0, "")
        perms = json.loads(done.stdout)["perms"]
        assert len(perms) == 131_072 and perms[-1] == [1, 12, 10, 9, 8, 7, 6, 5, 4, 3, 2, 11]

    @pytest.mark.parametrize(
        "code, argv, err",
        [
            (2, ("edit", "add", "1 2 | 3", "2", "3"), "the merged block would hold every vertex"),
            (3, ("census", "11"), "census refuses n=11 > 10"),
        ],
        ids=["domain", "size-guard"],
    )
    def test_error_line(self, how, code, argv, err):
        done = self.child(how, *argv)
        assert (done.returncode, done.stdout, done.stderr) == (code, "", f"error: {err}\n")

    def test_usage_error(self, how):
        done = self.child(how, "classify")
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            "usage: arcdiagrams classify [-h] [--json] [--cap CAP] perm\n"
            "arcdiagrams classify: error: the following arguments are required: perm\n"
        )

    def test_help(self, how, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        done = self.child(how, "--help")
        assert (done.returncode, done.stdout, done.stderr) == (0, build_parser().format_help(), "")


BIG = "9" * 130_000
ENTRIES = " ".join(map(str, range(1, 20_001)))
UNGENERATED = "1 3 | 2 4 " + ENTRIES[8:]  # arcs 1-3 and 2-4, which 1 2 3 ... lacks
CJK = "".join(map(chr, range(0x4E00, 0x4E00 + 20_000)))


class TestHugeInputMessages:
    @pytest.mark.parametrize(
        "code, argv",
        [
            (1, ["classify", f"1 2 {BIG}"]),
            (1, ["classify", "1 " * 20_000]),
            (1, ["classify", ENTRIES + " x"]),
            (1, ["crossing", f"1 2 | {BIG}"]),
            (1, ["crossing", "1 | " * 10_000 + "2"]),
            (1, ["crossing", ENTRIES + " | |"]),
            (1, ["crossing", ENTRIES + " | x"]),
            (3, ["census", BIG]),
            (1, ["census", "-" + BIG]),
            (3, ["invert", "rkR", "--cap", "-" + BIG]),
            (3, ["generators", "--list", "1 | 2 | 3 | 4", "--cap", "-" + BIG]),
            (2, ["edit", "add", "1 | 2", "1", BIG]),
            (2, ["edit", "remove", "1 | 2", "1", BIG]),
            (2, ["cutset", ENTRIES, UNGENERATED]),
            (1, ["inflate", CJK]),
            (1, ["validate-word", CJK]),
        ],
        ids=[
            "classify-digits", "classify-entries", "classify-non-integer", "crossing-digits",
            "crossing-entries", "crossing-empty-block", "crossing-non-integer", "census-big",
            "census-negative", "invert-cap", "generators-cap", "edit-add", "edit-remove",
            "cutset", "inflate", "validate-word",
        ],
    )
    def test_one_short_stderr_line(self, capsys, code, argv):
        # the parent's exit code, and the input echoed in a line of tens of characters
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_argument(self, capsys):
        assert main(["classify"]) == 1

    def test_common_flags(self, capsys):
        # every subcommand takes --json and --cap, listed ahead of its own flags; whole help
        # texts are not compared, as argparse's layout differs between Python versions
        subcommands = {
            "classify": (("1 3 2",), ()),
            "invert": (("rkR",), ("--canonical-half", "--oracle")),
            "bword": (("1 | 2",), ()),
            "validate-word": (("rkR",), ()),
            "generators": (("1 | 2",), ("--list", "--method")),
            "cutset": (("1 3 2", "1 2 3"), ()),
            "complement": (("1 3 2", "1 2 3"), ()),
            "crossing": (("1 2",), ()),
            "inflate": (("rkR",), ()),
            "edit": (("add", "1 | 2", "1", "2"), ()),
            "render": (("rkR",), ("--kind", "--format")),
            "census": (("3",), ()),
        }
        assert main(["--help"]) == 0
        listed = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1)
        assert sorted(listed.split(",")) == sorted(subcommands)
        parser = build_parser()
        for name, (operands, own) in subcommands.items():
            args = parser.parse_args([name, *operands])
            assert (args.json, args.cap) == (False, DEFAULT_CAP), name
            assert parser.parse_args([name, *operands, "--cap", "5"]).cap == 5, name
            assert main([name, "--help"]) == 0
            help_text = capsys.readouterr().out
            flags = re.findall(r"^  (?:-h, )?(--[\w-]+)", help_text, re.MULTILINE)
            assert flags == ["--help", "--json", "--cap", *own], name

    @pytest.mark.parametrize(
        "argv", [["invert", "rkR", "--all"], ["generators", "1 2 | 3", "--count"]]
    )
    def test_retired_flags_are_unknown(self, capsys, argv):
        # both restated a default, and now fail as any unknown option does
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: ") and err.count("error:") == 1
        assert err.endswith(f": error: unrecognized arguments: {argv[-1]}\n")

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["arcdiagrams", "inflate", "arAkAA"])
        assert main() == 0 and capsys.readouterr().out == "aaaAAaAA\n"


# tokens for argvs near the plain form: per kind of operand or option value,
# four good ones first (none for a bad choice), then ones that argparse
# reads otherwise or refuses
PLAIN_VALUES = {
    str: ("rkR", "1 3 2", "1 2 | 3", "arAkAA", "x y", "a=b", "", "-x", "--", "-1", "- 1"),
    int: ("5", "3", "0", "12", "1_0", " 7 ", "x", "", "-1", "-5", "-1_0", "--5", "5.0"),
    "choice": ("-", "--", "bogus", "", "tab", "-blocks"),
}
PLAIN_JUNK = (
    "-h", "--help", "--", "-", "--js", "--ca", "--canon", "--meth", "--cap=5", "--json=1",
    "--method=table", "--kind=perm", "--bogus", "-1", "-1_0", "", "1_0", "x",
)


def near_plain_argv(rng):
    """A subcommand (rarely a wrong name), one operand too few, too many or
    exactly enough, and between them some of its options with a value each
    and now and then a junk token."""
    name = rng.choice([*_COMMANDS, "frobnicate", "-h", "cens", "--json"])
    arguments = {**dict(_COMMON), **dict(_COMMANDS[name][2] if name in _COMMANDS else ())}
    operands = [a for a in arguments if not a.startswith("-")]
    flags = [a for a in arguments if a.startswith("-")]
    count = len(operands) + rng.choice((0, 0, 0, 0, -1, 1))
    groups = [
        [value_token(rng, arguments[operands[i]] if i < len(operands) else {})]
        for i in range(max(count, 0))
    ]
    extra = []
    for _ in range(rng.choice((0, 1, 1, 2, 3, 4))):  # repeats and conflicts too
        flag = rng.choice(flags)
        group = [flag]
        if arguments[flag].get("action") != "store_true" and rng.random() < 0.95:
            group.append(value_token(rng, arguments[flag]))
        extra.append(group)
    if rng.random() < 0.2:
        extra.append([rng.choice(PLAIN_JUNK)])
    for group in extra:  # anywhere between the operands, which keep their order
        groups.insert(rng.randint(0, len(groups)), group)
    return [name] + [token for group in groups for token in group]


def value_token(rng, settings):
    choices = settings.get("choices")
    if choices and rng.random() < 0.8:
        return rng.choice(choices)
    pool = PLAIN_VALUES[int if settings.get("type") is int else "choice" if choices else str]
    return rng.choice(pool[:4] if rng.random() < 0.6 else pool)


class TestPlainArgs:
    # _plain_args skips argparse for well-formed argv; wherever it accepts
    # one, it must give exactly what argparse gives

    @staticmethod
    def argparse_values(parser, argv):
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                return vars(parser.parse_args(argv))
            except SystemExit:
                return "argparse refused " + repr(argv)

    def test_benchmark_argvs_are_plain(self):
        parser = build_parser()
        argvs = [list(argv) for argv in benchmark_argvs()]
        for argv in argvs + [[a for a in argv if a != "--json"] for argv in argvs]:
            plain = _plain_args(argv)
            assert plain is not None, argv
            assert vars(plain) == self.argparse_values(parser, argv), argv

    def test_agrees_with_argparse_wherever_it_accepts(self):
        rng = random.Random(32)
        parser = build_parser()
        accepted = 0
        for _ in range(20_000):
            argv = near_plain_argv(rng)
            plain = _plain_args(argv)
            if plain is not None:
                accepted += 1
                assert vars(plain) == self.argparse_values(parser, argv), argv
        # both outcomes are common, so neither side of each check goes untried
        assert 2_000 < accepted < 18_000

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["-h"], ["--help"], ["census", "--help"], ["census", "-h"], ["frobnicate"],
            ["invert", "rkR", "--js"], ["census", "5", "--cap=5"], ["census", "--", "5"],
            ["census", "-5"], ["census", "x"], ["census", "5.0"], ["census"],
            ["census", "5", "extra"], ["census", "5", "--cap"], ["census", "5", "--cap", "-1"],
            ["census", "5", "--cap", "-1_0"], ["render", "rkR", "--kind", "bogus"],
            ["invert", "rkR", "--all", "--canonical-half"],
            ["generators", "1 | 2", "--count", "--list"],
            ["edit", "add", "1 2 | 3", "-1", "2"], ["edit", "grow", "1 2 | 3", "1", "2"],
        ],
    )
    def test_leaves_the_rest_to_argparse(self, argv):
        assert _plain_args(argv) is None


COMMON_FLAGS = ("--json", "--help")
ALL_FLAGS = sorted(
    {f for _, own in FUZZ_COMMANDS.values() for f in own}
    | set(COMMON_FLAGS)
    | {"--bogus", "--method x", "--kind"}
)
ANY_TOKEN = st.sampled_from(sorted({t for pool in FUZZ_TOKENS.values() for t in pool}))


@st.composite
def fuzz_argv(draw):
    """A subcommand, then positionals and flags drawn mostly from the ones it
    takes and otherwise from every pooled token; the positional count is
    sometimes one off."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    kinds, own_flags = FUZZ_COMMANDS[command]
    n = len(kinds)
    kinds = (list(kinds) + ["junk"])[: draw(st.sampled_from((n, n, n, n - 1, n + 1)))]
    values = [
        draw(st.one_of(st.sampled_from(FUZZ_TOKENS[kind]), ANY_TOKEN)) for kind in kinds
    ]
    flags = draw(
        st.lists(
            st.one_of(
                st.sampled_from(own_flags + COMMON_FLAGS), st.sampled_from(ALL_FLAGS)
            ),
            max_size=2,
        )
    )
    flag_tokens = [t for flag in flags for t in flag.split()]
    return [command, *values, *flag_tokens, "--cap", "1000"]


CYCLE_WORDS = st.one_of(
    # r(rR)^m R has the smallest fibre of its length, 2**m: under the cap
    # up to m = 9 (n = 20); the other draws reach n = 60
    st.integers(1, 10).map(lambda m: "r" + "rR" * m + "R"),
    elevated_motzkin_words(60, max_height=1, max_k=2),
    elevated_motzkin_words(60),
    st.text("rkR", min_size=1, max_size=60),
)
# subcommand, its flags, the kind of each positional argument
LONG_COMMANDS = (
    ("invert", (), ("word",)),
    ("invert", ("--canonical-half",), ("word",)),
    ("invert", ("--oracle",), ("word",)),
    ("render", (), ("word",)),
    ("validate-word", (), ("bword",)),
    ("inflate", (), ("bword",)),
    ("render", ("--kind", "bword"), ("bword",)),
    ("classify", (), ("perm",)),
    ("render", ("--kind", "perm"), ("perm",)),
    ("cutset", (), ("perm", "diagram")),
    ("complement", (), ("perm", "diagram")),
    ("bword", (), ("diagram",)),
    ("crossing", (), ("diagram",)),
    ("generators", (), ("diagram",)),
    ("generators", ("--list", "--method", "blocks"), ("diagram",)),
    ("generators", ("--list", "--method", "table"), ("diagram",)),
    ("edit", (), ("op", "diagram", "vertex", "vertex")),
)


@st.composite
def long_argv(draw):
    """A subcommand on long generated inputs: cycle or block words of up to
    60 letters, diagrams on up to 2,000 vertices, and permutations that are
    either one of the diagram's generators or random.  n = 2,000 is drawn
    often, so the long end is not a tail case."""
    command, flags, kinds = draw(st.sampled_from(LONG_COMMANDS))
    n = draw(st.integers(3, 2000) | st.just(2000))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    b = random_bdiagram(rng, n)
    if draw(st.booleans()):
        p = canonical_generator(b).seq
    else:
        p = (1, *rng.sample(range(2, n + 1), n - 1))
    inputs = {
        "word": lambda: draw(CYCLE_WORDS),
        "bword": lambda: draw(st.text("aAekrR", min_size=1, max_size=60)),
        "perm": lambda: " ".join(map(str, p)),
        "diagram": lambda: str(b),
        "op": lambda: draw(st.sampled_from(("add", "remove", "transpose"))),
        "vertex": lambda: str(rng.randint(1, n)),
    }
    positionals = [inputs[kind]() for kind in kinds]
    json_flag = draw(st.sampled_from(((), ("--json",))))
    return [command, *positionals, *flags, *json_flag, "--cap", "1000"]


@st.composite
def argv_scale_block_words(draw):
    """``validate-word`` on a block word of 2,000 to 8,000 letters: a^m A^m,
    r^m A^(2m), or the word of a random diagram."""
    kind = draw(st.sampled_from(("aA", "rAA", "diagram")))
    if kind == "aA":
        m = draw(st.integers(1000, 4000))
        word = "a" * m + "A" * m
    elif kind == "rAA":
        m = draw(st.integers(667, 2666))
        word = "r" * m + "A" * (2 * m)
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        word = block_word(random_bdiagram(rng, draw(st.integers(2000, 8000))))
    json_flag = draw(st.sampled_from(((), ("--json",))))
    return ["validate-word", word, *json_flag, "--cap", "1000"]


class TestFuzz:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(fuzz_argv())
    def test_exit_codes(self, argv):
        # an exception escaping main fails the test; the cap keeps every run short
        assert main(argv) in (0, 1, 2, 3)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(long_argv())
    def test_long_inputs(self, argv):
        # words up to 60 letters and diagrams up to 2,000 vertices: a valid
        # exit code and no hang; crossing at n = 2,000 takes up to about 1 s
        start = time.perf_counter()
        assert main(argv) in (0, 1, 2, 3)
        assert time.perf_counter() - start < 5.0

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(argv_scale_block_words())
    def test_argv_scale_block_words(self, argv):
        # the long-input budget, at the word lengths where realization once
        # took seconds
        start = time.perf_counter()
        assert main(argv) in (0, 1, 2, 3)
        assert time.perf_counter() - start < 5.0
