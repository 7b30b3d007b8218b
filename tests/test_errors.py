import math
import sys

import pytest

from arcdiagrams import (
    AlphabetMismatch,
    BDiagram,
    CapExceeded,
    CycleDiagram,
    CyclicPerm,
    EmptyBlock,
    HasKeratoids,
    NotAGenerator,
    NotAPermutation,
    NotPresent,
    OutOfRange,
    TooLarge,
    TooSmall,
    add_arc,
    all_cyclic_perms,
    complete_table,
    cut_set,
    dyck_parity_word,
    enumerate_generators,
    generators_oracle,
    inflate,
    parse_bdiagram,
    parse_perm,
    perms_from_word,
    perms_from_word_oracle,
    remove_arc,
)
from arcdiagrams.census import census_report
from arcdiagrams.cli import main
from arcdiagrams.errors import ORACLE_MAX_N, brief, check_cap
from conftest import int_str_limit

SEVEN = parse_bdiagram("1 | 2 | 3 | 4 | 5 | 6 | 7")


@pytest.mark.parametrize(
    "guard, requested",
    [
        (lambda cap: enumerate_generators(SEVEN, cap), 720),
        (lambda cap: complete_table(SEVEN, cap), 720),
        (lambda cap: generators_oracle(SEVEN, cap), 720),
        # of 8192: the count stops at its product so far past the cap, 4 * 4
        (lambda cap: perms_from_word("rrkkkkkkRR", cap), 16),
        (lambda cap: perms_from_word_oracle("rrkkkkkkRR", cap), 362880),
        (lambda cap: census_report(7, cap), 720),
    ],
    ids=["blocks", "table", "oracle", "invert", "invert-oracle", "census"],
)
def test_every_cap_site_reports_both_numbers(guard, requested):
    with pytest.raises(CapExceeded) as info:
        guard(5)
    assert (info.value.requested, info.value.limit) == (requested, 5)
    assert f"{requested} " in str(info.value) and "cap 5" in str(info.value)


@pytest.mark.parametrize(
    "guard, message",
    [
        (lambda: census_report(11), "census refuses n=11 > 10"),
        (lambda: generators_oracle(BDiagram(((1, 2), *((v,) for v in range(3, 12))))),
         "oracle refuses n=11 > 10"),
        (lambda: perms_from_word_oracle("rkkkkkkkkkR"), "oracle refuses n=11 > 10"),
    ],
    ids=["census", "generators-oracle", "invert-oracle"],
)
def test_every_size_guard_reports_both_numbers(guard, message):
    with pytest.raises(TooLarge) as info:
        guard()
    assert (info.value.requested, info.value.limit) == (11, ORACLE_MAX_N)
    assert str(info.value) == message and info.value.exit_code == 3


@pytest.mark.parametrize(
    "search, depth",
    [
        (lambda: perms_from_word("r" + "rR" * 600 + "R", cap=10**200), 1202),
        (lambda: complete_table(BDiagram([(v,) for v in range(1, 1201)]), cap=10**4000), 1200),
    ],
    ids=["perms_from_word", "complete_table"],
)
def test_search_past_the_recursion_limit_is_too_large(search, depth):
    # one level per letter or block: the library's own error, not RecursionError
    limit = sys.getrecursionlimit()
    with pytest.raises(TooLarge) as info:
        search()
    assert (info.value.requested, info.value.limit) == (depth, limit)
    assert str(info.value) == f"input too deep to search within recursion limit {limit}"
    assert info.value.__cause__ is None and info.value.__suppress_context__


def test_size_guard_message_and_exit_code_on_the_command_line(capsys):
    assert main(["census", "11"]) == 3
    assert capsys.readouterr() == ("", "error: census refuses n=11 > 10\n")
    assert main(["invert", "rkkkkkkkkkR", "--oracle"]) == 3
    assert capsys.readouterr() == ("", "error: oracle refuses n=11 > 10\n")


@pytest.mark.parametrize("word", ["xyzxyzxyzxyz", "r" * 11, "rR", "xyz"])
def test_oracle_flag_leaves_a_non_word_a_parse_error(capsys, word):
    # the word is checked before the oracle's size guard
    assert main(["invert", word]) == 1
    plain = capsys.readouterr()
    assert main(["invert", word, "--oracle"]) == 1
    assert capsys.readouterr() == plain and plain.err.startswith("error:")


def test_huge_count_is_stated_by_digits():
    # 1999! generators: formatting it whole would pass str()'s 4,300-digit limit
    singletons = BDiagram(tuple((v,) for v in range(1, 2001)))
    with pytest.raises(CapExceeded) as info:
        enumerate_generators(singletons, cap=1000)
    assert info.value.requested == math.factorial(1999)
    assert info.value.limit == 1000
    assert len(str(info.value)) < 200 and "5733-digit" in str(info.value)


@pytest.mark.parametrize("digits", [30, 31, 299, 300, 301, 4999])
def test_digit_count_is_exact(digits):
    for count in (10 ** (digits - 1), 10**digits - 1):
        with pytest.raises(CapExceeded) as info:
            check_cap(count, 0, "items")
        stated = str(info.value).split()[0 if digits <= 30 else 1]
        assert stated == (str(count) if digits <= 30 else f"{digits}-digit")


BIG = 10**5000  # past the 4,300 digits str() allows by default
DIGITS = "9" * 5000
ENTRIES = " ".join(map(str, range(1, 5001)))
UNGENERATED = "1 3 | 2 4 " + ENTRIES[8:]  # arcs 1-3 and 2-4, which 1 2 3 ... lacks


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: CyclicPerm((1, 2, BIG)), NotAPermutation),
        (lambda: parse_perm(f"1 2 {DIGITS}"), NotAPermutation),
        (lambda: parse_perm(ENTRIES + " x"), NotAPermutation),
        (lambda: BDiagram(((1, 2), (BIG,))), NotAPermutation),
        (lambda: parse_bdiagram(f"1 2 | {DIGITS}"), NotAPermutation),
        (lambda: parse_bdiagram(ENTRIES + " | |"), EmptyBlock),
        (lambda: census_report(BIG), TooLarge),
        (lambda: census_report(-BIG), TooSmall),
        (lambda: next(all_cyclic_perms(-BIG)), TooSmall),
        (lambda: perms_from_word("rkR", -BIG), CapExceeded),
        (lambda: add_arc(parse_bdiagram("1 | 2"), (1, BIG)), OutOfRange),
        (lambda: remove_arc(parse_bdiagram("1 | 2"), (1, BIG)), NotPresent),
        (lambda: cut_set(parse_perm(ENTRIES), parse_bdiagram(UNGENERATED)), NotAGenerator),
        (lambda: dyck_parity_word(parse_perm(ENTRIES)), HasKeratoids),
        (lambda: CycleDiagram(3, frozenset({(1, 2), (2, 3), (1, BIG)})), ValueError),
        (lambda: CycleDiagram(BIG, frozenset()), ValueError),
        (lambda: inflate("".join(map(chr, range(0x4E00, 0x4E00 + 5000)))), AlphabetMismatch),
    ],
    ids=[
        "CyclicPerm", "parse_perm-digits", "parse_perm-entries", "BDiagram",
        "parse_bdiagram-digits", "parse_bdiagram-entries", "check_scan", "census-TooSmall",
        "all_cyclic_perms", "check_cap-cap", "add_arc", "remove_arc", "cut_set",
        "dyck_parity_word", "spanning_cycle", "check_letters", "spanning_cycle-n",
    ],
)
def test_message_sites_echo_huge_input_briefly(call, error, request):
    with int_str_limit(4300), pytest.raises(error) as info:  # the interpreter's default
        call()
    assert "Exceeds the limit" not in str(info.value) and len(str(info.value)) < 200
    if request.node.callspec.id.endswith("-digits"):  # an integer, if too long for int()
        assert "non-integer" not in str(info.value)


@pytest.mark.parametrize(
    "parse, text, what",
    [
        (parse_perm, f"1 2 {DIGITS}", "entry outside 1..3"),
        (parse_perm, f"1 -{DIGITS} 2 x", "entry outside 1..4"),
        (parse_perm, f"1 2 x {DIGITS}", "non-integer entry"),
        (parse_perm, f"1 2 +-{DIGITS}", "non-integer entry"),
        (parse_perm, "1 2 x", "non-integer entry"),
        (parse_bdiagram, f"1 2 | {DIGITS}", "entry outside 1..3"),
        (parse_bdiagram, f"1 | {DIGITS} | 3 4", "entry outside 1..4"),
        (parse_bdiagram, f"1 | | {DIGITS}", "empty block"),
        (parse_bdiagram, "1 2 | x", "non-integer entry"),
    ],
    ids=[
        "perm-huge", "perm-huge-negative", "perm-x-first", "perm-two-signs", "perm-x",
        "bdiagram-huge", "bdiagram-huge-inner", "bdiagram-empty-first", "bdiagram-x",
    ],
)
def test_huge_integer_entry_is_named_outside_the_range(parse, text, what):
    # the first bad token decides, and an integer past int()'s digit limit is no
    # "non-integer": it is outside 1..n for the n entries of the whole text
    with int_str_limit(4300), pytest.raises((NotAPermutation, EmptyBlock)) as info:
        parse(text)
    assert str(info.value) == f"{what} in {brief(text)!r}"


@pytest.mark.parametrize(
    "value, text",
    [
        (10**30 - 1, "9" * 30),
        (10**30, "a 31-digit number"),
        (-(10**30), "a 31-digit negative number"),
        ("x" * 40, "x" * 40),
        ("x" * 41, "x" * 20 + "… (41 characters)"),
        ((), "()"),
        ((1,), "(1,)"),
        (((1, 2), (3,)), "((1, 2), (3,))"),
        (["a", "b"], "['a', 'b']"),
        (tuple(range(100)), "(0, 1, 2, 3, 4, 5, 6… (100 entries)"),
        ((1, 10**40), "(1, a 41-digit number)"),
    ],
)
def test_brief(value, text):
    assert brief(value) == text
