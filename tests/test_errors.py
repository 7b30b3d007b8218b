import math

import pytest

from arcdiagrams import (
    BDiagram,
    CapExceeded,
    TooLarge,
    complete_table,
    enumerate_generators,
    generators_oracle,
    parse_bdiagram,
    perms_from_word,
    perms_from_word_oracle,
)
from arcdiagrams.cli import census_report, main
from arcdiagrams.errors import ORACLE_MAX_N, check_cap

SEVEN = parse_bdiagram("1 | 2 | 3 | 4 | 5 | 6 | 7")


@pytest.mark.parametrize(
    "guard, requested",
    [
        (lambda cap: enumerate_generators(SEVEN, cap), 720),
        (lambda cap: complete_table(SEVEN, cap), 720),
        (lambda cap: generators_oracle(SEVEN, cap), 720),
        # of 8192: the count stops at its first lower bound past the cap
        (lambda cap: perms_from_word("rrkkkkkkRR", cap), 12),
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
        (lambda: perms_from_word_oracle("r" * 11), "oracle refuses n=11 > 10"),
    ],
    ids=["census", "generators-oracle", "invert-oracle"],
)
def test_every_size_guard_reports_both_numbers(guard, message):
    with pytest.raises(TooLarge) as info:
        guard()
    assert (info.value.requested, info.value.limit) == (11, ORACLE_MAX_N)
    assert str(info.value) == message and info.value.exit_code == 3


def test_size_guard_message_and_exit_code_on_the_command_line(capsys):
    assert main(["census", "11"]) == 3
    assert capsys.readouterr() == ("", "error: census refuses n=11 > 10\n")
    assert main(["invert", "r" * 11, "--oracle"]) == 3
    assert capsys.readouterr() == ("", "error: oracle refuses n=11 > 10\n")


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
