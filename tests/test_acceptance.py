"""Acceptance suite: one test per criterion, at the stated tolerance.

Every test prints a PASS line on success (visible with ``pytest -s`` or
``-rA``); a failure shows up as an ordinary pytest failure.  Timed
criteria assert their budgets with ``time.perf_counter``.
"""

import random
import time

from arcdiagrams import (
    InvalidReason,
    all_bdiagrams,
    arc_set,
    block_word,
    classify,
    common_generators,
    complement,
    complete_table,
    count_generators,
    cut_set,
    cycle_word,
    enumerate_generators,
    generators_oracle,
    inflate,
    max_crossing,
    parse_bdiagram,
    parse_perm,
    path_steps,
    perms_from_word,
    validate_block_word,
)
from arcdiagrams.census import census_report
from arcdiagrams.words import motzkin_number
from conftest import crossing_brute_force, random_bdiagram

MIXED_EXPECTED = (
    "1 2 4 3 5 6",
    "1 2 4 3 6 5",
    "1 2 5 6 3 4",
    "1 2 6 5 3 4",
    "1 4 3 5 6 2",
    "1 4 3 6 5 2",
    "1 5 6 3 4 2",
    "1 6 5 3 4 2",
)
DYCK_EXPECTED = (
    "1 3 2 5 4 6",
    "1 3 2 6 4 5",
    "1 5 4 6 2 3",
    "1 6 4 5 2 3",
)


def _report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def test_criterion_1_golden_values():
    def checks():
        cls = classify(arc_set(parse_perm("1 3 2 7 8 4 5 6")))
        assert (sorted(cls.R), sorted(cls.Rbar), sorted(cls.K)) == (
            [1, 2, 4],
            [3, 6, 8],
            [5, 7],
        )
        assert cycle_word(parse_perm("1 3 2 7 8 4 5 6")) == "rrRrkRkR"
        assert cycle_word(parse_perm("1 3 2 7 5 6 4 8")) == "rrRrrRRR"
        assert block_word(parse_bdiagram("3 1 6 | 2 7 8 | 4 5")) == "raAaAAkA"
        assert block_word(parse_bdiagram("1 3 | 2 | 4 8 | 5 6 | 7")) == "aeAaaAeA"

    checks()  # warm up imports and caches
    reps = 200
    start = time.perf_counter()
    for _ in range(reps):
        checks()
    per_call = (time.perf_counter() - start) / (reps * 5)
    assert per_call < 0.001, f"golden value check took {per_call * 1e3:.3f} ms"
    _report("criterion-1 golden-values", f"{per_call * 1e6:.0f} us per check")


def test_criterion_2_word_inversion():
    start = time.perf_counter()
    assert tuple(map(str, perms_from_word("rkrRkR"))) == MIXED_EXPECTED
    assert tuple(map(str, perms_from_word("rrRrRR"))) == DYCK_EXPECTED
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"inversion took {elapsed:.2f}s"
    _report("criterion-2 word-inversion", f"{elapsed * 1e3:.0f} ms")


def test_criterion_3_oracle_equivalence():
    from arcdiagrams import all_cyclic_perms, perms_from_word_oracle

    start = time.perf_counter()
    words_checked = 0
    for n in range(3, 8):
        groups: dict[str, list] = {}
        for p in all_cyclic_perms(n):
            groups.setdefault(cycle_word(p), []).append(p)
        for word, members in sorted(groups.items()):
            expected = tuple(sorted(members))
            assert perms_from_word(word) == expected, word
            assert perms_from_word_oracle(word) == expected, word
            words_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"equivalence sweep took {elapsed:.1f}s"
    _report(
        "criterion-3 oracle-equivalence",
        f"{words_checked} words over n=3..7 in {elapsed:.1f}s",
    )


def test_criterion_4_census():
    expected = {4: 2, 5: 4, 6: 9, 7: 21, 8: 51, 9: 127}
    expected_dyck = {4: 1, 5: 0, 6: 2, 7: 0, 8: 5, 9: 0}
    for n in range(4, 9):
        report = census_report(n)
        assert report.word_count == expected[n] == motzkin_number(n - 2)
        assert report.dyck_count == expected_dyck[n] == report.dyck_expected
    start = time.perf_counter()
    report = census_report(9)
    elapsed = time.perf_counter() - start
    assert report.word_count == 127 == motzkin_number(7)
    assert report.dyck_count == 0
    assert elapsed < 30.0, f"census 9 took {elapsed:.1f}s"
    _report("criterion-4 census", f"n=9 in {elapsed:.1f}s")


def test_criterion_5_generator_counts():
    assert count_generators(parse_bdiagram("2 3 1 4 | 5 8 7 6")) == 4
    assert count_generators(parse_bdiagram("1 2 3 | 4 7 8 | 5 6")) == 16
    assert count_generators(parse_bdiagram("1 6 | 2 3 | 4 8 7 | 5")) == 48
    assert count_generators(parse_bdiagram("1 4 | 2 | 3 6 | 5 8 | 7")) == 192

    diagram_totals = {3: 4, 4: 22, 5: 146, 6: 1126, 7: 9892}
    start = time.perf_counter()
    for n in range(3, 8):
        seen = 0
        for b in all_bdiagrams(n):
            seen += 1
            by_blocks = enumerate_generators(b)
            assert len(by_blocks) == count_generators(b)
            assert complete_table(b) == by_blocks
            assert generators_oracle(b) == by_blocks
        assert seen == diagram_totals[n], f"sweep at n={n} was not exhaustive"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"triple-agreement sweep took {elapsed:.1f}s"
    _report(
        "criterion-5 generator-counts",
        f"{sum(diagram_totals.values())} diagrams in {elapsed:.1f}s",
    )


def test_criterion_6_cutset_and_complement():
    sigma = parse_perm("1 3 2 7 8 4 5 6")
    assert cut_set(sigma, parse_bdiagram("3 1 6 | 2 7 8 | 4 5")) == {
        (2, 3),
        (4, 8),
        (5, 6),
    }
    assert cut_set(sigma, parse_bdiagram("1 3 | 2 | 4 8 | 5 6 | 7")) == {
        (1, 6),
        (2, 3),
        (2, 7),
        (4, 5),
        (7, 8),
    }
    twice_cut = complement(
        parse_perm("1 2 3 8 7 5 4 6"), parse_bdiagram("1 6 4 | 2 3 8 | 5 7")
    )
    assert str(twice_cut) == "1 2 | 3 | 4 5 | 6 | 7 8"
    pairs = 0
    for n in range(3, 6):
        for b in all_bdiagrams(n):
            for p in enumerate_generators(b):
                assert len(cut_set(p, b)) == b.block_count
                pairs += 1
    _report("criterion-6 cutset-complement", f"|C| = m on {pairs} generator pairs")


def test_criterion_7_word_validity():
    assert validate_block_word("rarARAA").ok
    bad = validate_block_word("RAkear")
    assert not bad.ok and bad.reason is InvalidReason.NEGATIVE_PREFIX
    checked = 0
    for n in range(2, 7):
        for b in all_bdiagrams(n):
            assert validate_block_word(block_word(b)).ok
            checked += 1
    cyclic = validate_block_word("rkR")
    assert not cyclic.ok and cyclic.reason is InvalidReason.UNREALIZABLE
    _report("criterion-7 word-validity", f"{checked} diagram words all Valid")


def test_criterion_8_crossing():
    assert max_crossing(parse_bdiagram("1 2 | 3 6 | 4 7 | 5 8")) == 3
    checked = 0
    for n in range(2, 7):
        for b in all_bdiagrams(n):
            assert max_crossing(b) == crossing_brute_force(b)
            checked += 1
    rng = random.Random(1881)
    for n in (7, 8):
        for _ in range(200):
            b = random_bdiagram(rng, n)
            assert max_crossing(b) == crossing_brute_force(b)
            checked += 1
    _report("criterion-8 crossing", f"{checked} diagrams vs subset brute force")


def test_criterion_9_inflation():
    assert inflate("arAkAA") == "aaaAAaAA"
    rng = random.Random(909090)
    for i in range(1000):
        b = random_bdiagram(rng, rng.randint(3, 10))
        word = block_word(b)
        expanded = inflate(word)
        assert len(expanded) == len(word) + sum(word.count(c) for c in "rRk")
        assert path_steps(expanded, "block") == path_steps(word, "block")
    _report("criterion-9 inflation", "1000 random words")


def test_criterion_10_documented_deviations():
    report = census_report(6)
    flagged = {exc.word: exc for exc in report.split_exceptions}
    assert "rrkkRR" in flagged and flagged["rrkkRR"].count >= 1
    clash = common_generators(parse_bdiagram("1 2 | 3"), parse_bdiagram("2 3 | 1"))
    assert len(clash.generators) == 2
    assert not clash.first_in_second and not clash.second_in_first
    _report(
        "criterion-10 documented-deviations",
        f"split rule fails for {len(report.split_exceptions)} words at n=6",
    )
