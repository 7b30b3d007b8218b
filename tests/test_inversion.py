import random
import time
from itertools import product
from math import factorial

import pytest
from hypothesis import assume, given, settings

from arcdiagrams import (
    CapExceeded,
    Listing,
    NotAWord,
    TooLarge,
    all_cyclic_perms,
    canonical_half,
    check_cycle_word,
    count_perms_from_word,
    cycle_word,
    neighbor_candidates,
    parse_perm,
    perms_from_word,
    perms_from_word_oracle,
)
from conftest import (
    assert_validated_perms,
    count_perms_reference,
    elevated_motzkin_words,
    random_cycle_word,
    scan_classes_from_word,
    value_class_word,
)

MIXED_WORD = "rkrRkR"
MIXED_PERMS = (
    "1 2 4 3 5 6",
    "1 2 4 3 6 5",
    "1 2 5 6 3 4",
    "1 2 6 5 3 4",
    "1 4 3 5 6 2",
    "1 4 3 6 5 2",
    "1 5 6 3 4 2",
    "1 6 5 3 4 2",
)

DYCK_WORD = "rrRrRR"
DYCK_PERMS = (
    "1 3 2 5 4 6",
    "1 3 2 6 4 5",
    "1 5 4 6 2 3",
    "1 6 4 5 2 3",
)


class TestNeighborCandidates:
    def test_mixed_word(self):
        table = neighbor_candidates(scan_classes_from_word(MIXED_WORD))
        assert table == {
            1: frozenset({2, 4, 5, 6}),
            2: frozenset({1, 4, 5, 6}),
            3: frozenset({4, 5, 6}),
            4: frozenset({1, 2, 3}),
            5: frozenset({1, 2, 3, 6}),
            6: frozenset({1, 2, 3, 5}),
        }

    def test_dyck_word(self):
        table = neighbor_candidates(scan_classes_from_word(DYCK_WORD))
        assert table == {
            1: frozenset({3, 5, 6}),
            2: frozenset({3, 5, 6}),
            3: frozenset({1, 2}),
            4: frozenset({5, 6}),
            5: frozenset({1, 2, 4}),
            6: frozenset({1, 2, 4}),
        }

    def test_smallest_word(self):
        table = neighbor_candidates(scan_classes_from_word("rkR"))
        assert table == {
            1: frozenset({2, 3}),
            2: frozenset({1, 3}),
            3: frozenset({1, 2}),
        }


def outcome(read, word):
    """``("ok", result)`` or ``("ValueError", message)`` for one call."""
    try:
        return "ok", read(word)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def all_words(max_n, min_n=3):
    """Every word of a cycle diagram with min_n..max_n letters."""
    for n in range(min_n, max_n + 1):
        for inner in product("rRk", repeat=n - 2):
            word = "r" + "".join(inner) + "R"
            if outcome(check_cycle_word, word)[0] == "ok":
                yield word


class TestPermsFromWord:
    def test_fig6(self):
        assert tuple(map(str, perms_from_word(MIXED_WORD))) == MIXED_PERMS

    def test_fig7(self):
        assert tuple(map(str, perms_from_word(DYCK_WORD))) == DYCK_PERMS

    def test_smallest(self):
        assert tuple(map(str, perms_from_word("rkR"))) == ("1 2 3", "1 3 2")

    def test_not_a_word(self):
        for bad in ("rR", "rrkR", "rkRrkR"):
            for func in (perms_from_word, count_perms_from_word):
                with pytest.raises(NotAWord):
                    func(bad)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            perms_from_word(MIXED_WORD, cap=7)
        assert len(perms_from_word(MIXED_WORD, cap=8)) == 8

    def test_long_small_fibre_is_fast(self):
        # the old candidate-table search took minutes on this word
        start = time.perf_counter()
        result = perms_from_word("r" + "rR" * 10 + "R")
        assert time.perf_counter() - start < 1.0
        assert len(result) == 1024

    def test_cap_refuses_before_searching(self):
        # a fibre of 536,870,912: listing it would take hours; the count
        # stops at the first lower bound past the cap
        word = "rr" + "k" * 14 + "RR"
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=r"^at least \d+ .* cap 200000$") as info:
            perms_from_word(word, cap=200_000)
        assert time.perf_counter() - start < 1.0
        assert info.value.requested == 262_144  # 4 ** 9: nine k at height 2

    @pytest.mark.parametrize(
        "word, shown",
        [
            ("r" * 20 + "R" * 20, "r" * 20 + "R" * 20),  # 40 letters: the whole word
            ("r" * 20 + "k" + "R" * 20, "r" * 20 + "… (41 letters)"),
        ],
    )
    def test_cap_message_shows_at_most_forty_letters(self, word, shown):
        with pytest.raises(CapExceeded) as info:
            perms_from_word(word, cap=5)
        assert str(info.value).endswith(f" permutations with the word {shown} exceed the cap 5")
        assert str(info.value).startswith("at least ")
        assert 5 < info.value.requested <= count_perms_from_word(word)
        assert info.value.limit == 5

    def test_early_cap_verdict_is_exact(self):
        # the count stops once a lower bound passes the cap, yet refuses
        # exactly the words whose fibre exceeds it, and counts the rest whole
        grid = {round(1.5**i) for i in range(23)}  # 1 .. 7,482
        for word in all_words(12):
            count = count_perms_from_word(word)
            near = {c for c in (count - 1, count, count + 1) if 1 <= c <= 10**4}
            for cap in grid | near:
                try:
                    assert count_perms_from_word(word, cap) == count <= cap
                except CapExceeded as exc:
                    assert cap < exc.requested <= count

    def test_count_matches_hand_written_rules(self):
        # the product over path heights against the per-letter (k, s) rules:
        # each count, and on the same grid the same words refused, each with
        # a lower bound in (cap, count]
        grid = {round(1.5**i) for i in range(23)}
        for word in all_words(12):
            count = count_perms_reference(word)
            assert count_perms_from_word(word) == count
            for cap in grid:
                if cap < count:
                    with pytest.raises(CapExceeded) as ours:
                        count_perms_from_word(word, cap)
                    with pytest.raises(CapExceeded):
                        count_perms_reference(word, cap)
                    assert cap < ours.value.requested <= count
                else:
                    assert count_perms_from_word(word, cap) == count_perms_reference(word, cap)

    def test_count_matches_hand_written_rules_on_long_words(self):
        rng = random.Random(15)
        for _ in range(200):
            word = random_cycle_word(rng, rng.randint(15, 120))
            assert count_perms_from_word(word) == count_perms_reference(word)

    def test_huge_fibre_counted_fast(self):
        # r^m R^m: h(h-1) at each R but the last, for h = m down to 2
        start = time.perf_counter()
        count = count_perms_from_word("r" * 2000 + "R" * 2000)
        assert time.perf_counter() - start < 1.0
        assert count == factorial(2000) * factorial(1999)

    def test_sound_and_reverse_closed(self):
        for word in (MIXED_WORD, DYCK_WORD, "rrkkRR"):
            result = perms_from_word(word)
            for p in result:
                assert cycle_word(p) == word
                assert p.reverse() in result

    def test_listed_values_equal_validated_perms(self):
        # the sweep's walks become permutations without CyclicPerm's checks
        for word in all_words(9):
            assert_validated_perms(perms_from_word(word))

    def test_partition_of_universe(self):
        # distinct words chop the universe into disjoint pieces that cover it
        for n in range(3, 7):
            universe = list(all_cyclic_perms(n))
            seen = []
            for word in sorted({cycle_word(p) for p in universe}):
                seen.extend(perms_from_word(word))
            assert sorted(seen) == universe


class TestCount:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_every_fibre_against_universe(self, n):
        # both directions, against words read off the sequence by neighbour
        # comparisons: every word lists its group of the universe, and every
        # group is some word's listing
        groups = {}
        for p in all_cyclic_perms(n):
            groups.setdefault(value_class_word(p.seq), []).append(p)
        for word in all_words(n, min_n=n):
            group = tuple(groups.pop(word))
            listing = perms_from_word(word)
            assert type(listing) is Listing and listing == group and group == listing
            assert len(group) == count_perms_from_word(word)
        assert not groups

    @settings(derandomize=True, deadline=None)
    @given(elevated_motzkin_words(13))
    def test_matches_search(self, word):
        count = count_perms_from_word(word)
        assume(count <= 5_000)
        result = perms_from_word(word)
        assert len(set(result)) == count
        assert all(cycle_word(p) == word for p in result)

    @settings(derandomize=True, deadline=None)
    @given(elevated_motzkin_words(26, max_height=1, max_k=2))
    def test_long_words_match_count(self, word):
        # the smallest fibre at n letters is 2**((n-2)/2), from r(rR)*R, so
        # 5,000 admits n <= 26; low paths with few k keep most draws in
        count = count_perms_from_word(word)
        assume(count <= 5_000)
        result = perms_from_word(word)
        assert len(result) == len(set(result)) == count
        assert list(result) == sorted(result)
        assert {p.reverse() for p in result} == set(result)
        assert all(cycle_word(p) == word for p in result)

    def test_long_word_is_fast(self):
        word = "r" + "rk" * 100 + "R" * 100 + "R"
        start = time.perf_counter()
        assert count_perms_from_word(word) > 0
        assert time.perf_counter() - start < 1.0


class TestOracle:
    def test_matches_search(self):
        for n in range(3, 7):
            for word in sorted({cycle_word(p) for p in all_cyclic_perms(n)}):
                listing, oracle = perms_from_word(word), perms_from_word_oracle(word)
                assert listing == oracle and oracle == listing

    def test_matches_search_sampled_large(self):
        # a few words sampled from the bigger universes
        rng = random.Random(7)
        for n in (8, 9):
            words = sorted({cycle_word(p) for p in all_cyclic_perms(n)})
            for word in rng.sample(words, 3):
                assert perms_from_word(word) == perms_from_word_oracle(word)

    def test_flat_pair_word(self):
        found = set(map(str, perms_from_word_oracle("rrkkRR")))
        assert {"1 4 6 2 3 5", "1 3 5 2 4 6"} <= found

    def test_too_large(self):
        with pytest.raises(TooLarge):
            perms_from_word_oracle("rkkkkkkkkkR")

    @pytest.mark.parametrize("word", ["xyzxyzxyzxyz", "r" * 11, "rR", "xyz", "r", ""])
    def test_non_word_is_not_a_word(self, word):
        # the same error as the sweep, before any size guard
        with pytest.raises(NotAWord):
            perms_from_word(word)
        with pytest.raises(NotAWord):
            perms_from_word_oracle(word)

    def test_cap(self):
        # 9! permutations to scan; refused before the scan
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="362880 .* cap 100"):
            perms_from_word_oracle("rrkkkkkkRR", cap=100)
        assert time.perf_counter() - start < 1.0
        assert perms_from_word_oracle(MIXED_WORD, cap=120) == perms_from_word(MIXED_WORD)


class TestCanonicalHalf:
    def test_halves_and_covers(self):
        full = perms_from_word(MIXED_WORD)
        half = canonical_half(full)
        assert len(half) * 2 == len(full)
        assert sorted(list(half) + [p.reverse() for p in half]) == sorted(full)

    def test_second_below_last(self):
        for p in canonical_half(perms_from_word(DYCK_WORD)):
            assert p.seq[1] < p.seq[-1]


def test_fig6_list_is_the_true_one():
    # the eighth member is 1 4 3 6 5 2 (the reverse of 1 2 5 6 3 4); the
    # variant 1 4 3 6 2 5 sometimes quoted has a different word entirely
    assert cycle_word(parse_perm("1 4 3 6 5 2")) == MIXED_WORD
    assert cycle_word(parse_perm("1 4 3 6 2 5")) == "rrrRRR"
