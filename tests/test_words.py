import math
from itertools import product

import pytest

from arcdiagrams import (
    AlphabetMismatch,
    HasKeratoids,
    LengthMismatch,
    NotAWord,
    all_cyclic_perms,
    arc_set,
    catalan_number,
    check_cycle_word,
    classify,
    cycle_word,
    degree_vector,
    dyck_parity_word,
    inflate,
    motzkin_number,
    parse_perm,
    path_steps,
    reindex_word,
    step_groups,
    word_predicates,
)
from arcdiagrams.bdiagram import MOVES
from arcdiagrams.words import ARCS
from conftest import check_cycle_word_reference


class TestCycleWord:
    @pytest.mark.parametrize(
        "perm, word",
        [
            ("1 3 2 7 8 4 5 6", "rrRrkRkR"),
            ("1 3 2 7 5 6 4 8", "rrRrrRRR"),
            ("1 2 3", "rkR"),
        ],
    )
    def test_golden(self, perm, word):
        assert cycle_word(parse_perm(perm)) == word

    def test_reverse_invariant(self):
        for n in range(3, 8):
            for p in all_cyclic_perms(n):
                assert cycle_word(p) == cycle_word(p.reverse())

    def test_always_elevated_motzkin(self):
        for n in range(3, 9):
            for p in all_cyclic_perms(n):
                w = cycle_word(p)
                assert w[0] == "r" and w[-1] == "R"
                assert w[1] != "R" and w[-2] != "r"
                preds = word_predicates(w)
                assert preds.is_motzkin and preds.is_elevated
                if "k" not in w:
                    assert preds.is_dyck


class TestWordPredicates:
    def test_motzkin_elevated(self):
        preds = word_predicates("rrRrkRkR")
        assert preds.is_motzkin and preds.is_elevated and not preds.is_dyck

    def test_touches_axis(self):
        preds = word_predicates("rRrR")
        assert preds.is_motzkin and preds.is_dyck and not preds.is_elevated

    def test_single_nesting(self):
        preds = word_predicates("rrRR")
        assert preds.is_motzkin and preds.is_dyck and preds.is_elevated

    def test_unbalanced(self):
        assert not word_predicates("rrR").is_motzkin

    def test_bad_letters(self):
        with pytest.raises(AlphabetMismatch):
            word_predicates("rax")


class TestCheckCycleWord:
    def test_accepts(self):
        check_cycle_word("rkR")
        check_cycle_word("rrRrkRkR")

    @pytest.mark.parametrize("bad", ["rR", "rrRR k", "rkRrkR", "kkk", "rRkk"])
    def test_rejects(self, bad):
        with pytest.raises(NotAWord):
            check_cycle_word(bad)

    def test_reports_the_first_rule_that_fails(self):
        # six letters, as the shortest word that passes the other rules but
        # touches the axis early is rkRrkR
        verdicts = set()
        for n in range(7):
            for letters in product("rRkAz", repeat=n):
                word = "".join(letters)
                try:
                    check_cycle_word(word)
                    got = None
                except ValueError as exc:
                    got = type(exc), str(exc)
                expected = check_cycle_word_reference(word)
                assert got == expected, word
                verdicts.add(expected and expected[1].split("[")[0])
        # each of the six rules decides some word (foreign letters under one
        # message), and some word passes
        assert len(verdicts) == 7, verdicts


class TestReindex:
    def test_golden(self):
        w = "rrRrkRkR"
        p = parse_perm("1 3 2 7 8 4 5 6")
        assert reindex_word(w, p) == "rRrkRrkR"

    def test_identity_order(self):
        assert reindex_word("rkkR", parse_perm("1 2 3 4")) == "rkkR"

    def test_small_derived(self):
        assert reindex_word("rkR", parse_perm("1 3 2")) == "rRk"

    def test_round_trip(self):
        for n in range(3, 7):
            for p in all_cyclic_perms(n):
                w = cycle_word(p)
                w2 = reindex_word(w, p)
                for i in range(1, n + 1):
                    assert w[i - 1] == w2[p.position_of(i) - 1]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            reindex_word("rkR", parse_perm("1 2 3 4"))


class TestDyckParity:
    def test_golden(self):
        assert dyck_parity_word(parse_perm("1 3 2 8 4 7 5 6")) == "rrRrrRRR"

    def test_small(self):
        assert dyck_parity_word(parse_perm("1 3 2 4")) == "rrRR"

    def test_keratoids_refused(self):
        with pytest.raises(HasKeratoids):
            dyck_parity_word(parse_perm("1 2 3"))

    def test_equals_cycle_word(self):
        for n in (4, 6, 8):
            for p in all_cyclic_perms(n):
                if "k" not in cycle_word(p):
                    assert dyck_parity_word(p) == cycle_word(p)


class TestDegreeVector:
    def test_golden(self):
        assert degree_vector("rarARAA") == (2, 1, 2, -1, -2, -1, -1)

    def test_isolated(self):
        assert degree_vector("e") == (0,)

    def test_reversed_example(self):
        assert degree_vector("RAkear") == (-2, -1, 0, 0, 1, 2)

    def test_bad_letters(self):
        with pytest.raises(AlphabetMismatch):
            degree_vector("rxr")
        with pytest.raises(AlphabetMismatch, match="empty word"):
            degree_vector("")


class TestPaths:
    def test_cycle_dialect(self):
        path = path_steps("rrRrkRkR", "cycle")
        assert len(path) == 8
        assert path.heights == (1, 2, 1, 2, 2, 1, 1, 0)

    def test_block_dialect_length(self):
        path = path_steps("arAkAA", "block")
        assert len(path) == 8  # 6 letters, r and k take two steps each
        assert path.heights[-1] == 0

    def test_single_arc(self):
        assert path_steps("aA", "block").steps == (1, -1)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            path_steps("arAkAA", "cycle")

    def test_unknown_dialect(self):
        with pytest.raises(ValueError):
            path_steps("rkR", "steep")


class TestInflate:
    def test_golden(self):
        assert inflate("arAkAA") == "aaaAAaAA"

    def test_fixed_point(self):
        assert inflate("aA") == "aA"

    def test_expansion(self):
        assert inflate("rkR") == "aaAaAA"

    def test_preserves_path(self):
        for word in ("arAkAA", "rarARAA", "aeAaaAeA", "rkR", "ee"):
            assert path_steps(inflate(word), "block") == path_steps(word, "block")
            extra = sum(word.count(c) for c in "rRk")
            assert len(inflate(word)) == len(word) + extra


# the sweep's moves per letter, by hand: (two-stub paths taken, one-stub
# paths taken, change in two-stub paths)
LETTER_MOVES = {
    "r": ((0, 0, 1),),
    "R": ((0, 2, 0), (1, 1, -1), (2, 0, -1)),
    "k": ((0, 1, 0), (1, 0, 0)),
    "a": ((0, 0, 0),),
    "A": ((0, 1, 0), (1, 0, -1)),
    "e": ((0, 0, 0),),
}


@pytest.mark.parametrize(
    "letter, arcs, degree, block, cycle, inflated",
    [
        ("r", (2, 0), 2, (1, 1), (1,), "aa"),
        ("R", (0, 2), -2, (-1, -1), (-1,), "AA"),
        ("k", (1, 1), 0, (-1, 1), (0,), "Aa"),
        ("a", (1, 0), 1, (1,), None, "a"),
        ("A", (0, 1), -1, (-1,), None, "A"),
        ("e", (0, 0), 0, (0,), None, "e"),
    ],
)
def test_letter_rules(letter, arcs, degree, block, cycle, inflated):
    assert ARCS[letter] == arcs
    assert MOVES[letter] == LETTER_MOVES[letter]
    assert degree_vector(letter) == (degree,)
    assert step_groups(letter, "block") == (block,)
    if cycle is None:
        with pytest.raises(AlphabetMismatch):
            step_groups(letter, "cycle")
    else:
        assert step_groups(letter, "cycle") == (cycle,)
    assert inflate(letter) == inflated


class TestNumberSequences:
    def test_motzkin_closed_form(self):
        # independent check: M_k = sum_j C(k, 2j) * Catalan(j)
        for k in [*range(12), 2000]:
            closed = sum(
                math.comb(k, 2 * j) * math.comb(2 * j, j) // (j + 1)
                for j in range(k // 2 + 1)
            )
            assert motzkin_number(k) == closed

    def test_catalan_closed_form(self):
        for k in [*range(12), 2000]:
            assert catalan_number(k) == math.comb(2 * k, k) // (k + 1)

    def test_known_values(self):
        assert [motzkin_number(k) for k in range(8)] == [1, 1, 2, 4, 9, 21, 51, 127]
        assert [catalan_number(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]

    @pytest.mark.parametrize("number", [motzkin_number, catalan_number])
    def test_negative_index(self, number):
        with pytest.raises(ValueError, match="nonnegative"):
            number(-1)
