import itertools
import random

import pytest

from arcdiagrams import (
    BDiagram,
    CapExceeded,
    SizeMismatch,
    TooLarge,
    TooSmall,
    all_bdiagrams,
    all_cyclic_perms,
    arc_set,
    canonical_generator,
    common_generators,
    complete_table,
    count_generators,
    cut_set,
    enumerate_generators,
    generators_oracle,
    parse_bdiagram,
)
from conftest import assert_validated_perms, random_bdiagram, random_cut, run_own_peak

THREE_BLOCKS = "1 2 3 | 4 7 8 | 5 6"
THREE_BLOCKS_GENERATORS = (
    "1 2 3 4 7 8 5 6",
    "1 2 3 4 7 8 6 5",
    "1 2 3 5 6 4 7 8",
    "1 2 3 5 6 8 7 4",
    "1 2 3 6 5 4 7 8",
    "1 2 3 6 5 8 7 4",
    "1 2 3 8 7 4 5 6",
    "1 2 3 8 7 4 6 5",
    "1 4 7 8 5 6 3 2",
    "1 4 7 8 6 5 3 2",
    "1 5 6 4 7 8 3 2",
    "1 5 6 8 7 4 3 2",
    "1 6 5 4 7 8 3 2",
    "1 6 5 8 7 4 3 2",
    "1 8 7 4 5 6 3 2",
    "1 8 7 4 6 5 3 2",
)


class TestCanonicalGenerator:
    def test_already_normalized(self):
        b = parse_bdiagram("1 4 | 2 | 3 6 | 5 8 | 7")
        assert str(canonical_generator(b)) == "1 4 2 3 6 5 8 7"

    def test_tiny(self):
        assert str(canonical_generator(parse_bdiagram("1 2 | 3"))) == "1 2 3"

    def test_rotation(self):
        b = parse_bdiagram("2 1 3 4 | 5 8 7 6")
        assert str(canonical_generator(b)) == "1 3 4 5 8 7 6 2"

    def test_is_a_generator(self):
        for n in range(3, 6):
            for b in all_bdiagrams(n):
                p = canonical_generator(b)
                assert b.arcs() <= arc_set(p).arcs


class TestCount:
    @pytest.mark.parametrize(
        "diagram, expected",
        [
            ("2 3 1 4 | 5 8 7 6", 4),
            ("1 4 | 2 | 3 6 | 5 8 | 7", 192),
            ("1 6 | 2 3 | 4 8 7 | 5", 48),
            (THREE_BLOCKS, 16),
            ("1 2 | 3", 2),
        ],
    )
    def test_golden(self, diagram, expected):
        assert count_generators(parse_bdiagram(diagram)) == expected

    @pytest.mark.parametrize(
        "route", [count_generators, enumerate_generators, complete_table]
    )
    def test_two_vertices(self, route):
        with pytest.raises(TooSmall):
            route(parse_bdiagram("1 | 2"))


class TestEnumerate:
    def test_fig16(self):
        perms = enumerate_generators(parse_bdiagram(THREE_BLOCKS))
        assert tuple(map(str, perms)) == THREE_BLOCKS_GENERATORS

    def test_two_blocks(self):
        perms = enumerate_generators(parse_bdiagram("2 3 1 4 | 5 8 7 6"))
        assert tuple(map(str, perms)) == (
            "1 3 2 5 8 7 6 4",
            "1 3 2 6 7 8 5 4",
            "1 4 5 8 7 6 2 3",
            "1 4 6 7 8 5 2 3",
        )

    def test_tiny(self):
        perms = enumerate_generators(parse_bdiagram("1 2 | 3"))
        assert tuple(map(str, perms)) == ("1 2 3", "1 3 2")

    def test_reverse_closed(self):
        perms = enumerate_generators(parse_bdiagram("1 6 | 2 3 | 4 8 7 | 5"))
        assert len(perms) == 48
        members = set(perms)
        assert all(p.reverse() in members for p in perms)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_generators(parse_bdiagram(THREE_BLOCKS), cap=3)


class TestOracle:
    def test_fig16(self):
        assert generators_oracle(parse_bdiagram(THREE_BLOCKS)) == enumerate_generators(
            parse_bdiagram(THREE_BLOCKS)
        )

    def test_tiny(self):
        assert tuple(map(str, generators_oracle(parse_bdiagram("1 2 | 3")))) == (
            "1 2 3",
            "1 3 2",
        )

    def test_48(self):
        assert len(generators_oracle(parse_bdiagram("1 6 | 2 3 | 4 8 7 | 5"))) == 48

    @pytest.mark.parametrize(
        "blocks",
        ["1 2 3 4 5 6 7 | 8 | 9", "1 2 3 4 5 6 7 8 | 9 | 10"],
        ids=["n9", "n10"],
    )
    def test_scan(self, blocks):
        # all (n-1)! sequences from 1, up to n = 10, the largest the oracle takes
        b = parse_bdiagram(blocks)
        found = generators_oracle(b)
        assert len(found) == count_generators(b) == 4
        assert found == enumerate_generators(b) == complete_table(b)

    def test_too_large(self):
        blocks = "1 2 | " + " | ".join(str(v) for v in range(3, 12))
        with pytest.raises(TooLarge):
            generators_oracle(parse_bdiagram(blocks))

    def test_cap(self):
        b = parse_bdiagram(THREE_BLOCKS)
        with pytest.raises(CapExceeded):
            generators_oracle(b, cap=15)
        assert len(generators_oracle(b, cap=16)) == 16


class TestCompleteTable:
    def test_fig16(self):
        assert complete_table(parse_bdiagram(THREE_BLOCKS)) == enumerate_generators(
            parse_bdiagram(THREE_BLOCKS)
        )

    def test_tiny(self):
        assert len(complete_table(parse_bdiagram("1 2 | 3"))) == 2

    def test_secondary_structure(self):
        assert len(complete_table(parse_bdiagram("1 3 | 2 | 4 8 | 5 6 | 7"))) == 192

    def test_cap(self):
        with pytest.raises(CapExceeded):
            complete_table(parse_bdiagram(THREE_BLOCKS), cap=3)

    def test_deep_refusal_within_budget(self):
        # 3,000 singletons, with a cap past their 2999! completions, run past
        # the recursion limit; a fresh interpreter refuses them in one line,
        # within its own peak RSS
        code, out, err, peak_kib, _ = run_own_peak([
            "-c", "from arcdiagrams.cli import run; run()",
            "generators", "|".join(map(str, range(1, 3001))), "--list",
            "--method", "table", "--cap", "9" * 12_000,
        ])
        assert code == 3 and out == ""
        assert err.startswith("error: input too deep to search") and err.count("\n") == 1
        assert peak_kib < 100 * 1024


class TestTripleAgreement:
    def test_exhaustive_small(self):
        for n in range(3, 6):
            for b in all_bdiagrams(n):
                expected = count_generators(b)
                by_blocks = enumerate_generators(b)
                assert len(by_blocks) == expected
                assert complete_table(b) == by_blocks
                assert generators_oracle(b) == by_blocks

    def test_random_n8(self):
        rng = random.Random(4711)
        for _ in range(25):
            b = random_bdiagram(rng, 8)
            by_blocks = enumerate_generators(b)
            assert complete_table(b) == by_blocks
            assert generators_oracle(b) == by_blocks

    def test_listed_values_equal_validated_perms(self):
        # the routes' walks become permutations without CyclicPerm's checks
        for n in range(3, 8):
            for b in all_bdiagrams(n):
                assert_validated_perms(enumerate_generators(b))
                assert_validated_perms(complete_table(b))
                if n <= 6:
                    assert_validated_perms(generators_oracle(b))

    def test_table_random_beyond_n8(self):
        rng = random.Random(2718)
        checked = with_singletons = 0
        while checked < 40:
            b = random_bdiagram(rng, rng.randint(9, 14))
            if count_generators(b) > 5_000:
                continue
            assert complete_table(b) == enumerate_generators(b), b
            checked += 1
            with_singletons += b.singleton_count > 0
        assert with_singletons >= 10

    def test_recover_diagram(self):
        b = parse_bdiagram(THREE_BLOCKS)
        for p in enumerate_generators(b):
            assert arc_set(p).arcs - cut_set(p, b) == b.arcs()


class TestCommonGenerators:
    def test_fig17(self):
        wide = parse_bdiagram("1 6 | 2 3 | 4 8 7 | 5")
        narrow = parse_bdiagram("3 2 1 6 | 5 4 8 7")
        result = common_generators(wide, narrow)
        assert result.generators == enumerate_generators(narrow)
        assert result.first_in_second and not result.second_in_first

    def test_reflexive(self):
        b = parse_bdiagram(THREE_BLOCKS)
        result = common_generators(b, b)
        assert result.generators == enumerate_generators(b)
        assert result.first_in_second and result.second_in_first

    def test_counterexample_to_only_if(self):
        # overlapping generators without either arc set containing the other
        result = common_generators(parse_bdiagram("1 2 | 3"), parse_bdiagram("2 3 | 1"))
        assert tuple(map(str, result.generators)) == ("1 2 3", "1 3 2")
        assert not result.first_in_second and not result.second_in_first

    def test_subset_direction(self):
        wide = parse_bdiagram("1 6 | 2 3 | 4 8 7 | 5")
        narrow = parse_bdiagram("3 2 1 6 | 5 4 8 7")
        assert set(enumerate_generators(narrow)) <= set(enumerate_generators(wide))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            common_generators(parse_bdiagram("1 2 | 3"), parse_bdiagram("1 2 | 3 | 4"))

    def test_exhaustive_n5_against_universe(self):
        universe = [(p, arc_set(p).arcs) for p in all_cyclic_perms(5)]
        diagrams = list(all_bdiagrams(5))
        for b in diagrams:
            for other in diagrams:
                union = b.arcs() | other.arcs()
                expected = tuple(p for p, arcs in universe if union <= arcs)
                assert common_generators(b, other).generators == expected, (b, other)

    @pytest.mark.parametrize("n", range(6, 9))
    def test_seeded_pairs_against_universe(self, n):
        # half the pairs share a generator by construction, half are independent
        rng = random.Random(n)
        universe = [(p, arc_set(p).arcs) for p in all_cyclic_perms(n)]
        for k in range(100):
            b = random_bdiagram(rng, n)
            if k % 2:
                other = random_bdiagram(rng, n)
            else:
                other = random_cut(rng, rng.choice([p for p, arcs in universe if b.arcs() <= arcs]))
            union = b.arcs() | other.arcs()
            expected = tuple(p for p, arcs in universe if union <= arcs)
            assert common_generators(b, other).generators == expected, (b, other)

    def test_one_walk_values_equal_validated_perms(self):
        # two cuts of p into two paths, sharing at most one cut arc: their
        # union is one spanning path or p's whole cycle, which only p and its
        # reverse contain
        for n in range(3, 7):
            cuts = list(itertools.combinations(range(n), 2))
            for p in all_cyclic_perms(n):
                s = p.seq
                pieces = [BDiagram((s[i:j], s[j:] + s[:i])) for i, j in cuts]
                for (cut, b), (other_cut, other) in itertools.product(zip(cuts, pieces), repeat=2):
                    if len(set(cut) & set(other_cut)) <= 1:
                        shared = common_generators(b, other).generators
                        assert shared == tuple(sorted((p, p.reverse()))), (b, other)
                        assert_validated_perms(shared)

    def test_beyond_ten_vertices(self):
        wide = parse_bdiagram("1 7 | 2 8 | 3 9 | 4 10 | 5 11 | 6 12")
        narrow = parse_bdiagram("1 7 2 8 3 9 | 4 10 5 11 6 12")
        result = common_generators(wide, narrow)
        assert result.generators == enumerate_generators(narrow)
        assert len(result.generators) == 4
        assert result.first_in_second and not result.second_in_first
