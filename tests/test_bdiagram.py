import collections
import itertools
import math
import random
import time

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from arcdiagrams import (
    AlreadyPresent,
    BDiagram,
    BlockTooLong,
    DegreeExceeded,
    EmptyBlock,
    InvalidReason,
    NotAGenerator,
    NotAPermutation,
    NotPresent,
    NotRepresentable,
    OutOfRange,
    WouldCycle,
    add_arc,
    all_bdiagrams,
    arc_text,
    block_word,
    classify_bdiagram,
    complement,
    cut_set,
    degree_vector,
    max_crossing,
    motzkin_number,
    parse_bdiagram,
    parse_perm,
    remove_arc,
    transpose_labels,
    validate_block_word,
)
from arcdiagrams.bdiagram import _blocks_from_arcs, _feasibility_table
from arcdiagrams.cli import main
from conftest import (
    BLOCK_STEPS,
    add_arc_reference,
    arc_graph_shape,
    arc_subsets,
    block_word_screen,
    counter_block_word,
    crossing_brute_force,
    crossing_chain_dp,
    crossing_patience_reference,
    feasibility_table_reference,
    first_realization_reference,
    generated_bdiagrams,
    nesting_reference,
    random_bdiagram,
    remove_arc_reference,
    run_own_peak,
    scan_bclassification,
)

BRAID = "3 1 6 | 2 7 8 | 4 5"
SPARSE = "1 3 | 2 | 4 8 | 5 6 | 7"
SIGMA = "1 3 2 7 8 4 5 6"


def matchings(points, partial=False):
    """Every matching of ``points`` as 2-vertex blocks, and if ``partial`` each
    unmatched point as a block of its own."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    if partial:
        for tail in matchings(rest, partial):
            yield ((first,), *tail)
    for t, partner in enumerate(rest):
        for tail in matchings(rest[:t] + rest[t + 1 :], partial):
            yield ((first, partner), *tail)


class TestParse:
    def test_braid(self):
        b = parse_bdiagram(BRAID)
        assert b.block_count == 3
        assert b.arcs() == {(1, 3), (1, 6), (2, 7), (7, 8), (4, 5)}
        assert not b.isolated()

    def test_secondary_structure(self):
        b = parse_bdiagram(SPARSE)
        assert (b.block_count, b.singleton_count) == (5, 2)
        assert b.arcs() == {(1, 3), (4, 8), (5, 6)}
        assert b.isolated() == {2, 7}
        assert b.arc_notation() == "{13,2,48,56,7}"

    def test_full_block_rejected(self):
        with pytest.raises(BlockTooLong):
            parse_bdiagram("1 2 3 4")

    def test_empty_block(self):
        with pytest.raises(EmptyBlock):
            parse_bdiagram("1 2 ||3")
        with pytest.raises(EmptyBlock):
            parse_bdiagram("")
        with pytest.raises(EmptyBlock, match="blocks must be nonempty"):
            BDiagram(())

    def test_not_a_permutation(self):
        with pytest.raises(NotAPermutation):
            parse_bdiagram("1 2 | 2 3")
        with pytest.raises(NotAPermutation):
            parse_bdiagram("1 2 | x")

    def test_str_round_trip(self):
        assert str(parse_bdiagram(BRAID)) == BRAID

    def test_normalized(self):
        b = parse_bdiagram("6 1 3 | 5 4 | 2")
        assert str(b.normalized()) == "3 1 6 | 2 | 4 5"


class TestClassify:
    def test_braid(self):
        cls = classify_bdiagram(parse_bdiagram(BRAID))
        assert cls.R == {1}
        assert cls.A == {2, 4}
        assert cls.Abar == {3, 5, 6, 8}
        assert cls.K == {7}
        assert not cls.Rbar and not cls.L

    def test_secondary_structure(self):
        cls = classify_bdiagram(parse_bdiagram(SPARSE))
        assert cls.A == {1, 4, 5}
        assert cls.Abar == {3, 6, 8}
        assert cls.L == {2, 7}
        assert not cls.R and not cls.Rbar and not cls.K

    def test_tiny(self):
        cls = classify_bdiagram(parse_bdiagram("1 2 | 3"))
        assert (cls.A, cls.Abar, cls.L) == ({1}, {2}, {3})


class TestBlockWord:
    @pytest.mark.parametrize(
        "diagram, word",
        [
            (BRAID, "raAaAAkA"),
            (SPARSE, "aeAaaAeA"),
            ("1 2 | 3", "aAe"),
        ],
    )
    def test_golden(self, diagram, word):
        assert block_word(parse_bdiagram(diagram)) == word

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_counter_readers(self, n):
        # the word off the one (opens, closes) table against two counters,
        # and the class sets against one scan of that word per letter
        for b in all_bdiagrams(n):
            assert block_word(b) == counter_block_word(b)
            assert classify_bdiagram(b) == scan_bclassification(b)

    def test_balance_invariant(self):
        for n in range(2, 7):
            for b in all_bdiagrams(n):
                cls = classify_bdiagram(b)
                assert len(cls.A) + 2 * len(cls.R) == len(cls.Abar) + 2 * len(cls.Rbar)
                assert sum(degree_vector(block_word(b))) == 0


class TestValidateBlockWord:
    def test_realizable(self):
        result = validate_block_word("rarARAA")
        assert result.ok
        assert block_word(result.witness) == "rarARAA"
        assert str(result.witness) == "2 5 1 4 | 6 3 7"

    def test_negative_prefix(self):
        result = validate_block_word("RAkear")
        assert not result.ok and result.reason is InvalidReason.NEGATIVE_PREFIX

    def test_unrealizable_cycle(self):
        result = validate_block_word("rkR")
        assert not result.ok and result.reason is InvalidReason.UNREALIZABLE

    def test_unrealizable_full_path(self):
        # n vertices and m arcs of a forest make n - m components, so a word
        # that passes every screen with n - m < 2 has no b-diagram
        for word in ("akA", "aA", "e", "rAA", "a" + "k" * 50 + "A"):
            result = validate_block_word(word)
            assert not result.ok and result.reason is InvalidReason.UNREALIZABLE

    def test_bad_endpoints(self):
        for word in ("kaA", "aAk"):
            result = validate_block_word(word)
            assert not result.ok and result.reason is InvalidReason.BAD_ENDPOINTS

    def test_nonzero_total(self):
        result = validate_block_word("aa")
        assert not result.ok and result.reason is InvalidReason.NONZERO_TOTAL

    def test_valley_needs_open_arc(self):
        # degree prefixes stay nonnegative but the k letter has nothing to land on
        result = validate_block_word("aAkaA")
        assert not result.ok and result.reason is InvalidReason.NEGATIVE_PREFIX

    def test_isolated_endpoints_are_fine(self):
        assert str(validate_block_word("eaA").witness) == "1 | 2 3"
        assert str(validate_block_word("aAe").witness) == "1 2 | 3"
        assert str(validate_block_word("ee").witness) == "1 | 2"

    def test_every_diagram_word_validates(self):
        for n in range(2, 6):
            for b in all_bdiagrams(n):
                result = validate_block_word(block_word(b))
                assert result.ok
                assert block_word(result.witness) == block_word(b)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_verdict_matches_diagram_words(self, n):
        # the reason is the first failed screen, or Unrealizable after all pass
        words = {block_word(b) for b in all_bdiagrams(n)}
        for word in map("".join, itertools.product("aAekrR", repeat=n)):
            result = validate_block_word(word)
            assert result.ok == (word in words), word
            if result.ok:
                assert block_word(result.witness) == word
            else:
                reason = block_word_screen(word) or InvalidReason.UNREALIZABLE
                assert result.reason is reason, word

    def test_witness_is_first_realization(self):
        # the sweep takes the match a plain backtracking search takes first; the
        # random words, n = 8..13, are needed, as a rule taking other R pairs can
        # agree on every word of up to 7 letters
        rng = random.Random(29)
        short = (
            "".join(letters)
            for n in range(1, 8)
            for letters in itertools.product("aAekrR", repeat=n)
        )
        drawn = (block_word(random_bdiagram(rng, rng.randint(8, 13))) for _ in range(2000))
        checked = 0
        for word in itertools.chain(short, drawn):
            result = validate_block_word(word)
            if result.ok:
                assert result.witness.arcs() == first_realization_reference(word), word
                checked += 1
        assert checked == 4125 + 2000


# reads one word a line; prints the seconds each takes
ARGV_LENGTH_CHILD = """
import sys, time
from arcdiagrams import block_word, validate_block_word
for word in sys.stdin.read().split():
    start = time.perf_counter()
    result = validate_block_word(word)
    print(time.perf_counter() - start)
    assert result.ok and block_word(result.witness) == word
"""


class TestRealizationScale:
    """Words that once sent the realization search into a hang or a crash."""

    def test_deep_dead_end_is_fast(self):
        start = time.perf_counter()
        result = validate_block_word("rrkkearrARaRArRReAAeaArR")
        elapsed = time.perf_counter() - start
        assert result.reason is InvalidReason.UNREALIZABLE
        assert elapsed < 1.0

    def test_long_word_valid(self):
        result = validate_block_word("aA" * 600)
        assert result.ok and block_word(result.witness) == "aA" * 600

    def test_long_word_with_cycle(self):
        result = validate_block_word("aA" * 600 + "rkR")
        assert result.reason is InvalidReason.UNREALIZABLE

    def test_long_word_cli(self, capsys):
        code = main(["validate-word", "aA" * 600])
        captured = capsys.readouterr()
        assert code == 0 and captured.out.startswith("Valid")
        assert "Traceback" not in captured.err

    def test_argv_scale_word(self):
        # 32,000 letters: a quarter of the longest single command-line argument
        word = "a" * 16_000 + "A" * 16_000
        start = time.perf_counter()
        result = validate_block_word(word)
        elapsed = time.perf_counter() - start
        assert result.ok and block_word(result.witness) == word
        assert elapsed < 5.0

    def test_argv_length_words(self):
        # 131,070 letters or near it, the longest single command-line
        # argument; a fresh interpreter times each word, within its own peak RSS
        words = [
            "a" * 65_535 + "A" * 65_535,
            "r" * 43_690 + "A" * 87_380,
            "a" * 32_767 + "r" * 32_767 + "R" * 32_767 + "A" * 32_767,
            block_word(random_bdiagram(random.Random(17), 131_070)),
        ]
        code, out, err, peak_kib, _ = run_own_peak(["-c", ARGV_LENGTH_CHILD], "\n".join(words))
        assert code == 0, err
        elapsed = list(map(float, out.split()))
        assert len(elapsed) == len(words)
        assert max(elapsed) < 5.0, elapsed
        assert peak_kib < 200 * 1024


class TestFeasibilityTable:
    """The bounds read off bdiagram.MOVES against bit masks from one hand-written
    branch per letter that also counts finished components f, up to 2.  Its
    f = 2 column must be the run of bits 0..bound.  On a balanced word its
    f = 0 and f = 1 columns must keep, of that run, the t2 that end with at
    least two components: f + (s - t2) + (n - i) - C_i, where C_i counts the
    arcs that letters i+1..n close."""

    @staticmethod
    def assert_matches(word):
        n = len(word)
        prefix = list(itertools.accumulate(degree_vector(word), initial=0))
        closed = [sum(BLOCK_STEPS[c].count(-1) for c in word[i:]) for i in range(n + 1)]
        table = _feasibility_table(word, prefix)
        for i, masks in enumerate(feasibility_table_reference(word, prefix)):
            assert masks[2] == (1 << table[i] + 1) - 1, (word, i)
            if prefix[-1]:
                continue
            for f in (0, 1):
                ends = (f + prefix[i] - t2 + n - i - closed[i] for t2 in range(table[i] + 1))
                assert masks[f] == sum(1 << t2 for t2, c in enumerate(ends) if c >= 2), (word, i, f)

    def test_every_short_word(self):
        # every word of 1..6 letters with no negative degree prefix
        for n in range(1, 7):
            for letters in itertools.product("aAekrR", repeat=n):
                word = "".join(letters)
                if min(itertools.accumulate(degree_vector(word))) >= 0:
                    self.assert_matches(word)

    def test_random_long_words(self):
        rng = random.Random(16)
        degree = dict(zip("aAekrR", (1, -1, 0, 0, 2, -2)))
        for _ in range(2_000):
            letters, height = [], 0
            for _ in range(rng.randint(1, 60)):
                letter = rng.choice([c for c in "aAekrR" if height + degree[c] >= 0])
                height += degree[letter]
                letters.append(letter)
            self.assert_matches("".join(letters))


@st.composite
def bdiagrams(draw, max_n=40):
    """Shuffled labels on up to ``max_n`` vertices cut into at least two blocks."""
    n = draw(st.integers(2, max_n))
    labels = draw(st.permutations(range(1, n + 1)))
    cuts = draw(st.sets(st.integers(1, n - 1), min_size=1))
    bounds = [0, *sorted(cuts), n]
    return BDiagram(tuple(tuple(labels[i:j]) for i, j in zip(bounds, bounds[1:])))


class TestRealizationProperties:
    @settings(derandomize=True, deadline=None)
    @given(bdiagrams())
    def test_word_realizes_itself(self, b):
        word = block_word(b)
        result = validate_block_word(word)
        assert result.ok and block_word(result.witness) == word

    @settings(derandomize=True, deadline=None)
    @given(bdiagrams())
    def test_appended_rkR_closes_a_cycle(self, b):
        # no arc of the prefix reaches the last three vertices, so r, k and
        # R can only be joined to each other: three arcs on three vertices
        result = validate_block_word(block_word(b) + "rkR")
        assert result.reason is InvalidReason.UNREALIZABLE


class TestValueProperties:
    def test_list_input_equals_tuple_input(self):
        b, c = BDiagram([[1, 2], [3]]), BDiagram(((1, 2), (3,)))
        assert b == c and hash(b) == hash(c) and b.blocks == ((1, 2), (3,))

    @settings(derandomize=True, deadline=None)
    @given(bdiagrams(max_n=30))
    def test_parse_str_round_trip_equal_and_hash_alike(self, b):
        again = parse_bdiagram(str(b))
        assert again is not b and again == b and hash(again) == hash(b)

    @settings(derandomize=True, deadline=None)
    @given(bdiagrams(max_n=30), st.data())
    def test_remove_then_add_restores_normalized(self, b, data):
        arcs = sorted(b.arcs())
        assume(arcs)
        arc = data.draw(st.sampled_from(arcs))
        assert add_arc(remove_arc(b, arc), arc).normalized() == b.normalized()

    @settings(derandomize=True, deadline=None)
    @given(generated_bdiagrams(max_n=30))
    def test_complement_twice_normalizes(self, generated):
        p, b = generated
        try:
            once = complement(p, b)
        except NotRepresentable:
            reject()  # the cut set is a cycle or one path through every vertex
        assert complement(p, once) == b.normalized()


class TestCutSet:
    def test_braid(self):
        c = cut_set(parse_perm(SIGMA), parse_bdiagram(BRAID))
        assert c == {(2, 3), (4, 8), (5, 6)}
        assert len(c) == 3

    def test_secondary_structure(self):
        c = cut_set(parse_perm(SIGMA), parse_bdiagram(SPARSE))
        assert arc_text(c) == "{16,23,27,45,78}"
        assert len(c) == 5

    def test_triangle(self):
        c = cut_set(parse_perm("1 2 3"), parse_bdiagram("1 2 | 3"))
        assert c == {(1, 3), (2, 3)}

    def test_not_a_generator(self):
        with pytest.raises(NotAGenerator):
            cut_set(parse_perm("1 2 3 4"), parse_bdiagram("2 4 | 1 | 3"))
        with pytest.raises(NotAGenerator):
            cut_set(parse_perm("1 2 3"), parse_bdiagram("1 2 | 3 4"))

    def test_size_is_block_count(self):
        from arcdiagrams import enumerate_generators

        for n in range(3, 6):
            for b in all_bdiagrams(n):
                for p in enumerate_generators(b):
                    assert len(cut_set(p, b)) == b.block_count


class TestBlocksFromArcs:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_exhaustive_against_union_find(self, n):
        for arcs in arc_subsets(n):
            degrees, has_cycle, components = arc_graph_shape(n, arcs)
            representable = max(degrees) <= 2 and not has_cycle and components > 1
            try:
                b = _blocks_from_arcs(n, arcs)
            except NotRepresentable:
                assert not representable, arcs
            else:
                assert representable, arcs
                assert b.arcs() == arcs and b == b.normalized()


class TestComplement:
    def test_golden(self):
        result = complement(
            parse_perm("1 2 3 8 7 5 4 6"), parse_bdiagram("1 6 4 | 2 3 8 | 5 7")
        )
        assert str(result) == "1 2 | 3 | 4 5 | 6 | 7 8"
        assert result.arc_notation() == "{12,3,45,6,78}"

    def test_involution(self):
        p = parse_perm("1 2 3 8 7 5 4 6")
        b = parse_bdiagram("1 6 4 | 2 3 8 | 5 7").normalized()
        assert complement(p, complement(p, b)) == b

    def test_degenerate_path(self):
        with pytest.raises(NotRepresentable):
            complement(parse_perm("1 2 3"), parse_bdiagram("1 2 | 3"))

    def test_degenerate_cycle(self):
        with pytest.raises(NotRepresentable):
            complement(parse_perm("1 2 3"), parse_bdiagram("1 | 2 | 3"))


class TestMaxCrossing:
    def test_crossing_triple(self):
        assert max_crossing(parse_bdiagram("1 2 | 3 6 | 4 7 | 5 8")) == 3

    def test_nested(self):
        assert max_crossing(parse_bdiagram("1 8 | 2 7 | 3 6 | 4 5")) == 1

    def test_single_crossing(self):
        assert max_crossing(parse_bdiagram("1 3 | 2 4")) == 2

    def test_no_arcs(self):
        assert max_crossing(parse_bdiagram("1 | 2 | 3")) == 0

    def test_brute_force_exhaustive(self):
        for n in range(2, 7):
            for b in all_bdiagrams(n):
                assert max_crossing(b) == crossing_brute_force(b)

    def test_brute_force_random(self):
        rng = random.Random(20240817)
        for n in (7, 8):
            for _ in range(150):
                b = random_bdiagram(rng, n)
                assert max_crossing(b) == crossing_brute_force(b)

    def test_chain_dp_random(self):
        rng = random.Random(8128)
        for n in range(9, 61):
            for _ in range(4):
                b = random_bdiagram(rng, n)
                assert max_crossing(b) == crossing_chain_dp(b), b

    def test_patience_reference_exhaustive(self):
        # the early stop at a boundary count no larger than the best family
        for n in range(2, 8):
            for b in all_bdiagrams(n):
                assert max_crossing(b) == crossing_patience_reference(b), b

    def test_patience_reference_random(self):
        rng = random.Random(4000)
        diagrams = [random_bdiagram(rng, n) for n in (50, 200, 1000, 2000) for _ in range(2)]
        for m in (10, 300):  # random matchings: many crossings
            labels = list(range(1, 2 * m + 1))
            rng.shuffle(labels)
            diagrams.append(BDiagram(tuple(zip(labels[::2], labels[1::2]))))
        for m in (40, 500):  # m mutually crossing arcs, then m nested ones
            diagrams.append(BDiagram(tuple((i, i + m) for i in range(1, m + 1))))
            diagrams.append(BDiagram(tuple((i, 2 * m + 1 - i) for i in range(1, m + 1))))
        for b in diagrams:
            assert max_crossing(b) == crossing_patience_reference(b), b.n

    @pytest.mark.parametrize("m", range(2, 7))
    def test_perfect_matching_closed_forms(self, m):
        # every perfect matching of 2m points as m 2-vertex blocks, (2m - 1)!! of them
        joint = collections.Counter()
        for blocks in matchings(tuple(range(1, 2 * m + 1))):
            b = BDiagram(blocks)
            joint[max_crossing(b), nesting_reference(b)] += 1
        assert joint.total() == math.prod(range(1, 2 * m, 2))
        catalan = [math.comb(2 * k, k) // (k + 1) for k in range(m + 3)]

        def crossing_at_most(k):
            return sum(count for (crossing, _), count in joint.items() if crossing <= k)

        # noncrossing matchings: Catalan(m)
        assert crossing_at_most(1) == catalan[m]
        # no three mutually crossing arcs: C(m) C(m+2) - C(m+1)^2 (Gouyou-Beauchamps 1989)
        assert crossing_at_most(2) == catalan[m] * catalan[m + 2] - catalan[m + 1] ** 2
        # crossings and nestings are distributed symmetrically (Chen et al. 2007); on
        # b-diagrams in general they are not
        assert joint == collections.Counter({(ne, cr): c for (cr, ne), c in joint.items()})

    def test_partial_matching_oracles(self):
        # every partial matching of [n], its pairs and singletons the blocks; a
        # noncrossing one with no arc (i, i + 1) is an RNA secondary structure
        counts = []
        for n in range(3, 11):
            seen = [
                (max_crossing(BDiagram(blocks)), any(b[-1] - b[0] == 1 for b in blocks))
                for blocks in matchings(tuple(range(1, n + 1)), partial=True)
            ]
            counts.append((
                len(seen),
                sum(crossing <= 1 for crossing, _ in seen),
                sum(crossing <= 1 and not hairpin for crossing, hairpin in seen),
                sum(crossing <= 2 for crossing, _ in seen),
            ))
        every, noncrossing, secondary, two_noncrossing = map(list, zip(*counts))
        # the involution numbers
        assert every == [4, 10, 26, 76, 232, 764, 2620, 9496]
        assert noncrossing == [motzkin_number(n) for n in range(3, 11)]
        assert noncrossing == [4, 9, 21, 51, 127, 323, 835, 2188]
        # Waterman, "Secondary structure of single-stranded nucleic acids" (1978)
        assert secondary == [2, 4, 8, 17, 37, 82, 185, 423]
        assert two_noncrossing == [4, 10, 26, 75, 225, 715, 2347, 7990]


class TestEdits:
    def test_add_simple(self):
        assert str(add_arc(parse_bdiagram("1 2 | 3 | 4"), (3, 4))) == "1 2 | 3 4"

    def test_add_merges_paths(self):
        assert str(add_arc(parse_bdiagram("1 2 | 3 4 | 5"), (1, 3))) == "2 1 3 4 | 5"

    def test_add_would_fill(self):
        with pytest.raises(NotRepresentable):
            add_arc(parse_bdiagram("1 2 | 3"), (2, 3))

    def test_add_degree(self):
        with pytest.raises(DegreeExceeded):
            add_arc(parse_bdiagram("1 2 3 | 4"), (2, 4))

    def test_add_cycle(self):
        with pytest.raises(WouldCycle):
            add_arc(parse_bdiagram("1 2 3 | 4"), (1, 3))
        with pytest.raises(WouldCycle):
            add_arc(parse_bdiagram("1 2 | 3 | 4"), (3, 3))

    def test_add_present(self):
        with pytest.raises(AlreadyPresent):
            add_arc(parse_bdiagram("1 2 | 3"), (1, 2))

    def test_add_out_of_range(self):
        with pytest.raises(OutOfRange):
            add_arc(parse_bdiagram("1 2 | 3"), (0, 2))

    def test_remove_splits(self):
        assert str(remove_arc(parse_bdiagram("2 1 3 4 | 5"), (1, 3))) == "1 2 | 3 4 | 5"

    def test_remove_from_braid(self):
        assert str(remove_arc(parse_bdiagram(BRAID), (7, 8))) == "3 1 6 | 2 7 | 8 | 4 5"

    def test_remove_missing(self):
        with pytest.raises(NotPresent):
            remove_arc(parse_bdiagram(BRAID), (1, 2))

    def test_add_remove_inverse(self):
        rng = random.Random(99)
        for _ in range(60):
            b = random_bdiagram(rng, 7)
            arcs = sorted(b.arcs())
            if not arcs:
                continue
            arc = arcs[rng.randrange(len(arcs))]
            again = add_arc(remove_arc(b, arc), arc)
            assert again.normalized() == b.normalized()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_exhaustive_against_references(self, n):
        # every diagram as listed, with its blocks in reverse order and with
        # every block reversed, against every arc with ends in -1..n+1
        def outcome(edit, b, arc):
            try:
                return repr(edit(b, arc))
            except Exception as exc:
                return type(exc), str(exc)

        ends = range(-1, n + 2)
        for b in all_bdiagrams(n):
            for v in (b, BDiagram(b.blocks[::-1]), BDiagram(tuple(x[::-1] for x in b.blocks))):
                for arc in itertools.product(ends, ends):
                    assert outcome(add_arc, v, arc) == outcome(add_arc_reference, v, arc), arc
                    assert outcome(remove_arc, v, arc) == outcome(remove_arc_reference, v, arc)

    def test_transpose(self):
        assert str(transpose_labels(parse_bdiagram("1 2 | 3"), 2, 3)) == "1 3 | 2"

    def test_transpose_identity(self):
        b = parse_bdiagram(BRAID)
        assert transpose_labels(b, 4, 4) == b
        assert transpose_labels(transpose_labels(b, 2, 5), 2, 5) == b

    def test_transpose_out_of_range(self):
        with pytest.raises(OutOfRange):
            transpose_labels(parse_bdiagram("1 2 | 3"), 1, 9)


class TestEnumerateAll:
    def test_counts(self):
        for n in (-1, 0, 1):  # fewer than two vertices allow no two blocks
            assert sum(1 for _ in all_bdiagrams(n)) == 0
        assert sum(1 for _ in all_bdiagrams(2)) == 1
        assert sum(1 for _ in all_bdiagrams(3)) == 4
        assert sum(1 for _ in all_bdiagrams(4)) == 22
        assert sum(1 for _ in all_bdiagrams(5)) == 146

    def test_distinct_and_normalized(self):
        seen = set(all_bdiagrams(4))
        assert len(seen) == 22
        for b in seen:
            assert b == b.normalized()
