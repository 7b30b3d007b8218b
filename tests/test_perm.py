import copy
import pickle
import sys
from math import factorial

import pytest
from hypothesis import given, settings

from arcdiagrams import (
    Classification,
    CycleDiagram,
    CyclicPerm,
    Listing,
    NotAPermutation,
    NotNormalized,
    NotRepresentable,
    TooSmall,
    all_cyclic_perms,
    arc_set,
    arc_text,
    classify,
    cycle_word,
    parse_perm,
)
from arcdiagrams.perm import as_row, sorted_perms, spanning_cycle, trace_paths
from arcdiagrams.words import word_of_classes
from conftest import (
    arc_graph_shape,
    arc_subsets,
    classification_oracle,
    cycle_diagram_check_reference,
    cyclic_perms,
    opening_count_word,
    trace_components_reference,
    value_class_word,
)


def outcome(check, *args):
    """``("ok", result)`` or ``("ValueError", message)`` for one call."""
    try:
        return "ok", check(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


class TestParse:
    def test_golden(self):
        assert parse_perm("1 3 2 7 8 4 5 6").seq == (1, 3, 2, 7, 8, 4, 5, 6)

    def test_smallest(self):
        assert parse_perm("1 2 3").seq == (1, 2, 3)

    def test_duplicate(self):
        with pytest.raises(NotAPermutation):
            parse_perm("1 3 2 2")
        with pytest.raises(NotAPermutation):
            CyclicPerm((1, 2, 2))

    def test_missing_value(self):
        with pytest.raises(NotAPermutation):
            parse_perm("1 3 5")
        with pytest.raises(NotAPermutation):
            CyclicPerm((1, 2, 4))

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            parse_perm("2 1 3")

    def test_too_small(self):
        with pytest.raises(TooSmall):
            parse_perm("1 2")

    def test_garbage(self):
        with pytest.raises(NotAPermutation):
            parse_perm("1 x 2")
        with pytest.raises(NotAPermutation):
            parse_perm("")

    def test_str_round_trip(self):
        text = "1 3 2 7 8 4 5 6"
        assert str(parse_perm(text)) == text

    @settings(derandomize=True, deadline=None)
    @given(cyclic_perms(max_n=30))
    def test_parse_str_round_trip_equal_and_hash_alike(self, p):
        again = parse_perm(str(p))
        assert again is not p and again == p and hash(again) == hash(p)

    def test_list_input_equals_tuple_input(self):
        p, q = CyclicPerm([1, 3, 2]), CyclicPerm((1, 3, 2))
        assert p == q and hash(p) == hash(q) and p.seq == (1, 3, 2)

    def test_cyclic_indexing(self):
        p = parse_perm("1 3 2")
        assert p.at(1) == p.at(4) == p.at(-2) == 1
        assert p.at(0) == p.at(3) == 2
        assert [p.position_of(v) for v in (1, 2, 3)] == [1, 3, 2]


class TestReverse:
    @pytest.mark.parametrize(
        "perm, expected",
        [
            ("1 3 2 7 8 4 5 6", "1 6 5 4 8 7 2 3"),
            ("1 2 3", "1 3 2"),
            ("1 4 2 3", "1 3 2 4"),
        ],
    )
    def test_golden(self, perm, expected):
        assert str(parse_perm(perm).reverse()) == expected

    def test_involution_and_same_diagram(self):
        for n in range(3, 9):
            for p in all_cyclic_perms(n):
                assert p.reverse().reverse() == p
                assert arc_set(p.reverse()) == arc_set(p)


class TestArcSet:
    def test_golden(self):
        d = arc_set(parse_perm("1 3 2 7 8 4 5 6"))
        assert d.sorted_arcs() == (
            (1, 3), (1, 6), (2, 3), (2, 7), (4, 5), (4, 8), (5, 6), (7, 8),
        )
        assert str(d) == "{13,16,23,27,45,48,56,78}"

    def test_triangle(self):
        assert arc_set(parse_perm("1 2 3")).arcs == {(1, 2), (1, 3), (2, 3)}

    def test_derived_walk(self):
        d = arc_set(parse_perm("1 2 3 8 7 5 4 6"))
        assert d.sorted_arcs() == (
            (1, 2), (1, 6), (2, 3), (3, 8), (4, 5), (4, 6), (5, 7), (7, 8),
        )

    def test_closing_arc_present(self):
        # the wrap-around pair (last entry, 1) must be an arc
        assert (1, 6) in arc_set(parse_perm("1 3 2 7 8 4 5 6")).arcs

    def test_exhaustive_adjacent_pairs(self):
        for n in range(3, 9):
            for p in all_cyclic_perms(n):
                seq = p.seq
                pairs = {tuple(sorted((seq[i - 1], seq[i]))) for i in range(n)}
                assert arc_set(p).arcs == pairs

    def test_exhaustive_equals_validated_diagram(self):
        # arc_set skips the spanning-cycle walk of CycleDiagram.__init__
        for n in range(3, 9):
            for p in all_cyclic_perms(n):
                d = arc_set(p)
                validated = CycleDiagram(p.n, d.arcs)
                assert d == validated and hash(d) == hash(validated)

    @given(cyclic_perms(max_n=30))
    def test_equals_validated_diagram(self, p):
        d = arc_set(p)
        validated = CycleDiagram(p.n, d.arcs)
        assert d == validated and hash(d) == hash(validated)


class TestCycleDiagramValidation:
    def test_wrong_count(self):
        with pytest.raises(ValueError):
            CycleDiagram(4, frozenset({(1, 2), (2, 3), (3, 4)}))

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            CycleDiagram(4, frozenset({(1, 2), (1, 3), (1, 4), (2, 3)}))

    def test_disconnected(self):
        two_triangles = frozenset(
            {(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)}
        )
        with pytest.raises(ValueError):
            CycleDiagram(6, two_triangles)

    @pytest.mark.parametrize(
        "n, arcs, message",
        [
            (4, {(1, 2), (2, 3), (3, 4)}, "expected 4 arcs, got 3"),
            (3, {(1, 2), (2, 3), (3, 4)}, "bad arc (3, 4) for n=3"),
            (4, {(1, 2), (1, 3), (1, 4), (2, 3)}, "a vertex meets more than two arcs"),
            (
                6,
                {(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)},
                "arcs do not form a single spanning cycle",
            ),
        ],
    )
    def test_rejection_message(self, n, arcs, message):
        with pytest.raises(ValueError) as caught:
            CycleDiagram(n, frozenset(arcs))
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "n, size",
        [
            (10**30 - 1, "9" * 30),
            (10**30, "a 31-digit number of"),
            (10**40, "a 41-digit number of"),
            (-(10**40), "a 41-digit negative number of"),
        ],
        ids=["30-digits", "31-digits", "41-digits", "41-digits-negative"],
    )
    def test_count_message_gives_a_huge_n_by_its_digits(self, n, size):
        with pytest.raises(ValueError) as caught:
            CycleDiagram(n, frozenset())
        assert str(caught.value) == f"expected {size} arcs, got 0"

    @pytest.mark.parametrize("n", range(2, 7))
    def test_accepts_exactly_spanning_cycles(self, n):
        for arcs in arc_subsets(n):
            degrees, _, components = arc_graph_shape(n, arcs)
            try:
                CycleDiagram(n, arcs)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == (components == 1 and set(degrees) == {2}), arcs


class TestNeighbourTable:
    """The walkers over the flat neighbour table against the list-based ones."""

    @staticmethod
    def paths_reference(n, arcs):
        """The reference components' walks, refused if one is a cycle."""
        components = trace_components_reference(n, arcs)
        if any(is_cycle for _, is_cycle in components):
            raise NotRepresentable("arcs contain a cycle")
        return [walk for walk, _ in components]

    @pytest.mark.parametrize("n", range(0, 7))
    def test_trace_components_matches_reference(self, n):
        # the path walker against the reference walker over all components
        for arcs in arc_subsets(n):
            expected = outcome(self.paths_reference, n, arcs)
            assert outcome(trace_paths, n, arcs) == expected, arcs

    @pytest.mark.parametrize("n", range(0, 7))
    def test_spanning_cycle_matches_reference(self, n):
        accepted = 0
        for arcs in arc_subsets(n):
            kind, result = outcome(spanning_cycle, n, arcs)
            if kind == "ok":
                accepted += 1
                assert [(result, True)] == trace_components_reference(n, arcs), arcs
                result = None  # the reference check returns nothing
            assert (kind, result) == outcome(cycle_diagram_check_reference, n, arcs), arcs
        assert accepted == (factorial(n - 1) // 2 if n >= 3 else 0)

    def test_spanning_cycle_walks_towards_smaller_neighbour(self):
        arcs = frozenset({(1, 3), (2, 3), (2, 4), (1, 4)})
        assert spanning_cycle(4, arcs) == (1, 3, 2, 4)

    def test_vertices_cache_with_alternating_sizes(self):
        for _ in range(3):
            for n in (3, 12, 4, 11, 5, 10, 6, 9, 7, 8, 13, 3):
                assert CyclicPerm(tuple(range(1, n + 1))).n == n
                with pytest.raises(NotAPermutation):
                    CyclicPerm((1,) + tuple(range(3, n + 2)))


class TestClassify:
    def test_golden_mixed(self):
        cls = classify(arc_set(parse_perm("1 3 2 7 8 4 5 6")))
        assert sorted(cls.R) == [1, 2, 4]
        assert sorted(cls.Rbar) == [3, 6, 8]
        assert sorted(cls.K) == [5, 7]

    def test_golden_keratoid_free(self):
        cls = classify(arc_set(parse_perm("1 3 2 7 5 6 4 8")))
        assert sorted(cls.R) == [1, 2, 4, 5]
        assert sorted(cls.Rbar) == [3, 6, 7, 8]
        assert not cls.K

    def test_triangle(self):
        cls = classify(arc_set(parse_perm("1 2 3")))
        assert (sorted(cls.R), sorted(cls.Rbar), sorted(cls.K)) == ([1], [3], [2])

    def test_exhaustive_invariants(self):
        for n in range(3, 9):
            for p in all_cyclic_perms(n):
                cls = classify(arc_set(p))
                assert len(cls.R) == len(cls.Rbar)
                assert 2 * len(cls.R) + len(cls.K) == n
                assert 1 in cls.R
                assert n in cls.Rbar

    def test_against_value_oracle(self):
        # independent route: compare entries with their cyclic neighbours
        for n in range(3, 9):
            for p in all_cyclic_perms(n):
                cls = classify(arc_set(p))
                word = "".join(
                    "r" if v in cls.R else "R" if v in cls.Rbar else "k"
                    for v in range(1, n + 1)
                )
                assert word == cycle_word(p) == value_class_word(p.seq)

    @staticmethod
    def check_against_frozenset_pipeline(p):
        # the word read off the arc set against the classes built as
        # frozensets, then spelled
        diagram = arc_set(p)
        cls = classification_oracle(diagram)
        assert classify(diagram) == cls
        assert cycle_word(p) == opening_count_word(diagram) == word_of_classes(cls)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_word_read_off_matches_frozenset_pipeline(self, n):
        for p in all_cyclic_perms(n):
            self.check_against_frozenset_pipeline(p)

    @settings(derandomize=True, deadline=None)
    @given(cyclic_perms(30))
    def test_word_read_off_matches_frozenset_pipeline_large(self, p):
        self.check_against_frozenset_pipeline(p)
        assert cycle_word(p) == value_class_word(p.seq)


class TestClassificationValidation:
    def test_accepts_partition(self):
        cls = Classification(frozenset({1}), frozenset({3}), frozenset({2}))
        assert cls.n == 3

    @pytest.mark.parametrize(
        "R, Rbar, K",
        [
            ({1}, {1}, {2}),  # overlapping classes
            ({1, 2}, {2, 4}, set()),  # overlapping classes
            ({1}, {3}, {4}),  # vertex 2 missing
            ({1, 2}, {4}, {3}),  # |R| != |Rbar|
        ],
    )
    def test_rejects(self, R, Rbar, K):
        with pytest.raises(ValueError):
            Classification(frozenset(R), frozenset(Rbar), frozenset(K))


class TestEnumeration:
    def test_count(self):
        assert sum(1 for _ in all_cyclic_perms(5)) == 24

    def test_lexicographic(self):
        perms = list(all_cyclic_perms(4))
        assert perms == sorted(perms)
        assert perms[0].seq == (1, 2, 3, 4)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            list(all_cyclic_perms(2))

    def test_equals_validated_perms(self):
        # all_cyclic_perms skips the checks of CyclicPerm.__init__
        for n in range(3, 9):
            perms = list(all_cyclic_perms(n))
            assert perms == [CyclicPerm(p.seq) for p in perms]


class TestCycleDiagramValue:
    def test_set_input_equals_frozenset_input(self):
        arcs = {(1, 2), (2, 3), (1, 3)}
        d, e = CycleDiagram(3, arcs), CycleDiagram(3, frozenset(arcs))
        assert d == e and hash(d) == hash(e) and d.arcs == frozenset(arcs)
        assert CycleDiagram(3, [[1, 2], [2, 3], [1, 3]]) == d


class TestClassificationValue:
    def test_set_input_equals_frozenset_input(self):
        c = Classification({1}, {3}, {2})
        d = Classification(frozenset({1}), frozenset({3}), frozenset({2}))
        assert c == d and hash(c) == hash(d) and c.K == frozenset({2})


class TestUncheckedValues:
    """Values built without ``__init__`` copy and pickle through it."""

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_survive_copy_and_pickle(self, duplicate):
        p = list(all_cyclic_perms(6))[37]
        for value in (p, arc_set(p)):
            twin = duplicate(value)
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)


class TestSortedPerms:
    @pytest.mark.parametrize(
        "cycles, expected",
        [
            ([(1, 2, 3), (1, 2, 3)], 4),  # a duplicate fills the count
            ([(1, 3, 2, 4), (4, 2, 3, 1)], 4),  # one cycle twice, once reversed
            ([(2, 3, 1)], 4),  # one short
        ],
        ids=["duplicate", "reversed", "short"],
    )
    def test_rejects(self, cycles, expected):
        with pytest.raises(RuntimeError) as info:
            sorted_perms(map(as_row, cycles), expected, "cycles")
        listed = 2 * len(cycles)
        assert str(info.value) == f"cycles: {listed} listed, not {expected} distinct"

    @pytest.mark.parametrize("walk", [(3, 1, 4, 2), (2, 4, 1, 3), (1, 3, 2, 4)])
    def test_walk_from_anywhere(self, walk):
        # any start, either direction: the cycle's two walks from 1
        perms = sorted_perms([as_row(walk)], 2, "cycles")
        assert [p.seq for p in perms] == [(1, 3, 2, 4), (1, 4, 2, 3)]

    @pytest.mark.parametrize("n, width", [(255, 1), (256, 2), (65_535, 2), (65_536, 4)])
    def test_row_width(self, n, width):
        # a str holds one byte a char up to code point 255, then two, then
        # four (PEP 393), so a row takes that many a vertex, and sorts and
        # reads back as its perm whatever it takes
        walk = tuple(range(n, 0, -1))  # from n down to 1
        perms = sorted_perms([as_row(walk)], 2, "cycles")
        assert all(sys.getsizeof(row * 2) - sys.getsizeof(row) == n * width for row in perms.rows)
        assert perms.rows == sorted(perms.rows)
        assert [p.seq for p in perms] == [tuple(range(1, n + 1)), (1, *walk[:-1])]


class TestListing:
    PERMS = tuple(all_cyclic_perms(5))

    def listing(self):
        return Listing([as_row(p.seq) for p in self.PERMS], 5)

    def test_reads_as_its_perms(self):
        listing = self.listing()
        assert len(listing) == 24 and list(listing) == list(self.PERMS)
        assert listing[-1] == self.PERMS[-1] and listing[3] == self.PERMS[3]
        assert listing[2:9:3] == self.PERMS[2:9:3] and type(listing[2:9:3]) is Listing
        assert self.PERMS[7] in listing and listing.index(self.PERMS[7]) == 7
        with pytest.raises(IndexError):
            listing[24]

    def test_equality(self):
        listing = self.listing()
        assert listing == self.PERMS and self.PERMS == listing and listing == self.listing()
        assert listing != self.PERMS[:-1] and listing != listing[1:]
        assert listing != list(self.PERMS)  # as a tuple is not equal to a list
        assert Listing([], 5) == () == Listing([], 300)

    @pytest.mark.parametrize("n", [255, 256, 65_535, 65_536])
    def test_packs_rows_of_each_width(self, n):
        # rows of one, two and four bytes a vertex (see test_row_width)
        perms = (CyclicPerm(range(1, n + 1)), CyclicPerm((1, *range(n, 1, -1))))
        listing = Listing([as_row(p.seq) for p in perms], n)
        assert listing == perms and listing.rows == sorted(listing.rows)

    def test_unhashable_and_read_only(self):
        listing = self.listing()
        with pytest.raises(TypeError):
            hash(listing)
        assert not hasattr(listing, "append") and not hasattr(listing, "__setitem__")
        assert repr(listing[:1]) == "Listing((CyclicPerm(seq=(1, 2, 3, 4, 5)),))"


class TestArcText:
    def test_mixed_items(self):
        assert arc_text({(1, 3), (4, 8), (5, 6)}, {2, 7}) == "{13,2,48,56,7}"

    def test_wide_labels(self):
        assert arc_text({(2, 10), (1, 3)}) == "{13,2-10}"
