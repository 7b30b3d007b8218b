"""Shared helpers: independent oracles and random inputs for the tests.

The helpers here deliberately avoid the library's own code paths where
they serve as cross-checks: ``value_class_word`` classifies vertices by
comparing entries with their cyclic neighbours instead of reading the arc
set, ``arc_graph_shape`` uses a union-find instead of the library's walker,
``crossing_brute_force`` scans every arc subset, ``crossing_chain_dp``
runs a quadratic chain DP at each boundary, and ``block_word_screen``
applies the block-word screens from literal step tables.

``classification_oracle`` and ``census_grouping_oracle`` keep earlier
versions of ``classify`` and ``census_report``: the classes built as
frozensets from a count of opening arcs, and the census that groups every
permutation by its word before looking for split exceptions (listing the
permutations itself and reading words by ``value_class_word``).
``crossing_patience_reference`` keeps ``max_crossing`` from before it
visited boundaries by arc count: patience sorting at every boundary.
``nesting_reference`` gives the largest mutually nesting arc family, whose
joint distribution with the crossing number is symmetric on perfect
matchings.
``opening_count_word``, ``counter_block_word``, ``scan_bclassification``
and ``scan_classes_from_word`` keep the letter readers from before the one
``(opens, closes)`` table: the cycle word from the count of opening arcs,
the block word from two counters, and class sets from one scan per letter
(the classes that the ``neighbor_candidates`` tests take).
``check_cycle_word_reference`` gives ``check_cycle_word``'s verdict from its
documented rules, applied in order as plain loops.
``trace_components_reference`` and ``cycle_diagram_check_reference`` keep
the component walker over per-vertex neighbour lists and the
``CycleDiagram`` check built on it, from before the flat neighbour table;
the reference walks cycles too, so it checks both the path walker
``perm.trace_paths`` (its paths, or ``None`` for any cycle) and the walk
of ``perm.spanning_cycle``.
``count_perms_reference`` and ``feasibility_table_reference`` keep the
fibre count and the realization's feasibility table from before the one
move table ``bdiagram.MOVES``, with each letter's rule written out by hand; the
count is a (k open paths, s lone r) dynamic program, not the library's
product over path heights, and the table keeps a column per count of
finished components, which the library's table no longer tracks.
``first_realization_reference`` finds the witness ``validate_block_word``
must return by a plain backtracking search, with no feasibility table.
``add_arc_reference`` and ``remove_arc_reference`` keep the b-diagram edits
from before they read block ends: ``add_arc`` on the arc set and a degree
count, ``remove_arc`` splicing lists.

``random_bdiagram`` and ``random_cut`` draw seeded b-diagrams, the second one
that a given permutation generates, ``random_cycle_word`` draws a seeded
valid cycle word, and ``int_str_limit`` runs a block under a chosen
int-string digit limit.  ``run_own_peak``, from ``heavy_cases``, runs a
Python command in a fresh interpreter and reads that command's own peak RSS.
"""

import bisect
import itertools
import random
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from itertools import accumulate

from hypothesis import strategies as st

from arcdiagrams import (
    AlreadyPresent,
    BClassification,
    BDiagram,
    Classification,
    CyclicPerm,
    DegreeExceeded,
    InvalidReason,
    NotAWord,
    NotPresent,
    NotRepresentable,
    OutOfRange,
    WouldCycle,
    catalan_number,
    motzkin_number,
)
from arcdiagrams.census import CensusReport, SplitException
from arcdiagrams.errors import check_cap
from heavy_cases import _LAUNCHER, run_own_peak  # noqa: F401 (shared with the tests)

# unit steps of each letter's block path, written out by hand
BLOCK_STEPS = {
    "a": (1,),
    "A": (-1,),
    "e": (0,),
    "r": (1, 1),
    "R": (-1, -1),
    "k": (-1, 1),
}


def value_class_word(seq):
    """Word of a cyclic sequence via neighbour comparisons (independent route)."""
    n = len(seq)
    letter = {}
    for i, v in enumerate(seq):
        prev, nxt = seq[i - 1], seq[(i + 1) % n]
        if v < prev and v < nxt:
            letter[v] = "r"
        elif v > prev and v > nxt:
            letter[v] = "R"
        else:
            letter[v] = "k"
    return "".join(letter[v] for v in range(1, n + 1))


def classification_oracle(diagram):
    """Classes of a cycle diagram: left ramphoids open both arcs, right none."""
    opens = [0] * (diagram.n + 1)
    for i, _ in diagram.arcs:
        opens[i] += 1
    by_opens = ([], [], [])  # vertices where 0, 1 or 2 arcs open
    for v in range(1, diagram.n + 1):
        by_opens[opens[v]].append(v)
    Rbar, K, R = map(frozenset, by_opens)
    return Classification(R, Rbar, K)


def opening_count_word(diagram):
    """Cycle word of a cycle diagram: 2, 1 or 0 arcs opening spell r, k or R."""
    opens = [0] * (diagram.n + 1)
    for i, _ in diagram.arcs:
        opens[i] += 1
    return "".join("Rkr"[count] for count in opens[1:])


# the letter of a b-diagram vertex by (arcs opening, arcs closing), by hand
BLOCK_LETTER = {(2, 0): "r", (0, 2): "R", (1, 1): "k", (1, 0): "a", (0, 1): "A", (0, 0): "e"}


def counter_block_word(b):
    """Word of a b-diagram from one counter of opening and one of closing arcs."""
    opens = Counter(i for i, _ in b.arcs())
    closes = Counter(j for _, j in b.arcs())
    return "".join(BLOCK_LETTER[opens[v], closes[v]] for v in range(1, b.n + 1))


def letter_scans(word, letters):
    """One scan of ``word`` per letter, each giving the 1-based positions of it."""
    return [frozenset(i + 1 for i, c in enumerate(word) if c == letter) for letter in letters]


def scan_bclassification(b):
    """The six classes of a b-diagram, scanned off its counter-built word."""
    return BClassification(*letter_scans(counter_block_word(b), "rRkaAe"))


def scan_classes_from_word(word):
    """The three classes of a cycle word, one scan per letter."""
    return Classification(*letter_scans(word, "rRk"))


def check_cycle_word_reference(word):
    """``(NotAWord, message)`` for the first rule of ``check_cycle_word`` that
    ``word`` breaks, in the documented order (alphabet, ends, second letters,
    balance, elevation), or None for a word of a cycle diagram."""
    if not word:
        return NotAWord, "empty word"
    foreign = []
    for c in word:
        if c not in "rRk" and c not in foreign:
            foreign.append(c)
    if foreign:
        return NotAWord, f"letters {sorted(foreign)} not in alphabet 'rRk'"
    if word[0] != "r" or word[-1] != "R":
        return NotAWord, "word must start with r and end with R"
    if word[1] == "R" or word[-2] == "r":
        return NotAWord, "second letter R or second-to-last letter r is impossible"
    height, dips, touches = 0, False, False
    for i, c in enumerate(word):
        if c == "r":
            height += 1
        elif c == "R":
            height -= 1
        if height < 0:
            dips = True
        if height <= 0 and i < len(word) - 1:
            touches = True
    if height != 0 or dips:
        return NotAWord, "word is not balanced with nonnegative prefixes"
    if touches:
        return NotAWord, "path touches the axis before the final letter"
    return None


def census_grouping_oracle(n):
    """The census of [n] from every permutation grouped by its word, the
    permutations listed by ``itertools.permutations`` and each word read by
    ``value_class_word``, sharing no code with ``census_report``'s path."""
    groups = {}
    for rest in itertools.permutations(range(2, n + 1)):
        seq = (1, *rest)
        groups.setdefault(value_class_word(seq), []).append(seq)
    exceptions = []
    for word in sorted(groups):
        expected_second = min(i + 1 for i, c in enumerate(word) if c in "Rk")
        # the reverse of seq has second entry seq[-1]
        bad = [
            seq
            for seq in groups[word]
            if seq[1] != expected_second and seq[-1] != expected_second
        ]
        if bad:
            example = " ".join(str(v) for v in min(bad))
            exceptions.append(SplitException(word, expected_second, len(bad), example))
    return CensusReport(
        n=n,
        perm_count=sum(map(len, groups.values())),
        word_count=len(groups),
        motzkin_expected=motzkin_number(n - 2),
        dyck_count=sum(1 for w in groups if "k" not in w),
        dyck_expected=catalan_number((n - 2) // 2) if n % 2 == 0 else 0,
        split_exceptions=tuple(exceptions),
    )


def trace_components_reference(n, arcs):
    """Components of an arc set walked over one neighbour list per vertex."""
    neighbours = [[] for _ in range(n + 1)]
    for i, j in arcs:
        neighbours[i].append(j)
        neighbours[j].append(i)
    if max(map(len, neighbours)) > 2:
        raise ValueError("a vertex meets more than two arcs")
    seen = [False] * (n + 1)
    components = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        seen[start] = True
        walk = [start]
        is_cycle = False
        # extend the walk along each arc at start; the second pass (a path
        # through start) first turns the walk round so start is its end
        for cur in neighbours[start]:
            if seen[cur]:
                break  # the first pass came back round to start
            walk.reverse()
            prev = start
            while True:
                seen[cur] = True
                walk.append(cur)
                ahead = neighbours[cur]
                if len(ahead) == 1:
                    break  # a path end
                prev, cur = cur, (ahead[1] if ahead[0] == prev else ahead[0])
                if cur == start:
                    is_cycle = True
                    break
        if is_cycle:
            if walk[1] > walk[-1]:
                walk[1:] = walk[:0:-1]
        elif walk[0] > walk[-1]:
            walk.reverse()
        components.append((tuple(walk), is_cycle))
    return components


def cycle_diagram_check_reference(n, arcs):
    """The checks ``CycleDiagram`` made through the component walker."""
    if len(arcs) != n:
        raise ValueError(f"expected {n} arcs, got {len(arcs)}")
    for i, j in arcs:
        if not (1 <= i < j <= n):
            raise ValueError(f"bad arc ({i}, {j}) for n={n}")
    components = trace_components_reference(n, arcs)
    if len(components) != 1 or not components[0][1]:
        raise ValueError("arcs do not form a single spanning cycle")


def block_word_screen(word):
    """First screen a block word fails, as an InvalidReason, or None.

    In order: a negative degree prefix before the last letter, a nonzero
    total, an endpoint letter that closes (first) or opens (last) an arc,
    and a unit-step path that dips below the axis.  Realizability itself is
    not screened.
    """
    degrees = [sum(BLOCK_STEPS[c]) for c in word]
    if min(accumulate(degrees[:-1]), default=0) < 0:
        return InvalidReason.NEGATIVE_PREFIX
    if sum(degrees):
        return InvalidReason.NONZERO_TOTAL
    if word[0] in "ARk" or word[-1] in "ark":
        return InvalidReason.BAD_ENDPOINTS
    if min(accumulate(s for c in word for s in BLOCK_STEPS[c])) < 0:
        return InvalidReason.NEGATIVE_PREFIX
    return None


def count_perms_reference(word, cap=None):
    """``count_perms_from_word`` on a valid cycle word, one branch per letter.

    The state is (k open paths, s of them a lone r); a k takes an end of a
    lone r (s ways) or of a longer path (2(k-s) ways), an R joins the ends
    of two distinct paths.  Refuses over ``cap`` at the first lower bound
    past it, as the library did before it counted by a product: twice the
    ways so far, a bound that can differ from the library's product so far.
    """
    states = {(0, 0): 1}
    for letter in word[:-1]:
        after = defaultdict(int)
        for (k, s), ways in states.items():
            longer = k - s
            if letter == "r":
                after[k + 1, s + 1] += ways
            elif letter == "k":
                if s:
                    after[k, s - 1] += ways * s
                if longer:
                    after[k, s] += ways * 2 * longer
            else:
                if s >= 2:
                    after[k - 1, s - 2] += ways * (s * (s - 1) // 2)
                if s and longer:
                    after[k - 1, s - 1] += ways * 2 * s * longer
                if longer >= 2:
                    after[k - 1, s] += ways * 2 * longer * (longer - 1)
        states = after
        if cap is not None:
            check_cap(2 * sum(states.values()), cap, "permutations", at_least=True)
    return 2 * states.get((1, 0), 0)


def feasibility_table_reference(word, prefix):
    """The realization's feasibility table with one hand-written branch per
    letter and a column per count of finished components.

    ``table[i][f]`` has bit t2 set when s = ``prefix[i]`` open stubs, t2
    two-stub paths and f finished components (up to 2) complete.  The
    library's ``bdiagram._feasibility_table`` is its f = 2 column: it checks
    the count of components once, on the whole word.
    """
    n = len(word)

    def upto(t2):
        return (1 << t2 + 1) - 1  # bits 0..t2; empty when t2 == -1

    table = [(0, 0, 0)] * n + [(0, 0, 1)]
    for i in range(n - 1, -1, -1):
        letter, nxt, s = word[i], table[i + 1], prefix[i]
        row = []
        for f in range(3):
            same, done = nxt[f], nxt[min(f + 1, 2)]
            if letter == "e":
                bits = done
            elif letter == "a":
                bits = same
            elif letter == "r":
                bits = same >> 1
            elif letter == "k":  # needs a stub to land on
                bits = same if s else 0
            elif letter == "A":  # a two-stub path keeps one, or a one-stub path ends
                bits = same << 1 | done & upto((s - 1) // 2)
            else:  # R: two one-stub paths end, or a two-stub path joins another
                bits = done & upto((s - 2) // 2) | same << 1 & ~(2 if s < 3 else 0)
            row.append(bits & upto(s // 2))
        table[i] = tuple(row)
    return table


def first_realization_reference(word):
    """Arcs of the first b-diagram realizing ``word`` that backtracking finds, or None.

    Vertices are matched left to right.  A closing arc tries the open stubs
    in ascending order, a lone ``r`` listed twice; an ``R`` tries pairs of
    stubs in lexicographic order, skipping two stubs of one path.  As in the
    library, n letters opening m arcs must leave n - m >= 2 blocks.
    """
    n = len(word)
    if n - sum(BLOCK_STEPS[c].count(1) for c in word) < 2:
        return None

    def find(root, u):
        while root[u] != u:
            u = root[u]
        return u

    def search(v, stubs, root, arcs):
        if v > n:
            return None if stubs else frozenset(arcs)
        steps = BLOCK_STEPS[word[v - 1]]
        for picks in itertools.combinations(range(len(stubs)), steps.count(-1)):
            taken = [stubs[i] for i in picks]
            if len({find(root, u) for u in taken}) < len(taken):
                continue  # two stubs of one path would close a cycle
            joined = list(root)
            for u in taken:
                joined[find(joined, u)] = v
            rest = [u for i, u in enumerate(stubs) if i not in picks] + [v] * steps.count(1)
            found = search(v + 1, rest, joined, arcs + [(u, v) for u in taken])
            if found is not None:
                return found
        return None

    return search(1, [], list(range(n + 1)), [])


def _small_end_first(block):
    return block if block[0] <= block[-1] else block[::-1]


def add_arc_reference(b, arc):
    """``bdiagram.add_arc`` deciding on the arc set and each vertex's arc count."""
    x, y = arc
    if not (1 <= x <= b.n and 1 <= y <= b.n):
        raise OutOfRange(f"arc {arc} out of 1..{b.n}")
    if x == y:
        raise WouldCycle("an arc needs two distinct endpoints")
    lo, hi = min(x, y), max(x, y)
    if (lo, hi) in b.arcs():
        raise AlreadyPresent(f"arc ({lo}, {hi}) already present")
    degree = Counter(v for a in b.arcs() for v in a)
    if degree[lo] == 2 or degree[hi] == 2:
        raise DegreeExceeded("both endpoints must have at most one arc")
    where = {v: idx for idx, block in enumerate(b.blocks) for v in block}
    if where[lo] == where[hi]:
        raise WouldCycle(f"{lo} and {hi} already share a block")
    first, second = sorted((where[lo], where[hi]))
    if len(b.blocks[first]) + len(b.blocks[second]) == b.n:
        raise NotRepresentable("the merged block would hold every vertex")

    def ending_at(block, v):
        return block if block[-1] == v else block[::-1]

    a_part = ending_at(b.blocks[where[x]], x)
    c_part = ending_at(b.blocks[where[y]], y)[::-1]
    merged = _small_end_first(a_part + c_part)
    blocks = [
        merged if idx == first else block
        for idx, block in enumerate(b.blocks)
        if idx != second
    ]
    return BDiagram(tuple(blocks))


def remove_arc_reference(b, arc):
    """``bdiagram.remove_arc`` splicing the pieces into a list of blocks."""
    lo, hi = min(arc), max(arc)
    for idx, block in enumerate(b.blocks):
        for t in range(len(block) - 1):
            if {block[t], block[t + 1]} == {lo, hi}:
                pieces = [_small_end_first(block[: t + 1]), _small_end_first(block[t + 1 :])]
                blocks = list(b.blocks[:idx]) + pieces + list(b.blocks[idx + 1 :])
                return BDiagram(tuple(blocks))
    raise NotPresent(f"arc ({lo}, {hi}) not in the diagram")


def assert_validated_perms(perms):
    """Each listed value is a ``CyclicPerm`` equal to, and hashing as, its
    sequence passed through the checks of ``CyclicPerm.__init__``."""
    for p in perms:
        validated = CyclicPerm(p.seq)
        assert type(p) is CyclicPerm and p == validated and hash(p) == hash(validated), p


def arc_subsets(n):
    """Every arc subset of the complete graph on 1..n."""
    edges = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(edges)):
        yield frozenset(e for k, e in enumerate(edges) if mask >> k & 1)


def arc_graph_shape(n, arcs):
    """(degree of each vertex 1..n, has a cycle, component count)."""
    degree = [0] * (n + 1)
    root = list(range(n + 1))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    has_cycle = False
    for i, j in arcs:
        degree[i] += 1
        degree[j] += 1
        ri, rj = find(i), find(j)
        if ri == rj:
            has_cycle = True
        root[ri] = rj
    components = sum(1 for v in range(1, n + 1) if find(v) == v)
    return degree[1:], has_cycle, components


def crossing_brute_force(b):
    """Largest mutually-crossing arc family by scanning all subsets."""
    arcs = sorted(b.arcs())
    best = 1 if arcs else 0
    for size in range(2, len(arcs) + 1):
        for subset in itertools.combinations(arcs, size):
            starts = [i for i, _ in subset]
            ends = [j for _, j in subset]
            if (
                all(a < b_ for a, b_ in zip(starts, starts[1:]))
                and all(a < b_ for a, b_ in zip(ends, ends[1:]))
                and starts[-1] < ends[0]
            ):
                best = max(best, size)
    return best


def crossing_chain_dp(b):
    """Largest mutually-crossing arc family by an O(m^2) chain DP per boundary."""
    arcs = sorted(b.arcs())
    if not arcs:
        return 0
    best = 1
    for boundary in range(1, b.n):
        spanning = [(i, j) for i, j in arcs if i <= boundary < j]
        # longest chain with strictly increasing starts and ends
        lengths = []
        for t, (i, j) in enumerate(spanning):
            prior = [
                lengths[s]
                for s in range(t)
                if spanning[s][0] < i and spanning[s][1] < j
            ]
            lengths.append(1 + max(prior, default=0))
        best = max(best, max(lengths, default=1))
    return best


def crossing_patience_reference(b):
    """Largest mutually-crossing arc family by patience sorting at every boundary."""
    arcs = sorted(b.arcs(), key=lambda arc: (arc[0], -arc[1]))
    best = 0
    for boundary in range(1, b.n):
        tails = []  # tails[k]: least end of a family of k + 1
        for i, j in arcs:
            if i > boundary:
                break
            if j > boundary:
                at = bisect.bisect_left(tails, j)
                tails[at : at + 1] = [j]  # replace tails[at], or append
        best = max(best, len(tails))
    return best


def nesting_reference(b):
    """Largest mutually-nesting arc family by an O(m^2) chain DP.

    Arcs (i1,j1) .. (ik,jk) mutually nest when i1 < .. < ik < jk < .. < j1:
    the longest run of arcs, ordered by start, whose ends strictly decrease.
    """
    arcs = sorted(b.arcs())
    lengths = []
    for t, (i, j) in enumerate(arcs):
        prior = [lengths[s] for s in range(t) if arcs[s][0] < i and arcs[s][1] > j]
        lengths.append(1 + max(prior, default=0))
    return max(lengths, default=0)


def random_bdiagram(rng: random.Random, n: int) -> BDiagram:
    """Uniform-ish random diagram: shuffled labels cut into m >= 2 blocks."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    m = rng.randint(2, n)
    cuts = sorted(rng.sample(range(1, n), m - 1))
    blocks = []
    prev = 0
    for cut in cuts + [n]:
        blocks.append(tuple(labels[prev:cut]))
        prev = cut
    return BDiagram(tuple(blocks))


def random_cut(rng: random.Random, p: CyclicPerm) -> BDiagram:
    """A diagram ``p`` generates: its cycle cut at two or more random arcs."""
    seq, n = p.seq, p.n
    cuts = sorted(rng.sample(range(n), rng.randint(2, n)))
    # cut i removes the arc into seq[i]; the last piece wraps past the end
    pieces = [seq[i:j] for i, j in zip(cuts, cuts[1:])]
    return BDiagram((*pieces, seq[cuts[-1]:] + seq[: cuts[0]]))


def random_cycle_word(rng: random.Random, n: int) -> str:
    """A valid cycle word of n >= 3 letters: r, a Motzkin word, R."""
    letters, height = ["r"], 0
    for left in range(n - 3, -1, -1):  # inner letters after this one
        choices = ["k"] * (height <= left) + ["r"] * (height < left) + ["R"] * (height > 0)
        letter = rng.choice(choices)
        height += {"r": 1, "R": -1, "k": 0}[letter]
        letters.append(letter)
    return "".join(letters) + "R"


@st.composite
def elevated_motzkin_words(draw, max_n, max_height=None, max_k=None):
    """Words r + (a Motzkin word) + R with 3..max_n letters: the valid words.

    ``max_height`` bounds the Motzkin path's height and ``max_k`` the number
    of ``k`` it chooses (a last letter forced to ``k`` aside); both keep the
    fibres small enough to list at large n.
    """
    inner = draw(st.integers(1, max_n - 2))
    letters, height = ["r"], 0
    for i in range(inner):
        left = inner - i - 1  # inner letters after this one
        choices = ["k"] if height <= left else []
        if max_k is not None and letters.count("k") >= max_k and (height or left):
            choices = []
        if height + 1 <= left and (max_height is None or height < max_height):
            choices.append("r")
        if height:
            choices.append("R")
        letter = draw(st.sampled_from(choices))
        height += {"r": 1, "R": -1, "k": 0}[letter]
        letters.append(letter)
    return "".join(letters) + "R"


@st.composite
def cyclic_perms(draw, max_n):
    """Cyclic permutations of [n] for n = 3..max_n."""
    n = draw(st.integers(3, max_n))
    return CyclicPerm((1, *draw(st.permutations(range(2, n + 1)))))


@st.composite
def generated_bdiagrams(draw, max_n):
    """A cyclic permutation and a b-diagram it generates.

    The cycle is cut at two or more of its arcs; the pieces are the blocks,
    in any order and either orientation.
    """
    p = draw(cyclic_perms(max_n))
    cuts = sorted(draw(st.sets(st.integers(0, p.n - 1), min_size=2)))
    seq = p.seq
    # cut i removes the arc into seq[i]; the last piece wraps past the end
    pieces = [seq[i:j] for i, j in zip(cuts, cuts[1:])]
    pieces.append(seq[cuts[-1]:] + seq[: cuts[0]])
    pieces = draw(st.permutations(pieces))
    flips = draw(st.lists(st.booleans(), min_size=len(pieces), max_size=len(pieces)))
    return p, BDiagram(tuple(b[::-1] if f else b for b, f in zip(pieces, flips)))


@contextmanager
def int_str_limit(digits):
    """Run a block under Python's int-to-str digit limit ``digits`` (0: none)."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)
