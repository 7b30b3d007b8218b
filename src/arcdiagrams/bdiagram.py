"""Acyclic arc diagrams built from vertex-disjoint blocks (b-diagrams).

A b-diagram on [n] is an ordered list of blocks whose concatenation is a
permutation of [n].  A block of length one is an isolated vertex; a longer
block is a path, contributing an arc for every pair of adjacent entries.
No block may contain all n vertices.  Since blocks are vertex-disjoint the
arc graph is automatically a disjoint union of paths: every vertex meets
at most two arcs and there are no cycles.

Six vertex classes replace the three of the cycle case: r / R / k keep
their meanings (two arcs open, two close, one of each), ``a`` opens a
single arc, ``A`` closes a single arc, and ``e`` is isolated.  The word of
a diagram lists the class letter of each vertex in natural order.

Deleting arcs from the diagram of a cyclic permutation leaves a b-diagram;
the deleted arcs are its cut set with respect to that permutation, and the
cut set of a second diagram, the complement, swaps the two roles.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import deque
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

from . import words
from .errors import (
    AlreadyPresent,
    BlockTooLong,
    DegreeExceeded,
    EmptyBlock,
    NotAGenerator,
    NotAPermutation,
    NotPresent,
    NotRepresentable,
    OutOfRange,
    WouldCycle,
    brief,
)
from .perm import (
    ARCS,
    Arc,
    CyclicPerm,
    _Value,
    _int_entries,
    arc_set,
    arc_text,
    arc_word,
    letter_sets,
    trace_paths,
)

#: Moves of a left-to-right sweep over open paths of one or two stubs: a vertex
#: takes a stub of each of ``closes`` distinct paths, and the path through it keeps
#: the two-stub ones' other stubs plus its ``opens``.  Per letter, by two-stub paths
#: taken: (two-stub taken, one-stub taken, change in two-stub paths).
MOVES = {
    letter: tuple(
        (twos, closes - twos, (twos + opens == 2) - twos) for twos in range(closes + 1)
    )
    for letter, (opens, closes) in ARCS.items()
}


def _oriented(block: tuple[int, ...]) -> tuple[int, ...]:
    """``block`` read from its smaller end (a single vertex as it is)."""
    return block if block[0] <= block[-1] else block[::-1]


class BDiagram(_Value):
    """Ordered blocks over [n]; equality is positional, see :meth:`normalized`."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[Iterable[int]]):
        blocks = tuple(map(tuple, blocks))
        object.__setattr__(self, "blocks", blocks)
        if not blocks or any(not b for b in blocks):
            raise EmptyBlock("blocks must be nonempty")
        flat = [v for block in blocks for v in block]
        n = len(flat)
        if set(flat) != set(range(1, n + 1)):
            raise NotAPermutation(f"blocks must partition 1..{n}: {brief(blocks)}")
        if len(blocks) == 1:
            raise BlockTooLong(f"a block may hold at most {n - 1} of the {n} vertices")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def singleton_count(self) -> int:
        return sum(1 for b in self.blocks if len(b) == 1)

    def arcs(self) -> frozenset[Arc]:
        """One arc per adjacent pair inside a block, smaller endpoint first."""
        return frozenset(
            (min(x, y), max(x, y))
            for block in self.blocks
            for x, y in zip(block, block[1:])
        )

    def isolated(self) -> frozenset[int]:
        return frozenset(b[0] for b in self.blocks if len(b) == 1)

    def normalized(self) -> BDiagram:
        """Canonical form: blocks oriented small end first, sorted by minimum."""
        return BDiagram(sorted(map(_oriented, self.blocks), key=min))

    def arc_notation(self) -> str:
        """Brace notation with isolated vertices listed bare, e.g. ``{13,2,48,56,7}``."""
        return arc_text(self.arcs(), self.isolated())

    def __str__(self) -> str:
        return " | ".join(" ".join(str(v) for v in b) for b in self.blocks)


def parse_bdiagram(text: str) -> BDiagram:
    """Parse blocks separated by ``|``, e.g. ``"3 1 6 | 2 7 8 | 4 5"``."""
    segments = [segment.split() for segment in text.split("|")]
    n = sum(map(len, segments))
    blocks = []
    for tokens in segments:
        if not tokens:
            raise EmptyBlock(f"empty block in {brief(text)!r}")
        blocks.append(_int_entries(tokens, text, n))
    return BDiagram(blocks)


class BClassification(NamedTuple):
    """The six vertex classes of a b-diagram."""

    R: frozenset[int]
    Rbar: frozenset[int]
    K: frozenset[int]
    A: frozenset[int]
    Abar: frozenset[int]
    L: frozenset[int]


def classify_bdiagram(b: BDiagram) -> BClassification:
    """Group vertices by their letter in :func:`block_word`."""
    return BClassification(*letter_sets(block_word(b), "rRkaAe"))  # R, Rbar, K, A, Abar, L


def block_word(b: BDiagram) -> str:
    """Class letter of each vertex in natural order.

    >>> block_word(parse_bdiagram("3 1 6 | 2 7 8 | 4 5"))
    'raAaAAkA'
    """
    return arc_word(b.n, b.arcs())


class InvalidReason(Enum):
    NEGATIVE_PREFIX = "NegativePrefix"
    NONZERO_TOTAL = "NonzeroTotal"
    BAD_ENDPOINTS = "BadEndpoints"
    UNREALIZABLE = "Unrealizable"


class WordCheck(NamedTuple):
    """Outcome of :func:`validate_block_word`: a witness or a reason."""

    ok: bool
    witness: BDiagram | None = None
    reason: InvalidReason | None = None


def validate_block_word(word: str) -> WordCheck:
    """Decide whether a six-letter word is the word of some b-diagram.

    The degree test (no negative prefix sum, zero total) is necessary but
    not sufficient: ``rkR`` passes it yet would force three arcs on three
    vertices, a cycle.  After the degree, endpoint and valley screens, all
    read off one pass of prefix sums, a sweep over the letters settles
    realizability and produces a canonical witness (see :func:`_realize`).
    """
    # prefix[i]: arcs left open by the first i letters
    prefix = list(itertools.accumulate(words.degree_vector(word), initial=0))
    if min(prefix[1:-1], default=0) < 0:
        return WordCheck(False, reason=InvalidReason.NEGATIVE_PREFIX)
    if prefix[-1] != 0:
        return WordCheck(False, reason=InvalidReason.NONZERO_TOTAL)
    # the first letter can close no arc and the last can open none
    if ARCS[word[0]][1] or ARCS[word[-1]][0]:
        return WordCheck(False, reason=InvalidReason.BAD_ENDPOINTS)
    # a k needs an open arc to land on, or its valley dips below the axis
    if any(letter == "k" and not s for letter, s in zip(word, prefix)):
        return WordCheck(False, reason=InvalidReason.NEGATIVE_PREFIX)
    witness = _realize(word, prefix)
    if witness is None:
        return WordCheck(False, reason=InvalidReason.UNREALIZABLE)
    return WordCheck(True, witness=witness)


def _realize(word: str, prefix: list[int]) -> BDiagram | None:
    """First b-diagram realizing ``word`` under an ordered search, or None.

    Scans vertices left to right; at each vertex the arcs ending there are
    matched to open stubs, smallest candidates first, skipping matches
    that would duplicate a vertex pair or close a cycle.  The first match
    keeping t2, the open two-stub paths, within :func:`_feasibility_table`'s
    bound is taken, so the search never backtracks.  One check per letter
    finds it: a closing move of ``MOVES`` keeps t2 or lowers it by
    one, and t2 is at most one above the bound, as no table row is more
    than one above the next; so a match fits exactly when t2 is within
    the bound or it takes a stub of a two-stub path.  Each open vertex
    knows the other open stub of its path (``mate``).  Before the sweep,
    n letters opening m arcs must leave n - m >= 2 blocks, the components
    of any forest of n vertices and m arcs, whatever the choices.
    """
    table = _feasibility_table(word, prefix)
    if len(word) - sum(ARCS[c][0] * word.count(c) for c in ARCS) < 2 or table[0] < 0:
        return None
    # mate[u]: vertex holding the other open stub of u's path -- u itself
    # for a lone r, None when u holds the only open stub of its path
    mate: list[int | None] = [None] * (len(word) + 1)
    # an entry per open stub, ascending, a lone r twice; a deque, as most go from the front
    pool: deque[int] = deque()
    arcs: list[Arc] = []
    t2 = 0  # open paths holding two stubs
    for v, letter in enumerate(word, 1):
        opens, closes = ARCS[letter]
        shed = t2 > table[v]  # a stub of a two-stub path must close here
        chosen = ()
        if closes == 1:
            chosen = next((u,) for u in pool if not shed or mate[u] is not None)
        elif closes:
            chosen = next(
                (u1, u2)
                for i, u1 in enumerate(pool)
                for u2 in itertools.islice(pool, i + 1, None)
                # two stubs of one path would close a cycle
                if u2 != mate[u1] and (not shed or mate[u1] is not None or mate[u2] is not None)
            )
        t2 += MOVES[letter][sum(mate[u] is not None for u in chosen)][2]
        ends = [mate[u] for u in chosen if mate[u] is not None] + [v] * opens
        for u in chosen:
            arcs.append((u, v))
            pool.remove(u)
        if len(ends) == 2:
            mate[ends[0]], mate[ends[1]] = ends[1], ends[0]
        elif ends:
            mate[ends[0]] = None
        pool.extend([v] * opens)
    return _blocks_from_arcs(len(word), frozenset(arcs))


def _feasibility_table(word: str, prefix: list[int]) -> list[int]:
    """Which sweep states can still be completed, position by position.

    After the first i letters the open arc stubs number the prefix degree
    sum s = ``prefix[i]``; they sit on partial paths holding two stubs (t2
    of them) or one (s - 2*t2 of them).  Paths with equal stub counts are
    interchangeable, so this state is exact.  ``table[i]`` is the largest
    t2 from which the remaining letters can close every stub without a
    cycle, or -1 when none can: every t2 from 0 up to it completes.  That
    run starts at 0 because cutting a two-stub path into two one-stub paths
    never blocks a completion: the same remaining arcs close the two halves
    with no cycle more.  Finished components need no count: with d of them,
    every completion ends with d + (s - t2) + (n - i) - C_i components, C_i
    the arcs that letters i+1..n close, whatever is chosen; from the start
    that is n - m, which :func:`_realize` checks once.  The table is filled
    backward, one bound per move of ``MOVES``: O(n) in time and space.
    The sweep reads only whether its t2 exceeds ``table[i]``.
    """
    table = [-1] * len(word) + [0]
    for i in reversed(range(len(word))):
        last, s, best = table[i + 1], prefix[i], -1
        for twos, ones, grown in MOVES[word[i]]:
            reach = last - grown  # t2 lands on t2 + grown of the next row
            room = (s - ones) // 2  # the most t2 that leaves ``ones`` one-stub paths
            if reach > room:
                reach = room
            if reach >= twos and reach > best:  # the move takes ``twos`` of them
                best = reach
        table[i] = best
    return table


def _blocks_from_arcs(n: int, arcs: frozenset[Arc]) -> BDiagram:
    """Assemble blocks (paths and singletons) from an arc set.

    Raises :class:`NotRepresentable` when a vertex meets more than two
    arcs, the arcs contain a cycle, or a single path swallows all n
    vertices.
    """
    paths = trace_paths(n, arcs)
    if len(paths) == 1:
        raise NotRepresentable("the arcs form a single path of all vertices")
    return BDiagram(paths)


def cut_set(p: CyclicPerm, b: BDiagram) -> frozenset[Arc]:
    """Arcs of ``p``'s diagram that are missing from ``b``.

    Requires ``b``'s arcs to sit inside the diagram of ``p`` (i.e. ``p``
    generates ``b``); the difference then has exactly one arc per block.
    """
    if p.n != b.n:
        raise NotAGenerator(f"vertex counts differ: {p.n} vs {b.n}")
    sigma_arcs = arc_set(p).arcs
    block_arcs = b.arcs()
    if not block_arcs <= sigma_arcs:
        raise NotAGenerator(f"{brief(str(p))} does not generate {brief(str(b))}")
    return sigma_arcs - block_arcs


def complement(p: CyclicPerm, b: BDiagram) -> BDiagram:
    """The b-diagram whose arcs are the cut set of ``b`` in ``p``.

    Vertices untouched by the cut set become isolated.  Complementing
    twice returns ``b`` up to normalization.  Degenerate cases (the cut
    set forms a cycle, or one path through every vertex) are rejected.
    """
    return _blocks_from_arcs(p.n, cut_set(p, b))


def max_crossing(b: BDiagram) -> int:
    """Largest k such that some k arcs mutually cross.

    Arcs (i1,j1) .. (ik,jk) mutually cross when i1 < .. < ik < j1 < .. < jk.
    Returns 0 with no arcs and 1 when arcs exist but none cross; the
    diagram is then m-noncrossing for every m exceeding the result.

    A crossing family spans some boundary between two vertices.  At each
    boundary the arcs over it, by increasing start and then decreasing
    end, give the largest family as the longest strictly increasing
    subsequence of ends, found by patience sorting in O(m log m) for m
    arcs.  Boundaries are visited by decreasing count of arcs over them,
    stopping at a count no larger than the best family found, since a
    family of k spans a boundary with at least k arcs over it: O(n * m
    log m) at worst, as for nested arcs.
    """
    arcs = sorted(b.arcs(), key=lambda arc: (arc[0], -arc[1]))
    change = [0] * (b.n + 1)
    for i, j in arcs:
        change[i] += 1
        change[j] -= 1
    over = list(itertools.accumulate(change))  # over[t]: arcs with i <= t < j
    best = 0
    for boundary in sorted(range(1, b.n), key=over.__getitem__, reverse=True):
        if over[boundary] <= best:
            break
        tails: list[int] = []  # tails[k]: least end of a family of k + 1
        for i, j in arcs:
            if i > boundary:
                break
            if j > boundary:
                at = bisect_left(tails, j)
                tails[at : at + 1] = [j]  # replace tails[at], or append
        best = max(best, len(tails))
    return best


def add_arc(b: BDiagram, arc: Arc) -> BDiagram:
    """Join two blocks (or absorb an isolated vertex) with a new arc.

    The arc must be new and join the ends of two blocks, as only a block's
    first and last vertex meet fewer than two arcs.  The merged block, x's
    block run to end at x and then y's run on from y, replaces the earlier
    of the two, oriented small end first.
    """
    x, y = arc
    if not (1 <= x <= b.n and 1 <= y <= b.n):
        raise OutOfRange(f"arc {brief(arc)} out of 1..{b.n}")
    if x == y:
        raise WouldCycle("an arc needs two distinct endpoints")
    lo, hi = min(x, y), max(x, y)
    where = {v: (idx, at) for idx, block in enumerate(b.blocks) for at, v in enumerate(block)}
    (i, s), (j, t) = where[x], where[y]
    if i == j and abs(s - t) == 1:
        raise AlreadyPresent(f"arc ({lo}, {hi}) already present")
    if 0 < s < len(b.blocks[i]) - 1 or 0 < t < len(b.blocks[j]) - 1:
        raise DegreeExceeded("both endpoints must have at most one arc")
    if i == j:
        raise WouldCycle(f"{lo} and {hi} already share a block")
    if b.block_count == 2:
        raise NotRepresentable("the merged block would hold every vertex")
    left, right = b.blocks[i], b.blocks[j]
    merged = _oriented((left if s else left[::-1]) + (right[::-1] if t else right))
    first, second = sorted((i, j))
    blocks = b.blocks[:first] + (merged,) + b.blocks[first + 1 : second] + b.blocks[second + 1 :]
    return BDiagram(blocks)


def remove_arc(b: BDiagram, arc: Arc) -> BDiagram:
    """Split a block at an arc; the two pieces keep the block's position."""
    lo, hi = min(arc), max(arc)
    for idx, block in enumerate(b.blocks):
        for t in range(len(block) - 1):
            if {block[t], block[t + 1]} == {lo, hi}:
                pieces = (_oriented(block[: t + 1]), _oriented(block[t + 1 :]))
                return BDiagram(b.blocks[:idx] + pieces + b.blocks[idx + 1 :])
    raise NotPresent(f"arc ({brief(lo)}, {brief(hi)}) not in the diagram")


def transpose_labels(b: BDiagram, i: int, j: int) -> BDiagram:
    """Swap the labels ``i`` and ``j`` everywhere; block shapes stay put."""
    if not (1 <= i <= b.n and 1 <= j <= b.n):
        raise OutOfRange(f"labels must lie in 1..{b.n}")
    swap = {i: j, j: i}
    return BDiagram((swap.get(v, v) for v in block) for block in b.blocks)


def all_bdiagrams(n: int) -> Iterator[BDiagram]:
    """Every b-diagram on [n], normalized, in a deterministic order.

    Enumerates set partitions of [n] into at least two parts, then all
    path orderings of each part (orientation fixed small end first).
    """
    for parts in _set_partitions(list(range(1, n + 1))):
        if len(parts) < 2:
            continue
        choices = [
            [q for q in itertools.permutations(part) if q[0] <= q[-1]]
            for part in sorted(parts, key=min)
        ]
        for blocks in itertools.product(*choices):
            yield BDiagram(blocks)


def _set_partitions(elems: list[int]) -> Iterator[list[list[int]]]:
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part
