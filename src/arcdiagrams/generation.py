"""Generators of a b-diagram: the cyclic permutations containing its arcs.

A cyclic permutation generates a b-diagram when the diagram's arcs all
appear in the permutation's arc diagram; deleting the other arcs (the cut
set) then recovers the diagram.  A diagram with m blocks, of which l are
single vertices, has exactly ``2**(m-l) * (m-1)!`` generators: arrange the
blocks around the cycle with the first block's position fixed, and reverse
any subset of the non-singleton blocks.

Three routes compute the same set and are kept deliberately separate so
they can cross-check each other: direct arrangement of blocks
(:func:`enumerate_generators`), completion of the missing arcs by
backtracking from the least open path end over one list of open walks,
each cycle yielded as its last arc closes it (:func:`complete_table`), and a
brute-force scan of the (n-1)! sequences from 1 (:func:`generators_oracle`).
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Iterator, NamedTuple

from .bdiagram import BDiagram
from .errors import (
    DEFAULT_CAP, NotRepresentable, SizeMismatch, TooSmall, check_cap, check_scan, too_deep
)
from .perm import Arc, CyclicPerm, Listing, sorted_perms, spanning_cycle, trace_paths


def canonical_generator(b: BDiagram) -> CyclicPerm:
    """Concatenate the blocks in order and rotate the cycle to start at 1."""
    flat = tuple(v for block in b.blocks for v in block)
    at = flat.index(1)
    return CyclicPerm(flat[at:] + flat[:at])


def count_generators(b: BDiagram) -> int:
    """``2**(m-l) * (m-1)!`` for m blocks of which l are singletons.

    Raises :class:`TooSmall` below 3 vertices.  The count may pass the 4,300
    digits ``str()`` allows by default; the CLI lifts that limit per command.

    >>> from arcdiagrams.bdiagram import parse_bdiagram
    >>> count_generators(parse_bdiagram("1 2 3 | 4 7 8 | 5 6"))  # Fig. 16's three paths
    16
    """
    if b.n < 3:
        raise TooSmall(f"need at least 3 vertices, got {b.n}")
    m, l = b.block_count, b.singleton_count
    return 2 ** (m - l) * factorial(m - 1)


def enumerate_generators(b: BDiagram, cap: int = DEFAULT_CAP) -> Listing:
    """All generators by arranging blocks, sorted lexicographically, as a
    :class:`~arcdiagrams.perm.Listing`.

    The longest block keeps its place, walked one way if it is a path; the
    others are permuted and each non-singleton one may be reversed.  With no
    path, an order whose first block is greater than its last is skipped, as
    its reverse walks the same cycles.  So each cycle is listed once, and the
    count always matches :func:`count_generators`.
    """
    expected = count_generators(b)
    check_cap(expected, cap, "generators")
    head, *rest = sorted(b.blocks, key=len, reverse=True)  # stable: a path leads
    variants = [(block,) if len(block) == 1 else (block, block[::-1]) for block in rest]
    cycles = (
        head + tuple(v for block in choice for v in block)
        for order in itertools.permutations(range(len(rest)))
        if len(head) > 1 or order[0] < order[-1]
        for choice in itertools.product(*[variants[i] for i in order])
    )
    return sorted_perms(cycles, expected, f"arrangements of {b}")


def generators_oracle(b: BDiagram, cap: int = DEFAULT_CAP) -> tuple[CyclicPerm, ...]:
    """Brute force: every cyclic permutation in which each arc's ends are adjacent.

    Scans the (n-1)! sequences ``(1,) + rest`` in lexicographic order, stops
    checking one at its first arc whose ends lie apart, and builds a checked
    ``CyclicPerm`` for each one kept; nothing is kept between calls.
    """
    n = b.n
    check_scan(n, "oracle")
    check_cap(count_generators(b), cap, "generators")
    arcs = b.arcs()
    found = []
    for rest in itertools.permutations(range(2, n + 1)):
        seq = (1,) + rest
        for u, v in arcs:
            at = seq.index(u)
            if seq[at - 1] != v != seq[at + 1 - n]:  # v is on neither side of u
                break
        else:
            found.append(CyclicPerm(seq))
    return tuple(found)


def complete_table(b: BDiagram, cap: int = DEFAULT_CAP) -> Listing:
    """All generators by completing the arc table of the diagram, as a
    :class:`~arcdiagrams.perm.Listing`.

    The diagram provides n - m arcs; every way of adding m more arcs so that
    each vertex meets exactly two and the result is a single spanning cycle
    is a generator diagram.  New arcs are added in increasing order, so each
    cycle is listed once.  The search keeps one list of open walks: ``walk[v]``
    is the path ending at v, read from v, and ``None`` once v meets two arcs.
    An arc joins the ends of two paths, whose join is stored at its two ends
    and undone after; the last arc closes the one path left into the cycle.
    Every open end still needs an arc, so each step joins the least open end
    i to an open end j after it, and past the last arc's partner if i took it.
    Raises ``TooLarge`` for more blocks than the recursion limit lets it search.
    """
    expected = count_generators(b)
    check_cap(expected, cap, "completions")
    walk: list[tuple[int, ...] | None] = [None] * (b.n + 1)
    for block in b.blocks:
        walk[block[0]], walk[block[-1]] = block, block[::-1]
    ends = [v for v, w in enumerate(walk) if w is not None]

    def search(left: int, last: Arc) -> Iterator[tuple[int, ...]]:
        i = next(v for v in ends if walk[v] is not None)
        wi = walk[i]
        ei = wi[-1]
        after = last[1] if last[0] == i else i
        if left == 1:  # one path left: the arc (i, ei) closes it
            if ei > after:
                yield wi
            return
        for j in ends:
            wj = walk[j]
            if j <= after or wj is None or j == ei:
                continue
            ej = wj[-1]
            saved = walk[ei], walk[ej]
            walk[i] = walk[j] = None
            walk[ei], walk[ej] = wi[::-1] + wj, wj[::-1] + wi
            yield from search(left - 1, (i, j))
            walk[ei], walk[ej] = saved
            walk[i], walk[j] = wi, wj

    # yielded, so sorted_perms rotates each walk as it closes and no list holds them
    try:
        return sorted_perms(search(b.block_count, (0, 0)), expected, f"completions of {b}")
    except RecursionError:  # one level per block
        raise too_deep(b.block_count) from None


class CommonGenerators(NamedTuple):
    """Intersection of two generator sets plus the arc-subset relation.

    The subset flags compare arcs only; isolated vertices never constrain
    a generator.
    """

    generators: tuple[CyclicPerm, ...]
    first_in_second: bool
    second_in_first: bool


def common_generators(b: BDiagram, other: BDiagram) -> CommonGenerators:
    """Generators shared by two diagrams on the same vertex set.

    A shared generator is a spanning cycle containing the union of the two
    arc sets, so the union alone decides the answer with no scan of the
    (n-1)! permutations, and n need not be 10 or less.  A vertex meeting
    three arcs, or a cycle short of n vertices, admits none; one spanning
    path or cycle admits one cycle, walked both ways from 1; any other
    union is a b-diagram whose generators
    (:func:`enumerate_generators`, capped at ``DEFAULT_CAP``) are shared.
    The arc-subset relation is sufficient but not necessary for sharing:

    >>> from arcdiagrams.bdiagram import parse_bdiagram
    >>> shared = common_generators(parse_bdiagram("1 2 | 3"), parse_bdiagram("2 3 | 1"))
    >>> [str(p) for p in shared.generators], shared.first_in_second
    (['1 2 3', '1 3 2'], False)
    """
    if b.n != other.n:
        raise SizeMismatch(f"vertex counts differ: {b.n} vs {other.n}")
    mine, theirs = b.arcs(), other.arcs()
    union = mine | theirs
    try:
        walks = trace_paths(b.n, union) if len(union) < b.n else [spanning_cycle(b.n, union)]
    except NotRepresentable:  # a vertex meets three arcs, or a cycle misses one
        walks = []
    shared: tuple[CyclicPerm, ...] = ()
    if len(walks) == 1:  # a path or cycle through all n >= 3 vertices
        shared = tuple(sorted_perms(walks, 2, f"cycles through {b}"))
    elif walks:  # a tuple, so that the result hashes
        shared = tuple(enumerate_generators(BDiagram(walks)))
    return CommonGenerators(
        generators=shared,
        first_in_second=mine <= theirs,
        second_in_first=theirs <= mine,
    )
