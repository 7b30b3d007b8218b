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
backtracking (:func:`complete_table`), and a brute-force filter of the
whole universe (:func:`generators_oracle`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .bdiagram import BDiagram
from .errors import CapExceeded, SizeMismatch, TooLarge, TooSmall
from .perm import Arc, CyclicPerm, all_cyclic_perms, arc_set, trace_components

DEFAULT_CAP = 1_000_000
ORACLE_MAX_N = 10


def canonical_generator(b: BDiagram) -> CyclicPerm:
    """Concatenate the blocks in order and rotate the cycle to start at 1."""
    flat = tuple(v for block in b.blocks for v in block)
    at = flat.index(1)
    return CyclicPerm(flat[at:] + flat[:at])


def count_generators(b: BDiagram) -> int:
    """``2**(m-l) * (m-1)!`` for m blocks of which l are singletons.

    Raises :class:`TooSmall` below 3 vertices.  Fig. 16's three paths:

    >>> from arcdiagrams.bdiagram import parse_bdiagram
    >>> count_generators(parse_bdiagram("1 2 3 | 4 7 8 | 5 6"))
    16
    """
    if b.n < 3:
        raise TooSmall(f"need at least 3 vertices, got {b.n}")
    m, l = b.block_count, b.singleton_count
    return 2 ** (m - l) * factorial(m - 1)


def enumerate_generators(b: BDiagram, cap: int = DEFAULT_CAP) -> tuple[CyclicPerm, ...]:
    """All generators by arranging blocks, sorted lexicographically.

    The first block keeps its place in the circular order; the remaining
    blocks are permuted and every non-singleton block may independently be
    reversed.  The count always matches :func:`count_generators`.
    """
    expected = count_generators(b)
    if expected > cap:
        raise CapExceeded(f"{expected} generators exceed the cap {cap}")
    variants = [
        (block,) if len(block) == 1 else (block, block[::-1])
        for block in b.blocks
    ]
    found = set()
    for order in itertools.permutations(range(1, b.block_count)):
        slots = [variants[0]] + [variants[i] for i in order]
        for choice in itertools.product(*slots):
            flat = tuple(v for block in choice for v in block)
            at = flat.index(1)
            found.add(flat[at:] + flat[:at])
    if len(found) != expected:
        raise RuntimeError(
            f"arrangement count {len(found)} != formula {expected} for {b}"
        )
    return tuple(CyclicPerm(seq) for seq in sorted(found))


@lru_cache(maxsize=8)
def _arc_universe(n: int) -> tuple[tuple[CyclicPerm, frozenset[Arc]], ...]:
    return tuple((p, arc_set(p).arcs) for p in all_cyclic_perms(n))


def generators_oracle(b: BDiagram, cap: int = DEFAULT_CAP) -> tuple[CyclicPerm, ...]:
    """Brute force: filter every cyclic permutation by arc containment."""
    n = b.n
    if n > ORACLE_MAX_N:
        raise TooLarge(f"oracle refuses n={n} > {ORACLE_MAX_N}")
    expected = count_generators(b)
    if expected > cap:
        raise CapExceeded(f"{expected} generators exceed the cap {cap}")
    target = b.arcs()
    if n <= 8:
        return tuple(p for p, arcs in _arc_universe(n) if target <= arcs)
    return tuple(p for p in all_cyclic_perms(n) if target <= arc_set(p).arcs)


def complete_table(b: BDiagram, cap: int = DEFAULT_CAP) -> tuple[CyclicPerm, ...]:
    """All generators by completing the arc table of the diagram.

    The diagram provides n - m arcs; every way of adding m more arcs so
    that each vertex meets exactly two and the result is a single
    spanning cycle is a generator diagram, contributing that cycle's two
    traversals.  New arcs are tried in increasing order so each completion
    is visited once.
    """
    expected = count_generators(b)
    if expected > cap:
        raise CapExceeded(f"{expected} completions exceed the cap {cap}")
    n = b.n
    have = b.arcs()
    missing = n - len(have)

    comp = {v: block[0] for block in b.blocks for v in block}
    degree = {v: sum(v in arc for arc in have) for v in comp}

    candidates = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (i, j) not in have
    ]
    completions: list[frozenset[Arc]] = []
    added: list[Arc] = []

    def search(start: int, degree: dict[int, int], comp: dict[int, int]) -> None:
        if len(added) == missing:
            if len(set(comp.values())) == 1:
                completions.append(have | frozenset(added))
            return
        closing_time = len(added) == missing - 1
        for idx in range(start, len(candidates)):
            i, j = candidates[idx]
            if degree[i] >= 2 or degree[j] >= 2:
                continue
            if comp[i] == comp[j] and not closing_time:
                continue  # a cycle before the last arc can never span
            next_degree = dict(degree)
            next_degree[i] += 1
            next_degree[j] += 1
            next_comp = dict(comp)
            src = next_comp[i]
            for w in next_comp:
                if next_comp[w] == src:
                    next_comp[w] = next_comp[j]
            added.append((i, j))
            search(idx + 1, next_degree, next_comp)
            added.pop()

    search(0, degree, comp)

    perms: list[CyclicPerm] = []
    for arcs in completions:
        [(walk, _)] = trace_components(n, arcs)
        first = CyclicPerm(walk)
        perms += (first, first.reverse())
    perms.sort()
    if len(perms) != expected:
        raise RuntimeError(
            f"completion count {len(perms)} != formula {expected} for {b}"
        )
    return tuple(perms)


@dataclass(frozen=True)
class CommonGenerators:
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
    try:
        components = trace_components(b.n, b.arcs() | other.arcs())
    except ValueError:  # a vertex meets three arcs
        components = []
    shared: tuple[CyclicPerm, ...] = ()
    if len(components) == 1:
        walk, _ = components[0]
        at = walk.index(1)
        first = CyclicPerm(walk[at:] + walk[:at])
        shared = tuple(sorted((first, first.reverse())))
    elif components and not any(is_cycle for _, is_cycle in components):
        shared = enumerate_generators(BDiagram(tuple(walk for walk, _ in components)))
    return CommonGenerators(
        generators=shared,
        first_in_second=b.arcs() <= other.arcs(),
        second_in_first=other.arcs() <= b.arcs(),
    )
