"""Reference combinatorics that never call the library under test.

The output checks compare CLI output with these, and the workload samplers
use them to pick inputs.  Each is an independent route:

- the word of a permutation by comparing each entry with its two cyclic
  neighbours (the library reads it off the arc set);
- fibre sizes of a word by a transfer-matrix sweep over the vertices, and
  for n <= 9 the fibres themselves by scanning all (n-1)! permutations;
- block words, complements and crossings straight from the arc sets;
- the number of ways to realize a block word, by a second sweep.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import lru_cache
from math import comb, factorial

SCAN_MAX_N = 9

Blocks = tuple[tuple[int, ...], ...]


# ------------------------------------------------------ cyclic permutations

def perm_word(seq: tuple[int, ...]) -> str:
    """Word of a cyclic sequence: r below both neighbours, R above both, k between."""
    n = len(seq)
    letters = [""] * n
    for i, v in enumerate(seq):
        prev, nxt = seq[i - 1], seq[(i + 1) % n]
        if v < prev and v < nxt:
            letters[v - 1] = "r"
        elif v > prev and v > nxt:
            letters[v - 1] = "R"
        else:
            letters[v - 1] = "k"
    return "".join(letters)


def perm_arcs(seq: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    n = len(seq)
    return frozenset(
        (min(seq[i], seq[(i + 1) % n]), max(seq[i], seq[(i + 1) % n]))
        for i in range(n)
    )


def is_cyclic_perm(seq, n: int) -> bool:
    """A list of n distinct integers 1..n that starts with 1."""
    return (
        isinstance(seq, (list, tuple))
        and len(seq) == n
        and all(type(v) is int for v in seq)
        and sorted(seq) == list(range(1, n + 1))
        and seq[0] == 1
    )


def reverse(seq: tuple[int, ...]) -> tuple[int, ...]:
    """The same cycle walked the other way, still starting at 1."""
    return (seq[0],) + tuple(reversed(seq[1:]))


@lru_cache(maxsize=None)
def fibres(n: int) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Every word of length n with its sorted fibre, by scanning all (n-1)!."""
    if n > SCAN_MAX_N:
        raise ValueError(f"scan refuses n={n} > {SCAN_MAX_N}")
    found: dict[str, list[tuple[int, ...]]] = defaultdict(list)
    for rest in itertools.permutations(range(2, n + 1)):
        seq = (1,) + rest
        found[perm_word(seq)].append(seq)
    return {w: tuple(perms) for w, perms in found.items()}


def fibre_size(word: str) -> int:
    """Number of cyclic permutations whose word is ``word``.

    Sweep the vertices in increasing order, keeping the partial cycle as
    open paths.  The state is (k open paths, s of them a lone r whose two
    stubs are interchangeable).  r opens a lone path; k extends a path
    (s ways on a lone r, 2(k-s) on the two ends of the others); R joins
    two distinct paths, and the last R closes the single remaining path.
    Each cycle has two traversals.
    """
    n = len(word)
    states = {(0, 0): 1}
    for i, c in enumerate(word):
        nxt: dict[tuple[int, int], int] = defaultdict(int)
        for (k, s), ways in states.items():
            long = k - s
            if c == "r":
                nxt[k + 1, s + 1] += ways
            elif c == "k":
                if s:
                    nxt[k, s - 1] += ways * s
                if long:
                    nxt[k, s] += ways * 2 * long
            elif c == "R" and i == n - 1:
                if (k, s) == (1, 0):
                    nxt[0, 0] += ways
            elif c == "R":
                if s >= 2:
                    nxt[k - 1, s - 2] += ways * comb(s, 2)
                if s and long:
                    nxt[k - 1, s - 1] += ways * s * 2 * long
                if long >= 2:
                    nxt[k - 1, s] += ways * 4 * comb(long, 2)
            else:
                raise ValueError(f"letter {c!r} not in rRk")
        states = nxt
    return 2 * states.get((0, 0), 0)


def motzkin(k: int) -> int:
    """Motzkin number M_k: lattice paths of k steps up/flat/down from 0 to 0."""
    row = [1]  # paths ending at each height
    for _ in range(k):
        row = [
            (row[h - 1] if h >= 1 else 0)
            + (row[h] if h < len(row) else 0)
            + (row[h + 1] if h + 1 < len(row) else 0)
            for h in range(len(row) + 1)
        ]
    return row[0]


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


# ----------------------------------------------------------- block diagrams

def diagram_text(blocks: Blocks) -> str:
    return " | ".join(" ".join(str(v) for v in block) for block in blocks)


def perm_text(seq: tuple[int, ...]) -> str:
    return " ".join(str(v) for v in seq)


def parse_blocks(text: str) -> Blocks:
    return tuple(tuple(int(t) for t in part.split()) for part in text.split("|"))


def diagram_arcs(blocks: Blocks) -> frozenset[tuple[int, int]]:
    return frozenset(
        (min(x, y), max(x, y)) for block in blocks for x, y in zip(block, block[1:])
    )


def is_diagram(blocks: Blocks, n: int) -> bool:
    """Nonempty blocks that partition 1..n, none holding every vertex."""
    flat = [v for block in blocks for v in block]
    return (
        all(blocks)
        and sorted(flat) == list(range(1, n + 1))
        and all(len(block) < n for block in blocks)
    )


_LETTER = {(2, 0): "r", (0, 2): "R", (1, 1): "k", (1, 0): "a", (0, 1): "A", (0, 0): "e"}


def block_word(blocks: Blocks) -> str:
    """Letter of each vertex by how many of its arcs open and close there."""
    n = sum(len(block) for block in blocks)
    opens = [0] * (n + 1)
    closes = [0] * (n + 1)
    for i, j in diagram_arcs(blocks):
        opens[i] += 1
        closes[j] += 1
    return "".join(_LETTER[opens[v], closes[v]] for v in range(1, n + 1))


def generator_count(blocks: Blocks) -> int:
    """2**(m-l) * (m-1)! for m blocks of which l are single vertices."""
    m = len(blocks)
    singles = sum(1 for block in blocks if len(block) == 1)
    return 2 ** (m - singles) * factorial(m - 1)


def complement_blocks(seq: tuple[int, ...], blocks: Blocks) -> list[list[int]]:
    """Blocks of the cut set: each path small end first, sorted by minimum.

    Every vertex outside the cut arcs is a block of its own.  The caller
    guarantees the cut set is a union of paths.
    """
    cut = perm_arcs(seq) - diagram_arcs(blocks)
    neighbours: dict[int, list[int]] = defaultdict(list)
    for i, j in cut:
        neighbours[i].append(j)
        neighbours[j].append(i)
    seen: set[int] = set()
    out = []
    for v in sorted(set(seq)):
        if v in seen or len(neighbours[v]) == 2:
            continue  # start only from path ends and isolated vertices
        path = [v]
        prev = None
        while True:
            step = [u for u in neighbours[path[-1]] if u != prev]
            if not step:
                break
            prev = path[-1]
            path.append(step[0])
        seen.update(path)
        out.append(path if path[0] < path[-1] else path[::-1])
    return sorted(out, key=min)


def max_crossing(arcs: frozenset[tuple[int, int]]) -> int:
    """Size of the largest family of mutually crossing arcs, by scanning subsets."""
    ordered = sorted(arcs)
    best = 1 if ordered else 0
    for size in range(2, len(ordered) + 1):
        for family in itertools.combinations(ordered, size):
            starts = [i for i, _ in family]
            ends = [j for _, j in family]
            if (
                all(a < b for a, b in zip(starts, starts[1:]))
                and all(a < b for a, b in zip(ends, ends[1:]))
                and starts[-1] < ends[0]
            ):
                best = size
                break
        else:
            return best
    return best


def realizations(word: str) -> tuple[int, int]:
    """(arc sets realizing ``word`` without a cycle, partial arc sets over all prefixes).

    Sweep the vertices, keeping the arcs so far as paths.  The state is
    (s lone r vertices with two open stubs, a paths with two open ends,
    o paths with one open end).  A closing letter picks the stubs it lands
    on: one way on a lone r, two on a two-ended path, one on a one-ended
    path.  R must join two distinct paths, since two stubs of one path
    would close a cycle.  The second number counts every partial
    realization of every prefix: the size of a left-to-right search tree
    that never looks ahead.
    """
    states = {(0, 0, 0): 1}
    nodes = 0
    for c in word:
        nxt: dict[tuple[int, int, int], int] = defaultdict(int)
        for (s, a, o), ways in states.items():
            if c == "e":
                nxt[s, a, o] += ways
            elif c == "a":
                nxt[s, a, o + 1] += ways
            elif c == "r":
                nxt[s + 1, a, o] += ways
            elif c == "A":
                nxt[s - 1, a, o + 1] += ways * s
                nxt[s, a - 1, o + 1] += ways * 2 * a
                nxt[s, a, o - 1] += ways * o
            elif c == "k":
                nxt[s - 1, a + 1, o] += ways * s
                nxt[s, a, o] += ways * (2 * a + o)
            elif c == "R":
                nxt[s - 2, a + 1, o] += ways * comb(s, 2)
                nxt[s - 1, a, o] += ways * s * (2 * a + o)
                nxt[s, a - 1, o] += ways * (4 * comb(a, 2) + 2 * a * o)
                nxt[s, a, o - 2] += ways * comb(o, 2)
            else:
                raise ValueError(f"letter {c!r} not in aAekrR")
        states = {key: ways for key, ways in nxt.items() if ways}
        nodes += sum(states.values())
    return states.get((0, 0, 0), 0), nodes
