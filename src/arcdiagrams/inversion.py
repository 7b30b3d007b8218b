"""Recovering the cyclic permutations that share a given word.

The word-to-permutation map is many-to-one, so inverting a word means
enumerating a set, its fibre.  Counting and listing both sweep the
vertices left to right over the open partial paths drawn so far: an
``r`` starts a path, a ``k`` extends one, an ``R`` joins two, and the
final ``R`` closes the last one into the cycle.  ``count_perms_from_word``
keeps only how many paths are open and how many are a lone ``r``, so an
over-cap word is refused before listing; ``perms_from_word`` keeps the
paths themselves, and every branch of its sweep ends in a cycle.

``perms_from_word_oracle`` is the independent check: it filters the full
universe of (n-1)! permutations by their word and must agree with the
sweep everywhere.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from math import comb, factorial
from typing import Iterable, Sequence

from .errors import DEFAULT_CAP, brief, check_cap, check_scan
from .perm import MOVES, Classification, CyclicPerm, all_cyclic_perms, letter_sets, sorted_perms
from .words import check_cycle_word, cycle_word


def classes_from_word(word: str) -> Classification:
    """Read the three vertex classes straight off the letters.

    A letter outside rRk raises the ``NotAWord`` of :func:`check_cycle_word`.
    """
    sets = letter_sets(word, "rRk")
    if sum(map(len, sets)) < len(word):
        check_cycle_word(word)  # names the foreign letters
    return Classification(*sets)


def neighbor_candidates(cls: Classification) -> dict[int, frozenset[int]]:
    """Admissible cycle neighbours of each vertex, given its class.

    A left ramphoid may only sit next to larger right-ramphoid or keratoid
    vertices, a right ramphoid next to smaller left-ramphoid or keratoid
    vertices, and a keratoid next to either kind.  With no keratoids this
    reduces to larger-R / smaller-r only.
    """
    smaller_side = cls.R | cls.K
    larger_side = cls.Rbar | cls.K
    table: dict[int, frozenset[int]] = {}
    for v in range(1, cls.n + 1):
        if v in cls.R:
            table[v] = frozenset(j for j in larger_side if j > v)
        elif v in cls.Rbar:
            table[v] = frozenset(j for j in smaller_side if j < v)
        else:
            table[v] = frozenset(j for j in smaller_side if j < v) | frozenset(
                j for j in larger_side if j > v
            )
    return table


def sequence_word(seq: Sequence[int]) -> str:
    """Word of a cyclic sequence read off its entries' cyclic neighbours.

    Vertex v is ``r`` when it is smaller than both of its neighbours in
    ``seq``, ``R`` when larger than both, and ``k`` otherwise: the same
    word ``cycle_word`` reads off the arc set, in one pass and without
    building the diagram.

    >>> sequence_word((1, 3, 2, 7, 8, 4, 5, 6))
    'rrRrkRkR'
    """
    letters = ["k"] * len(seq)
    prev, cur = seq[-2], seq[-1]
    for nxt in seq:
        if cur < prev and cur < nxt:
            letters[cur - 1] = "r"
        elif cur > prev and cur > nxt:
            letters[cur - 1] = "R"
        prev, cur = cur, nxt
    return "".join(letters)


def count_perms_from_word(word: str, cap: int | None = None) -> int:
    """Number of cyclic permutations whose word is ``word``, without listing them.

    Sweeps the vertices left to right by the moves of ``perm.MOVES``, over
    open partial paths that in a cycle word all wait at both ends.  The
    state is (k paths, s of them a lone ``r``): a lone r's two waiting arcs
    are interchangeable, while a longer path offers either end.  The final
    ``R`` closes the one path left, so each cycle is counted once, and two
    permutations walk it.  Raises ``NotAWord`` like :func:`perms_from_word`.

    Every state the sweep reaches completes to at least one cycle, so after
    each letter twice the ways so far bound the count from below.  Given a
    ``cap``, raises ``CapExceeded`` with that bound as soon as it passes the
    cap; a count within the cap is exact.

    >>> count_perms_from_word("rkrRkR")
    8
    >>> count_perms_from_word("rrkkkkkkkkkkkkkkRR")
    536870912
    """
    check_cycle_word(word)
    what = f"permutations with the word {brief(word, 'letters')}"
    states = {(0, 0): 1}  # (k, s) -> number of ways
    for letter in word[:-1]:
        after: dict[tuple[int, int], int] = defaultdict(int)
        # a cycle word leaves no one-stub path; a path made of none taken is a lone r
        moves = [(twos, grown, grown > 0) for twos, ones, grown, _ in MOVES[letter] if not ones]
        for (k, s), ways in states.items():
            for twos, grown, lone_r in moves:
                for lone in range(twos + 1):  # lone r among the paths taken
                    times = comb(s, lone) * comb(k - s, twos - lone) << twos - lone
                    if times:
                        after[k + grown, s - lone + lone_r] += ways * times
        states = after
        if cap is not None:
            check_cap(2 * sum(states.values()), cap, what, at_least=True)
    return 2 * states.get((1, 0), 0)


def perms_from_word(word: str, cap: int = DEFAULT_CAP) -> tuple[CyclicPerm, ...]:
    """All cyclic permutations whose word is ``word``, in lexicographic order.

    Runs the sweep of :func:`count_perms_from_word` on the open paths
    themselves, as walks: ``r`` starts ``(v,)``, ``k`` appends v at either
    end of one walk, ``R`` joins two as ``p + (v,) + q`` in every
    orientation, and the final ``R`` closes the last.  Every branch ends in
    a cycle, walked both ways from 1, so the result is closed under
    reversal.  Raises ``NotAWord`` for a non-word and ``CapExceeded``
    before listing when the count exceeds ``cap``.

    The letters are branched on here, not read off ``perm.MOVES``: the
    listing must match the count in :func:`sorted_perms`, a check worth
    something only while the two routes are written apart.
    """
    total = count_perms_from_word(word, cap)
    n = len(word)
    found: list[tuple[int, ...]] = []

    def sweep(v: int, paths: tuple[tuple[int, ...], ...]) -> None:
        if v == n:
            [path] = paths
            at = path.index(1)
            walk = path[at:] + (v,) + path[:at]
            if sequence_word(walk) == word:
                found.extend((walk, walk[:1] + walk[:0:-1]))
        elif word[v - 1] == "r":
            sweep(v + 1, paths + ((v,),))
        elif word[v - 1] == "k":
            for i, path in enumerate(paths):
                rest = paths[:i] + paths[i + 1 :]
                for p in {path, path[::-1]}:  # one for a lone r
                    sweep(v + 1, rest + (p + (v,),))
        else:
            for i, j in combinations(range(len(paths)), 2):
                rest = paths[:i] + paths[i + 1 : j] + paths[j + 1 :]
                for p in {paths[i], paths[i][::-1]}:
                    for q in {paths[j], paths[j][::-1]}:
                        sweep(v + 1, rest + (p + (v,) + q,))

    sweep(1, ())
    return sorted_perms(found, total, f"cycles with the word {word}")


def perms_from_word_oracle(word: str, cap: int = DEFAULT_CAP) -> tuple[CyclicPerm, ...]:
    """Brute force: filter the whole universe by word equality.

    Refuses n above 10, and raises ``CapExceeded`` before the scan when the
    (n-1)! permutations to scan exceed ``cap``.
    """
    n = len(word)
    check_scan(n, "oracle")
    # below 3 vertices there is no universe; all_cyclic_perms refuses it
    if n >= 3:
        check_cap(factorial(n - 1), cap, "permutations to scan")
    return tuple(p for p in all_cyclic_perms(n) if cycle_word(p) == word)


def canonical_half(perms: Iterable[CyclicPerm]) -> tuple[CyclicPerm, ...]:
    """One permutation per reversal pair: those with second entry < last."""
    return tuple(p for p in perms if p.seq[1] < p.seq[-1])
