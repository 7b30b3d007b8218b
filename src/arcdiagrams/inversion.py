"""Recovering the cyclic permutations that share a given word.

The word-to-permutation map is many-to-one, so inverting a word means
enumerating a set, its fibre.  ``count_perms_from_word`` counts it as one
product over the heights of the word's path, so an over-cap word is
refused before listing.  ``perms_from_word`` lists it by a sweep of the
vertices over the open partial paths drawn so far (an ``r`` starts one, a
``k`` extends one, an ``R`` joins two or closes the cycle).  Each move
fixes its vertex's letter, so no walk is read back; the sweep is written
apart from the product, and the listing's size is checked against it.

``perms_from_word_oracle`` is the independent check: it filters the full
universe of (n-1)! permutations by their word and must agree with the
sweep everywhere.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

from .errors import DEFAULT_CAP, brief, check_cap, check_scan, too_deep
from .perm import Classification, CyclicPerm, Listing, all_cyclic_perms, sorted_perms
from .words import check_cycle_word, cycle_word


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


def count_perms_from_word(word: str, cap: int | None = None) -> int:
    """Number of cyclic permutations whose word is ``word``, without listing them.

    With h the height of the word's path before a letter (``r`` raises it,
    ``R`` lowers it), the count is the product of 2h at each ``k`` and
    h(h-1) at each ``R`` but the last.  Label the two stubs of each open
    path: a ``k`` takes one of 2h stubs, an ``R`` joins stubs of two paths
    in 2h(h-1) ways, and the last ``R`` closes the one path left.  Each
    cycle so arises 2 ** #r times, once per labelling of the ``r``'s stubs,
    and two permutations walk it; with the 2 ** (#r - 1) of the joins, the
    powers of 2 cancel.  Raises ``NotAWord`` like :func:`perms_from_word`.

    An elevated path has h >= 1 at a ``k`` and h >= 2 at an ``R`` but the
    last, so the product so far bounds the count from below.  Given a
    ``cap``, raises ``CapExceeded`` with that bound as soon as it passes
    the cap; a count within the cap is exact.  The count may pass the 4,300
    digits ``str()`` allows by default; the CLI lifts that limit per command.

    >>> count_perms_from_word("rkrRkR")
    8
    >>> count_perms_from_word("rrkkkkkkkkkkkkkkRR")
    536870912
    """
    check_cycle_word(word)
    what = f"permutations with the word {brief(word, 'letters')}"
    count, height = 1, 0
    for letter in word[:-1]:
        if letter == "r":
            height += 1
            continue
        if letter == "k":
            count *= 2 * height
        else:
            count *= height * (height - 1)
            height -= 1
        if cap is not None:
            check_cap(count, cap, what, at_least=True)
    return count


def perms_from_word(word: str, cap: int = DEFAULT_CAP) -> Listing:
    """All cyclic permutations whose word is ``word``, in lexicographic order, as a
    :class:`~arcdiagrams.perm.Listing`.

    Sweeps the vertices left to right over the open paths, as walks:
    ``r`` starts ``(v,)``, ``k`` appends v at either end of one walk, ``R``
    joins two as ``p + (v,) + q`` in every orientation, and the final ``R``
    closes the last.  Each move fixes its vertex's letter: an ``r``'s
    neighbours both come later, a ``k`` has one earlier and one later, and
    an ``R``'s are both earlier.  So every branch ends in a cycle with the
    word, and no walk is read back.  Each cycle is listed once, and walked
    both ways from 1, so the result is closed under reversal.  Raises ``NotAWord`` for a
    non-word, ``CapExceeded`` before listing when the count exceeds
    ``cap``, and ``TooLarge`` for a word too long to sweep within the
    recursion limit.

    The sweep shares nothing with the product of
    :func:`count_perms_from_word`, so :func:`sorted_perms` checking the
    listing's length and distinctness against that count is a real check.
    """
    total = count_perms_from_word(word, cap)
    n = len(word)
    cycles: list[tuple[int, ...]] = []  # a yield-from sweep ran 1.5-1.8x slower

    def sweep(v: int, paths: tuple[tuple[int, ...], ...]) -> None:
        if v == n:
            [path] = paths
            cycles.append(path + (v,))
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

    try:
        sweep(1, ())
    except RecursionError:  # one level per letter
        raise too_deep(n) from None
    return sorted_perms(cycles, total, f"cycles with the word {word}")


def perms_from_word_oracle(word: str, cap: int = DEFAULT_CAP) -> tuple[CyclicPerm, ...]:
    """Brute force: filter the whole universe by word equality.

    Raises ``NotAWord`` for a non-word, as the sweep does, refuses n above
    10, and raises ``CapExceeded`` when the (n-1)! to scan exceed ``cap``.
    """
    check_cycle_word(word)
    n = len(word)
    check_scan(n, "oracle")
    check_cap(factorial(n - 1), cap, "permutations to scan")
    return tuple(p for p in all_cyclic_perms(n) if cycle_word(p) == word)


def canonical_half(perms: Listing) -> Listing:
    """One permutation per reversal pair of a listing: those with second entry < last."""
    return Listing([row for row in perms.rows if (e := perms.entries(row))[1] < e[-1]], perms.n)
