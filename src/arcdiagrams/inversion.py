"""Recovering the cyclic permutations that share a given word.

The word-to-permutation map is many-to-one, so inverting a word means
enumerating a set.  The search walks the cycle vertex by vertex: from a
left ramphoid it may only step to a larger right-ramphoid or keratoid
vertex, from a right ramphoid only to a smaller left-ramphoid or keratoid
vertex, and a keratoid allows both directions.  Per-vertex budgets (two
larger neighbours for r, two smaller for R, one of each for k) prune the
rest.

``perms_from_word_oracle`` is the independent check: it filters the full
universe of (n-1)! permutations by their word and must agree with the
search everywhere.
"""

from __future__ import annotations

from typing import Iterable

from .errors import CapExceeded, TooLarge
from .generation import DEFAULT_CAP
from .perm import Classification, CyclicPerm, all_cyclic_perms
from .words import check_cycle_word, cycle_word

ORACLE_MAX_N = 10


def classes_from_word(word: str) -> Classification:
    """Read the three vertex classes straight off the letters."""
    R = frozenset(i + 1 for i, c in enumerate(word) if c == "r")
    Rbar = frozenset(i + 1 for i, c in enumerate(word) if c == "R")
    K = frozenset(i + 1 for i, c in enumerate(word) if c == "k")
    return Classification(R, Rbar, K)


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


def perms_from_word(word: str, cap: int = DEFAULT_CAP) -> tuple[CyclicPerm, ...]:
    """All cyclic permutations whose word is ``word``, in lexicographic order.

    The result is closed under reversal.  Raises ``NotAWord`` when the
    input breaks the word rules; a valid word with no matches returns an
    empty tuple.  Raises ``CapExceeded`` as soon as a permutation beyond
    the first ``cap`` is found.
    """
    check_cycle_word(word)
    n = len(word)
    cls = classes_from_word(word)
    candidates = {v: sorted(js) for v, js in neighbor_candidates(cls).items()}

    # remaining smaller/larger neighbour slots per vertex
    need_small = [0] * (n + 1)
    need_large = [0] * (n + 1)
    for v in range(1, n + 1):
        if v in cls.R:
            need_large[v] = 2
        elif v in cls.Rbar:
            need_small[v] = 2
        else:
            need_small[v] = need_large[v] = 1

    def take(u: int, v: int) -> bool:
        lo, hi = (u, v) if u < v else (v, u)
        if need_large[lo] == 0 or need_small[hi] == 0:
            return False
        need_large[lo] -= 1
        need_small[hi] -= 1
        return True

    def give_back(u: int, v: int) -> None:
        lo, hi = (u, v) if u < v else (v, u)
        need_large[lo] += 1
        need_small[hi] += 1

    results: list[CyclicPerm] = []
    seq = [1]
    used = [False] * (n + 1)
    used[1] = True

    def extend() -> None:
        last = seq[-1]
        if len(seq) == n:
            if take(last, 1):
                candidate = CyclicPerm(tuple(seq))
                if cycle_word(candidate) == word:
                    results.append(candidate)
                    if len(results) > cap:
                        raise CapExceeded(
                            f"more than {cap} permutations have the word {word}"
                        )
                give_back(last, 1)
            return
        for j in candidates[last]:
            if used[j] or not take(last, j):
                continue
            used[j] = True
            seq.append(j)
            extend()
            seq.pop()
            used[j] = False
            give_back(last, j)

    extend()
    return tuple(sorted(results))


def perms_from_word_oracle(word: str) -> tuple[CyclicPerm, ...]:
    """Brute force: filter the whole universe by word equality.

    Refuses n above 10; cost grows like (n-1)!.
    """
    n = len(word)
    if n > ORACLE_MAX_N:
        raise TooLarge(f"oracle refuses n={n} > {ORACLE_MAX_N}")
    return tuple(p for p in all_cyclic_perms(n) if cycle_word(p) == word)


def canonical_half(perms: Iterable[CyclicPerm]) -> tuple[CyclicPerm, ...]:
    """One permutation per reversal pair: those with second entry < last."""
    return tuple(p for p in perms if p.seq[1] < p.seq[-1])
