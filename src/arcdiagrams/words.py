"""Letter encodings of arc diagrams and their lattice paths.

Cycle diagrams use the three-letter alphabet ``r`` / ``R`` / ``k`` (left
ramphoid, right ramphoid, keratoid; ``R`` is ASCII for the barred letter).
Block diagrams add ``a`` / ``A`` for vertices that begin or end a single
arc and ``e`` for isolated vertices, giving six letters in total.

Words draw as paths of unit steps.  There are two dialects:

- ``cycle``: one step per letter (r up, R down, k flat), so a word is a
  Motzkin path, or a Dyck path when it has no ``k``;
- ``block``: r and R become double up / down steps and k a valley (one
  step down, one up), while a / A / e stay single, so a letter may span
  two steps and the path length is the word length plus the number of
  r, R and k letters.

Every per-letter rule (degree, steps in either dialect, inflation) is read
off :data:`ARCS`, the arcs opening and closing at a vertex of each class.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import NamedTuple

from .errors import AlphabetMismatch, HasKeratoids, LengthMismatch, NotAWord, brief
from .perm import ARCS, Classification, CyclicPerm, arc_set, arc_word

CYCLE_ALPHABET = "rRk"
BLOCK_ALPHABET = "aAekrR"


def _degree(letter: str) -> int:
    opening, closing = ARCS[letter]
    return opening - closing


# a cycle vertex meets two arcs, so its one step is half its degree; a block
# vertex steps down per closing arc, then up per opening one (k is a valley),
# or once flat (e)
_STEP_TABLES = {
    "cycle": {c: (_degree(c) // 2,) for c in CYCLE_ALPHABET},
    "block": {c: (-1,) * ARCS[c][1] + (1,) * ARCS[c][0] or (0,) for c in BLOCK_ALPHABET},
}
# a letter meeting at most one arc is one step, its degree: a up, A down, e flat
_SINGLE_STEP = {_degree(c): c for c in BLOCK_ALPHABET if sum(ARCS[c]) <= 1}


def _check_letters(word: str, alphabet: str) -> None:
    if not word:
        raise AlphabetMismatch("empty word")
    bad = set(word) - set(alphabet)
    if bad:
        raise AlphabetMismatch(f"letters {brief(sorted(bad))} not in alphabet {alphabet!r}")


def word_of_classes(cls: Classification) -> str:
    """Letter per vertex in natural order: r, R or k by class."""
    letters = ["k"] * cls.n
    for v in cls.R:
        letters[v - 1] = "r"
    for v in cls.Rbar:
        letters[v - 1] = "R"
    return "".join(letters)


def cycle_word(p: CyclicPerm) -> str:
    """Letter-per-vertex encoding of the arc diagram of ``p``.

    Position i carries the class of vertex i in natural order (not the
    order the cycle visits them).  A permutation and its reverse share one
    diagram, hence one word.

    The letter is read straight off the arc set: 2, 1 or 0 arcs opening at
    a vertex spell r, k or R.

    >>> cycle_word(CyclicPerm((1, 3, 2, 7, 8, 4, 5, 6)))
    'rrRrkRkR'
    """
    return arc_word(p.n, arc_set(p).arcs)


class WordPredicates(NamedTuple):
    is_motzkin: bool
    is_dyck: bool
    is_elevated: bool


def word_predicates(word: str) -> WordPredicates:
    """Motzkin / Dyck / elevated tests for a word over ``rRk``.

    Motzkin: equally many r and R, and no prefix has more R than r.
    Dyck: Motzkin with no flat letters.  Elevated: every proper nonempty
    prefix has strictly more r than R, i.e. the path only touches the
    axis at its endpoints.
    """
    heights = path_steps(word, "cycle").heights
    is_motzkin = heights[-1] == 0 and min(heights) >= 0
    is_elevated = all(h > 0 for h in heights[:-1])
    return WordPredicates(is_motzkin, is_motzkin and "k" not in word, is_elevated)


def check_cycle_word(word: str) -> None:
    """Raise :class:`NotAWord` unless ``word`` could encode a cycle diagram.

    Requires the rRk alphabet, r/R at the two ends with no R in second
    place and no r in second-to-last place, balance, and an elevated
    Motzkin path.
    """
    try:
        preds = word_predicates(word)  # checks the letters as it reads them
    except AlphabetMismatch as exc:
        raise NotAWord(str(exc)) from exc
    if word[0] != "r" or word[-1] != "R":
        raise NotAWord("word must start with r and end with R")
    if word[1] == "R" or word[-2] == "r":
        raise NotAWord("second letter R or second-to-last letter r is impossible")
    if not preds.is_motzkin:
        raise NotAWord("word is not balanced with nonnegative prefixes")
    if not preds.is_elevated:
        raise NotAWord("path touches the axis before the final letter")


def reindex_word(word: str, p: CyclicPerm) -> str:
    """Reorder ``word`` so position i shows the letter of vertex ``p[i]``.

    The round trip is ``word[i] == reindex_word(word, p)[pos(i)]`` where
    pos is the inverse permutation.
    """
    if len(word) != p.n:
        raise LengthMismatch(f"word length {len(word)} != n {p.n}")
    return "".join(word[v - 1] for v in p.seq)


def dyck_parity_word(p: CyclicPerm) -> str:
    """Dyck word of a keratoid-free permutation, read off position parity.

    Vertex i gets ``r`` exactly when its position in the sequence is odd.
    Equals :func:`cycle_word` whenever the latter has no ``k``.
    """
    if "k" in cycle_word(p):
        raise HasKeratoids(f"{brief(str(p))} has keratoid vertices")
    letters = [""] * p.n
    for i, v in enumerate(p.seq):
        letters[v - 1] = "R" if i % 2 else "r"  # i is the 0-based position
    return "".join(letters)


def degree_vector(word: str) -> tuple[int, ...]:
    """Arcs opening minus arcs closing per letter: R -2, A -1, e/k 0, a +1, r +2.

    No validity judgement is made.

    >>> degree_vector("rarARAA")
    (2, 1, 2, -1, -2, -1, -1)
    """
    _check_letters(word, BLOCK_ALPHABET)
    return tuple(_degree(c) for c in word)


class StepPath(NamedTuple):
    """A lattice path as unit steps, each +1 (up), -1 (down) or 0 (flat)."""

    steps: tuple[int, ...]

    @property
    def heights(self) -> tuple[int, ...]:
        """Height after each step, starting from 0."""
        return tuple(accumulate(self.steps))

    def __len__(self) -> int:
        return len(self.steps)


# namedtuple's own _make (and _replace through it) checks len() against the
# one field, which __len__ above makes the step count; a NamedTuple body may
# not redefine _make, so it is set here
StepPath._make = classmethod(lambda cls, fields: cls(*fields))


def step_groups(word: str, dialect: str) -> tuple[tuple[int, ...], ...]:
    """Unit steps contributed by each letter, one group per letter."""
    if dialect not in _STEP_TABLES:
        raise ValueError(f"unknown dialect {dialect!r}, use 'cycle' or 'block'")
    table = _STEP_TABLES[dialect]
    _check_letters(word, "".join(table))
    return tuple(table[c] for c in word)


def path_steps(word: str, dialect: str) -> StepPath:
    """Path of ``word`` in the given dialect (``cycle`` or ``block``).

    In the block dialect the step count is the word length plus the
    number of r, R and k letters.
    """
    return StepPath(tuple(s for group in step_groups(word, dialect) for s in group))


def inflate(word: str) -> str:
    """Expand a six-letter word to single-step letters over ``a``/``A``/``e``.

    Each unit step of the block path is spelled by its single-step letter,
    so r becomes aa, R becomes AA, k becomes Aa and the others are
    unchanged.  The output has the same block path as the input by
    construction, hence one letter per block step.

    >>> inflate("arAkAA")
    'aaaAAaAA'
    """
    return "".join(_SINGLE_STEP[step] for step in path_steps(word, "block").steps)


def motzkin_number(k: int) -> int:
    """k-th Motzkin number (M0 = M1 = 1), by the three-term recurrence
    (k+2) M(k) = (2k+1) M(k-1) + (3k-3) M(k-2)."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    before, last = 1, 1  # M(i-2), M(i-1) as i runs up to k
    for i in range(2, k + 1):
        before, last = last, ((2 * i + 1) * last + (3 * i - 3) * before) // (i + 2)
    return last


def catalan_number(k: int) -> int:
    """k-th Catalan number, C(2k, k) / (k+1) (C0 = 1)."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    return comb(2 * k, k) // (k + 1)
