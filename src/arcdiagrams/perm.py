"""Cyclic permutations of [n] and their arc diagrams.

A cyclic permutation is written in one-line form starting at 1, for example
``1 3 2 7 8 4 5 6``.  Consecutive entries (including the wrap-around pair)
are the edges of a Hamiltonian cycle on the vertices 1..n.  Drawing the
vertices on a horizontal line and the cycle edges as arcs above it gives
the arc diagram; each arc is stored as an ordered pair ``(i, j)`` with
``i < j`` and every vertex meets exactly two arcs.

Each vertex falls into one of three classes, readable off either the
sequence or the arc set:

- left ramphoid: smaller than both cycle neighbours, so both of its arcs
  open there (it is the smaller endpoint of two arcs);
- right ramphoid: larger than both neighbours, both arcs close there;
- keratoid: between its neighbours, one arc closes and one opens.

Block diagrams add three letters; :data:`ARCS` lists all six, and
:func:`arc_word` spells either alphabet off an arc set.

A permutation and its reverse traverse the same cycle, so they share one
arc diagram.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Sequence
from functools import total_ordering
from operator import lt
from typing import Iterable, Iterator

from .errors import (
    NotAPermutation, NotNormalized, NotRepresentable, OutOfRange, TooLarge, TooSmall, brief
)

Arc = tuple[int, int]

#: (arcs opening, arcs closing) at a vertex of each class.
ARCS = {"r": (2, 0), "R": (0, 2), "k": (1, 1), "a": (1, 0), "A": (0, 1), "e": (0, 0)}
# translates a vertex's tally byte, 3 * (arcs opening) + (arcs closing), to its letter
_TALLY = bytes(3 * opening + closing for opening, closing in ARCS.values())
_LETTER = bytes.maketrans(_TALLY, "".join(ARCS).encode())


class _Value:
    """An immutable record over its ``__slots__``, which ``__init__`` sets by
    ``object.__setattr__`` in one form (tuples, frozensets) whatever the
    caller passed.  Equal only within its class, it hashes as the tuple of
    its fields and prints as ``Name(field=value, ...)``.

    Where the fields are valid by construction, internal code builds the value
    by ``object.__new__`` and ``object.__setattr__`` on each slot, skipping the
    checks in ``__init__`` (see :func:`all_cyclic_perms`, :class:`Listing`
    and :func:`arc_set`)."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r}: {type(self).__name__} is frozen")

    __delattr__ = __setattr__  # del passes no value

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), self._values()


def arc_text(arcs: Iterable[Arc], isolated: Iterable[int] = ()) -> str:
    """Brace notation for an arc set, e.g. ``{13,2,48,56,7}``.

    Arcs print as the two endpoints run together when both are single
    digits (``13``), otherwise dash-separated (``4-12``).  Isolated
    vertices print bare.  Items are ordered by their smallest vertex.
    """
    items = sorted([tuple(a) for a in arcs] + [(v,) for v in isolated])
    parts = []
    for item in items:
        if len(item) == 1:
            parts.append(str(item[0]))
        elif item[0] <= 9 and item[1] <= 9:
            parts.append(f"{item[0]}{item[1]}")
        else:
            parts.append(f"{item[0]}-{item[1]}")
    return "{" + ",".join(parts) + "}"


def _neighbours(n: int, arcs: Iterable[Arc]) -> tuple[list[int], list[int]]:
    """Each vertex's first and second neighbour in arc order, 0 for none: the
    neighbour table that every walk reads.  Raises :class:`NotRepresentable`
    at the first vertex found to meet three or more arcs."""
    first = [0] * (n + 1)
    second = [0] * (n + 1)
    for i, j in arcs:
        if not first[i]:
            first[i] = j
        elif not second[i]:
            second[i] = j
        else:
            raise NotRepresentable("a vertex meets more than two arcs")
        if not first[j]:
            first[j] = i
        elif not second[j]:
            second[j] = i
        else:
            raise NotRepresentable("a vertex meets more than two arcs")
    return first, second


def _walk(first: list[int], second: list[int], start: int, ahead: int) -> list[int]:
    """The vertices from ``start`` on through ``ahead``, up to a path end or back at start."""
    walk = [start]
    prev, cur = start, ahead
    while cur and cur != start:
        walk.append(cur)
        prev, cur = cur, (second[cur] if first[cur] == prev else first[cur])
    return walk


def trace_paths(n: int, arcs: Iterable[Arc]) -> list[tuple[int, ...]]:
    """The paths of an arc set on 1..n (an isolated vertex is one), each from its
    smaller end and sorted by least vertex.  Raises :class:`NotRepresentable`
    when a vertex meets three or more arcs, or the arcs hold a cycle.

    >>> trace_paths(5, [(1, 4), (2, 4), (3, 5)])
    [(1, 4, 2), (3, 5)]
    >>> trace_paths(4, [(1, 2), (2, 3), (1, 3)])
    Traceback (most recent call last):
    arcdiagrams.errors.NotRepresentable: arcs contain a cycle
    """
    first, second = _neighbours(n, arcs)
    far = [False] * (n + 1)
    paths = []
    for start in range(1, n + 1):  # each path from the end met first, marking the other
        if not (second[start] or far[start]):
            walk = _walk(first, second, start, first[start])
            far[walk[-1]] = True
            paths.append(tuple(walk))
    if sum(map(len, paths)) < n:  # the vertices left over lie on cycles
        raise NotRepresentable("arcs contain a cycle")
    paths.sort(key=min)
    return paths


def spanning_cycle(n: int, arcs: frozenset[Arc]) -> tuple[int, ...]:
    """The cycle that ``arcs`` forms through all of 1..n, walked from 1 towards
    its smaller neighbour; :class:`NotRepresentable` unless the n arcs form just that."""
    if len(arcs) != n:
        of = " of" * (abs(n) >= 10**30)  # after a digit count, as in ``check_cap``
        raise NotRepresentable(f"expected {brief(n)}{of} arcs, got {len(arcs)}")
    for i, j in arcs:
        if not (1 <= i < j <= n):
            raise NotRepresentable(f"bad arc ({brief(i)}, {brief(j)}) for n={n}")
    first, second = _neighbours(n, arcs)
    if n:  # n arcs, none at a third: every vertex meets two, so the walk returns to 1
        walk = _walk(first, second, 1, min(first[1], second[1]))
        if len(walk) == n:
            return tuple(walk)
    raise NotRepresentable("arcs do not form a single spanning cycle")


@total_ordering
class CyclicPerm(_Value):
    """A cyclic permutation of {1..n} in one-line form, first entry 1; ordered by ``seq``.

    >>> CyclicPerm((1, 3, 2)).n
    3
    """

    __slots__ = ("seq",)

    def __init__(self, seq: Iterable[int]):
        seq = tuple(seq)
        object.__setattr__(self, "seq", seq)
        n = len(seq)
        if set(seq) != set(range(1, n + 1)):  # n entries, so none repeats
            raise NotAPermutation(f"not a permutation of 1..{n}: {brief(seq)}")
        if n < 3:
            raise TooSmall(f"need at least 3 vertices, got {n}")
        if seq[0] != 1:
            raise NotNormalized(f"first entry must be 1, got {seq[0]}")

    def __lt__(self, other):
        return self.seq < other.seq if other.__class__ is self.__class__ else NotImplemented

    @property
    def n(self) -> int:
        return len(self.seq)

    def at(self, i: int) -> int:
        """Entry at cyclic position ``i`` (1-based; any integer works)."""
        return self.seq[(i - 1) % self.n]

    def position_of(self, value: int) -> int:
        """1-based position of ``value`` (the inverse permutation)."""
        if value not in self.seq:
            raise OutOfRange(f"{brief(value)} out of 1..{self.n}")
        return self.seq.index(value) + 1

    def reverse(self) -> CyclicPerm:
        """The same cycle walked the other way: entry i becomes entry n+2-i.

        >>> str(CyclicPerm((1, 3, 2, 7, 8, 4, 5, 6)).reverse())
        '1 6 5 4 8 7 2 3'
        """
        return CyclicPerm(self.seq[:1] + self.seq[:0:-1])

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.seq)


def as_row(entries: tuple[int, ...]) -> str:
    """``entries`` as a row, ``chr(v)`` for each v: a str compares by code point and
    stores 1, 2 or 4 bytes a char by its largest, so rows sort as their entries do
    at the least width.  Raises :class:`TooLarge` past ``sys.maxunicode``."""
    try:
        return "%c" * len(entries) % entries  # one call, twice as fast as joining chr()s
    except OverflowError:  # a vertex past sys.maxunicode
        top, limit = max(entries), sys.maxunicode
        raise TooLarge(f"no row holds vertex {brief(top)} > {limit}", top, limit) from None


class Listing(Sequence):
    """A read-only sequence of the ``CyclicPerm``s of one n, held as rows (see
    :func:`as_row`); a row becomes a ``CyclicPerm`` only when it is read.
    Equal to a ``Listing`` with the same rows and to a tuple of the same
    perms; unhashable, as a list is.

    >>> listing = Listing([as_row((1, 2, 3)), as_row((1, 3, 2))], 3)
    >>> listing.rows, listing[1], listing == (CyclicPerm((1, 2, 3)), CyclicPerm((1, 3, 2)))
    (['\\x01\\x02\\x03', '\\x01\\x03\\x02'], CyclicPerm(seq=(1, 3, 2)), True)
    """

    __slots__ = ("rows", "n")

    def __init__(self, rows: list[str], n: int):
        self.rows = rows  # each a CyclicPerm's entries, as a row
        self.n = n

    def _perm(self, row: str) -> CyclicPerm:
        p = object.__new__(CyclicPerm)  # valid by construction
        object.__setattr__(p, "seq", tuple(map(ord, row)))
        return p

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Listing(self.rows[i], self.n)
        return self._perm(self.rows[i])

    def __iter__(self) -> Iterator[CyclicPerm]:
        return map(self._perm, self.rows)

    def __eq__(self, other):
        if isinstance(other, Listing):
            return self.rows == other.rows  # a row's length fixes n
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __repr__(self):
        return f"Listing({tuple(self)!r})"


def sorted_perms(cycles: Iterable[str], expected: int, what: str) -> Listing:
    """Each of ``cycles`` walked both ways from 1, in lexicographic order:
    the one tail of every listing route.

    Each cycle comes once, as a row (see :func:`as_row`) through all n >= 3
    vertices from any of them either way, so its walks skip the checks of
    ``CyclicPerm.__init__``.  ``cycles`` is read once, so a generator can hand
    them over as it finds them.  Raises ``RuntimeError`` unless they make
    ``expected`` permutations, all distinct.

    >>> [str(p) for p in sorted_perms([as_row((2, 3, 1))], 2, "cycles")]
    ['1 2 3', '1 3 2']
    """
    cycles = iter(cycles)
    first = next(cycles, "")
    n = len(first)
    rows: list[str] = []
    # a walk twice over holds both walks from 1: on from its first 1, back from its second
    for walk in itertools.chain([first], cycles) if n else ():
        at = walk.index("\x01")
        walk += walk
        rows += walk[at : at + n], walk[at + n : at : -1]
    rows.sort()
    if len(rows) != expected or not all(map(lt, rows, rows[1:])):
        raise RuntimeError(f"{what}: {len(rows)} listed, not {expected} distinct")
    return Listing(rows, n)


def parse_perm(text: str) -> CyclicPerm:
    """Parse a space-separated permutation such as ``"1 3 2 7 8 4 5 6"``."""
    tokens = text.split()
    if not tokens:
        raise NotAPermutation("empty permutation text")
    return CyclicPerm(_int_entries(tokens, text, len(tokens)))


def _int_entries(tokens: list[str], text: str, n: int) -> tuple[int, ...]:
    """``tokens`` of ``text``, which holds ``n`` entries, as integers; else
    :class:`NotAPermutation` names the first that is no integer, or one too long
    for ``int()`` (past the interpreter's digit limit, so outside 1..n)."""
    entries = []
    for token in tokens:
        try:
            entries.append(int(token))
        except ValueError as exc:
            huge = (token[1:] if token[0] in "+-" else token).isdecimal()
            what = f"entry outside 1..{n}" if huge else "non-integer entry"
            raise NotAPermutation(f"{what} in {brief(text)!r}") from exc
    return tuple(entries)


class CycleDiagram(_Value):
    """The arc set of a cyclic permutation: one n-cycle drawn linearly."""

    __slots__ = ("n", "arcs")

    def __init__(self, n: int, arcs: Iterable[Arc]):
        arcs = frozenset(map(tuple, arcs))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcs)
        spanning_cycle(n, arcs)

    def sorted_arcs(self) -> tuple[Arc, ...]:
        return tuple(sorted(self.arcs))

    def __str__(self) -> str:
        return arc_text(self.arcs)


def arc_set(p: CyclicPerm) -> CycleDiagram:
    """Arc diagram of ``p``: one arc per pair of cyclically adjacent entries.

    The closing pair (last entry, first entry) is included, so there are n
    arcs.  A permutation and its reverse give the same diagram.
    """
    seq = p.seq
    pairs = []
    prev = seq[-1]
    for v in seq:
        pairs.append((prev, v) if prev < v else (v, prev))
        prev = v
    # n >= 3 distinct entries give n distinct arcs on one spanning cycle, so the
    # diagram skips the walk of ``CycleDiagram.__init__``
    diagram = object.__new__(CycleDiagram)
    object.__setattr__(diagram, "n", len(seq))
    object.__setattr__(diagram, "arcs", frozenset(pairs))
    return diagram


class Classification(_Value):
    """Partition of the vertices into left ramphoids, right ramphoids and
    keratoids.  Always ``|R| == |Rbar|`` and ``2|R| + |K| == n``."""

    __slots__ = ("R", "Rbar", "K")

    def __init__(self, R: Iterable[int], Rbar: Iterable[int], K: Iterable[int]):
        R, Rbar, K = frozenset(R), frozenset(Rbar), frozenset(K)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "Rbar", Rbar)
        object.__setattr__(self, "K", K)
        n = len(R) + len(Rbar) + len(K)
        # the union has at most n members, so holding 1..n makes them disjoint
        if not (R | Rbar | K).issuperset(range(1, n + 1)):
            raise NotAPermutation("classes must partition 1..n")
        if len(R) != len(Rbar):
            raise NotRepresentable("left and right ramphoids must be equinumerous")

    @property
    def n(self) -> int:
        return len(self.R) + len(self.Rbar) + len(self.K)


def arc_word(n: int, arcs: Iterable[Arc]) -> str:
    """Each vertex's letter, 1..n in natural order, read off how many of ``arcs``
    (at most two per vertex) open and close there: a cycle or block word.

    >>> arc_word(3, [(1, 2), (2, 3), (1, 3)])
    'rkR'
    >>> arc_word(5, [(1, 3), (3, 4)])
    'aekAe'
    """
    tally = [0] * (n + 1)
    for i, j in arcs:
        tally[i] += 3
        tally[j] += 1
    return bytes(tally[1:]).translate(_LETTER).decode()


def letter_sets(word: str, letters: str) -> tuple[frozenset[int], ...]:
    """The vertices (1-based positions in ``word``) of each of ``letters``,
    one frozenset per letter; a letter not in ``letters`` is in no set."""
    where: dict[str, list[int]] = {letter: [] for letter in letters}
    for v, letter in enumerate(word, 1):
        if letter in where:
            where[letter].append(v)
    return tuple(frozenset(where[letter]) for letter in letters)


def classify(diagram: CycleDiagram) -> Classification:
    """Classify vertices by how many of their two arcs open there.

    A vertex that is the smaller endpoint of both its arcs is a left
    ramphoid, of neither a right ramphoid, and of one a keratoid.
    """
    return Classification(*letter_sets(arc_word(diagram.n, diagram.arcs), "rRk"))


def all_cyclic_perms(n: int) -> Iterator[CyclicPerm]:
    """All (n-1)! cyclic permutations of [n], in lexicographic order."""
    if n < 3:
        raise TooSmall(f"need at least 3 vertices, got {brief(n)}")
    new, put = object.__new__, object.__setattr__
    for rest in itertools.permutations(range(2, n + 1)):  # valid by construction
        p = new(CyclicPerm)
        put(p, "seq", (1,) + rest)
        yield p
