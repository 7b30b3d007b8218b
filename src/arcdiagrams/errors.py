"""Exception types shared across the library.

Three families, matching the command-line exit codes: text that cannot be
parsed at all (exit 1), inputs that parse but break a domain rule (exit 2),
and guards that refuse oversized computations (exit 3), with their bounds.
"""

import sys
from math import log10

DEFAULT_CAP = 1_000_000
#: Largest n an exhaustive scan of (n-1)! permutations accepts: both oracles, census.
ORACLE_MAX_N = 10


class DiagramError(ValueError):
    """Base class for every error this library raises on a rejected
    permutation, diagram, word or size.  A bad value of an option, such as
    an unknown dialect or a negative index to ``motzkin_number``, stays a
    plain ``ValueError``."""

    exit_code = 2


class ParseError(DiagramError):
    """Input text or letters could not be interpreted."""

    exit_code = 1


class CapError(DiagramError):
    """A size guard refused to start: ``requested`` is over ``limit``."""

    exit_code = 3

    def __init__(self, message, requested=None, limit=None):
        super().__init__(message)
        self.requested, self.limit = requested, limit


# ---- parse failures ----

class NotAPermutation(ParseError):
    pass


class NotNormalized(ParseError):
    pass


class TooSmall(ParseError):
    pass


class EmptyBlock(ParseError):
    pass


class BlockTooLong(ParseError):
    pass


class AlphabetMismatch(ParseError):
    pass


class NotAWord(ParseError):
    pass


# ---- domain rule violations ----

class LengthMismatch(DiagramError):
    pass


class HasKeratoids(DiagramError):
    pass


class NotAGenerator(DiagramError):
    pass


class NotRepresentable(DiagramError):
    pass


class DegreeExceeded(DiagramError):
    pass


class WouldCycle(DiagramError):
    pass


class AlreadyPresent(DiagramError):
    pass


class NotPresent(DiagramError):
    pass


class OutOfRange(DiagramError):
    pass


class SizeMismatch(DiagramError):
    pass


# ---- size guards ----

class TooLarge(CapError):
    pass


class CapExceeded(CapError):
    pass


def brief(value, unit: str = "characters") -> str:
    """``value`` as a message echoes it: short, and never through ``str()``
    of a huge integer.

    An integer past 30 digits is given by its number of digits.  Anything
    else prints as ``str()`` prints it, with integers inside a tuple or list
    under the same rule; text past 40 characters is cut to its first 20,
    ``…`` and its length, in ``unit`` or, for a tuple or list, in entries.

    >>> brief((1, 2, -10**40))
    '(1, 2, a 41-digit negative number)'
    >>> brief("r" * 100, "letters")
    'rrrrrrrrrrrrrrrrrrrr… (100 letters)'
    """
    if isinstance(value, int):
        size = abs(value)
        if size < 10**30:
            return str(value)
        digits = int(log10(size)) + 1
        # the float logarithm may round across a power of ten
        digits += (size >= 10**digits) - (size < 10 ** (digits - 1))
        return f"a {digits}-digit {'negative ' * (value < 0)}number"
    if isinstance(value, (tuple, list)):
        items = [brief(v) if isinstance(v, (int, tuple, list)) else repr(v) for v in value]
        text = ", ".join(items)
        text = f"[{text}]" if isinstance(value, list) else f"({text}{',' * (len(value) == 1)})"
        unit = "entries"
    else:
        text = str(value)
    return text if len(text) <= 40 else f"{text[:20]}… ({len(value)} {unit})"


def check_cap(count: int, cap: int, what: str, at_least: bool = False) -> None:
    """Raise :class:`CapExceeded`, with ``requested`` and ``limit``, if ``count > cap``.

    Both numbers are given by :func:`brief`, so the message stays short.
    With ``at_least`` the message calls ``count`` a lower bound.

    >>> check_cap(10**40, 100, "generators")
    Traceback (most recent call last):
    arcdiagrams.errors.CapExceeded: a 41-digit number of generators exceed the cap 100
    """
    if count <= cap:
        return
    size = brief(count) + " of" * (count >= 10**30)
    bound = "at least " if at_least else ""
    raise CapExceeded(f"{bound}{size} {what} exceed the cap {brief(cap)}", count, cap)


def check_scan(n: int, who: str) -> None:
    """Raise :class:`TooLarge`, with ``requested`` and ``limit``, past ``ORACLE_MAX_N``."""
    if n > ORACLE_MAX_N:
        raise TooLarge(f"{who} refuses n={brief(n)} > {ORACLE_MAX_N}", n, ORACLE_MAX_N)


def too_deep(depth: int) -> TooLarge:
    """:class:`TooLarge` for a search of ``depth`` levels that ran past the
    interpreter's recursion limit, with ``requested`` and ``limit``."""
    limit = sys.getrecursionlimit()
    return TooLarge(f"input too deep to search within recursion limit {limit}", depth, limit)
