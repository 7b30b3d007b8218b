"""Exception types shared across the library.

Three families, matching the command-line exit codes: text that cannot be
parsed at all (exit 1), inputs that parse but break a domain rule (exit 2),
and guards that refuse oversized computations (exit 3), with their bounds.
"""

from math import log10

DEFAULT_CAP = 1_000_000
#: Largest n an exhaustive scan of (n-1)! permutations accepts: both oracles, census.
ORACLE_MAX_N = 10


class DiagramError(ValueError):
    """Base class for every error raised by this library."""

    exit_code = 2


class ParseError(DiagramError):
    """Input text or letters could not be interpreted."""

    exit_code = 1


class CapError(DiagramError):
    """A size guard refused to start: ``requested`` is over ``limit``."""

    exit_code = 3


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


def check_cap(count: int, cap: int, what: str, at_least: bool = False) -> None:
    """Raise :class:`CapExceeded`, with ``requested`` and ``limit``, if ``count > cap``.

    A count past 30 digits is stated by its number of digits, so the
    message stays short and never meets ``str()``'s limit on huge integers.
    With ``at_least`` the message calls ``count`` a lower bound.

    >>> check_cap(10**40, 100, "generators")
    Traceback (most recent call last):
    arcdiagrams.errors.CapExceeded: a 41-digit number of generators exceed the cap 100
    """
    if count <= cap:
        return
    digits = int(log10(count)) + 1
    # the float logarithm may round across a power of ten
    digits += (count >= 10**digits) - (count < 10 ** (digits - 1))
    size = count if digits <= 30 else f"a {digits}-digit number of"
    bound = "at least " if at_least else ""
    exc = CapExceeded(f"{bound}{size} {what} exceed the cap {cap}")
    exc.requested, exc.limit = count, cap
    raise exc


def check_scan(n: int, who: str) -> None:
    """Raise :class:`TooLarge`, with ``requested`` and ``limit``, past ``ORACLE_MAX_N``."""
    if n > ORACLE_MAX_N:
        exc = TooLarge(f"{who} refuses n={n} > {ORACLE_MAX_N}")
        exc.requested, exc.limit = n, ORACLE_MAX_N
        raise exc
