"""The census: every cyclic permutation of [n] checked against the word counts."""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

# through the modules, never ``from .perm import ...``: a function bound here
# when this module loads would keep whatever wrapper held its name then
from . import perm, words
from .errors import DEFAULT_CAP, TooSmall, brief, check_cap, check_scan


class SplitException(NamedTuple):
    """A word whose permutations defy the split by smallest non-r second entry."""

    word: str
    expected_second: int
    count: int
    example: str


class CensusReport(NamedTuple):
    n: int
    perm_count: int
    word_count: int
    motzkin_expected: int
    dyck_count: int
    dyck_expected: int
    split_exceptions: tuple[SplitException, ...]

    @property
    def words_pass(self) -> bool:
        return self.word_count == self.motzkin_expected

    @property
    def dyck_pass(self) -> bool:
        return self.dyck_count == self.dyck_expected


def census_report(n: int, cap: int = DEFAULT_CAP) -> CensusReport:
    """Exhaustively check the word counts over all cyclic permutations of [n].

    Confirms that the number of distinct words matches the Motzkin
    number and the keratoid-free count the Catalan number, and
    lists the words whose permutation sets do not split into "second entry
    equals the smallest non-left-ramphoid vertex" plus reversals.  Raises
    :class:`CapExceeded` before enumerating when (n-1)! exceeds ``cap``.
    """
    if n < 3:
        raise TooSmall(f"census needs n >= 3, got {brief(n)}")
    check_scan(n, "census")
    check_cap(factorial(n - 1), cap, "permutations")
    # per word: [expected second entry, permutations off the split, the
    # first of them]; the enumeration is lexicographic, so the first is the least
    tallies: dict[str, list] = {}
    count = 0
    cycle_word = words.cycle_word  # one lookup, not one per permutation
    for p in perm.all_cyclic_perms(n):
        count += 1
        word = cycle_word(p)
        tally = tallies.get(word)
        if tally is None:
            # the smallest vertex that is not a left ramphoid
            tally = tallies[word] = [len(word) - len(word.lstrip("r")) + 1, 0, None]
        seq = p.seq
        # the reverse of seq has second entry seq[-1]
        if seq[1] != tally[0] and seq[-1] != tally[0]:
            tally[1] += 1
            if tally[2] is None:
                tally[2] = seq
    exceptions = [
        SplitException(word, expected, off, " ".join(map(str, first)))
        for word, (expected, off, first) in sorted(tallies.items())
        if off
    ]
    dyck_expected = words.catalan_number((n - 2) // 2) if n % 2 == 0 else 0
    return CensusReport(
        n=n,
        perm_count=count,
        word_count=len(tallies),
        motzkin_expected=words.motzkin_number(n - 2),
        dyck_count=sum(1 for w in tallies if "k" not in w),
        dyck_expected=dyck_expected,
        split_exceptions=tuple(exceptions),
    )


def census_lines(report: CensusReport) -> list[str]:
    lines = [
        f"n={report.n} cyclic permutations={report.perm_count}",
        f"distinct words: {report.word_count} expected {report.motzkin_expected}"
        f" -> {'PASS' if report.words_pass else 'FAIL'}",
        f"dyck words: {report.dyck_count} expected {report.dyck_expected}"
        f" -> {'PASS' if report.dyck_pass else 'FAIL'}",
        f"second-entry split exceptions: {len(report.split_exceptions)} words",
    ]
    for exc in report.split_exceptions:
        lines.append(
            f"  {exc.word}: expected second entry {exc.expected_second}, "
            f"{exc.count} permutations in neither half (e.g. {exc.example})"
        )
    return lines
