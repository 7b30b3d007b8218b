"""Output checks against the reference routes, run outside the timed region.

``check`` returns whether one command's output is right and how many
results it emitted.  A result is a permutation classified (census), a
permutation listed (invert), or a generator listed or verdict given
(blocks).  A wrong exit code, unparseable JSON or any mismatch fails the
command, and a failed command counts no results.
"""

from __future__ import annotations

import json
from math import factorial

import reference as ref
from workloads import Command


class Mismatch(Exception):
    pass


def check(command: Command, exit_code: int, stdout: str) -> tuple[bool, int, str]:
    """(output correct, results emitted, reason when not correct)."""
    try:
        if exit_code != 0:
            raise Mismatch(f"exit code {exit_code}")
        try:
            payload = json.loads(stdout)
        except ValueError as exc:
            raise Mismatch(f"output is not JSON: {exc}") from None
        results = _CHECKS[command.kind](command.argv, payload)
    except (Mismatch, KeyError, TypeError, ValueError, AttributeError) as exc:
        return False, 0, f"{type(exc).__name__}: {exc}"
    return True, results, ""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _census(argv, payload) -> int:
    n = int(argv[1])
    _expect(payload["n"] == n, "wrong n")
    _expect(payload["permutations"] == factorial(n - 1), "permutations != (n-1)!")
    words, dyck = payload["words"], payload["dyck_words"]
    _expect(words["pass"] is True and dyck["pass"] is True, "a pass flag is false")
    _expect(words["expected"] == ref.motzkin(n - 2), "wrong Motzkin count")
    dyck_expected = ref.catalan((n - 2) // 2) if n % 2 == 0 else 0
    _expect(dyck["expected"] == dyck_expected, "wrong Dyck count")
    return payload["permutations"]


def _invert(argv, payload) -> int:
    word = argv[1]
    n = len(word)
    _expect(payload["word"] == word, "wrong word echoed")
    perms = [tuple(p) if ref.is_cyclic_perm(p, n) else None for p in payload["perms"]]
    _expect(None not in perms, "an entry is not a cyclic permutation of 1..n")
    _expect(all(a < b for a, b in zip(perms, perms[1:])), "not sorted and distinct")
    _expect(all(ref.perm_word(p) == word for p in perms), "a permutation has another word")
    listed = set(perms)
    _expect(all(ref.reverse(p) in listed for p in perms), "not closed under reversal")
    _expect(len(perms) == ref.fibre_size(word), "fibre size differs from the count")
    if n <= ref.SCAN_MAX_N:
        _expect(tuple(perms) == ref.fibres(n)[word], "differs from the full scan")
    return len(perms)


def _generators(argv, payload) -> int:
    blocks = ref.parse_blocks(argv[1])
    n = sum(len(block) for block in blocks)
    perms = payload["perms"]
    expected = ref.generator_count(blocks)
    _expect(payload["method"] == argv[argv.index("--method") + 1], "wrong method")
    _expect(payload["count"] == len(perms) == expected, "count differs from 2**(m-l)*(m-1)!")
    _expect(all(ref.is_cyclic_perm(p, n) for p in perms), "an entry is not a cyclic permutation")
    _expect(len({tuple(p) for p in perms}) == expected, "entries are not distinct")
    arcs = ref.diagram_arcs(blocks)
    _expect(all(arcs <= ref.perm_arcs(tuple(p)) for p in perms), "an entry misses an arc")
    return len(perms)


def _accept(argv, payload) -> int:
    word = argv[1]
    _expect(payload["valid"] is True, "realizable word rejected")
    witness = ref.parse_blocks(payload["witness"])
    _expect(ref.is_diagram(witness, len(word)), "witness is not a diagram")
    _expect(ref.block_word(witness) == word, "witness has another word")
    return 1


def _reject(argv, payload) -> int:
    _expect(payload == {"valid": False, "reason": "Unrealizable"}, "not rejected as Unrealizable")
    return 1


def _crossing(argv, payload) -> int:
    arcs = ref.diagram_arcs(ref.parse_blocks(argv[1]))
    _expect(payload["max_crossing"] == ref.max_crossing(arcs), "wrong crossing number")
    return 1


def _complement(argv, payload) -> int:
    perm = tuple(int(t) for t in argv[1].split())
    expected = ref.complement_blocks(perm, ref.parse_blocks(argv[2]))
    _expect(payload["blocks"] == expected, "wrong complement")
    return 1


_CHECKS = {
    "census": _census,
    "invert": _invert,
    "generators": _generators,
    "accept": _accept,
    "reject": _reject,
    "crossing": _crossing,
    "complement": _complement,
}
