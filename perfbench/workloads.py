"""Seeded workloads: the fixed list of CLI commands one benchmark pass runs.

Each workload is built from the seed alone, with the benchmark's own
samplers and reference counts (never the library under test), so the same
seed gives the same argv on every commit.

Inputs whose cost varies by orders of magnitude (word fibres, the
realization search on unrealizable words) are stratified: every seed gets
one input near each of a fixed ladder of sizes, from small to large.  The
slow inputs stay in, and the total work no longer depends much on the
seed, so runs with different seeds can be compared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import reference as ref

WORKLOADS = ("census", "invert", "blocks")

# Candidates drawn per stratified input; the one closest to the target size wins.
CANDIDATES = 256

CENSUS_NS = range(3, 10)

# (n, log2 of the target fibre size): few-k words with small fibres up to
# k-heavy words with fibres in the thousands.
INVERT_LADDER = (
    [(8, t + 0.5) for t in (4, 5, 6, 7, 8, 9)]
    + [(9, t + 0.5) for t in (5, 6, 7, 8, 9, 10)]
    + [(10, t + 0.5) for t in (6, 7, 8, 9, 10, 11, 12)]
    + [(11, t + 0.5) for t in (7, 9, 11, 12, 13)]
)
# Fixed k-heavy word: 8,192 permutations and about 270 KB of JSON.
INVERT_FIXED = "rrkkkkkkRR"

# (n, blocks, singletons) of the diagrams whose generators are listed.
GENERATOR_SHAPES = (
    (10, 4, 0), (10, 5, 1), (10, 6, 2),
    (11, 4, 1), (11, 5, 0), (11, 6, 2),
    (12, 4, 2), (12, 5, 1), (12, 6, 0),
)
GENERATOR_METHODS = ("blocks", "table")
ACCEPT_WORDS = 6
# log2 of the target search size of each unrealizable word.
REJECT_LADDER = (9.5, 10.5, 11.5, 12.5, 13.0, 13.5, 14.0, 14.5, 15.0, 15.5)
REJECT_PREFIX = 13
REJECT_SUFFIX = "rkR"
CROSSINGS = 4
COMPLEMENTS = 4


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments and the kind of output check it gets."""

    kind: str  # census, invert, generators, accept, reject, crossing, complement
    argv: tuple[str, ...]


def build(workload: str, seed: int) -> list[Command]:
    """The command list of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    builders = {"census": _census, "invert": _invert, "blocks": _blocks}
    return builders[workload](rng)


def _census(rng: random.Random) -> list[Command]:
    ns = list(CENSUS_NS)
    rng.shuffle(ns)
    return [Command("census", ("census", str(n), "--json")) for n in ns]


def _invert(rng: random.Random) -> list[Command]:
    words = [
        _closest(rng, lambda r: motzkin_word(r, n), ref.fibre_size, target)
        for n, target in INVERT_LADDER
    ]
    words.append(INVERT_FIXED)
    rng.shuffle(words)
    return [Command("invert", ("invert", w, "--json")) for w in words]


def _blocks(rng: random.Random) -> list[Command]:
    commands = []
    for n, m, singles in GENERATOR_SHAPES:
        text = ref.diagram_text(sample_diagram(rng, n, m, singles))
        for method in GENERATOR_METHODS:
            commands.append(
                Command(
                    "generators",
                    ("generators", text, "--list", "--method", method, "--json"),
                )
            )
    for _ in range(ACCEPT_WORDS):
        word = ref.block_word(random_diagram(rng, rng.randint(14, 18)))
        commands.append(Command("accept", ("validate-word", word, "--json")))
    for target in REJECT_LADDER:
        word = _closest(rng, spliced_word, search_size, target)
        commands.append(Command("reject", ("validate-word", word, "--json")))
    for _ in range(CROSSINGS):
        blocks = random_diagram(rng, rng.randint(10, 12))
        commands.append(Command("crossing", ("crossing", ref.diagram_text(blocks), "--json")))
    for _ in range(COMPLEMENTS):
        blocks = random_diagram(rng, rng.randint(10, 12))
        perm = random_generator(rng, blocks)
        commands.append(
            Command(
                "complement",
                ("complement", ref.perm_text(perm), ref.diagram_text(blocks), "--json"),
            )
        )
    rng.shuffle(commands)
    return commands


def _closest(rng, draw, size, target: float):
    """Of CANDIDATES draws, the first whose log2 size is nearest ``target``."""
    best, best_gap = None, math.inf
    for _ in range(CANDIDATES):
        item = draw(rng)
        gap = abs(math.log2(size(item)) - target)
        if gap < best_gap:
            best, best_gap = item, gap
    return best


# ------------------------------------------------------------------ samplers

@lru_cache(maxsize=None)
def _motzkin_paths(steps: int, height: int) -> int:
    """Paths of ``steps`` up/flat/down steps from ``height`` down to 0, never below 0."""
    if height < 0 or height > steps:
        return 0
    if steps == 0:
        return 1
    return sum(_motzkin_paths(steps - 1, height + d) for d in (1, 0, -1))


def motzkin_word(rng: random.Random, n: int) -> str:
    """Uniform elevated Motzkin word of length n: r, a Motzkin path, R."""
    height, letters = 0, []
    for left in range(n - 2, 0, -1):
        options = [("r", height + 1), ("k", height), ("R", height - 1)]
        weights = [_motzkin_paths(left - 1, h) for _, h in options]
        letter, height = rng.choices(options, weights=weights)[0]
        letters.append(letter)
    return "r" + "".join(letters) + "R"


def sample_diagram(rng: random.Random, n: int, m: int, singles: int) -> ref.Blocks:
    """Random diagram on [n] with m blocks, ``singles`` of them single vertices.

    Block sizes are a uniform composition; labels are a uniform shuffle.
    """
    paths = m - singles
    if paths < 1 or 2 * paths + singles > n:
        raise ValueError(f"no diagram on {n} vertices with {m} blocks, {singles} single")
    spare = n - singles - 2 * paths
    bars = sorted(rng.sample(range(spare + paths - 1), paths - 1))
    edges = [-1] + bars + [spare + paths - 1]
    sizes = [1] * singles + [edges[i + 1] - edges[i] + 1 for i in range(paths)]
    rng.shuffle(sizes)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    blocks, at = [], 0
    for size in sizes:
        blocks.append(tuple(labels[at : at + size]))
        at += size
    return tuple(blocks)


def random_diagram(rng: random.Random, n: int) -> ref.Blocks:
    """Random diagram on [n] with 3-7 blocks, up to two of them single vertices."""
    singles = rng.randint(0, 2)
    m = min(rng.randint(3, 7), (n + singles) // 2)
    return sample_diagram(rng, n, m, singles)


def random_generator(rng: random.Random, blocks: ref.Blocks) -> tuple[int, ...]:
    """A cyclic permutation containing the diagram's arcs: blocks in a random
    circular order, each path in a random direction, rotated to start at 1."""
    order = [blocks[0]] + rng.sample(blocks[1:], len(blocks) - 1)
    flat = [v for block in order for v in (block[::-1] if rng.random() < 0.5 else block)]
    at = flat.index(1)
    return tuple(flat[at:] + flat[:at])


def spliced_word(rng: random.Random) -> str:
    """The word of a random 13-vertex diagram with ``rkR`` appended.

    The prefix's arcs all close inside it (its letters open as many arcs as
    they close), so the last three vertices can only join each other: r at
    14 opens two arcs, k at 15 takes one and opens one, R at 16 takes both,
    and the three arcs form a cycle.  The word passes every degree and
    endpoint screen yet has no diagram.
    """
    prefix = sample_diagram(rng, REJECT_PREFIX, rng.randint(3, 6), rng.randint(0, 1))
    return ref.block_word(prefix) + REJECT_SUFFIX


def search_size(word: str) -> int:
    """Partial realizations over all prefixes: the cost of rejecting ``word``
    by a search that never looks ahead."""
    return ref.realizations(word)[1]
