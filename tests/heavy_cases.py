"""The heavy cases: the worst known inputs of the command line, one row each.

A row gives a command's arguments after the interpreter, the exit code it
must end with, the count it must list under ``"perms"`` (as text, its lines;
or None), and a bound on its wall time and on its own peak RSS, each about
three times a median of three runs on a 2-core x86-64 host under Python
3.11, and no wall bound under 0.5 s; a known-slow row's wall bound is the
10 s that no command may take.  Each argument stays within the 131,072
bytes that Linux allows one command-line argument.

``tests/test_heavy_cases.py`` runs every row once in tier-1 and holds it to
its exit code, its count, its stderr line and both bounds, stopping it at
its wall bound.  Run as a script, this module first prints, in a Markdown
code block, the lines of every module in ``src/`` as ``wc -l`` counts them,
and for one command of each benchmarked kind the lines of the modules whose
body ran, which it compiles, and the milliseconds that command spent in the
library and, of those, in ``compile()``.  Then it reports every row that
tier-1 does not expect to fail: per row, one Markdown line with the median
wall time of its runs and their largest own peak RSS.  It prints every
line, then fails only if a command exited with another code, or a row
listed another count or wrote another stderr line::

    PYTHONPATH=src python tests/heavy_cases.py

Each command compiles ``src/`` as it finds it; to time it as the benchmark
does, remove ``src/arcdiagrams/__pycache__`` and set
``PYTHONDONTWRITEBYTECODE=1`` first.

With ``--compare PARENT_TREE [--runs N] [--rows SUBSTRING]`` it compares
this tree with the checkout ``PARENT_TREE`` instead.  For every row that is
not known slow and whose name holds ``SUBSTRING`` (any, by default), it runs
both trees N times (5 by default), alternating which goes first, and prints
one row of a Markdown table: each side's median wall time and median own
peak RSS, the ratio of the medians, how many pairs this tree ran faster, and
the geometric-mean ratio of the pairs with a 95% bootstrap interval.  It adds
evidence and holds no bound; it fails only as the report does::

    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src python tests/heavy_cases.py --compare ../parent

``run_own_peak`` runs every command, and the tests' other spawned commands,
from a small launcher that times it, stops it at a timeout and reads its own
peak RSS.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]

# spawns the command in argv[3:], kills it once it has run argv[2] seconds (0: no
# limit), and writes its exit code, peak RSS (KiB) and wall seconds to the file
# descriptor argv[1]; the kill comes before the wait reaps the command, so it
# cannot reach another process.  It passes the command's input and output
# through and holds nothing, so it stays small
_LAUNCHER = """
import os, select, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[3], sys.argv[3:], os.environ)
if not select.select([os.pidfd_open(pid)], [], [], float(sys.argv[2]) or None)[0]:
    os.kill(pid, 9)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
code = os.waitstatus_to_exitcode(status)
os.write(int(sys.argv[1]), b"%d %d %r" % (code, usage.ru_maxrss, wall))
"""


# run a command in a fresh interpreter, then print the stems of the arcdiagrams
# modules whose body ran (one not yet used is still a lazy module, of a subclass
# of ModuleType, or for census and render not imported), and on a second line
# json and argparse, with the modules argparse loads, if they were imported
RAN = """
import io, sys, types
from contextlib import redirect_stdout
import arcdiagrams.cli
if sys.argv[1:]:
    with redirect_stdout(io.StringIO()):
        arcdiagrams.cli.main(sys.argv[1:])
print(*(name.partition(".")[2] or "__init__" for name, module in sys.modules.items()
        if name.split(".")[0] == "arcdiagrams" and type(module) is types.ModuleType))
print(*{"json", "argparse", "gettext", "locale"} & set(sys.modules))
"""

# run a command in a fresh interpreter, then print the milliseconds it spent in
# the library (importing arcdiagrams.cli and running main) and, of those, in
# compile(): the loader compiles a module's source when it finds no bytecode
COMPILED = """
import io, sys, time
from contextlib import redirect_stdout
from importlib.machinery import SourceFileLoader
source_to_code, compiling = SourceFileLoader.source_to_code, []
def timed(*args, **kwargs):
    start = time.perf_counter()
    code = source_to_code(*args, **kwargs)
    compiling.append(time.perf_counter() - start)
    return code
SourceFileLoader.source_to_code = timed
start = time.perf_counter()
import arcdiagrams.cli
with redirect_stdout(io.StringIO()):
    arcdiagrams.cli.main(sys.argv[1:])
print(f"{1000 * (time.perf_counter() - start):.1f} {1000 * sum(compiling):.1f}")
"""


def run_own_peak(args, input=None, timeout=0, src=REPO / "src"):
    """Run ``python *args`` with ``src`` (this repository's) on its path, and
    return its exit code, stdout, stderr, own peak RSS in KiB and wall time
    in seconds.  A command still running after ``timeout`` seconds (0: no
    limit) is killed, and its exit code reads -9.

    On Linux a process spawned from a large one (a test run) reads the
    spawner's peak RSS as its own, by ``os.wait4`` and by ``RUSAGE_SELF``
    alike.  So the command is spawned by a small launcher process, and
    carries over only the launcher's few megabytes.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    read, write = os.pipe()
    try:
        launcher = subprocess.run(
            [sys.executable, "-c", _LAUNCHER, str(write), str(timeout), sys.executable, *args],
            input=input, env=env, capture_output=True, text=True, pass_fds=(write,),
        )
    finally:
        os.close(write)
    with os.fdopen(read) as report:
        text = report.read()
    assert launcher.returncode == 0, launcher.stderr
    code, peak_kib, wall_s = text.split()
    return int(code), launcher.stdout, launcher.stderr, int(peak_kib), float(wall_s)


class HeavyCase(NamedTuple):
    name: str
    argv: list[str]  # the arguments after the interpreter
    code: int  # the exit code
    perms: int | None  # the count listed under "perms" (as text, its lines), or None
    wall_s: float  # the wall bound, at which tier-1 stops the command
    peak_mb: float  # the own-peak bound, in MiB
    runs: int = 1  # runs in the report, whose median it prints
    error: str | None = None  # the start of the one line it writes to stderr, or None
    known_slow: str | None = None  # why tier-1 expects the row to fail its bound


def _shuffled(first, last):
    """``first..last`` in the order ``random.Random(1)`` shuffles them."""
    entries = list(range(first, last + 1))
    random.Random(1).shuffle(entries)
    return entries


def _pairs(entries):
    """The b-diagram pairing ``entries`` in order, two by two."""
    return " | ".join(f"{min(pair)} {max(pair)}" for pair in zip(entries[::2], entries[1::2]))


CLI = ["-c", "from arcdiagrams.cli import run; run()"]
# 2,000 arcs (i, i + m) all cross, the best family for crossing's early stop, and
# 2,000 arcs (i, 2m + 1 - i) nest, its worst; in a seeded random perfect matching
# nearly every boundary carries more arcs than its crossing number, so no early
# stop fires
M = 2000
_CROSSED = " | ".join(f"{i} {i + M}" for i in range(1, M + 1))
_NESTED = " | ".join(f"{i} {2 * M + 1 - i}" for i in range(1, M + 1))
# 20,000 vertices: a permutation of them, 10,000 disjoint pairs, and a block
# word of 120,000 letters, each near the limit of one argument
N = 20_000
_PERM = " ".join(map(str, [1, *_shuffled(2, N)]))
_IDENTITY = " ".join(map(str, range(1, N + 1)))
_DISJOINT = _pairs(range(1, N + 1))
_BWORD = "a" * 30_000 + "r" * 30_000 + "R" * 30_000 + "A" * 30_000
# one 2-vertex block and nine singletons
_ONE_PAIR = " | ".join(["1 2", *map(str, range(3, 12))])
_SINGLETONS = " | ".join(map(str, range(1, 10)))

CASES = [
    HeavyCase("python -c pass", ["-c", "pass"], 0, None, 0.5, 40, runs=15),
    # the same without the interpreter's teardown, as run() ends
    HeavyCase('python -c "import os; os._exit(0)"', ["-c", "import os; os._exit(0)"], 0, None,
              0.5, 40, runs=15),
    HeavyCase("import arcdiagrams.cli", ["-c", "import arcdiagrams.cli"], 0, None, 0.5, 45,
              runs=15),
    HeavyCase("census 5 --json", [*CLI, "census", "5", "--json"], 0, None, 0.5, 45, runs=15),
    HeavyCase("invert rkrRkR --json", [*CLI, "invert", "rkrRkR", "--json"], 0, None, 0.5, 45,
              runs=15),
    HeavyCase('crossing "1 5 | 2 7 | 3 | 4 6 8" --json',
              [*CLI, "crossing", "1 5 | 2 7 | 3 | 4 6 8", "--json"], 0, None, 0.5, 45, runs=15),
    # the longest a^m A^m one argument holds, and an unrealizable word of that
    # length, which builds the feasibility table and stops before the sweep
    HeavyCase("validate-word a^65534 A^65534 rkR",
              [*CLI, "validate-word", "a" * 65534 + "A" * 65534 + "rkR"], 0, None, 0.5, 70),
    HeavyCase("validate-word a^65535 A^65535",
              [*CLI, "validate-word", "a" * 65535 + "A" * 65535], 0, None, 2.25, 185),
    # as long, with a run of 32,767 R, each closing two stubs by the sweep's pair
    # search
    HeavyCase("validate-word a^32767 r^32767 R^32767 A^32767",
              [*CLI, "validate-word", "a" * 32767 + "r" * 32767 + "R" * 32767 + "A" * 32767],
              0, None, 1.9, 190),
    HeavyCase(f"crossing on {M:,} mutually crossing arcs", [*CLI, "crossing", _CROSSED], 0, None,
              0.5, 50),
    HeavyCase(f"crossing on {M:,} nested arcs", [*CLI, "crossing", _NESTED], 0, None, 2.5, 50),
    HeavyCase(f"crossing on a random perfect matching of {2 * M:,} vertices",
              [*CLI, "crossing", _pairs(_shuffled(1, 2 * M))], 0, None, 2.8, 50),
    HeavyCase(f"crossing on a random perfect matching of {N:,} vertices",
              [*CLI, "crossing", _pairs(_shuffled(1, N))], 0, None, 10, 80,
              known_slow="no early stop fires; ROADMAP item 2's tableau sweep brings it down"),
    # the largest census the CLI runs: 362,880 permutations
    HeavyCase("census 10 --json", [*CLI, "census", "10", "--json"], 0, None, 5.1, 45),
    # a word with many k
    HeavyCase("invert rrkkkkkkkkRR --json", [*CLI, "invert", "rrkkkkkkkkRR", "--json"], 0,
              131_072, 0.9, 100),
    HeavyCase("invert rrkkkkkkkkRR", [*CLI, "invert", "rrkkkkkkkkRR"], 0, 131_072, 0.85, 100),
    # the brute-force oracles at their largest n: all 9! sequences from 1 scanned for
    # 2 * 8! generators, and for the 8,192 permutations of a word
    HeavyCase('generators "1 2 | 3 | 4 | ... | 10" --list --method oracle --json',
              [*CLI, "generators", _ONE_PAIR.removesuffix(" | 11"), "--list", "--method",
               "oracle", "--json"], 0, 80_640, 0.6, 65),
    HeavyCase("invert rrkkkkkkRR --oracle --json",
              [*CLI, "invert", "rrkkkkkkRR", "--oracle", "--json"], 0, 8_192, 4.0, 50),
    # nine singletons: 8! generators, each cycle arranged once by blocks
    HeavyCase('generators "1 | 2 | ... | 9" --list --json',
              [*CLI, "generators", _SINGLETONS, "--list", "--json"], 0, 40_320, 0.8, 75),
    HeavyCase('generators "1 | 2 | ... | 9" --list',
              [*CLI, "generators", _SINGLETONS, "--list"], 0, 40_320, 0.7, 65),
    HeavyCase('generators "1 | 2 | ... | 9" --list --method table --json',
              [*CLI, "generators", _SINGLETONS, "--list", "--method", "table", "--json"], 0,
              40_320, 1.2, 75),
    # 2 * 9! generators, near the cap
    HeavyCase('generators "1 2 | 3 | 4 | ... | 11" --list --json',
              [*CLI, "generators", _ONE_PAIR, "--list", "--json"], 0, 725_760, 6.2, 180),
    # the same diagram by completing its arc table
    HeavyCase('generators "1 2 | 3 | 4 | ... | 11" --list --method table --json',
              [*CLI, "generators", _ONE_PAIR, "--list", "--method", "table", "--json"], 0,
              725_760, 10.4, 180),
    # the same by blocks, as text
    HeavyCase('generators "1 2 | 3 | 4 | ... | 11" --list',
              [*CLI, "generators", _ONE_PAIR, "--list"], 0, 725_760, 5.9, 180),
    # refused once the search passes the recursion limit: 15999! (about 60,300
    # digits) is within the cap, so the search starts
    HeavyCase('generators "1 | 2 | ... | 16000" --list --method table --cap <61,000 nines>',
              [*CLI, "generators", " | ".join(map(str, range(1, 16_001))), "--list", "--method",
               "table", "--cap", "9" * 61_000], 3, None, 0.5, 90,
              error="error: input too deep to search"),
    # every other subcommand near the limit of one argument
    HeavyCase(f"classify on a random {N:,}-entry permutation", [*CLI, "classify", _PERM], 0,
              None, 0.5, 70),
    # refused: the grid holds more cells than the cap
    HeavyCase(f"render --kind perm on a random {N:,}-entry permutation",
              [*CLI, "render", "--kind", "perm", _PERM], 3, None, 0.5, 70),
    HeavyCase(f"render --kind perm --format svg on a random {N:,}-entry permutation",
              [*CLI, "render", "--kind", "perm", "--format", "svg", _PERM], 0, None, 0.55, 75),
    HeavyCase("render --kind bword --format svg a^30000 r^30000 R^30000 A^30000",
              [*CLI, "render", "--kind", "bword", "--format", "svg", _BWORD], 0, None, 1.25, 210),
    HeavyCase("inflate a^30000 r^30000 R^30000 A^30000", [*CLI, "inflate", _BWORD], 0, None, 0.5,
              60),
    # refused by the fibre's count before any search
    HeavyCase("invert r k^60000 R", [*CLI, "invert", "r" + "k" * 60_000 + "R"], 3, None, 0.5, 50),
    HeavyCase(f"bword on {N // 2:,} disjoint pairs", [*CLI, "bword", _DISJOINT], 0, None, 0.5, 80),
    HeavyCase(f"generators on {N // 2:,} disjoint pairs", [*CLI, "generators", _DISJOINT], 0,
              None, 0.5, 80),
    HeavyCase(f"edit add on {N // 2:,} disjoint pairs, 2 3",
              [*CLI, "edit", "add", _DISJOINT, "2", "3"], 0, None, 0.5, 80),
    HeavyCase(f"edit transpose on {N // 2:,} disjoint pairs, 1 {N}",
              [*CLI, "edit", "transpose", _DISJOINT, "1", str(N)], 0, None, 0.5, 80),
    HeavyCase(f"cutset of 1 2 ... {N} on {N // 2:,} disjoint pairs",
              [*CLI, "cutset", _IDENTITY, _DISJOINT], 0, None, 0.5, 85),
    HeavyCase(f"complement of 1 2 ... {N} on {N // 2:,} disjoint pairs",
              [*CLI, "complement", _IDENTITY, _DISJOINT], 0, None, 0.5, 90),
]


def run_case(case, timeout=0, src=REPO / "src"):
    """Run ``case`` once on ``src``: what went wrong (None if nothing), its
    wall seconds and its own peak RSS in KiB."""
    code, out, err, peak_kib, wall_s = run_own_peak(case.argv, timeout=timeout, src=src)
    if code != case.code:
        return f"{case.name} exited {code}, not {case.code}: {err}", wall_s, peak_kib
    if case.perms is not None:
        listed = len(json.loads(out)["perms"]) if "--json" in case.argv else out.count("\n")
        if listed != case.perms:
            return f"{case.name} did not list {case.perms:,} permutations", wall_s, peak_kib
    if case.error is not None and not (err.startswith(case.error) and err.count("\n") == 1):
        return f"{case.name} wrote {err[:200]!r}, not one line {case.error}...", wall_s, peak_kib
    return None, wall_s, peak_kib


# one command of each benchmarked kind, whose modules the report counts
COUNTED = [
    ["census", "9", "--json"],
    ["invert", "rrkkkkkkRR", "--json"],
    ["generators", "8 3 | 6 7 | 5 9 | 2 | 4 1 | 10", "--list", "--json"],
    ["validate-word", "eerArarkARArRR", "--json"],
]


def line_counts():
    """Print the line counts; return what went wrong, as a list."""
    modules = sorted((REPO / "src" / "arcdiagrams").glob("*.py"))
    lines = {path.stem: path.read_bytes().count(b"\n") for path in modules}
    # wc -l pads every count to the digits of the files' total bytes
    width = len(str(sum(path.stat().st_size for path in modules)))
    print("```")
    for path in modules:
        print(f"{lines[path.stem]:>{width}} {path.relative_to(REPO)}")
    print(f"{sum(lines.values()):>{width}} total")
    failures = []
    for argv in COUNTED:
        code, out, err, _, _ = run_own_peak(["-c", RAN, *argv])
        if code:
            failures.append(f"{' '.join(argv)} exited {code}: {err}")
            continue
        stems = sorted(out.split("\n")[0].split())
        code, out, err, _, _ = run_own_peak(["-c", COMPILED, *argv])
        if code:
            failures.append(f"{' '.join(argv)} exited {code}: {err}")
            continue
        library_ms, compile_ms = out.split()
        print(f"{' '.join(argv)}: {sum(lines[stem] for stem in stems)} lines in "
              f"{', '.join(stems)}; {library_ms} ms in the library, {compile_ms} of them "
              f"in compile()")
    print("```", flush=True)
    return failures


def report():
    """Print the line counts, then a line for every case that is not known
    slow; return what went wrong, or None."""
    failures = line_counts()
    for case in CASES:
        if case.known_slow:
            continue
        walls, peaks = [], []
        for _ in range(case.runs):
            failure, wall_s, peak_kib = run_case(case)
            walls.append(wall_s)
            peaks.append(peak_kib)
            if failure:
                failures.append(failure)
                break
        print(f"- `{case.name}` on Python {sys.version.split()[0]}: "
              f"{1000 * statistics.median(walls):,.1f} ms (median of {case.runs}), "
              f"peak RSS {max(peaks) / 1024:.0f} MB", flush=True)
    return "\n".join(failures) or None


def geomean_ratio(before, after, resamples=2000, seed=1):
    """The geometric mean of the paired ratios ``after / before``, and its 95%
    bootstrap interval: the 2.5th and 97.5th percentiles of the geometric
    means of ``resamples`` draws of as many pairs, with replacement."""
    logs = [math.log(b / a) for a, b in zip(before, after)]
    rng = random.Random(seed)
    means = sorted(statistics.fmean(rng.choices(logs, k=len(logs))) for _ in range(resamples))
    tail = resamples // 40
    return tuple(map(math.exp, (statistics.fmean(logs), means[tail], means[-1 - tail])))


def compare(parent, runs=5, rows=""):
    """Run each row that is not known slow and whose name holds ``rows``
    ``runs`` times on the tree ``parent`` and on this one, alternating which
    goes first, and print a Markdown table: per row, each side's median wall
    time and median own peak RSS, the ratio of the medians (this tree's over
    the parent's), how many pairs this tree ran faster, and the geometric-mean
    ratio of the pairs with its bootstrap interval.  Return the figures, one
    dict a row, and what went wrong."""
    trees = {"parent": Path(parent).resolve() / "src", "change": REPO / "src"}
    print("| row | parent | change | ratio of medians | pairs faster | geometric mean [95%] |")
    print("|---|---|---|---|---|---|")
    results, failures = [], []
    for case in CASES:
        if case.known_slow or rows not in case.name:
            continue
        walls, peaks = {"parent": [], "change": []}, {"parent": [], "change": []}
        for i in range(runs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                failure, wall_s, peak_kib = run_case(case, src=trees[side])
                if failure:
                    failures.append(f"{side}: {failure}")
                walls[side].append(wall_s)
                peaks[side].append(peak_kib / 1024)
        wall, peak = ({k: statistics.median(v[k]) for k in v} for v in (walls, peaks))
        faster = sum(after < before for before, after in zip(walls["parent"], walls["change"]))
        geomean, low, high = geomean_ratio(walls["parent"], walls["change"])
        results.append({"row": case.name, "runs": runs, "wall_s": wall, "peak_mb": peak,
                        "ratio": wall["change"] / wall["parent"], "faster": faster,
                        "geomean": geomean, "interval": [low, high]})
        name = case.name.replace("|", "\\|")  # a bar would end the table's cell
        print(f"| `{name}` | {wall['parent']:.3f} s, {peak['parent']:.0f} MB | "
              f"{wall['change']:.3f} s, {peak['change']:.0f} MB | "
              f"{results[-1]['ratio']:.3f} | {faster}/{runs} | "
              f"{geomean:.3f} [{low:.3f}, {high:.3f}] |", flush=True)
    return results, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--compare", metavar="PARENT_TREE",
                        help="time the rows against the checkout PARENT_TREE")
    parser.add_argument("--runs", type=int, default=5, help="runs per tree and row")
    parser.add_argument("--rows", default="", metavar="SUBSTRING",
                        help="only the rows whose name holds SUBSTRING")
    args = parser.parse_args(argv)
    if args.compare is None:
        return report()
    if not (Path(args.compare) / "src" / "arcdiagrams").is_dir():
        parser.error(f"{args.compare} holds no src/arcdiagrams")
    _, failures = compare(args.compare, args.runs, args.rows)
    return "\n".join(failures) or None


if __name__ == "__main__":
    sys.exit(main())
