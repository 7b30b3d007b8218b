"""Output digests: what the command line prints for a fixed corpus of argvs.

The corpus is built from the library's enumerators, the fuzz tables and
perfbench's seeded argvs, the same on every run.  The benchmark's argvs are
drawn by ``--write`` alone and stored in ``output_digests_benchmark.jsonl``,
one JSON argv a line, so that building the corpus loads nothing from
``perfbench/`` and a change to its workloads leaves the corpus as it is.
Each argv runs in-process through ``cli.main``; its argv, exit code, stdout
and stderr go into a sha256, one digest per chunk of ``CHUNK`` argvs, and
the argv list has a digest of its own, so that a changed corpus cannot pass
as a changed output.
``tests/test_output_digests.py`` recomputes every chunk and names each one
that differs, with its argvs.

A change that alters output on purpose rewrites the digests, and names the
chunks that changed and why; ``--write`` redraws the benchmark's argvs, and
prints whether the corpus line changed and which chunks differ::

    PYTHONPATH=src python tests/output_digests.py --write

A change that alters no output leaves both files as they are.

What differs between the Python versions CI runs is left out: argparse's
help and usage text (only the exit code is kept), and the refusals of a
search that passed the recursion limit (the whole run).
"""

import argparse
import hashlib
import itertools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from arcdiagrams.bdiagram import all_bdiagrams, block_word
from arcdiagrams.cli import main
from arcdiagrams.generation import canonical_generator

DIGESTS = Path(__file__).with_name("output_digests.txt")
BENCHMARK = Path(__file__).with_name("output_digests_benchmark.jsonl")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHUNK = 100


def cycle_words(longest, shortest=3):
    """Every cycle word of ``shortest``..``longest`` letters, shortest first:
    an ``r``, then ``r``, ``k`` and ``R`` keeping the path's height at 1 or
    more, then the ``R`` that brings it to 0."""
    found = []
    for n in range(shortest, longest + 1):
        for middle in itertools.product("rkR", repeat=n - 2):
            height = 1
            for letter in middle:
                height += (letter == "r") - (letter == "R")
                if height < 1:
                    break
            else:
                if height == 1:
                    found.append("r" + "".join(middle) + "R")
    return found


def benchmark_argvs():
    """perfbench's argvs for seeds 1-5, every workload, in its order, drawn
    from ``perfbench/workloads.py`` as it stands."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return [c.argv for seed in range(1, 6) for name in workloads.WORKLOADS
            for c in workloads.build(name, seed)]


# operands and options that take every subcommand down its error paths
ERROR_OPERANDS = {
    "perm": ("1 3 2", "1 2 3 4", "1 2", "2 1 3", "1 2 2", "1 x 3", "1 " + "9" * 5000 + " 2", ""),
    "bdiagram": ("1 | 2 | 3", "1 2 | 3 4", "3 1 | 2 4", "1 2 3 4", "1 | 1", "|", "1 | | 2", "1 x"),
    "word": ("rkR", "rR", "Rr", "rkk", "rRrR", "rkx", "aAe", "raAaAAkA", "rrrkRRR", ""),
    "number": ("0", "1", "2", "4", "5", "9"),
}
ERROR_COMMANDS = [  # a subcommand, the kinds of its operands and its options
    ("classify", ("perm",), ()),
    ("invert", ("word",), ("--oracle",)),
    ("bword", ("bdiagram",), ()),
    ("validate-word", ("word",), ()),
    ("generators", ("bdiagram",), ("--list", "--method", "oracle")),
    ("cutset", ("perm", "bdiagram"), ()),
    ("complement", ("perm", "bdiagram"), ()),
    ("crossing", ("bdiagram",), ()),
    ("inflate", ("word",), ()),
    ("edit", ("add", "bdiagram", "number", "number"), ()),
    ("edit", ("remove", "bdiagram", "number", "number"), ()),
    ("edit", ("transpose", "bdiagram", "number", "number"), ()),
    ("render", ("word",), ()),
    ("render", ("perm",), ("--kind", "perm")),
    ("render", ("word",), ("--kind", "bword", "--format", "svg")),
    ("census", ("number",), ()),
]


# tokens per kind of operand, and per subcommand the kinds of its operands and
# its own options; ``tests/test_cli.py`` draws its fuzzed argvs from these too.
# ``invert --all`` and ``generators --count``, which only restated a default,
# are no longer options: they stay here to take the unknown-option path
FUZZ_TOKENS = {
    "perm": ("1 3 2", "1 3 2 7 8 4 5 6", "1 2 3 8 7 5 4 6", "1 2", "2 1 3", "1 2 2"),
    "bdiagram": (
        "1 | 2 | 3", "1 2 3 | 4 7 8 | 5 6", "3 1 6 | 2 7 8 | 4 5", "1 2 | 3",
        "1 | 2", "1 | 1", "|",
    ),
    "word": ("rkR", "rrkkRR", "rrRrkRkR", "rkRrkR", "rR", "Rr"),
    "bword": ("aAe", "raAaAAkA", "aAaAaArkR", "rkR", "aaa"),
    "number": ("0", "-1", "2", "3", "4", "6", "7", "9", "10", "12"),
    "op": ("add", "remove", "transpose"),
    "junk": ("", " ", "x", "1 x 2", "1e3", "--bogus", "--", "--cap"),
}
FUZZ_COMMANDS = {
    "classify": (("perm",), ()),
    "invert": (("word",), ("--all", "--canonical-half", "--oracle")),
    "bword": (("bdiagram",), ()),
    "validate-word": (("bword",), ()),
    "generators": (
        ("bdiagram",),
        ("--list", "--count", "--method oracle", "--method table", "--method blocks"),
    ),
    "cutset": (("perm", "bdiagram"), ()),
    "complement": (("perm", "bdiagram"), ()),
    "crossing": (("bdiagram",), ()),
    "inflate": (("bword",), ()),
    "edit": (("op", "bdiagram", "number", "number"), ()),
    "render": (("word",), ("--kind perm", "--kind bword", "--format svg")),
    "census": (("number",), ()),
    "frobnicate": (("junk",), ()),
}

def corpus():
    """The argvs, each a tuple of str, in a fixed order and each once."""
    words = cycle_words(10)
    argvs = []
    for word in words:  # 538 words; n = 10 lists up to 8,192 rows, in two pieces
        argvs += [("invert", word), ("invert", word, "--canonical-half"),
                  ("invert", word, "--json")]
    argvs += [("invert", word, "--oracle") for word in words if len(word) <= 8]
    argvs += [("invert", word, "--oracle", "--json") for word in words if len(word) <= 7]
    for b in (b for n in range(3, 7) for b in all_bdiagrams(n)):  # 1,298 diagrams
        for method in ("blocks", "table", "oracle"):
            for form in ((), ("--json",)):
                argvs.append(("generators", str(b), "--list", "--method", method, *form))
        for command in ("bword", "crossing", "generators"):
            argvs += [(command, str(b)), (command, str(b), "--json")]
        first = str(canonical_generator(b))
        identity = " ".join(map(str, range(1, b.n + 1)))
        argvs.append(("classify", first))
        for perm in (first, identity):  # a generator, and mostly not one
            argvs += [("cutset", perm, str(b)), ("complement", perm, str(b), "--json")]
        argvs += [("render", block_word(b), "--kind", "bword")]
        if b.n <= 4:
            argvs += [("edit", op, str(b), str(i), str(j))
                      for op in ("add", "remove", "transpose")
                      for i in range(1, b.n + 1) for j in range(i, b.n + 2)]
    for word in [word for word in words if len(word) <= 8]:
        argvs += [("render", word), ("render", word, "--format", "svg", "--json")]
    argvs += [("census", str(n), *form) for n in range(3, 9) for form in ((), ("--json",))]
    argvs += [tuple(json.loads(line)) for line in BENCHMARK.read_text().splitlines()]
    for command, kinds, options in ERROR_COMMANDS:
        pools = [ERROR_OPERANDS.get(kind, (kind,)) for kind in kinds]
        for operands in itertools.product(*pools):
            argvs.append((command, *operands, *options, "--cap", "1000"))
    argvs += [("invert", "rrkkkkkkRR", "--cap", "8191"), ("invert", "r" + "k" * 40 + "R"),
              ("invert", "rrkkkkkkkRR", "--oracle"), ("census", "2"), ("census", "11"),
              ("generators", " | ".join(map(str, range(1, 12))), "--list", "--method", "oracle"),
              ("generators", " | ".join(map(str, range(1, 12)))),
              ("generators", "1 2 | 3 | 4 | 5 | 6", "--list", "--cap", "47")]
    argvs += [("validate-word", "".join(letters))
              for size in range(1, 7) for letters in itertools.product("rRkaAe", repeat=size)]
    for command, (kinds, options) in FUZZ_COMMANDS.items():  # the fuzz tables' grid
        for operands in itertools.product(*(FUZZ_TOKENS[kind] for kind in kinds)):
            for option in ("", *options):
                argvs.append((command, *operands, *option.split(), "--cap", "1000"))
    return list(dict.fromkeys(argvs))


def run(argv):
    """``argv`` through ``cli.main``: (argv, exit code, stdout, stderr) as
    JSON, with argparse's text dropped; None for a recursion-limit refusal."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    if "too deep to search" in err:
        return None
    if out.startswith("usage:") or err.startswith("usage:"):
        out = err = "<argparse>"
    return json.dumps([argv, code, out, err])


def corpus_digest(argvs):
    return hashlib.sha256(json.dumps(argvs).encode()).hexdigest()


def chunk_digests(argvs):
    """One sha256 per ``CHUNK`` argvs of ``argvs``, of their runs in order."""
    digests = []
    for at in range(0, len(argvs), CHUNK):
        h = hashlib.sha256()
        for argv in argvs[at : at + CHUNK]:
            h.update(f"{run(argv)}\n".encode())
        digests.append(h.hexdigest())
    return digests


def read_digests(path=DIGESTS):
    """The corpus digest and the chunk digests that ``path`` holds."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    corpus_line, *chunks = lines
    return corpus_line.split()[-1], [line.split()[1] for line in chunks]


def write_digests(path=DIGESTS):
    """Store the benchmark's argvs afresh, rewrite ``path`` for the corpus,
    and say what changed against the digests it held."""
    drawn = benchmark_argvs()
    BENCHMARK.write_text("".join(f"{json.dumps(argv)}\n" for argv in drawn))
    argvs = corpus()
    digest, chunks = corpus_digest(argvs), chunk_digests(argvs)
    old_digest, old_chunks = read_digests(path) if path.exists() else (None, [])
    lines = [f"# {__doc__.splitlines()[0]}",
             "# rewrite with: PYTHONPATH=src python tests/output_digests.py --write",
             f"corpus {len(argvs)} {digest}"]
    lines += [f"{i:04d} {chunk}" for i, chunk in enumerate(chunks)]
    path.write_text("\n".join(lines) + "\n")
    # a chunk changed if its digests differ or only one of the files has it
    changed = [i for i in range(max(len(chunks), len(old_chunks)))
               if chunks[i : i + 1] != old_chunks[i : i + 1]]
    return [f"{len(drawn)} benchmark argvs in {BENCHMARK}", f"{len(argvs):,} argvs in {path}",
            "corpus line " + ("unchanged" if digest == old_digest else "changed"),
            f"{len(changed)} chunks changed" + (": " if changed else "")
            + " ".join(f"{i:04d}" for i in changed)]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {DIGESTS.name} and name the chunks that changed")
    if parser.parse_args().write:
        print(*write_digests(), sep="\n")
