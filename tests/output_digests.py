"""Output digests: what the command line prints for a fixed corpus of argvs.

The corpus is built from the library's enumerators and from perfbench's
seeded argvs, the same on every run.  Each argv runs in-process through
``cli.main``; its argv, exit code, stdout and stderr go into a sha256, one
digest per chunk of ``CHUNK`` argvs, and the argv list has a digest of its
own, so that a changed corpus cannot pass as a changed output.
``tests/test_output_digests.py`` recomputes every chunk and names each one
that differs, with its argvs.

A change that alters output on purpose rewrites the digests, and names the
chunks that changed and why::

    PYTHONPATH=src python tests/output_digests.py --write

A change that alters no output leaves the file as it is.

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
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHUNK = 100


def cycle_words(longest):
    """Every cycle word of 3..``longest`` letters, shortest first: an ``r``,
    then ``r``, ``k`` and ``R`` keeping the path's height at 1 or more, then
    the ``R`` that brings it to 0."""
    found = []
    for n in range(3, longest + 1):
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


def _perfbench_argvs(seeds):
    """perfbench's argvs for ``seeds``, every workload, in its order."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return [c.argv for seed in seeds for name in workloads.WORKLOADS
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
    argvs += _perfbench_argvs(range(1, 6))
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
    argvs = corpus()
    lines = [f"# {__doc__.splitlines()[0]}",
             "# rewrite with: PYTHONPATH=src python tests/output_digests.py --write",
             f"corpus {len(argvs)} {corpus_digest(argvs)}"]
    lines += [f"{i:04d} {digest}" for i, digest in enumerate(chunk_digests(argvs))]
    path.write_text("\n".join(lines) + "\n")
    return len(argvs)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite " + DIGESTS.name)
    if parser.parse_args().write:
        print(f"{write_digests():,} argvs in {DIGESTS}")
