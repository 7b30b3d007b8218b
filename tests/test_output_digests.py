"""Every argv of the output corpus prints what it printed when the digests
were written: each chunk of ``CHUNK`` argvs must hash as ``output_digests.txt``
says, and a chunk that does not is named with its argvs."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

from output_digests import CHUNK, PERFBENCH, chunk_digests, corpus, corpus_digest, read_digests

TESTS = Path(__file__).resolve().parent


def test_outputs_match_their_digests():
    argvs = corpus()
    want_corpus, want = read_digests()
    assert corpus_digest(argvs) == want_corpus, (
        "the corpus changed: rewrite the digests at the parent commit, then compare"
    )
    got = chunk_digests(argvs)
    assert len(got) == len(want)
    differ = [
        f"chunk {i:04d}: " + "; ".join(map(shlex.join, argvs[i * CHUNK : (i + 1) * CHUNK]))
        for i, (mine, theirs) in enumerate(zip(got, want))
        if mine != theirs
    ]
    assert not differ, "\n".join(differ)


def test_corpus_loads_nothing_from_perfbench():
    # the benchmark's argvs come from the stored list, so a change to
    # perfbench's workloads cannot change the corpus
    code = (
        "import sys, output_digests\n"
        "output_digests.corpus()\n"
        "print(*(getattr(m, '__file__', None) for m in list(sys.modules.values())), sep='\\n')"
    )
    path = os.pathsep.join(str(TESTS.parent / d) for d in ("src", "tests"))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    loaded = [Path(f).resolve() for f in done.stdout.splitlines() if f != "None"]
    assert TESTS / "output_digests.py" in loaded
    assert not [f for f in loaded if f.is_relative_to(PERFBENCH)]
