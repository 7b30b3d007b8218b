"""Every argv of the output corpus prints what it printed when the digests
were written: each chunk of ``CHUNK`` argvs must hash as ``output_digests.txt``
says, and a chunk that does not is named with its argvs."""

import shlex

from output_digests import CHUNK, chunk_digests, corpus, corpus_digest, read_digests


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
