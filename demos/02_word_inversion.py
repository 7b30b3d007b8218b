"""Inverting a word back to its permutations
=============================================

Different cyclic permutations can share one word, so a word inverts to a
set.  The candidate table shows which vertices may sit next to which; the
listing sweeps the vertices left to right, starting, extending and joining
partial paths as each letter says, and the brute-force oracle confirms
the result.
"""

from arcdiagrams import (
    Classification,
    canonical_half,
    cycle_word,
    neighbor_candidates,
    perms_from_word,
    perms_from_word_oracle,
)

word = "rkrRkR"
print("word:", word)

# the candidate table: which vertices may sit next to which, by the classes
# read straight off the letters (left ramphoids r, right ramphoids R, keratoids k)
classes = Classification(*([v for v, c in enumerate(word, 1) if c == x] for x in "rRk"))
for vertex, allowed in sorted(neighbor_candidates(classes).items()):
    print(f"  neighbours of {vertex}: {sorted(allowed)}")

# the full answer: closed under reversal, printed in lexicographic order
perms = perms_from_word(word)
print(f"{len(perms)} permutations share this word:")
for p in perms:
    print("   ", p, "  word ok:", cycle_word(p) == word)

# one representative per reversal pair
print("canonical half:", ", ".join(str(p) for p in canonical_half(perms)))

# the oracle filters all (n-1)! permutations and must agree exactly
print("oracle agrees:", perms_from_word_oracle(word) == perms)

# the keratoid-free case works the same way
dyck = "rrRrRR"
print()
print(dyck, "->", ", ".join(str(p) for p in perms_from_word(dyck)))
