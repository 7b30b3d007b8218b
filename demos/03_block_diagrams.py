"""Block diagrams: acyclic arc diagrams and their six-letter words
==================================================================

Deleting arcs from a cyclic permutation's diagram leaves disjoint paths
and isolated vertices.  These block diagrams (b-diagrams) get a richer
word alphabet, a degree test for realizability, an inflation map onto
single-step letters, and simple edit operations.
"""

from arcdiagrams import (
    add_arc,
    block_word,
    classify_bdiagram,
    degree_vector,
    inflate,
    max_crossing,
    parse_bdiagram,
    path_steps,
    remove_arc,
    transpose_labels,
    validate_block_word,
)
from arcdiagrams.render import render_ascii

# blocks are written between bars; each block is a path of vertices
braid = parse_bdiagram("3 1 6 | 2 7 8 | 4 5")
print("diagram:", braid)
print("arc set:", braid.arc_notation())

# six classes now: r/R/k as before, a/A for single arc ends, e isolated
classes = classify_bdiagram(braid)
print("single-arc starts:", sorted(classes.A), " single-arc ends:", sorted(classes.Abar))
print("word:", block_word(braid))

# in the block dialect r/R are double steps and k dips down then up
print(render_ascii(block_word(braid), "block"))

# the degree vector drives the validity test: prefixes stay nonnegative
# and the total is zero -- necessary, but not sufficient
word = "rarARAA"
print()
print("degrees of", word, "=", degree_vector(word))
print("validate:", validate_block_word(word))
print("validate RAkear:", validate_block_word("RAkear").reason)
print("validate rkR:   ", validate_block_word("rkR").reason, "(it would force a 3-cycle)")

# inflation rewrites each letter with single steps, keeping the path
z = "arAkAA"
print()
print("inflate", z, "->", inflate(z))
print("same path?", path_steps(z, "block") == path_steps(inflate(z), "block"))

# crossing families: the largest k with k mutually crossing arcs
fan = parse_bdiagram("1 2 | 3 6 | 4 7 | 5 8")
print()
print(fan, "has max crossing", max_crossing(fan))

# edits: join blocks with an arc, split them, or swap two labels
small = parse_bdiagram("1 2 | 3 4 | 5")
print()
print("add (1,3):   ", small, "->", add_arc(small, (1, 3)))
print("remove (3,4):", small, "->", remove_arc(small, (3, 4)))
print("swap 2 and 5:", small, "->", transpose_labels(small, 2, 5))
