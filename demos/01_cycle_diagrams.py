"""Cyclic permutations, their arc diagrams, and vertex classes
==============================================================

A walkthrough of the basic objects: write a cyclic permutation in one-line
form, draw its Hamiltonian cycle as arcs over a line, and read off the
ramphoid/keratoid classes and the three-letter word.
"""

from arcdiagrams import arc_set, classify, cycle_word, parse_perm, word_predicates
from arcdiagrams.render import render_ascii

# a permutation is given as space-separated values, always starting at 1
sigma = parse_perm("1 3 2 7 8 4 5 6")
print("permutation:", sigma)

# walking the cycle the other way gives the reverse; same diagram
print("reverse:    ", sigma.reverse())

# the arc set joins cyclically adjacent entries, wrap-around included
diagram = arc_set(sigma)
print("arcs:       ", diagram)
print("same arcs for the reverse?", arc_set(sigma.reverse()) == diagram)

# every vertex meets exactly two arcs: both open (left ramphoid),
# both close (right ramphoid), or one of each (keratoid)
classes = classify(diagram)
print("left ramphoids: ", sorted(classes.R))
print("right ramphoids:", sorted(classes.Rbar))
print("keratoids:      ", sorted(classes.K))

# the word lists each vertex's class letter in natural order;
# it is always an elevated Motzkin word
word = cycle_word(sigma)
print("word:", word)
print("predicates:", word_predicates(word))

# drawn as a path: r is an up-step, R a down-step, k flat
print()
print(render_ascii(word, "cycle"))

# a keratoid-free permutation gives a Dyck word instead
print()
dyck = parse_perm("1 3 2 7 5 6 4 8")
print("keratoid-free:", dyck, "->", cycle_word(dyck))
print(render_ascii(cycle_word(dyck), "cycle"))
