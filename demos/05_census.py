"""Census: exhaustive verification of the word counts
======================================================

Sweeping every cyclic permutation of [n] confirms that the number of
distinct words is a Motzkin number and the keratoid-free count a Catalan
number, and surfaces the words whose permutation sets refuse the neat
"split by second entry" description.
"""

from arcdiagrams import catalan_number, motzkin_number
from arcdiagrams.census import census_lines, census_report

# the expected counts come from the classic recurrences
print("Motzkin:", [motzkin_number(k) for k in range(8)])
print("Catalan:", [catalan_number(k) for k in range(8)])
print()

# n=6 is small enough to read in full
for line in census_lines(census_report(6)):
    print(line)

# the counts track M_{n-2} across the whole range
print()
print(" n  permutations  words  M_{n-2}  dyck  split exceptions")
for n in range(3, 9):
    rep = census_report(n)
    print(
        f"{n:2d}  {rep.perm_count:12d}  {rep.word_count:5d}  {rep.motzkin_expected:7d}"
        f"  {rep.dyck_count:4d}  {len(rep.split_exceptions):16d}"
    )
