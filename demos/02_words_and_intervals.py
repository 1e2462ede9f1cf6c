#!/usr/bin/env python3
"""Classify width-4 truncations by their section words.

Posets with atom counts (1, 1, 2, 2, ...) have all interior levels of
width 4, and each pair of adjacent width-4 levels forms a 2-regular
bipartite graph: one 8-cycle (letter 2) or two 4-cycles (letter 1).
Reading the letters bottom to top gives a word that determines the
poset up to isomorphism, and valid words avoid the substring "22".
"""

from binposet import (
    are_isomorphic,
    count_valid_words,
    enumerate_interval_classes,
    phi,
    poset_from_string,
    section_type,
    valid_words,
    versal_string,
)

# every valid word round-trips through its poset
for length in (1, 2, 3):
    words = list(valid_words(length))
    print(f"valid words of length {length}: {words}")
    for w in words:
        assert phi(poset_from_string(w)) == w
print("phi(poset_from_string(w)) == w for all of them")

# the word really is a complete isomorphism invariant
p, q = poset_from_string("12"), poset_from_string("21")
print(f"\nposets of '12' and '21' isomorphic? {are_isomorphic(p, q)}")
print(f"poset of '12' isomorphic to itself rebuilt? "
      f"{are_isomorphic(p, poset_from_string('12'))}")

# the letters name the two possible section shapes
p = poset_from_string("121")
for i in range(1, p.height - 1):
    kind = "one 8-cycle" if section_type(p, i) == 2 else "two 4-cycles"
    print(f"section at level {i}: {kind}")

# a word containing every valid word of length <= L as a substring
# yields a poset containing every possible interval shape; the number
# of interval classes grows like the word counts, i.e. Fibonacci
word = versal_string(3)
print(f"\nversal word for L=3: {word!r}")
p = poset_from_string(word)
counts = [enumerate_interval_classes(p, n).count for n in range(2, 8)]
print(f"interval classes at lengths 2..7: {counts}")
print(f"word counts at lengths 0..3:      "
      f"{[count_valid_words(L) for L in range(4)]}")
