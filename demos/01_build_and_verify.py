#!/usr/bin/env python3
"""Build finite graded posets and verify the equal-chain-count property.

Every constructor in the library produces a truncation whose intervals
of equal length all have the same number of maximal chains.  This
script builds one poset per family, verifies that property, and shows
how the chain counts follow the factorial law B(n) = a_1 a_2 ... a_n.
"""

from binposet import (
    AtomicSequence,
    debruijn_poset,
    divisible_poset,
    m_interval,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    predicted_rank_size,
    stripped_boolean_interval,
    sup_rank_size,
    verify_binomial,
)

posets = {
    "subset lattice on 3 atoms": stripped_boolean_interval(3, 1),
    "two glued stripped lattices": stripped_boolean_interval(3, 2),
    "complete-minus-matching, m=3": m_interval(3),
    "shift register, window 2 over 2 letters": debruijn_poset(2, 2, 5),
    "mixed-modulus register for (1,2,4)": divisible_poset(AtomicSequence((1, 2, 4)), 4),
}

for name, p in posets.items():
    rep = verify_binomial(p)
    print(f"{name}")
    print(f"  level widths   {p.widths}")
    print(f"  verdict        {'binomial' if rep.ok else 'NOT binomial'}")
    print(f"  atom counts    {rep.atoms.format()}")
    chains = ", ".join(f"B({d})={rep.counts[d]}" for d in sorted(rep.counts))
    print(f"  chain counts   {chains}")

# the chain counts are forced by the atom counts alone
p = debruijn_poset(2, 2, 5)
rep = verify_binomial(p)
assert all(rep.counts[d] == rep.atoms.B(d) for d in rep.counts)
print("\nchain counts equal the products B(n) of the atom counts: yes")

# for an eventually constant atom sequence the level widths stabilize
# at sup a^i / B(i)
seq = AtomicSequence(rep.atoms.head, rep.atoms.head[-1])
widths = [predicted_rank_size(seq, i) for i in range(p.height + 1)]
print(f"predicted widths {tuple(int(w) for w in widths)}")
print(f"observed widths  {p.widths}")
print(f"width limit      {sup_rank_size(seq)}")

# posets serialize to a compact JSON document and to Graphviz DOT
text = poset_to_json(m_interval(3))
assert poset_from_json(text).widths == (1, 4, 4, 1)
print(f"\nJSON round trip of the m=3 interval: {len(text)} bytes")
print("DOT rendering starts with:")
print("  " + poset_to_dot(m_interval(3)).splitlines()[0])
