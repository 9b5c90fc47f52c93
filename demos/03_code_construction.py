#!/usr/bin/env python3
"""Constructing the narrow-sense codes at the largest designed distance.

For each family point the designed distance is set to the largest coset
leader delta1; the resulting codes hit their designed distance exactly on
these parameters, and the dimension is delta1's coset size plus one.
"""

from cosetforge import bch, cosets, distance

CASES = [("plus", 2, 6), ("plus", 3, 4), ("plus", 4, 4), ("plus", 5, 4), ("minus", 3, 4)]

for family, q, m in CASES:
    n = cosets.family_length(q, m, family)
    delta1 = cosets.delta1_closed_form(q, m, family)
    t, code = bch.build_family_code(q, m, family, delta1)
    res = distance.min_distance_enumerate(t, code)
    print(f"family {family:<5} q={q} m={m}:  [{code.n}, {code.dimension}] code, designed distance {delta1}")
    print(f"    generator degree {code.genpoly.degree}, defining set size {code.defining.size}")
    print(f"    run bound {code.bch_bound}, true distance {res.d} ({res.method}, {res.enumerated} words)")

print("\nweight enumerator of the [20, 5] ternary code at delta = 11:")
t, code = bch.build_family_code(3, 4, "plus", 11)
w = distance.weight_enumerator(t, code)
for i, a in enumerate(w.counts):
    if a:
        print(f"    A_{i} = {a}")
print(f"    total {sum(w.counts)} = 3^{code.dimension}")
