"""
Two Z/3 covers of genus 6 and the level where they become indistinguishable
===========================================================================

A genus-6 curve with a Z/3 action is encoded by a Hurwitz vector over the
quotient: handle entries for the quotient topology plus branch entries for
the ramification. This script evaluates the multiplicity of each irreducible
character in the action on k-fold holomorphic differentials, for two covers
that look different at k = 1, identical at k = 2, and different again at
k = 3.
"""

from cwmoduli import (HurwitzVector, build_cyclic, canonical_decomposition,
                      character_table, cw_character, decompose_at_k, genus,
                      periodicity_delta)

G = build_cyclic(3)
T = character_table(G, k_max=9, g_max=6)

# a quotient of genus 2 with two branch points, and a quotient sphere with
# eight branch points; both covers have genus 6
v = HurwitzVector(2, (1, 0, 0, 2), (2, 1))
w = HurwitzVector(0, (), (1, 1, 2, 2, 1, 1, 2, 2))
print("cover A:", v, " genus", genus(v, G))
print("cover B:", w, " genus", genus(w, G))

print()
print("multiplicities of the three characters of Z/3, levels 1..3")
print("k   cover A      cover B")
for k in (1, 2, 3):
    a = cw_character(v, T, k).mults
    b = cw_character(w, T, k).mults
    print(f"{k}   {a}    {b}")

# the level-1 action already separates the covers; level 2 does not
for k in (1, 2, 3):
    D = decompose_at_k([v, w], T, k)
    verdict = "separates" if D.block_count == 2 else "merges"
    print(f"level {k} {verdict} the pair")

# the joint invariant over all levels: two blocks, settled after one level
result = canonical_decomposition([v, w], T)
print("canonical decomposition:", result.final.block_count,
      "blocks, stabilization depth", result.stabilization_depth)

# raising the level by |G| shifts every multiplicity by the same closed-form
# amount, so the partition repeats with period |G|
print()
print("shift from level k to k + 3 (per character):")
for k in (1, 2, 3):
    print(f"  k={k}: +{periodicity_delta(v, T, k)}")
