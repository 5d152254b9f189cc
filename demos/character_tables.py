"""
Character tables over a prime field, recovered to exact integers
================================================================

Character values live in a prime field F_p chosen large enough that every
integer quantity of interest sits in a symmetric window around zero. Values
fixed by every symmetry of the unity root are plain integers and print as
such; the rest print as field residues tagged with the element order they
belong to.
"""

from cwmoduli import (MetacyclicParams, build_from_permutations,
                      build_metacyclic, character_table, inner_product,
                      rational_character_value)


def show(label, G):
    T = character_table(G)
    conj = T.classes
    print(f"{label}: order {G.order}, {T.class_count} classes, "
          f"p = {T.prime.p}")
    print("  class sizes:", tuple(conj.class_sizes))
    print("  degrees:    ", tuple(T.degrees))
    for rho, row in enumerate(T.values.tolist()):
        cells = []
        for c in range(T.class_count):
            val = rational_character_value(T, rho, c)
            if val is None:
                m = G.elem_order(conj.representatives[c])
                cells.append(f"{row[c]}(ord{m})")
            else:
                cells.append(str(val))
        print(f"  chi_{rho}: " + "  ".join(f"{cell:>8}" for cell in cells))
    # first orthogonality: every row has unit norm and distinct rows are
    # orthogonal; the inner product recovers exact integers
    norms = [inner_product(T, T.values[a].tolist(), a)
             for a in range(T.class_count)]
    cross = [inner_product(T, T.values[0].tolist(), b)
             for b in range(1, T.class_count)]
    print("  row norms:", norms, " cross terms with chi_0:", cross)
    print("  sum of squared degrees:", sum(d * d for d in T.degrees))
    print()


show("S3 (as a split metacyclic group)", build_metacyclic(MetacyclicParams(3, 2, 2)))
show("D4", build_metacyclic(MetacyclicParams(4, 2, 3)))
show("Q8", build_from_permutations(["(1,2,3,4)(5,6,7,8)",
                                    "(1,5,3,7)(2,8,4,6)"]))
show("S4", build_from_permutations(["(1,2)", "(1,2,3,4)"]))
