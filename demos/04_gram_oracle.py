"""The independent oracle: explicit matrices, invariant forms, skew elements.

Builds the seminormal matrices for a shape as integer matrices under one
common scale (verifying the quadratic, braid and commutation relations on
the spot), certifies the invariant symmetric bilinear form (diagonal, and
unique up to scale by the Jucys-Murphy elements), and compares the Gram
determinant class with the polynomial formula. A randomized skew element
provides a second, fully different route to the same class. Each
determinant is tested against the formula's class by one perfect-square
test; the classes are printed by factoring.
Exits 1 if any comparison fails.
"""

import sys

from orthdet import (
    build_seminormal,
    class_of_integer,
    determinant_via_gram,
    determinant_via_skew_element,
    gram_form,
    hecke_determinant,
    verify_trace_pairing,
    word_image,
)


def dense(columns):
    """The rows of a matrix stored as sparse (row, value) columns."""
    rows = [[0] * len(columns) for _ in columns]
    for c, column in enumerate(columns):
        for r, v in column:
            rows[r][c] = v
    return rows


shape, q = (2, 1), 3
rep = build_seminormal(shape, q)
print(f"seminormal generators for {shape} at q={q} (relations verified),")
print(f"stored as integer matrices scale * T_i with scale = {rep.scale}:")
for i in range(1, rep.n):
    print(f"  {rep.scale} * T_{i}:")
    for row in dense(word_image(rep, [i])):
        print("    [" + "  ".join(str(x) for x in row) + "]")

form = gram_form(rep)
print(f"\ninvariant Gram matrix (primitive integer):")
for row in dense(form.matrix):
    print("  " + str(row))
print(f"determinant {form.determinant}")

print("\nclass comparison across shapes and parameters:")
mismatches = 0
for shape in [(2, 1), (2, 2), (3, 1, 1), (4, 1)]:
    for q in (1, 3, 5):
        formula = hecke_determinant(shape, q).det_class
        gram = determinant_via_gram(shape, q)
        skew = determinant_via_skew_element(shape, q, seed=0)
        ok = formula.contains(gram) and formula.contains(skew)
        mismatches += not ok
        print(f"  {str(shape):12s} q={q}: formula {formula!r}, "
              f"gram {class_of_integer(gram)!r}, skew {class_of_integer(skew)!r}  "
              f"{'ok' if ok else 'MISMATCH'}")

print("\ntrace pairing on the regular module (tau(T_w T_w') = q^l(w) iff w'=w^-1):")
for n in (2, 3, 4):
    print(f"  n={n}, q=3: {verify_trace_pairing(n, 3)}")

sys.exit(1 if mismatches else 0)
