"""Determinant polynomials of Hecke and symmetric group characters.

Each upward edge s_k of the tableau graph contributes x [c+2]_x [c]_x,
where c = c_k - c_(k+1) - 1 is the content gap read off the lower
tableau's content vector. The product over all tableaux is the shape's
determinant polynomial; evaluating it at q (or at 1 for the symmetric
group) and reducing modulo squares gives the orthogonal determinant class.
"""

from orthdet import (
    QIntProduct,
    det_poly_factored,
    enumerate_syt,
    hecke_determinant,
    tableau_polynomials,
)

shape = (3, 1, 1)
graph = enumerate_syt(shape)

print(f"per-tableau polynomials for {shape}:")
for t, poly in zip(graph.nodes, tableau_polynomials(shape)):
    print(f"  {str(t):<30} {poly!r}")

print("\nedge factors (lower tableau, generator, content gap):")
for lo, hi, k in graph.edges:
    c = graph.contents[lo][k - 1] - graph.contents[lo][k] - 1
    print(f"  node {lo} --s_{k}--> node {hi}: c = {c}, factor x[{c + 2}][{c}]")

factored = det_poly_factored(shape)
print(f"\ndeterminant polynomial (factored): {factored!r}")
print(f"reduced modulo squares:            {QIntProduct.from_mask(factored.mask)!r}")

print("\ndeterminant classes:")
for q in (1, 3, 5, 7, 9):
    result = hecke_determinant(shape, q)
    label = "symmetric group" if q == 1 else f"Hecke at q={q}"
    print(f"  {label:18s} value {factored(q):>12} class {result.det_class!r} "
          f"({result.det_class.parity.value})")
