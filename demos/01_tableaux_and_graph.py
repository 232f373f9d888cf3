"""Standard Young tableaux and their transposition graph.

Walks through the combinatorial layer: partitions, hooks, the row-filling
tableau, and the graph whose edges swap adjacent entries. The (3,1,1)
graph printed here has six nodes joined by the generators s_2, s_3, s_4.
Each tableau's reduced word is read off its own entries, without the
graph; its length is the tableau's distance from the root.
"""

from orthdet import (
    enumerate_partitions,
    enumerate_syt,
    hook_lengths,
    row_filling_tableau,
    syt_count,
    tableau_word,
)

print("partitions of 5, canonical order:")
for shape in enumerate_partitions(5):
    print(f"  {shape}  hooks {sorted(hook_lengths(shape).values())}  "
          f"tableaux {syt_count(shape)}")

shape = (3, 1, 1)
print(f"\nrow-filling tableau of {shape}: {row_filling_tableau(shape).to_lists()}")

graph = enumerate_syt(shape)
print(f"\nthe {graph.size} standard tableaux of {shape} (breadth-first order):")
for idx, t in enumerate(graph.nodes):
    word = tableau_word(t)
    print(f"  node {idx}: {str(t.to_lists()):<25} distance {graph.distances[idx]}, "
          f"word {list(word)}")

print("\nedges (lower node, upper node, generator):")
for lo, hi, k in graph.edges:
    print(f"  {lo} --s_{k}-- {hi}")
