"""Standard Young tableaux and their transposition graph.

Walks through the combinatorial layer: partitions, hooks, the row-filling
tableau, and the graph whose edges swap adjacent entries. The package holds
each tableau as its content vector (col - row of each entry); the rows
printed here are built from it. The (3,1,1) graph printed here has six
nodes joined by the generators s_2, s_3, s_4. Each tableau's reduced word
is read off its own content vector, without the graph; its length is the
tableau's distance from the root.
"""

from orthdet import (
    enumerate_partitions,
    enumerate_syt,
    hook_lengths,
    syt_count,
    tableau_word,
)

print("partitions of 5, canonical order:")
for shape in enumerate_partitions(5):
    print(f"  {shape}  hooks {sorted(hook_lengths(shape).values())}  "
          f"tableaux {syt_count(shape)}")

shape = (3, 1, 1)
graph = enumerate_syt(shape)
print(f"\nrow-filling tableau of {shape}: {graph.nodes[0]}")

print(f"\nthe {graph.size} standard tableaux of {shape} (breadth-first order):")
for idx, (t, contents) in enumerate(zip(graph.nodes, graph.contents)):
    word = tableau_word(contents)
    print(f"  node {idx}: {str(t):<25} contents {contents}, "
          f"distance {graph.distances[idx]}, word {list(word)}")

print("\nedges (lower node, upper node, generator):")
for lo, hi, k in graph.edges:
    print(f"  {lo} --s_{k}-- {hi}")
