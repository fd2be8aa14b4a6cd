"""Anatomy of one realization.

Samples a small faulty sector graph, prints its degree statistics, shows
that the same (seed, trial) pair always rebuilds the identical graph, and
dumps the edge-list / vertex-CSV interchange files into a temporary
directory that is removed again.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from sectorgraphs import (
    DegreeSet,
    ModelParams,
    degree_summary,
    sample_trial,
    write_edge_list,
    write_vertex_csv,
)

params = ModelParams(
    n=150, alpha=math.pi / 2, r=0.12, v=0.2, q=0.1, mode="poisson", master_seed=99
)
g = sample_trial(params, trial_index=0)
s = degree_summary(g)

print(f"realized vertices: {g.realized_count} (Poisson draw around n = {params.n})")
print(f"alive vertices:    {s.alive_count} (each survives with prob {1 - params.v})")
print(f"arcs:              {g.arcs.shape[0]}")
print(f"max out-degree:    {s.max_out}   max in-degree: {s.max_in}")
print(f"mean out-degree of alive vertices: {s.out_degrees.mean():.3f}")

tail2 = DegreeSet.upper_tail(2)
print(f"alive vertices with out-degree >= 2: {tail2.count_in(s.degrees('out'))}")
print(f"alive vertices with in-degree  >= 2: {tail2.count_in(s.degrees('in'))}")

g_again = sample_trial(params, trial_index=0)
assert np.array_equal(g.arcs, g_again.arcs)
print("\nresampling trial 0 reproduces the identical arc set (seeded streams)")

with tempfile.TemporaryDirectory() as tmp:
    outdir = Path(tmp)
    write_edge_list(g, outdir / "edges.txt")
    write_vertex_csv(g, outdir / "vertices.csv")
    print(f"\nwrote {outdir / 'edges.txt'} and {outdir / 'vertices.csv'} (removed on exit)")
    print("edge list starts with a 'N alive' header, then one 'i j' arc per line:")
    for line in (outdir / "edges.txt").read_text().splitlines()[:4]:
        print("  " + line)
