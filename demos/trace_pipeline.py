"""End-to-end pipeline: generate a tree, synthesize a trace, replay it under
all three strategies, and print the comparison table.

The trace is lookup-only, so the table compares lookup work alone (see
metadata_cost.py for the mutation-cost story).
"""

from stagewalk import TreeSpec, gen_tree, make_resolver, replay, report, synth_trace

spec = TreeSpec(levels=[6, 6, 6], seed=3)
trace = synth_trace(gen_tree(spec), "hotdir-zipf", n_events=10_000, hot_dirs=8, seed=4)

runs = []
for strategy in ("original", "fullpath", "stage"):
    resolver = make_resolver(strategy, gen_tree(spec))  # fresh identical tree per strategy
    replay(trace, resolver, tick_every=1000)
    runs.append((strategy, resolver.metrics))

table, _csv = report(runs)
print(table)
