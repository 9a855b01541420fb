"""Counter grid for depth-8 lookups: Stage Two length vs pool size.

For each k in 0..8 a pivot covers the first 8-k components of a depth-8 path
(k == 8 means nothing covers it), swept against pool sizes 1..16 filled with
decoys. The walked-component counter equals k exactly, no matter the pool
size; the pool size only moves the Stage One probe cost.
"""

from stagewalk import bench_depth_grid

rows = bench_depth_grid()

print(f"{'stage_two':>9}  {'pool':>4}  {'walked':>6}  {'probe_pivots':>12}  {'probe_chars':>11}  {'original':>8}")
for row in rows:
    print(
        f"{row['stage_two']:>9}  {row['pool_size']:>4}  {row['walked_components']:>6}  "
        f"{row['pivots_visited']:>12}  {row['stage_one_chars']:>11}  {row['original_visited']:>8}"
    )
