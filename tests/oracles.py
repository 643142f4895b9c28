"""Independent reference implementations shared by the test walls.

Each oracle here is a plain loop over the paper's definition, kept
apart from the package so a wall compares the package against an
implementation it does not share code with.
"""

import numpy as np


def loop_k_distinct_radius(ids, dists, coord_keys, k):
    """The k-distinct-distance of one (distance, id)-sorted candidate
    row, by the per-candidate walk: skip candidates at distance <= 0
    (co-located duplicates of the query) or at a non-finite distance (an
    excluded id), and return the distance at which the ``k``-th new
    coordinate group of ``coord_keys`` is reached, or None when the row
    holds fewer than ``k`` groups."""
    seen = set()
    for pid, dist in zip(ids, dists):
        if dist <= 0.0 or not np.isfinite(dist):
            continue
        seen.add(int(coord_keys[pid]))
        if len(seen) == k:
            return dist
    return None
