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


def copy_store_bytes(header, sections):
    """The bytes of a version-4 model store, by the copy-based writer:
    every section is first copied out with ``tobytes()`` and hashed from
    that copy, and the section table's offsets are iterated to a
    fixpoint (they depend on the header's length, which depends on the
    digits of the offsets). ``header`` is the metadata without the
    format version and section table; ``sections`` maps each section's
    name to its array, in file order. The integer sections are the
    graph's ids, the coordinate keys, the tables' ``filled`` rows and
    the estimator's MinPts grid; every other section (the graph's
    distances, ``X``, each per-MinPts table, the scores) is float64."""
    import hashlib
    import json

    def align(offset):
        return (offset + 63) // 64 * 64

    table, payloads = [], []
    for name, arr in sections.items():
        integer = name in ("padded_ids", "coord_keys", "filled", "min_pts_values")
        dtype = "<i8" if integer else "<f8"
        payload = np.ascontiguousarray(arr, dtype=dtype).tobytes()
        table.append(
            {
                "name": name,
                "dtype": dtype,
                "shape": list(np.shape(arr)),
                "offset": 0,
                "nbytes": len(payload),
                "sha256": hashlib.sha256(payload).hexdigest(),
            }
        )
        payloads.append(payload)
    header = dict(header, format_version=4, sections=table)
    fixed = 8 + 4 + 4 + 8
    blob = None
    while True:
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")
        offset = align(fixed + len(encoded))
        for entry in table:
            entry["offset"] = offset
            offset = align(offset + entry["nbytes"])
        if encoded == blob:
            break
        blob = encoded
    out = bytearray(b"REPROLOF")
    out += (4).to_bytes(4, "little") + bytes(4) + len(blob).to_bytes(8, "little")
    out += blob
    for entry, payload in zip(table, payloads):
        out += bytes(entry["offset"] - len(out))
        out += payload
    return bytes(out)
