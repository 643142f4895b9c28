"""Block-wise vectorized materialization — the large-n fast path.

The per-object query loop of :meth:`MaterializationDB.materialize`
pays one Python-level call per object; for plain sequential-scan
workloads the same result is obtained orders of magnitude faster by
running the dataset's self k-NN through the chunked argkmin engine
(:func:`repro.index.argkmin.argkmin_self`). The selection itself is
loop-free: diagonal exclusion is one fancy-index write per tile, the
tie-inclusive pick is one ``argpartition`` plus one global lexsort
(:func:`repro.index.batch.select_tie_inclusive`, running either on
whole ``block_size × n`` slabs or merged across cache-budget y-tiles),
and rows are scattered straight into a
:class:`~repro.core.graph.NeighborhoodGraph`
(:meth:`~repro.core.graph.NeighborhoodGraph.from_csr_blocks`) — this
module is a thin engine adapter; storage and scoring live in the shared
columnar core.

``fast_materialize`` produces a :class:`MaterializationDB` equivalent
to the standard path: identical neighbor sets on non-degenerate data
(Definition 4 tie inclusion and the deterministic (distance, id) order
included) with distances equal to within a few ulps — the engine uses
the expanded form ||x||^2 + ||y||^2 - 2<x, y>, which is what makes it a
BLAS matmul. With ``strategy="auto"`` (the default) peak memory is
``block_size * n`` floats instead of ``n^2`` — exactly the historical
blocked path — and once that slab itself exceeds the engine's tile
budget (or with ``strategy="chunked"``), each block is further tiled
along the corpus axis so the peak is bounded by ``tile_bytes``
regardless of n.

This builder is library code only: :class:`~repro.core.estimator.
LocalOutlierFactor` and the CLI build M through the per-object
:meth:`MaterializationDB.materialize`, whose plain-form distances match
the online scorer's bit for bit.
"""

from __future__ import annotations

from typing import List, Tuple

from .. import obs
from .._validation import check_data, check_min_pts
from ..exceptions import ValidationError
from ..index import get_metric, make_index
from ..index.argkmin import argkmin_self
from .graph import NeighborhoodGraph
from .materialization import (
    MaterializationDB,
    _check_duplicate_mode,
    _coord_keys_for,
    _distinct_graph,
)


def _block_bounds(n: int, block_size: int) -> List[Tuple[int, int]]:
    """[start, stop) row ranges covering ``range(n)`` in order."""
    return [(s, min(s + block_size, n)) for s in range(0, n, block_size)]


def fast_materialize(
    X,
    min_pts_ub: int,
    metric="euclidean",
    block_size: int = 512,
    duplicate_mode: str = "inf",
    strategy: str = "auto",
    tile_bytes=None,
) -> MaterializationDB:
    """Build M through the chunked argkmin engine.

    Parameters
    ----------
    X : (n, d) dataset.
    min_pts_ub : the materialization bound MinPtsUB.
    metric : any metric with a per-tile kernel (every built-in metric).
    block_size : query rows per engine chunk. With ``strategy="auto"``
        on small n this is also the distance-slab height, giving the
        historical ``block_size * n * 8``-byte high-water mark and one
        kernel call per block.
    duplicate_mode : 'inf' (default), 'distinct' or 'error' — the same
        policy choices as :meth:`MaterializationDB.materialize`;
        'distinct' cuts the rows at their k-distinct-distances and
        re-queries the few duplicate-saturated ones through a brute
        index on ``X``
        (:func:`~repro.core.duplicates.ensure_distinct_coverage`).
    strategy : passed to the engine — ``"auto"`` (default), ``"whole"``
        or ``"chunked"``; see :func:`repro.index.argkmin.argkmin_with_ties`.
    tile_bytes : engine tile budget (default 8 MiB); with
        ``strategy="chunked"`` this bounds peak temporary memory
        regardless of n.
    """
    X = check_data(X, min_rows=2)
    n = X.shape[0]
    ub = check_min_pts(min_pts_ub, n, name="min_pts_ub")
    _check_duplicate_mode(duplicate_mode)
    if block_size < 1:
        raise ValidationError(f"block_size must be >= 1, got {block_size}")
    metric_obj = get_metric(metric)

    with obs.span("materialize.fast"):
        obs.incr("materialize.blocks", len(_block_bounds(n, block_size)))
        flat = argkmin_self(
            X,
            ub,
            metric=metric_obj,
            strategy=strategy,
            x_chunk=block_size,
            tile_bytes=tile_bytes,
        )
        graph = NeighborhoodGraph.from_csr_blocks([flat], k_max=ub)
        coord_keys = None
        if duplicate_mode == "distinct":
            coord_keys = _coord_keys_for(X)
            brute = make_index("brute", metric=metric_obj).fit(X)
            graph = _distinct_graph(graph, brute, coord_keys, ub)
    return MaterializationDB.from_graph(
        graph, duplicate_mode=duplicate_mode, coord_keys=coord_keys
    )

