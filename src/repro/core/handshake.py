"""The LOF <-> OPTICS computation handshake (Section 8, direction 2).

The paper's closing remarks: "it is interesting to investigate how LOF
computation can 'handshake' with a hierarchical clustering algorithm,
like OPTICS ... computation may be shared between LOF processing and
clustering. The shared computation may include k-nn queries and
reachability distances."

This module realizes exactly that sharing. The expensive part of both
algorithms is the same: one k-NN query per object. A single
materialization database M (Section 7.4, step 1) feeds

* the full LOF pipeline (lrd + LOF, any MinPts <= MinPtsUB), and
* the OPTICS cluster ordering, whose *core distances* are M's
  (MinPts-1)-distances and whose expansion only needs the materialized
  neighbor lists (plus a distance-matrix completion for points outside
  each other's neighborhoods — bounded work per seed-list update).

The combined result pairs every object's LOF with the cluster it
belongs to at a chosen reachability threshold, giving the "more
detailed information about the local outliers: the clusters relative
to which they are outlying" the paper envisions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .._validation import check_data, check_min_pts
from ..exceptions import ValidationError
from ..index import get_metric
from .graph import NeighborhoodGraph
from .materialization import MaterializationDB


@dataclass
class HandshakeResult:
    """Shared-computation output: LOF + clustering from one k-NN pass.

    ``ordering``/``reachability``/``core_distance`` follow OPTICS
    conventions (reachability indexed by object id); ``lof`` is the
    LOF_MinPts vector; ``knn_queries`` counts the k-NN queries issued —
    exactly n, the point of the handshake.
    """

    lof: np.ndarray
    ordering: np.ndarray
    reachability: np.ndarray
    core_distance: np.ndarray
    knn_queries: int

    def clusters_at(self, eps: float) -> np.ndarray:
        """Flat cluster labels at reachability threshold eps; -1 = noise."""
        labels = np.full(len(self.ordering), -1, dtype=int)
        cluster = -1
        for obj in self.ordering:
            if self.reachability[obj] > eps:
                if self.core_distance[obj] <= eps:
                    cluster += 1
                    labels[obj] = cluster
            else:
                labels[obj] = cluster
        return labels

    def outliers_with_context(
        self, eps: float, lof_threshold: float = 1.5
    ) -> Dict[int, Dict]:
        """For every object with LOF above the threshold: its score and
        the cluster nearest to it (the cluster 'relative to which it is
        outlying'), identified as the cluster of its ordering
        predecessor."""
        labels = self.clusters_at(eps)
        position = np.empty(len(self.ordering), dtype=int)
        position[self.ordering] = np.arange(len(self.ordering))
        out: Dict[int, Dict] = {}
        for i in np.flatnonzero(self.lof > lof_threshold):
            context = labels[i]
            if context == -1:
                # Walk back through the ordering to the nearest
                # clustered predecessor: OPTICS places each point right
                # after the cluster that reaches it most cheaply.
                pos = position[i]
                while pos > 0 and context == -1:
                    pos -= 1
                    context = labels[self.ordering[pos]]
            out[int(i)] = {
                "lof": float(self.lof[i]),
                "relative_to_cluster": int(context),
            }
        return out


def lof_optics_handshake(
    X,
    min_pts: int,
    metric="euclidean",
    index="brute",
) -> HandshakeResult:
    """Compute LOF and the OPTICS ordering from ONE materialization.

    Step 1 (the only k-NN pass) materializes the MinPts-neighborhoods.
    LOF runs its two scans over M. OPTICS runs its ordering using M's
    neighbor lists for seed updates and M's (MinPts-1)-distances as core
    distances; distances between objects that are not materialized
    neighbors are completed on demand from the raw vectors (cheap exact
    arithmetic, not a k-NN search).
    """
    X = check_data(X, min_rows=2)
    min_pts = check_min_pts(min_pts, X.shape[0])
    metric_obj = get_metric(metric)
    n = X.shape[0]

    # ONE neighborhood graph is the entire shared computation: LOF scans
    # it through the materialization layer, OPTICS reads the same rows.
    graph = NeighborhoodGraph.from_index(X, min_pts, index=index, metric=metric)
    lof = MaterializationDB.from_graph(graph).lof(min_pts)

    # OPTICS core distance, self-inclusive convention: distance to the
    # (min_pts - 1)-th other object; for min_pts == 1 every point is
    # trivially core at distance 0.
    if min_pts >= 2:
        core = graph.k_distances(min_pts - 1).copy()
    else:
        core = np.zeros(n)

    reach = np.full(n, np.inf)
    processed = np.zeros(n, dtype=bool)
    ordering = []

    for start in range(n):
        if processed[start]:
            continue
        processed[start] = True
        ordering.append(start)
        seeds: list = []
        counter = 0

        def update_from(center: int) -> None:
            nonlocal counter
            # Materialized neighbors first (the shared computation)...
            ids, dists = graph.neighborhood_of(center, min_pts)
            candidates = dict(zip((int(i) for i in ids), dists))
            # ...completed with the remaining unprocessed objects so the
            # ordering is the unbounded-eps one (every object reachable).
            remaining = np.flatnonzero(~processed)
            missing = [j for j in remaining if j not in candidates]
            if missing:
                extra = metric_obj.pairwise_to_point(X[missing], X[center])
                candidates.update(zip(missing, extra))
            for pid, dist in candidates.items():
                if processed[pid]:
                    continue
                new_reach = max(core[center], float(dist))
                if new_reach < reach[pid]:
                    reach[pid] = new_reach
                    counter += 1
                    heapq.heappush(seeds, (new_reach, pid, counter))

        update_from(start)
        while seeds:
            _, current, _ = heapq.heappop(seeds)
            if processed[current]:
                continue
            processed[current] = True
            ordering.append(current)
            update_from(current)

    return HandshakeResult(
        lof=lof,
        ordering=np.array(ordering, dtype=int),
        reachability=reach,
        core_distance=core,
        knn_queries=n,
    )
