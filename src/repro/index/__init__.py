"""k-NN index substrates (Section 7.4 of the paper).

The LOF computation is index-agnostic: the materialization step issues
one k-NN query per object against any access method implementing the
:class:`NNIndex` contract. This package ships the full family the paper
discusses:

========== ============================================ =====================
name       class                                        paper role
========== ============================================ =====================
"brute"    :class:`BruteForceIndex`                     sequential scan, O(n) per query
"grid"     :class:`GridIndex`                           low-d, ~O(1) per query
"kdtree"   :class:`KDTreeIndex`                         medium-d tree index
"balltree" :class:`BallTreeIndex`                       metric-tree alternative
"rstar"    :class:`RStarTreeIndex`                      R*-tree (X-tree ancestor)
"xtree"    :class:`XTreeIndex`                          the paper's index [4]
"vafile"   :class:`VAFileIndex`                         high-d scan variant [21]
========== ============================================ =====================

Use :func:`make_index` to construct one by name.
"""

from .argkmin import argkmin_self, argkmin_with_ties
from .base import (
    Neighborhood,
    NNIndex,
    QueryStats,
    available_indexes,
    make_index,
    register_index,
)
from .balltree import BallTreeIndex
from .brute import BruteForceIndex
from .grid import GridIndex
from .kdtree import KDTreeIndex
from .metrics import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    Metric,
    MinkowskiMetric,
    get_metric,
)
from .rstartree import RStarTreeIndex
from .vafile import VAFileIndex
from .xtree import XTreeIndex

__all__ = [
    "argkmin_self",
    "argkmin_with_ties",
    "Neighborhood",
    "NNIndex",
    "QueryStats",
    "available_indexes",
    "make_index",
    "register_index",
    "BallTreeIndex",
    "BruteForceIndex",
    "GridIndex",
    "KDTreeIndex",
    "RStarTreeIndex",
    "VAFileIndex",
    "XTreeIndex",
    "Metric",
    "EuclideanMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "MinkowskiMetric",
    "get_metric",
]
