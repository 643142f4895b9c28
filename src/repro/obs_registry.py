"""Registry of every obs counter and span name (GENERATED).

Regenerate with ``python -m repro.lint --write-obs-registry`` whenever a
producer site is added or removed; the RL003 lint rule fails if this
file is stale or if any literal counter/span name used in ``src/`` or
``tests/`` is not declared here. See ``docs/static-analysis.md``.
"""

COUNTERS = (
    'argkmin.strategy_chunked',
    'argkmin.strategy_whole',
    'argkmin.tile_bytes',
    'argkmin.tiles',
    'distance.evaluations',
    'distance.kernel_calls',
    'graph.builds',
    'index.node_visits',
    'index.supernode_overflows',
    'knn.batch_queries',
    'knn.queries',
    'materialize.blocks',
    'mscan.passes',
    'scorer.knn_dist.points',
    'scorer.ldof.points',
    'scorer.lof.points',
    'scorer.loop.points',
    'serve.batch.batches',
    'serve.batch.coalesced',
    'serve.batch.inline',
    'serve.batch.requests',
    'serve.bounds.exact',
    'serve.bounds.pruned',
    'serve.cache.hits',
    'serve.cache.misses',
    'serve.points_scored',
    'serve.reloads',
    'serve.workers',
    'store.loads',
    'store.saves',
    'stream.drift.checks',
    'stream.drift.detected',
    'stream.ingest.errors',
    'stream.ingested',
    'stream.refits',
    'stream.swaps',
    'stream.window.evictions',
    'stream.window.inserts',
)

SPANS = (
    'argkmin.run',
    'estimator.materialize',
    'estimator.sweep',
    'materialize.batched',
    'materialize.fast',
    'materialize.query_loop',
)
