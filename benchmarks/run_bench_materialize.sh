#!/bin/sh
# Regenerate BENCH_materialize.json at the repo root with the default
# trajectory grid, including the n=100k chunked-engine memory-envelope
# row (the per-object paths skip sizes above --max-loop-n), the step-2
# sweep and the step-1 duplicate_mode='distinct' row. Extra
# arguments are passed through to the harness and override the grid,
# e.g.:  benchmarks/run_bench_materialize.sh --sizes 200
set -e
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_materialize.py \
    --sizes 500 1000 2000 100000 \
    --paths query_loop batched fast chunked sweep distinct \
    --out BENCH_materialize.json "$@"
python benchmarks/bench_materialize.py --validate BENCH_materialize.json
