"""Run the repro CLI with timing wrappers around each layer's entry points.

Usage::

    python bench/traced.py --spans OUT.json -- fit data.csv --out m.rlof

The launcher imports the layer modules, rebinds every function listed in
:data:`LAYERS` (in each loaded ``repro.*`` module that holds a reference
to it, and on its class), runs ``repro.cli.main(argv)``, restores the
originals and writes the recorded spans to ``OUT.json``. Nothing under
``src/`` changes: the split is measured from outside.

A span is ``[id, parent, layer, start, end, thread, requests]``. The
parent is the enclosing span on the same thread (0 for none) and
``requests`` lists the ``/score`` requests the span worked for: the one
request a handler thread is answering, or every request of the batch the
coalescing thread is scoring. ``serve.queue_wait`` spans are synthesized
per request, from the moment ``ScoreBatcher.submit`` puts it on the
batcher's queue to the start of the first ``OnlineScorer.score_new`` of
the batch that answered it.

A server is stopped with SIGTERM; the launcher turns that into the
interrupt ``repro serve`` already handles, so the server drains, returns
from ``main`` and the spans are written.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import os
import signal
import sys
import threading
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path) of every wrapped entry point. Methods
#: are wrapped on the class that defines them, which covers subclasses
#: that inherit them (every NNIndex backend inherits the public queries).
LAYERS: List[Tuple[str, str, str]] = [
    ("cli.main", "repro.cli", "main"),
    ("io.load_dataset", "repro.io.csvio", "load_dataset"),
    ("estimator.fit", "repro.core.estimator", "LocalOutlierFactor.fit"),
    ("materialization.build", "repro.core.materialization", "MaterializationDB.materialize"),
    ("materialization.build", "repro.core.materialization", "MaterializationDB.materialize_batched"),
    ("materialization.build", "repro.core.blocked", "fast_materialize"),
    ("graph.build", "repro.core.graph", "NeighborhoodGraph.from_rows"),
    ("graph.build", "repro.core.graph", "NeighborhoodGraph.from_csr_blocks"),
    ("graph.build", "repro.core.graph", "NeighborhoodGraph.from_index"),
    ("graph.build", "repro.core.graph", "NeighborhoodGraph.from_index_batched"),
    ("index.knn", "repro.index.base", "NNIndex.query_with_ties"),
    ("index.knn", "repro.index.base", "NNIndex.query_batch_with_ties"),
    ("index.knn", "repro.index.argkmin", "argkmin_self"),
    ("index.knn", "repro.index.argkmin", "argkmin_with_ties"),
    ("range_lof.sweep", "repro.core.range_lof", "score_range"),
    ("scoring.kernel", "repro.core.scoring", "lrd_values"),
    ("scoring.kernel", "repro.core.scoring", "lof_values"),
    ("scoring.kernel", "repro.core.scoring", "reach_dist_values"),
    ("store.save", "repro.store", "save_model"),
    ("store.load", "repro.store", "load_model"),
    ("serve.request", "repro.serve", "_Handler.do_POST"),
    ("serve.submit", "repro.serve", "ScoreBatcher.submit"),
    ("serve.reply", "repro.serve", "_Handler._reply"),
    ("serve.score", "repro.serve", "OnlineScorer.score_new"),
    ("serve.knn", "repro.serve", "OnlineScorer._query_view"),
    ("scorers.score_query", "repro.scorers.lof", "LOFScorer.score_query"),
    ("scorers.score_query", "repro.scorers.ldof", "LDOFScorer.score_query"),
    ("scorers.score_query", "repro.scorers.loop", "LoOPScorer.score_query"),
    ("scorers.score_query", "repro.scorers.knn_dist", "KNNDistScorer.score_query"),
    ("stream.observe", "repro.stream", "StreamingDetector.observe"),
    ("streaming.push", "repro.core.streaming", "SlidingWindowLOF.push"),
    ("stream.refit", "repro.stream", "StreamingDetector._run_refit"),
]

#: ``json.loads`` / ``json.dumps`` as the serve module calls them.
JSON_LAYERS = {"loads": "serve.parse", "dumps": "serve.encode"}


class Tracer:
    """Installs the wrappers, records spans, and takes the wrappers out."""

    def __init__(self):
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request_ids = itertools.count(1)
        self._submitted: Dict[int, Tuple[int, float]] = {}
        self._undo: List[Callable[[], None]] = []

    # -- span recording ------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.requests = ()
            local.batch = None
        return local

    def _timed(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            parent = state.stack[-1] if state.stack else 0
            span_id = next(self._ids)
            state.stack.append(span_id)
            start = time.perf_counter()
            if layer == "serve.score" and state.batch is not None and state.batch[0] is None:
                state.batch[0] = start
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                self.spans.append(
                    [span_id, parent, layer, start, end, threading.get_ident(),
                     list(state.requests)]
                )

        wrapper.__traced_original__ = fn
        return wrapper

    def _request(self, fn: Callable) -> Callable:
        """``do_POST``: give the handler thread a fresh request id."""
        timed = self._timed("serve.request", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            state.requests = (next(self._request_ids),)
            try:
                return timed(*args, **kwargs)
            finally:
                state.requests = ()

        return wrapper

    def _batcher_init(self, fn: Callable) -> Callable:
        """``ScoreBatcher.__init__``: note each request as it is queued.

        The note is taken inside the queue's ``put``, before the batcher
        thread can see the item, so ``_execute`` always finds it.
        """

        @functools.wraps(fn)
        def wrapper(batcher, *args, **kwargs):
            fn(batcher, *args, **kwargs)
            put = batcher._queue.put

            def noting_put(item, *put_args, **put_kwargs):
                if item is not None:
                    requests = self._state().requests
                    self._submitted[id(item[-1])] = (
                        requests[0] if requests else 0, time.perf_counter()
                    )
                return put(item, *put_args, **put_kwargs)

            batcher._queue.put = noting_put

        return wrapper

    def _execute(self, fn: Callable) -> Callable:
        """``ScoreBatcher._execute``: attribute batch work to its requests
        and emit one ``serve.queue_wait`` span per request."""

        @functools.wraps(fn)
        def wrapper(batcher, batch):
            queued = [self._submitted.pop(id(entry[-1]), (0, None)) for entry in batch]
            state = self._state()
            state.requests = tuple(rid for rid, _ in queued if rid)
            state.batch = [None]
            try:
                return fn(batcher, batch)
            finally:
                first_score = state.batch[0] or time.perf_counter()
                for rid, t_queued in queued:
                    if rid and t_queued is not None:
                        self.spans.append(
                            [next(self._ids), 0, "serve.queue_wait", t_queued,
                             first_score, threading.get_ident(), [rid]]
                        )
                state.requests = ()
                state.batch = None

        return wrapper

    # -- installing and removing wrappers -----------------------------------

    def _rebind_function(self, module_name: str, name: str, wrapper_for) -> None:
        original = getattr(importlib.import_module(module_name), name)
        wrapped = wrapper_for(original)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append(functools.partial(setattr, mod, attr, original))

    def _rebind_method(self, module_name: str, path: str, wrapper_for) -> None:
        cls_name, name = path.split(".")
        cls = getattr(importlib.import_module(module_name), cls_name)
        descriptor = cls.__dict__[name]
        if isinstance(descriptor, classmethod):
            wrapped = classmethod(wrapper_for(descriptor.__func__))
        else:
            wrapped = wrapper_for(descriptor)
        setattr(cls, name, wrapped)
        self._undo.append(functools.partial(setattr, cls, name, descriptor))

    def install(self) -> None:
        special = {"serve.request": self._request}
        for layer, module_name, path in LAYERS:
            wrapper_for = special.get(layer) or functools.partial(self._timed, layer)
            if "." in path:
                self._rebind_method(module_name, path, wrapper_for)
            else:
                self._rebind_function(module_name, path, wrapper_for)
        self._rebind_method("repro.serve", "ScoreBatcher.__init__", self._batcher_init)
        self._rebind_method("repro.serve", "ScoreBatcher._execute", self._execute)
        serve = importlib.import_module("repro.serve")
        real_json = serve.json
        proxy = types.SimpleNamespace(**vars(real_json))
        for name, layer in JSON_LAYERS.items():
            setattr(proxy, name, self._timed(layer, getattr(real_json, name)))
        serve.json = proxy
        self._undo.append(functools.partial(setattr, serve, "json", real_json))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t_start = time.perf_counter()
    from repro import obs
    import repro.cli as cli

    for _, module_name, _ in LAYERS:
        importlib.import_module(module_name)
    t_imported = time.perf_counter()

    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGTERM, _interrupt)
    obs.enable()
    rc = 1
    try:
        rc = cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(args.spans, "w") as fh:
            json.dump(
                {
                    "argv": cli_args,
                    "pid": os.getpid(),
                    "main_thread": threading.main_thread().ident,
                    "import_s": t_imported - t_start,
                    "counters": obs.counters(),
                    "spans": tracer.spans,
                },
                fh,
            )
    return rc


if __name__ == "__main__":
    sys.exit(main())
