"""Long-lived forked workers for the serving fleet.

:func:`fork_workers` forks processes that *serve* rather than
compute-and-return: each child inherits the parent's open file
descriptors (a pre-bound listening socket, in the serving fleet) and the
memory-mapped store copy-on-write. :func:`wait_workers` reaps them and
folds their exit codes into one. Check :func:`fork_available` first; on
platforms without ``fork`` (e.g. Windows) the fleet is unavailable.

Step 1 of the paper (Section 7.4) runs serially in-process: one
tie-inclusive k-NN query per object, see
:meth:`repro.core.materialization.MaterializationDB.materialize`.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, List, Sequence

__all__ = [
    "fork_available",
    "fork_workers",
    "wait_workers",
]


def fork_available() -> bool:
    """Whether the copy-on-write ``fork`` start method exists here."""
    return "fork" in multiprocessing.get_all_start_methods()


def fork_workers(n: int, target: Callable[[int], int]) -> List[int]:
    """Fork ``n`` long-lived worker processes running ``target(index)``.

    Each child calls ``target`` with its worker index and exits with its
    return value (a crashed worker exits 1). Returns the child pids;
    reap them with :func:`wait_workers`. Callers must check
    :func:`fork_available` first.
    """
    pids: List[int] = []
    for index in range(int(n)):
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process, exits below
            code = 1
            try:
                code = int(target(index) or 0)
            finally:
                # _exit, not sys.exit: never unwind into the parent's
                # atexit handlers / buffered IO from a forked child.
                os._exit(code)
        pids.append(pid)
    return pids


def wait_workers(pids: Sequence[int]) -> int:
    """Reap forked workers; the exit code is the worst worker's.

    Blocks until every pid exits. A signal-killed worker counts as
    ``128 + signum`` (shell convention), so the fleet's exit status is 0
    iff every worker finished cleanly.
    """
    worst = 0
    for pid in pids:
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code < 0:  # killed by signal -code
            code = 128 - code
        worst = max(worst, code)
    return worst
