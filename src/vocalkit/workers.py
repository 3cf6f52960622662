"""One fork pool for the stages whose units of work are independent: the CV
grid's folds and the frontend's clips.

``map_tasks(task_fn, shared, tasks)`` returns ``task_fn(shared, task)`` for
each task, in task order.  It runs them in forked worker processes, one per
CPU in this process's affinity mask and never more than there are tasks, so
``taskset -c 0`` runs them in-process.  Fork, not spawn: a forked worker
inherits the imported modules and ``shared``, where a spawned one would
re-import numpy, need ``shared`` pickled and need the caller's script to
guard its entry point with ``if __name__ == "__main__"``.  Only each task and
its outcome cross between processes.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from typing import Callable, Sequence

_worker_state: tuple = ()  # (task_fn, shared), set by _init_worker in each worker


def _init_worker(task_fn: Callable, shared) -> None:
    global _worker_state
    _worker_state = task_fn, shared


def _worker_task(task):
    task_fn, shared = _worker_state
    return task_fn(shared, task)


def _pool_size(n_tasks: int) -> int:
    """One worker per usable CPU, at most one per task.  1 where fork is
    unavailable, or unsafe because another thread might hold a lock."""
    if (
        not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


def map_tasks(task_fn: Callable, shared, tasks: Sequence) -> list:
    """Each task's outcome, in task order.  A worker that dies raises
    BrokenProcessPool; the pool is shut down and joined either way."""
    workers = _pool_size(len(tasks))
    if workers < 2:
        return [task_fn(shared, task) for task in tasks]
    # multiprocessing and concurrent.futures.process load only when a pool
    # starts, so that a run which needs no pool does not hold them in memory
    import multiprocessing

    pool = concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker, initargs=(task_fn, shared),
    )
    try:
        return list(pool.map(_worker_task, tasks))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
