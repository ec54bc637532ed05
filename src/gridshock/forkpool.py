"""One fork pool for the package's parallel layers.

`fork_map` is the only place the package starts processes. The children
are forked, so they inherit the callable and its jobs as they are in the
parent: neither is pickled, and a callable that cannot be pickled, such as
a closure, works. Only job indices go to the children, and only results
and exceptions come back. `multiprocessing` is imported only when a pool
starts, so a stage that runs every call in its own process never loads it.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

# [callable, jobs] in a pool child, set by the pool initializer
_TASK: list = []


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def fork_map(function: Callable, jobs: Sequence, processes: int) -> list:
    """[function(job) for job in jobs], each call in a forked pool process.

    The pool has min(processes, len(jobs)) processes; where that is one or
    none, the calls run in this process. Results come back in job order,
    so they do not depend on the process count. An exception raised by a
    call in a child is raised here, after every call has finished; it must
    pickle, as the package's errors do. The pool is closed and joined
    before this returns or raises, so no process outlives it.
    """
    if (workers := min(processes, len(jobs))) <= 1:
        return [function(job) for job in jobs]
    import multiprocessing

    pool = multiprocessing.get_context("fork").Pool(
        workers, initializer=_install, initargs=(function, jobs)
    )
    try:
        return pool.map(_run, range(len(jobs)), chunksize=1)
    finally:
        pool.close()
        pool.join()


def _install(function, jobs) -> None:
    _TASK[:] = (function, jobs)


def _run(index: int):
    function, jobs = _TASK
    return function(jobs[index])
