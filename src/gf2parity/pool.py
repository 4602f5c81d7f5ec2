"""The worker pool behind every --jobs option."""

from __future__ import annotations

import os


def pool_size(jobs: int, tasks: int) -> int:
    """Workers to start for `tasks` tasks when `jobs` are asked for.

    Never more than the CPU count or the number of tasks, and at least
    one; a request below one worker is refused.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if min(jobs, tasks) <= 1:
        return 1  # without asking the OS for its CPU count
    return min(jobs, tasks, os.cpu_count() or 1)


def map_in_pool(fn, tasks: list, jobs: int) -> list:
    """[fn(t) for t in tasks], in order, on up to pool_size(jobs, len(tasks)) processes.

    fn and the tasks must pickle: workers are spawned, not forked, and
    start from a fresh import, so a script that calls this with jobs > 1
    needs an `if __name__ == "__main__":` guard.
    """
    workers = pool_size(jobs, len(tasks))
    if workers == 1:
        return [fn(t) for t in tasks]
    # imported here so that serial runs, the default, do not pay for
    # loading the multiprocessing machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, tasks))
