"""The one task runner: the simulator's draws, the correlator's chunks and the
tag reader's record slices."""

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

# items per chunk task: starts or heralds per correlator task, pairs per kernel
# run, records per reader slice.  A chunk's int64 temporaries (512 kB each)
# stay in cache, and a worker's working set is a few of them.
CHUNK = 1 << 16


def in_order(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]`` on this thread and up to ``workers - 1``
    more, each taking the next item in turn; one pool thread fewer is one
    allocator arena fewer keeping freed temporaries."""
    results = [None] * len(items)
    todo = iter(range(len(items)))  # shared; each next() is atomic under the GIL

    def run() -> None:
        for i in todo:
            results[i] = fn(items[i])

    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        helpers = [pool.submit(run) for _ in range(min(workers, len(items)) - 1)]
        run()
        for helper in helpers:
            helper.result()
    return results
