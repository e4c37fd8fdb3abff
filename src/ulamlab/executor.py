"""How a run's cores are shared: seeded jobs across workers, kernel blocks
across threads.

``_parallel`` runs a command's jobs on up to ``--workers`` threads and gives
each worker its share of the cores; ``_for_blocks`` cuts a kernel's items into
blocks and splits them across the kernel threads of the calling thread's
share, and ``_alongside`` runs one computation on a spare kernel thread
beside the caller's others.  No other module starts a thread.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, Iterator

# Complex entries each kernel thread must get before a split pays for waking
# it.  Measured on a 2-core VM at one BLAS thread on symmetric:4 (values of
# 24x24): the polar snap of 24 values (13,824 entries) took 6.3 ms serial and
# 4.2 ms split, the unit defect of 48 sides 3.1 ms and 3.6 ms, the distance
# of 24 values 1.3 ms and 2.0 ms; a `stabilize` seed took 139-145 ms at 2^12
# and 145-148 ms at 2^14, where none of the three splits.
_MIN_SPLIT = 1 << 12
# Complex entries a kernel thread takes at a time, serial or split.  A thread
# keeps the memory of its largest block in its own malloc arena: whole shares
# raised the peak RSS of three symmetric:4 `verify` seeds by 10.5 MiB, blocks
# of 2^15 entries by 2.3 MiB, no slower.  Unsplit kernels (each `--workers`
# thread, a 1-core host) at 2^22 entries built whole (n, n, d, d) tensors:
# `stabilize --group cyclic:40 --seeds 0..1 --workers 2` peaked at 129-133 MiB
# RSS against 53-54 MiB at 2^15, in no more time; the `stabilize-s4-w2`
# benchmark at 91-97 MiB against 84-85.
_BLOCK = 1 << 15


def _blocks(stop: int, entries: int, block: int | None = None, start: int = 0):
    """Slices of the items ``start`` to ``stop`` of ``entries`` complex entries each.

    A block holds at most ``block`` (if given) and ``_BLOCK`` entries, or
    one item when an item is larger.
    """
    step = max(1, min(block or _BLOCK, _BLOCK) // entries)
    for lo in range(start, stop, step):
        yield slice(lo, min(lo + step, stop))


@functools.cache
def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


_budget = threading.local()  # .threads: kernel threads the calling thread may use
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


@contextlib.contextmanager
def _kernel_threads(threads: int):
    """Let kernels called from this thread use ``threads`` threads (unset: every core)."""
    saved = getattr(_budget, "threads", None)
    _budget.threads = threads
    try:
        yield
    finally:
        _budget.threads = saved


def _executor() -> ThreadPoolExecutor:
    """The kernel pool, made on the first split; the caller runs one share itself."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, _cores() - 1), thread_name_prefix="ulamlab-kernel")
        return _pool


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: make a new pool on demand."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _one_thread(job: Callable[[], object]):
    with _kernel_threads(1):  # work on a pool thread never splits again
        return job()


def _run_share(fn: Callable[[slice], object], share: list[slice]) -> list:
    return _one_thread(lambda: [fn(sl) for sl in share])


def _for_blocks(
    count: int, entries: int, fn: Callable[[slice], object], block: int | None = None
) -> list:
    """``fn`` of every block of ``count`` items of ``entries`` complex entries, in order.

    Serially the blocks are those of ``_blocks(count, entries, block)``.
    When the calling thread's budget allows ``t > 1`` threads and each gets
    at least ``_MIN_SPLIT`` entries, the items are cut into ``t`` contiguous
    shares and each share into the blocks of ``_blocks``, so a thread holds
    at most ``block`` and ``_BLOCK`` entries (or one item) at a time, split
    or not.
    ``fn`` must write only the rows of its block and compute each row
    independently of the others (batched products and decompositions do),
    which makes the result the same at every budget.  The exception of the
    first failing block is raised.
    """
    threads = min(count, count * entries // _MIN_SPLIT)
    if threads > 1:
        threads = min(threads, getattr(_budget, "threads", None) or _cores())
    if threads <= 1:
        return [fn(sl) for sl in _blocks(count, entries, block)]
    cuts = [count * i // threads for i in range(threads + 1)]
    shares = [list(_blocks(hi, entries, block, lo)) for lo, hi in zip(cuts, cuts[1:])]
    futures = [_executor().submit(_run_share, fn, share) for share in shares[1:]]
    try:
        out = _run_share(fn, shares[0])
    finally:
        wait(futures)
    return out + [part for future in futures for part in future.result()]


def _alongside(*jobs: Callable[[], object]) -> list:
    """The results of ``jobs``, in order, the last one run on the spare core.

    When the calling thread's budget allows a second thread, the last job
    runs on a thread of the kernel pool at one kernel thread, while the
    caller runs the others in order at its budget less one, so none of their
    `_for_blocks` shares waits in the pool behind it.  At a budget of one,
    or for a single job, every job runs inline, in order.  The first error in program order is
    raised, once the last job has finished.  Like `_for_blocks`' ``fn``, the
    jobs must be independent of each other for the results to be the same
    at every budget.
    """
    *first, last = jobs
    threads = getattr(_budget, "threads", None) or _cores()
    if threads <= 1 or not first:
        return [job() for job in jobs]
    future = _executor().submit(_one_thread, last)
    try:
        with _kernel_threads(threads - 1):
            out = [job() for job in first]
    finally:
        wait([future])
    return out + [future.result()]


def _collect(out, entries: int, fn: Callable[[slice], object], block: int | None = None):
    """``out`` with ``fn(sl)`` written at every block ``sl`` of its
    ``len(out)`` items of ``entries`` complex entries each."""

    def fill(sl: slice) -> None:
        out[sl] = fn(sl)

    _for_blocks(len(out), entries, fill, block)
    return out


def _parallel(jobs: Iterable, count: int, workers: int) -> Iterator:
    """Run ``count`` ``jobs`` on up to ``workers`` threads and yield their
    results in input order.

    At most ``2 * workers`` jobs are taken ahead of the result the caller
    waits for, so neither the jobs nor their results are held all at once.
    The first failing job in input order raises, and the jobs not yet
    started are cancelled.  The cores are shared out: each worker's kernels
    may use ``cores // workers`` threads (at least one), so workers times
    kernel threads stays within the cores whenever the workers do.
    """
    if workers <= 1 or count <= 1:
        for job in jobs:
            yield job()
        return
    threads = min(workers, count)
    share = max(1, _cores() // threads)

    def call(job):
        with _kernel_threads(share):
            return job()

    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        try:
            for job in jobs:
                pending.append(pool.submit(call, job))
                if len(pending) >= 2 * threads:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()
