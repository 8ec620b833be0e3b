"""Ordered fork map: independent items spread over the CPUs this process
may run on, results returned in item order.

map_ordered forks one worker per CPU of os.sched_getaffinity (never more
workers than items), each with its own multiprocessing Pipe. The caller
only dispatches: it sends the next item index to whichever worker last
answered and reads back (ok, result or exception), so a worker that draws
cheap items simply draws more of them and none idles while work remains,
and one process makes every scheduling decision. Items are handed out in
index order and none once an item has failed; every item below the lowest
failure runs to its end (only workers on items above it are killed), so
the exception re-raised is always that of the lowest-numbered failing
item.

Workers inherit the caller's memory, so fn may be any callable, a closure
over a model included, and items are never pickled: only indices go out,
and each result (or exception) comes back pickled. Whatever else an item
does in a worker (recorded calls, counters, lazily filled caches, trace
spans) stays in that worker, so a traced run on more than one CPU records
none of the mapped work; pinned to one CPU (taskset -c 0) every map runs
inline and a trace sees all of it. fork copies only the calling thread, so
the caller must not rely on other threads of its own while a map runs.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import signal
import sys
import traceback
from multiprocessing import Pipe
from multiprocessing.connection import wait

# True in a worker, so that a nested map runs inline instead of forking more
# processes than CPUs.
_busy = False

_mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # glibc's, or None
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # mallopt's parameter numbers


class WorkerDiedError(RuntimeError):
    """A worker process ended without returning the result of an item."""

    def __init__(self, item: int, exit_code: int):
        how = (f"killed by signal {-exit_code}" if exit_code < 0
               else f"exit code {exit_code}")
        super().__init__(f"worker died ({how}) before returning item {item}")
        self.item = item
        self.exit_code = exit_code


class _ItemTraceback(Exception):
    """The traceback of an item's exception, as formatted in the process
    that ran it; chained as the cause of the exception map_ordered
    re-raises."""


def map_ordered(fn, items) -> list:
    """[fn(item) for item in items], with the items handed one at a time to
    whichever of min(CPUs, len(items)) workers is free. Inline, without
    forking, on one CPU, for one item, or inside another map's work. If
    items fail, the exception of the lowest-numbered failing one is raised
    in the caller (a worker that ends without the result of the item it
    was given raises WorkerDiedError); workers still running an item above
    it are killed. Every worker is reaped before this returns or raises."""
    items = list(items)
    n = 1 if _busy else min(len(os.sched_getaffinity(0)), len(items))
    if n <= 1:
        return [fn(item) for item in items]

    results = [None] * len(items)
    failures = {}           # item index -> (exception, formatted traceback)
    workers = {}            # the caller's end of each pipe -> worker pid
    running = {}            # the caller's end of each pipe -> item it was sent
    try:
        for _ in range(n):
            conn, child = Pipe()
            workers[conn] = None
            with child:
                sys.stdout.flush()
                sys.stderr.flush()
                pid = os.fork()
                if pid == 0:
                    _work(fn, items, child, workers)
            workers[conn] = pid
        pending = iter(range(len(items)))
        idle = list(workers)
        while True:
            while idle and not failures and (i := next(pending, None)) is not None:
                conn = idle.pop()
                running[conn] = i   # recorded first: a lost worker fails i
                with contextlib.suppress(OSError):  # its EOF is read below
                    conn.send(i)
            if not running:
                break
            for conn in wait(list(running)):
                i = running.pop(conn)
                try:
                    ok, value = conn.recv()
                except (EOFError, OSError):
                    conn.close()
                    status = os.waitpid(workers.pop(conn), 0)[1]
                    failures[i] = (WorkerDiedError(
                        i, os.waitstatus_to_exitcode(status)), None)
                    continue
                (results if ok else failures)[i] = value
                idle.append(conn)
            if failures:
                # an item above a failed one is wasted work
                for conn, i in list(running.items()):
                    if i > min(failures):
                        os.kill(workers[conn], signal.SIGKILL)
                        del running[conn]
    finally:
        # closed first, so an idle worker reads EOF and exits
        for conn in workers:
            conn.close()
        for conn, pid in workers.items():
            if pid is not None:
                if conn in running:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if failures:
        exc, tb = failures[min(failures)]
        raise exc from (_ItemTraceback(tb) if tb else None)
    return results


def _work(fn, items: list, conn, parent_ends) -> None:
    """A worker's whole life: compute each item index the caller sends and
    answer (ok, result or exception) until the pipe closes, then exit
    without returning into the caller's code."""
    global _busy
    _busy = True
    code = 1
    try:
        # the caller's ends, this worker's and the earlier ones': a copy
        # held here would keep its worker from ever reading EOF
        for end in parent_ends:
            end.close()
        if _mallopt is not None:
            # glibc maps blocks above a threshold it raises only on freeing
            # a bigger one, so caches that grow by a step would fault in new
            # pages at every step; a worker lives for one map, so it keeps them
            _mallopt(_M_MMAP_THRESHOLD, 32 << 20)
            _mallopt(_M_TRIM_THRESHOLD, 64 << 20)
        while True:
            try:
                i = conn.recv()
            except EOFError:
                break
            try:
                conn.send((True, fn(items[i])))
            except Exception as exc:  # noqa: BLE001 - re-raised by the caller
                conn.send((False, _portable(exc)))
        sys.stdout.flush()
        sys.stderr.flush()
        code = 0
    finally:
        os._exit(code)


def _portable(exc: Exception) -> tuple[Exception, str]:
    """exc and its formatted traceback; an exception that does not survive
    pickling is replaced by a RuntimeError carrying its type and message."""
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any pickling failure
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc, tb
