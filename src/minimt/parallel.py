"""Fork pool: items handed to the CPUs this process may run on, results
returned in item order.

Pool(fn, size) forks one worker per CPU of os.sched_getaffinity (never more
than size) when its with block starts, each with its own multiprocessing
Pipe, and reaps them all when the block ends. Its map sends each next item
to whichever worker last answered and reads back (ok, result or exception),
so a worker that draws cheap items simply draws more of them and none idles
while work remains, and only the caller makes scheduling decisions. Items
are handed out in order and none once an item has failed; every item below
the lowest failure runs to its end (workers on items above it are killed),
so the exception re-raised is always that of the lowest-numbered failing
item, and a map that fails reaps the whole pool. map_ordered is a pool used
for one map. Five workloads use them: train (one pool per train() call),
prune's candidates, decode_corpus (translate and distill), and filter's
semantic and QE stages.

Workers inherit the caller's memory as it was when the block started, so
fn may be a closure over a model, and map_ordered's items are never
pickled: only their indices go out. A Pool's items are pickled, and so is
every result (or exception) that comes back. Memory the caller changes
later is seen by a worker only if it lives in a shared mapping (training's
weights do). Whatever else an item does in a worker (recorded calls,
counters, lazily filled caches, trace spans) stays in that worker, so a
traced run on more than one CPU records none of the pooled work; pinned to
one CPU (taskset -c 0) every map runs inline and a trace sees all of it.
A worker lives for one with block and its heap goes back to the kernel when
it exits, so under glibc it never trims its heap: a step that frees a large
graph would otherwise fault it back in at the next. fork copies only the
calling thread, so the caller must not rely on other threads of its own
while a pool is open.
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

# True in a worker, so that a nested pool runs inline instead of forking more
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
    that ran it; chained as the cause of the exception a map re-raises."""


class Pool:
    """min(CPUs, size) workers that run fn on the items of each map, for the
    life of a with block. Inline, without forking, on one CPU, for a size
    below 2, or inside another pool's work."""

    def __init__(self, fn, size: int):
        self._fn = fn
        self._size = 1 if _busy else min(len(os.sched_getaffinity(0)), size)
        self._workers = {}      # the caller's end of each pipe -> worker pid
        self._running = {}      # the caller's end of each pipe -> item index

    def __enter__(self) -> Pool:
        if self._size < 2:
            return self
        try:
            for _ in range(self._size):
                conn, child = Pipe()
                self._workers[conn] = None
                with child:
                    sys.stdout.flush()
                    sys.stderr.flush()
                    pid = os.fork()
                    if pid == 0:
                        _work(self._fn, child, self._workers)
                self._workers[conn] = pid
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Reap every worker; one still running an item is killed first."""
        # closed first, so an idle worker reads EOF and exits
        for conn in self._workers:
            conn.close()
        for conn, pid in self._workers.items():
            if pid is not None:
                if conn in self._running:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        self._workers.clear()
        self._running.clear()

    def map(self, items) -> list:
        """[fn(item) for item in items], each item handed to whichever worker
        is free. If items fail, the pool is closed and the exception of the
        lowest-numbered failing one is raised (a worker that ends without
        the result of the item it was given raises WorkerDiedError)."""
        items = list(items)
        if not self._workers:
            return [self._fn(item) for item in items]
        results = [None] * len(items)
        failures = {}           # item index -> (exception, formatted traceback)
        running = self._running
        pending = iter(range(len(items)))
        idle = list(self._workers)
        while True:
            while idle and not failures and (i := next(pending, None)) is not None:
                conn = idle.pop()
                running[conn] = i   # recorded first: a lost worker fails i
                with contextlib.suppress(OSError):  # its EOF is read below
                    conn.send(items[i])
            if not running:
                break
            for conn in wait(list(running)):
                i = running.pop(conn)
                try:
                    ok, value = conn.recv()
                except (EOFError, OSError):
                    conn.close()
                    status = os.waitpid(self._workers.pop(conn), 0)[1]
                    failures[i] = (WorkerDiedError(
                        i, os.waitstatus_to_exitcode(status)), None)
                    continue
                (results if ok else failures)[i] = value
                idle.append(conn)
            if failures:
                # an item above a failed one is wasted work
                for conn, i in list(running.items()):
                    if i > min(failures):
                        os.kill(self._workers[conn], signal.SIGKILL)
                        del running[conn]
        if failures:
            self.close()
            exc, tb = failures[min(failures)]
            raise exc from (_ItemTraceback(tb) if tb else None)
        return results


def map_ordered(fn, items) -> list:
    """[fn(item) for item in items] over a Pool of len(items) that lives for
    this one map; the workers reach each item through its index. Every
    worker is reaped before this returns or raises."""
    items = list(items)
    with Pool(lambda i: fn(items[i]), len(items)) as pool:
        return pool.map(range(len(items)))


def _work(fn, conn, parent_ends) -> None:
    """A worker's whole life: compute each item the caller sends and answer
    (ok, result or exception) until the pipe closes, then exit without
    returning into the caller's code."""
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
            # a bigger one and hands a free heap top back to the kernel, so
            # a decoder cache that grows by a step, or a training step's
            # graph, would fault in fresh pages at every step; a worker
            # lives for one pool, so it keeps them (-1: never trim)
            _mallopt(_M_MMAP_THRESHOLD, 32 << 20)
            _mallopt(_M_TRIM_THRESHOLD, -1)
        while True:
            try:
                item = conn.recv()
            except EOFError:
                break
            try:
                conn.send((True, fn(item)))
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
