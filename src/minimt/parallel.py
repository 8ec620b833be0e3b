"""Ordered fork map: independent items spread over the CPUs this process
may run on, results returned in item order.

map_ordered forks one child per CPU of os.sched_getaffinity beyond the
first (never more processes than items). Worker w computes items w, w + n,
w + 2n, ... and the caller computes share 0 itself. Children inherit the
caller's memory, so fn may be any callable, a closure over a model
included, and items are never pickled; each result (or exception) comes
back pickled through a temporary file per child. Whatever else an item
does in a child (recorded calls, counters, lazily filled caches) stays in
that child. fork copies only the calling thread, so the caller must not
rely on other threads of its own while a map runs.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import sys
import tempfile
import traceback

_FRAME = struct.Struct("<Q")   # byte length of the pickle that follows

# True in a worker, and in the caller while it computes its own share, so
# that a nested map runs inline instead of forking more processes than CPUs.
_busy = False


class WorkerDiedError(RuntimeError):
    """A worker process ended without returning the result of an item."""

    def __init__(self, item: int, exit_code: int):
        how = (f"killed by signal {-exit_code}" if exit_code < 0
               else f"exit code {exit_code}")
        super().__init__(f"worker died ({how}) before returning item {item}")
        self.item = item
        self.exit_code = exit_code


class _WorkerTraceback(Exception):
    """The traceback of an item's exception, as the worker formatted it;
    chained as the cause of the exception map_ordered re-raises."""


def map_ordered(fn, items) -> list:
    """[fn(item) for item in items], with the items shared among
    min(CPUs, len(items)) processes. Inline, without forking, on one CPU,
    for one item, or inside another map's work. If items fail, the
    exception of the first failing one is raised in the caller (a worker
    whose result is missing raises WorkerDiedError); if the caller's own
    share fails, the workers are killed first. Every worker is reaped
    before this returns or raises."""
    global _busy
    items = list(items)
    n = 1 if _busy else min(len(os.sched_getaffinity(0)), len(items))
    if n <= 1:
        return [fn(item) for item in items]

    results = [None] * len(items)
    failures = {}           # item index -> (exception, worker traceback)
    children = {}           # pid -> (worker index, results file)
    try:
        for w in range(1, n):
            out = tempfile.TemporaryFile()
            sys.stdout.flush()
            sys.stderr.flush()
            try:
                pid = os.fork()
            except BaseException:
                out.close()
                raise
            if pid == 0:
                _work(fn, items, range(w, len(items), n), out)
            children[pid] = (w, out)
        _busy = True
        try:
            for i in range(0, len(items), n):
                results[i] = fn(items[i])
        finally:
            _busy = False
        for pid in list(children):
            status = os.waitpid(pid, 0)[1]
            w, out = children.pop(pid)
            with out:
                out.seek(0)
                frames = out.read()
            got = _unpack(frames, results, failures)
            missing = next((i for i in range(w, len(items), n) if i not in got), None)
            if missing is not None and not any(i in failures for i in got):
                failures[missing] = (WorkerDiedError(
                    missing, os.waitstatus_to_exitcode(status)), None)
    finally:
        for pid, (_, out) in children.items():
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            out.close()
    if failures:
        exc, tb = failures[min(failures)]
        raise exc from (_WorkerTraceback(tb) if tb else None)
    return results


def _unpack(frames: bytes, results: list, failures: dict) -> set[int]:
    """Read the complete frames of one worker into results and failures;
    return the item indices they cover."""
    got = set()
    pos = 0
    while pos + _FRAME.size <= len(frames):
        (size,) = _FRAME.unpack_from(frames, pos)
        end = pos + _FRAME.size + size
        if end > len(frames):
            break
        i, ok, value = pickle.loads(frames[pos + _FRAME.size:end])
        (results if ok else failures)[i] = value
        got.add(i)
        pos = end
    return got


def _work(fn, items: list, share: range, out) -> None:
    """A worker's whole life: compute its share, writing one frame per item
    as it finishes and stopping after the first exception, then exit
    without returning into the caller's code."""
    global _busy
    _busy = True
    code = 1
    try:
        for i in share:
            try:
                frame = pickle.dumps((i, True, fn(items[i])))
                ok = True
            except Exception as exc:  # noqa: BLE001 - re-raised by the caller
                frame = pickle.dumps((i, False, _portable(exc)))
                ok = False
            out.write(_FRAME.pack(len(frame)) + frame)
            out.flush()
            if not ok:
                break
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
