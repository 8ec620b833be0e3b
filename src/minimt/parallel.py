"""Ordered fork map: independent items spread over the CPUs this process
may run on, results returned in item order.

map_ordered forks one child per CPU of os.sched_getaffinity beyond the
first (never more processes than items). Items are handed out one at a
time: every process, the caller included, claims the next unclaimed index
until none is left, so a process that draws cheap items simply draws more
of them and none idles while work remains. The caller claims item 0 before
it forks. Claims are made in index order and none is made once an item has
failed; every claimed item below the lowest failure runs to its end (only
workers on items above it are killed), so the exception re-raised is
always that of the lowest-numbered failing item.

Children inherit the caller's memory, so fn may be any callable, a closure
over a model included, and items are never pickled; each result (or
exception) comes back pickled through a temporary file per child. Whatever
else an item does in a child (recorded calls, counters, lazily filled
caches) stays in that child. fork copies only the calling thread, so the
caller must not rely on other threads of its own while a map runs.
"""

from __future__ import annotations

import contextlib
import fcntl
import mmap
import os
import pickle
import signal
import struct
import sys
import tempfile
import traceback

_FRAME = struct.Struct("<Q")   # byte length of the pickle that follows

# True in a worker, and in the caller while it computes its own items, so
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


class _ItemTraceback(Exception):
    """The traceback of an item's exception, as formatted in the process
    that ran it; chained as the cause of the exception map_ordered
    re-raises."""


class _Claims:
    """The claim board the caller and its workers share through a mapped
    temporary file of int64 slots: the next unclaimed item, the end of the
    claimable items (len(items), lowered to the lowest failed item), and
    per process the last item it claimed (-1 before its first). A POSIX
    record lock, which the kernel releases when its holder dies, makes each
    update atomic. Its size depends on the process count only, so any
    number of items can be handed out."""

    def __init__(self, n_items: int, n_procs: int):
        self._file = tempfile.TemporaryFile()
        self._file.truncate(8 * (2 + n_procs))
        self._map = mmap.mmap(self._file.fileno(), 8 * (2 + n_procs))
        self._slots = memoryview(self._map).cast("q")
        self._slots[0], self._slots[1] = 0, n_items
        for w in range(n_procs):
            self._slots[2 + w] = -1

    @contextlib.contextmanager
    def _locked(self):
        fcntl.lockf(self._file, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.lockf(self._file, fcntl.LOCK_UN)

    def claim(self, proc: int) -> int | None:
        """The next unclaimed item, now proc's, or None when none is left."""
        with self._locked():
            i = self._slots[0]
            if i >= self._slots[1]:
                return None
            # the claimant is recorded first: a process killed between the
            # two stores leaves item i claimed by it and still claimable
            self._slots[2 + proc] = i
            self._slots[0] = i + 1
            return i

    def fail(self, i: int) -> None:
        """Item i failed: no item above it is claimed from now on."""
        with self._locked():
            self._slots[1] = min(self._slots[1], i)

    def end(self) -> int:
        return self._slots[1]

    def last(self, proc: int) -> int:
        return self._slots[2 + proc]

    def close(self) -> None:
        self._slots.release()
        self._map.close()
        self._file.close()


def map_ordered(fn, items) -> list:
    """[fn(item) for item in items], with the items handed one at a time to
    whichever of min(CPUs, len(items)) processes is free. Inline, without
    forking, on one CPU, for one item, or inside another map's work. If
    items fail, the exception of the lowest-numbered failing one is raised
    in the caller (a worker that ends without the result of the item it
    claimed raises WorkerDiedError); workers still running an item above
    it are killed. Every worker is reaped before this returns or raises."""
    global _busy
    items = list(items)
    n = 1 if _busy else min(len(os.sched_getaffinity(0)), len(items))
    if n <= 1:
        return [fn(item) for item in items]

    results = [None] * len(items)
    failures = {}           # item index -> (exception, formatted traceback)
    children = {}           # pid -> (process index, results file)
    claims = _Claims(len(items), n)
    try:
        i = claims.claim(0)
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
                _work(fn, items, claims, w, out)
            children[pid] = (w, out)
        _busy = True
        try:
            while i is not None:
                try:
                    results[i] = fn(items[i])
                except Exception as exc:  # noqa: BLE001 - re-raised below
                    # as a worker would send it, so no exception depends on
                    # which process ran the item
                    failures[i] = _portable(exc)
                    claims.fail(i)
                i = claims.claim(0)
        finally:
            _busy = False
        # no item is claimed any more; one above a failed item is wasted work
        for pid, (w, _) in children.items():
            if claims.last(w) > claims.end():
                os.kill(pid, signal.SIGKILL)
        for pid in list(children):
            status = os.waitpid(pid, 0)[1]
            w, out = children.pop(pid)
            with out:
                out.seek(0)
                frames = out.read()
            got = _unpack(frames, results, failures)
            last = claims.last(w)
            if last >= 0 and last not in got:
                failures[last] = (WorkerDiedError(
                    last, os.waitstatus_to_exitcode(status)), None)
    finally:
        for pid, (_, out) in children.items():
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            out.close()
        claims.close()
    if failures:
        exc, tb = failures[min(failures)]
        raise exc from (_ItemTraceback(tb) if tb else None)
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


def _work(fn, items: list, claims: _Claims, proc: int, out) -> None:
    """A worker's whole life: claim and compute items until none is left,
    writing one frame per item as it finishes, then exit without returning
    into the caller's code."""
    global _busy
    _busy = True
    code = 1
    try:
        while (i := claims.claim(proc)) is not None:
            try:
                frame = pickle.dumps((i, True, fn(items[i])))
            except Exception as exc:  # noqa: BLE001 - re-raised by the caller
                frame = pickle.dumps((i, False, _portable(exc)))
                claims.fail(i)
            out.write(_FRAME.pack(len(frame)) + frame)
            out.flush()
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
