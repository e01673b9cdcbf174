"""A fork-and-pipe process pool for `checks.run_suite`.

`run_forked(task, items, order, workers)` returns [task(x) for x in items],
computed on worker processes forked from the caller, and raises what the
loop would have raised.  A forked worker starts with the caller's imports and
data, so it receives only an item's index and sends back only the result.
Pickling is limited to results, and to exceptions the workers raise; only
bytes that a worker of this call wrote are unpickled.

Fork is unsafe in a process that runs other threads, so the caller must not.
This module is imported only when a suite runs on more than one worker.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import traceback


def run_forked(task, items: list, order: list[int], workers: int) -> list:
    """[task(x) for x in items], each call in one of `workers` forked processes.

    Indices go out in `order`, each to whichever worker is free.  If calls
    fail, the exception raised is that of the first failing item in `items`,
    and once item i has failed no item after i starts.  A worker that exits
    without its result counts as its item failing with RuntimeError.

    Each worker is forked up front with its own two pipes.  It reads a 4-byte
    index from the first and writes back a pickled (ok, result or exception),
    prefixed with its 8-byte length, on the second, until the first pipe
    closes; then it leaves by os._exit.  Every worker is reaped before this
    returns; on an error or an interrupt the ones still running are killed
    first.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pipes = {}  # pid -> (task write end, result read end)
    done = False
    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (task_r, task_w, result_r, result_w):
                    os.close(fd)
                raise
            if pid == 0:
                try:
                    for fd in (task_w, result_r, *(fd for ends in pipes.values() for fd in ends)):
                        os.close(fd)
                    _serve(task, items, task_r, result_w)
                    sys.stdout.flush()
                    sys.stderr.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(task_r)
            os.close(result_w)
            pipes[pid] = (task_w, result_r)

        results = [None] * len(items)
        limit, error = len(items), None  # the first failure in request order
        todo = list(order)
        idle, busy = list(pipes), {}  # busy: result read end -> (pid, index)
        while True:
            todo = [i for i in todo if i < limit]
            while todo and idle:
                pid, i = idle.pop(), todo.pop(0)
                os.write(pipes[pid][0], i.to_bytes(4, "little"))
                busy[pipes[pid][1]] = (pid, i)
            if not busy or all(i > limit for _, i in busy.values()):
                break
            for fd in select.select(list(busy), [], [])[0]:
                pid, i = busy.pop(fd)
                head = _read_exact(fd, 8)
                body = head and _read_exact(fd, int.from_bytes(head, "little"))
                if body:
                    ok, value = pickle.loads(body)
                    idle.append(pid)
                    if ok:
                        results[i] = value
                        continue
                else:
                    value = RuntimeError(f"the worker running {items[i]!r} exited "
                                         "without its result")
                if i < limit:
                    limit, error = i, value
        if error is not None:
            raise error
        done = True
        return results
    finally:
        for task_w, result_r in pipes.values():
            os.close(task_w)  # an idle worker reads end of file and exits
            os.close(result_r)
        if not done:
            for pid in pipes:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        for pid in pipes:
            os.waitpid(pid, 0)


def _serve(task, items: list, task_r: int, result_w: int) -> None:
    """A worker's loop: one result or exception per index read."""
    while head := os.read(task_r, 4):
        x = items[int.from_bytes(head, "little")]
        try:
            msg = pickle.dumps((True, task(x)))
        except Exception as exc:
            exc.add_note("in a forked worker:\n" + "".join(traceback.format_exception(exc)))
            try:
                msg = pickle.dumps((False, exc))
            except Exception:
                msg = pickle.dumps((False, RuntimeError(f"{x!r} raised {exc!r}")))
        view = memoryview(len(msg).to_bytes(8, "little") + msg)
        while view:
            view = view[os.write(result_w, view):]


def _read_exact(fd: int, n: int) -> bytes:
    """n bytes from fd, or b"" if it reaches end of file first."""
    chunks = []
    while n:
        chunk = os.read(fd, min(n, 1 << 20))
        if not chunk:
            return b""
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)
