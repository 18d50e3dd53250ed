"""Forked workers: the package's one way of using more than one CPU.

A :class:`Worker` runs one job in a forked child while the caller goes on
with its own work.  The child writes the job's result to its own unnamed
temporary file (gone once it is closed) and leaves by ``os._exit``, so it
never returns into the caller's stack; the caller reads the result back when
it asks for it.  With one CPU nothing forks: the job runs in this process
when its result is asked for, where each caller's sequential order puts it.

``fork`` copies only the calling thread, so a caller with other threads
running (holding locks the child may need) must not start a worker.
"""

from __future__ import annotations

import os
import pickle
import signal
import tempfile
from functools import partial


def cpu_count() -> int:
    """The CPUs this process may run on (1 where the OS does not say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class Worker:
    """``fn(*args)`` run beside the caller, named ``job`` in its errors.

    With one CPU the job runs when :meth:`result` is asked for.  A ``raw``
    job returns bytes pieces, written as they are and read back as pieces;
    any other result is pickled.

    :meth:`result` reaps the worker and returns its result, or raises a
    ``RuntimeError`` naming the job, the exit code and the worker's error
    text.  :meth:`close` (also the context exit) kills and reaps a worker
    whose result was not asked for, so a caller whose own work fails first
    leaves no child behind; an ``os.fork`` failure propagates as itself.
    """

    def __init__(self, job: str, fn, *args, raw: bool = False):
        self.job, self.raw, self.pid, self.text = job, raw, None, None
        if cpu_count() < 2:
            self._run = partial(fn, *args)
            return
        self.text = tempfile.TemporaryFile()
        try:
            self.pid = os.fork()
        except BaseException:
            self.close()
            raise
        if self.pid == 0:
            # The worker leaves only by its exit code, whatever happens.  A
            # failure leaves only the error's text.
            code = 1
            try:
                try:
                    if raw:
                        self.text.writelines(fn(*args))
                    else:
                        pickle.dump(fn(*args), self.text, pickle.HIGHEST_PROTOCOL)
                    self.text.flush()
                    code = 0
                except Exception as exc:
                    # Past the buffer, which may still hold unwritten text.
                    os.ftruncate(self.text.fileno(), 0)
                    os.pwrite(self.text.fileno(),
                              f"{type(exc).__name__}: {exc}".encode(), 0)
            finally:
                os._exit(code)

    def result(self):
        if self.text is None:
            return self._run()
        try:
            code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = None
            self.text.seek(0)
            if code == 0 and self.raw:
                # Kept as read: joining a worker's text would hold it twice.
                return list(iter(partial(self.text.read, 1 << 20), b""))
            if code == 0:
                return pickle.load(self.text)
            # Only a worker that exited by itself left its error's text; a
            # killed one may have left part of its result.
            detail = self.text.read().decode(errors="replace") if code == 1 else ""
            raise RuntimeError(f"{self.job} failed in a worker (exit code {code})"
                               + (f": {detail}" if detail else ""))
        finally:
            self.close()

    def close(self) -> None:
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self.text is not None:
            self.text.close()

    def __enter__(self) -> Worker:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
