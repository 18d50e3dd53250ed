"""The package's ways of using more than one CPU: forked workers, and one
thread that draws a generation's noise ahead.

A :class:`Worker` runs one job in a forked child while the caller goes on
with its own work.  The child writes the job's result to its own unnamed
temporary file (gone once it is closed) and leaves by ``os._exit``, so it
never returns into the caller's stack; the caller reads the result back when
it asks for it.  With one CPU nothing forks: the job runs in this process
when its result is asked for, where each caller's sequential order puts it.

A :class:`NoiseStream` hands out one generator's ``standard_normal`` draws,
drawn ahead in chunks by one thread while numpy fills them without the
interpreter lock.  Its values are the generator's own, in order, at any CPU
count; with one CPU, or when its caller does not ask for a thread, it draws
each block inline when asked.

``fork`` copies only the calling thread, so a caller with other threads
running (holding locks the child may need) must not start a worker: close
every noise stream first.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import tempfile
import threading
from functools import partial

import numpy as np

# A noise thread fills chunks of _NOISE_CHUNK normals (256 KB) and has
# _NOISE_BUFFERS of them to fill or waiting to be read, so with the one being
# read a stream holds 1.5 MB of noise whatever the run's size.
_NOISE_CHUNK, _NOISE_BUFFERS = 1 << 15, 5


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


class NoiseStream:
    """The ``standard_normal`` draws of ``rng``, drawn ahead by one thread
    when ``ahead`` is set and the process may run on two CPUs.

    ``standard_normal(shape)`` returns the next values of ``rng``'s stream,
    exactly what ``rng.standard_normal(shape)`` would return there: the
    normals of a numpy Generator drawn in pieces equal one draw of their
    total size.  Drawn ahead, a block is a read-only view of a chunk (a block
    across chunks, a read-only copy), so an in-place write raises rather
    than changing later draws, and the thread's failure is raised by the
    draw that reaches it, then by every later draw.  Otherwise each block is
    drawn inline.  :meth:`close` (also the context exit) stops and joins the
    thread; close before forking.
    """

    def __init__(self, rng: np.random.Generator, ahead: bool):
        self.rng, self.thread = rng, None
        if not ahead or cpu_count() < 2:
            return
        import queue  # here: importing it costs every command about 1 ms

        # The reader allocates every buffer, so the memory it frees is reused
        # by its own allocations; buffers the thread allocated would stay in
        # glibc's per-thread malloc arena (2-3 MB more peak RSS at 8192
        # sequences).  A buffer is never refilled, as a view of it may live.
        self.empty, self.full = queue.SimpleQueue(), queue.SimpleQueue()
        for _ in range(_NOISE_BUFFERS):
            self.empty.put(np.empty(_NOISE_CHUNK))
        self.chunk, self.used = np.empty(0), 0
        self.thread = threading.Thread(target=self._fill, name="stepanneal noise",
                                       daemon=True)
        self.thread.start()

    def _fill(self) -> None:
        try:
            while (buffer := self.empty.get()) is not None:
                self.rng.standard_normal(out=buffer)
                buffer.flags.writeable = False
                self.full.put(buffer)
        except Exception as exc:
            self.full.put(exc)

    def _next_chunk(self) -> None:
        item = self.full.get()
        if isinstance(item, Exception):
            self.full.put(item)  # the thread has ended; later draws fail too
            raise item
        self.empty.put(np.empty(_NOISE_CHUNK))
        self.chunk, self.used = item, 0

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        if self.thread is None:
            return self.rng.standard_normal(shape)
        size = math.prod(shape)
        if self.used + size <= self.chunk.size:
            block = self.chunk[self.used:self.used + size]
            self.used += size
            return block.reshape(shape)
        block, filled = np.empty(size), 0
        while filled < size:
            if self.used == self.chunk.size:
                self._next_chunk()
            take = min(size - filled, self.chunk.size - self.used)
            block[filled:filled + take] = self.chunk[self.used:self.used + take]
            filled, self.used = filled + take, self.used + take
        block.flags.writeable = False
        return block.reshape(shape)

    def close(self) -> None:
        """Stop the thread once it has filled the buffers it holds, and
        join it."""
        if self.thread is not None:
            self.empty.put(None)
            self.thread.join()

    def __enter__(self) -> NoiseStream:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
