"""One helper thread that a loop hands calls to, and takes them back from.

It is every helper thread featpde starts.  A march hands it its draws
ahead, a reduced grid each round's second block, the finite-difference
march half of each split line solve, and training one loss term per step.
The calling thread hands a call over, does its own share of the work, and
then claims the call: if the helper has begun it, the calling thread waits
for it; if not, the helper never will run it, and the calling thread runs
it itself.  So a late helper never stalls the loop, and the result does
not depend on which thread ran a call.  A claimed call lets go of its
function and arguments, and the helper of each call it has served, so a
helper that falls behind keeps no step's arrays alive.

A handed call runs in a copy of the calling thread's context, so numpy's
floating-point error state (``np.errstate``, which is per thread) is the
caller's wherever it runs.  Any exception it raises on the helper, even a
``BaseException``, is raised again on the calling thread by ``result``.
"""

from __future__ import annotations

import contextvars
import queue
import threading


class _Call:
    """A call handed to the helper thread.  Whichever thread takes its claim
    lock first owns it: the helper runs the call and then releases the lock,
    and the calling thread, if first, keeps the lock, so the helper skips
    the call."""

    def __init__(self, fn, args):
        self._claim = threading.Lock()
        self._fn, self._args = fn, args
        self._context = contextvars.copy_context()
        self._ran = False
        self._value = self._error = None

    def serve(self):
        """Run the call unless the calling thread has claimed it."""
        if self._claim.acquire(blocking=False):
            try:
                self._value = self._context.run(self._fn, *self._args)
            except BaseException as exc:  # raised on the calling thread
                self._error = exc
            self._ran = True
            self._claim.release()

    def claim(self):
        """Take the call back: True once the helper has run it, waiting if
        it has begun, and False if it has not begun, which it now never
        will."""
        self._claim.acquire()
        # no thread runs it now, so what it holds is freed even while it
        # waits in the queue of a helper that has fallen behind
        self._fn = self._args = None
        return self._ran

    def result(self):
        """The value of a call the helper ran, or the error it raised."""
        if self._error is not None:
            raise self._error
        return self._value


class _Helper:
    """A loop's one helper thread, named ``name``, which serves the calls
    handed to it in order; it is joined when the ``with`` block ends."""

    def __init__(self, name):
        self._calls = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._serve, name=name)

    def _serve(self):
        while (call := self._calls.get()) is not None:
            call.serve()
            del call  # its result is freed before the wait

    def hand(self, fn, *args):
        """Queue ``fn(*args)`` for the helper; the ``_Call``."""
        call = _Call(fn, args)
        self._calls.put(call)
        return call

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._calls.put(None)
        self._thread.join()


def run_pair(helper, mine, theirs):
    """``(mine(), theirs())``.  With a ``helper``, ``theirs`` is handed to
    it while this thread runs ``mine``, and taken back and run here if the
    helper has not begun it; without one, it runs here after ``mine``.  An
    error ``mine`` raises comes first, as when both run here in order."""
    handed = helper.hand(theirs) if helper is not None else None
    try:
        first = mine()
    finally:
        ran = handed is not None and handed.claim()
    return first, handed.result() if ran else theirs()
