"""Thread-safe wall-clock deadlines for CPU-bound work.

Historically the per-cell budget in
:mod:`repro.experiments.parallel` was enforced with ``SIGALRM`` —
which only the *main* thread may arm (``signal.signal`` raises
``ValueError`` anywhere else), so a ``cell_timeout`` passed from any
other thread was silently never enforced.  This module replaces the
alarm with a :class:`Watchdog`: a one-shot timer thread that, on
expiry, raises the requested exception *inside the watched thread* via
``PyThreadState_SetAsyncExc``.

Properties and limits:

* Works from any thread (main, helper thread, forked pool worker) and
  on any platform — no signals involved.
* The exception is delivered at the next bytecode boundary, which
  interrupts pure-Python loops (all the simulation engines) promptly.
  A thread blocked inside a single long C call (``time.sleep(30)``,
  a big BLAS kernel) is only interrupted when the call returns — the
  budget still produces a timeout outcome, just late.  Code that
  wants interruptible waits should sleep in small increments.
* Arm/disarm is race-safe: :meth:`cancel` takes the same lock as the
  expiry callback, so after ``cancel()`` returns either the exception
  was already set (``cancel()`` returns ``True``) or it never will
  be.  Callers use the return value to absorb an in-flight exception
  deterministically (see :meth:`absorb`).
"""

from __future__ import annotations

import ctypes
import threading


class DeadlineExceeded(Exception):
    """Default exception a :class:`Watchdog` raises in the watched
    thread."""


def _async_raise(thread_ident: int, exc_type: type) -> int:
    """Schedule ``exc_type`` in the thread with ``thread_ident``;
    returns the number of thread states modified (0 = thread gone)."""
    res = ctypes.pythonapi.PyThreadState_SetAsyncExc(
        ctypes.c_ulong(thread_ident), ctypes.py_object(exc_type)
    )
    if res > 1:  # pragma: no cover — CPython contract: undo and bail
        ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(thread_ident), None
        )
    return res


class Watchdog:
    """One-shot deadline for the *calling* thread.

    Usage (mirrors the old two-level ``SIGALRM`` structure — the outer
    ``except`` catches an expiry delivered while the inner handlers
    were already running)::

        dog = Watchdog(budget, exc_type=JobTimeout)
        try:
            try:
                dog.start()
                work()
            except JobTimeout:
                ...  # timed out mid-work
            finally:
                fired = dog.cancel()
        except JobTimeout:
            fired = True  # delivered during an except/finally clause
        if dog.absorb():
            ...  # timed out; any in-flight exception is consumed
    """

    def __init__(self, budget: float, exc_type: type = DeadlineExceeded):
        self.budget = float(budget)
        self.exc_type = exc_type
        self._target = threading.get_ident()
        self._lock = threading.Lock()
        self._fired = False
        self._cancelled = False
        self._caught = False
        self._timer = threading.Timer(self.budget, self._expire)
        self._timer.daemon = True

    # -- timer side ------------------------------------------------------
    def _expire(self) -> None:
        with self._lock:
            if self._cancelled:
                return
            self._fired = True
            _async_raise(self._target, self.exc_type)

    # -- watched-thread side ---------------------------------------------
    def start(self) -> "Watchdog":
        self._timer.start()
        return self

    @property
    def fired(self) -> bool:
        return self._fired

    def cancel(self) -> bool:
        """Disarm; returns True when the deadline already expired.
        After this returns False, the exception will never be raised."""
        with self._lock:
            self._cancelled = True
        self._timer.cancel()
        return self._fired

    def absorb(self, spin: int = 2_000_000) -> bool:
        """Consume a possibly in-flight async exception.

        Call from the watched thread after :meth:`cancel`, *outside*
        the guarded region.  When the deadline fired but the exception
        has not been caught yet (it is pending delivery at the next
        bytecode boundary), spin a bounded pure-Python loop under a
        ``try`` until it lands, so it cannot detonate later in an
        unrelated frame.  Returns True iff the deadline fired —
        callers treat that as the timeout verdict regardless of
        whether the work also happened to finish.
        """
        if not self._fired:
            return False
        if self._caught:
            return True
        try:
            for _ in range(spin):
                if self._caught:  # pragma: no cover — settled elsewhere
                    break
        except self.exc_type:
            pass
        self._caught = True
        return True

    def mark_caught(self) -> None:
        """Record that the expiry exception reached an ``except``
        clause, so :meth:`absorb` returns without spinning."""
        self._caught = True
