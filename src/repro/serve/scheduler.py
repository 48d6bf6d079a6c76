"""The cooperative slice scheduler.

``session.run`` budgets can be enormous (billions of sim-cycles); if the
daemon executed each to completion inline, one hot tenant would park the
event loop and every other session behind it.  Instead a run request
becomes a :class:`RunJob` and the :class:`CooperativeScheduler`
round-robins the queue: each :meth:`tick` advances exactly one slice of
the head job (at most the tenant's ``max_cycles_per_slice``), then
rotates it to the back.  Wall-clock fairness therefore degrades
gracefully — a 2-billion-cycle run and a 50-million-cycle run make
progress together, and the small one finishes first.

Jobs whose client vanished mid-request are dropped at their next slice
(the session itself stays registered and consistent — only the *answer*
had nowhere to go).  A crash inside a slice parks that session via the
session's own containment and completes the job with its typed error;
the queue keeps draining everyone else.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.serve.protocol import ServeError
from repro.serve.session import Session


class RunJob:
    """One in-flight ``session.run`` request, sliced over many ticks."""

    def __init__(
        self,
        session: Session,
        cycles: int,
        slice_cycles: int,
        on_done: Callable[[dict[str, Any] | None, ServeError | None], None],
        is_cancelled: Callable[[], bool] = lambda: False,
    ) -> None:
        if cycles <= 0:
            raise ValueError("run budget must be positive")
        if slice_cycles <= 0:
            raise ValueError("slice budget must be positive")
        self.session = session
        self.tenant = session.tenant
        self.remaining = int(cycles)
        self.slice_cycles = int(slice_cycles)
        #: Dropped once the job leaves the queue: a callback that refers
        #: back to the job (the daemon's does) would otherwise keep the
        #: job and its session alive until the cycle collector ran.
        self.on_done: Callable[..., None] | None = on_done
        self.is_cancelled = is_cancelled
        self.advanced = 0
        self.steps = 0
        self.slices = 0
        self.finished = False

    def result(self) -> dict[str, Any]:
        return {
            "session_id": self.session.session_id,
            "cycles_advanced": self.advanced,
            "steps_applied": self.steps,
            "slices": self.slices,
            "clock": self.session.clock,
        }


class CooperativeScheduler:
    """Round-robin queue of sliced run jobs."""

    def __init__(self) -> None:
        self._queue: deque[RunJob] = deque()
        self.completed = 0
        self.cancelled = 0

    # -- submission ------------------------------------------------------

    def submit(self, job: RunJob) -> None:
        self._queue.append(job)

    def pending(self) -> int:
        return len(self._queue)

    def pending_for(self, tenant: str) -> int:
        return sum(1 for job in self._queue if job.tenant == tenant)

    @property
    def idle(self) -> bool:
        return not self._queue

    # -- draining --------------------------------------------------------

    def _finish(
        self, job: RunJob, result: dict[str, Any] | None, err: ServeError | None
    ) -> None:
        job.finished = True
        self.completed += 1
        job.on_done(result, err)
        job.on_done = None

    def tick(self) -> bool:
        """Advance one slice of the head job; returns True if any work
        was done (the daemon's idle detector)."""
        if not self._queue:
            return False
        job = self._queue.popleft()
        if job.is_cancelled():
            job.finished = True
            job.on_done = None
            self.cancelled += 1
            return True
        try:
            slice_result = job.session.advance(
                min(job.remaining, job.slice_cycles)
            )
        except ServeError as err:
            self._finish(job, None, err)
            return True
        job.advanced += slice_result["cycles"]
        job.steps += slice_result["steps"]
        job.slices += 1
        job.remaining -= slice_result["cycles"]
        if job.remaining <= 0:
            self._finish(job, job.result(), None)
        else:
            self._queue.append(job)
        return True

    def drain(self, max_ticks: int = 1_000_000) -> None:
        """Run ticks until the queue is empty (test/bench convenience)."""
        ticks = 0
        while self.tick():
            ticks += 1
            if ticks >= max_ticks:  # pragma: no cover - runaway guard
                raise RuntimeError("scheduler failed to drain")
