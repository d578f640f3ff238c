"""Cooperative wall-clock deadlines.

A :class:`Deadline` is a start time plus a budget.  It enforces nothing
by itself: code under a deadline calls :meth:`check` at natural
boundaries (per-server steps, per-block evaluations, per-scenario
retests) and gets an :class:`~repro.errors.AnalysisTimeoutError` once
the budget is exhausted — on any thread, with no signal handlers and no
leaked workers.  It is the project's one timeout mechanism.

Deadlines are also *cancellable*: :meth:`cancel` makes every subsequent
:meth:`check` raise, so an abandoned computation stops at its next
checkpoint instead of running to completion.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

from repro.errors import AnalysisTimeoutError

__all__ = ["Deadline"]


class Deadline:
    """A wall-clock budget checked cooperatively.

    Parameters
    ----------
    budget:
        Wall-clock limit in seconds; must be > 0.
    description:
        Label used in timeout messages ("integrated admission test").
    clock:
        Monotonic time source (injectable for tests); defaults to
        :func:`time.perf_counter`.  The deadline starts at construction.
    """

    __slots__ = ("budget", "description", "_clock", "_start", "_cancelled")

    def __init__(self, budget: float, description: str = "analysis", *,
                 clock: Callable[[], float] = perf_counter) -> None:
        if not budget > 0:
            raise ValueError(f"budget must be > 0, got {budget}")
        self.budget = float(budget)
        self.description = description
        self._clock = clock
        self._start = clock()
        self._cancelled = False

    # ------------------------------------------------------------------

    def restart(self) -> None:
        """Reset the clock (and any cancellation) to a fresh budget."""
        self._start = self._clock()
        self._cancelled = False

    def cancel(self) -> None:
        """Mark the deadline cancelled: every later check raises."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """True after :meth:`cancel`."""
        return self._cancelled

    def elapsed(self) -> float:
        """Seconds since the deadline (re)started."""
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds left in the budget (may be negative)."""
        return self.budget - self.elapsed()

    def expired(self) -> bool:
        """True when the budget is spent or the deadline was cancelled."""
        return self._cancelled or self.elapsed() >= self.budget

    def check(self, what: str | None = None) -> None:
        """Raise :class:`AnalysisTimeoutError` when expired or cancelled.

        *what* optionally names the phase that noticed ("propagation",
        "block evaluation") for the error message.
        """
        if self._cancelled:
            raise AnalysisTimeoutError(
                f"{self.description} was cancelled"
                + (f" during {what}" if what else ""),
                budget=self.budget, elapsed=self.elapsed())
        elapsed = self.elapsed()
        if elapsed >= self.budget:
            raise AnalysisTimeoutError(
                f"{self.description} exceeded its {self.budget:g}s budget"
                + (f" during {what}" if what else ""),
                budget=self.budget, elapsed=elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self._cancelled
                 else f"{self.remaining():.3f}s left")
        return f"Deadline({self.description!r}, {self.budget:g}s, {state})"
