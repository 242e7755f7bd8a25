"""Scaled wall-clock time for the runtime.

A paced serve drives its kernels on one :class:`VirtualClock`.  Virtual
time is measured in milliseconds, like everywhere else in the library;
the ``time_scale`` factor maps it onto wall-clock seconds
(``time_scale = 0.1`` runs 10x faster than real time).
"""

from __future__ import annotations

import time

__all__ = ["VirtualClock"]


class VirtualClock:
    """Monotonic virtual clock with uniform wall-time compression."""

    def __init__(self, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be > 0, got {time_scale}")
        self._scale = time_scale
        self._start = time.monotonic()

    @property
    def time_scale(self) -> float:
        """Wall seconds per virtual second."""
        return self._scale

    def now_ms(self) -> float:
        """Current virtual time in milliseconds since clock creation."""
        return (time.monotonic() - self._start) * 1000.0 / self._scale

    def wall_s_until(self, virtual_deadline_ms: float) -> float:
        """Wall seconds until the clock reaches ``virtual_deadline_ms``
        (negative when the deadline has already passed)."""
        return (virtual_deadline_ms - self.now_ms()) * self._scale / 1000.0

    def sleep_until_ms(self, virtual_deadline_ms: float) -> None:
        """Block until the virtual clock reaches ``virtual_deadline_ms``.

        Loops on the *absolute* deadline instead of issuing one relative
        sleep: ``time.sleep`` may wake early (signals) and a single shot
        would accumulate the shortfall into pacing drift.
        """
        while True:
            remaining_s = self.wall_s_until(virtual_deadline_ms)
            if remaining_s <= 0:
                return
            time.sleep(remaining_s)
