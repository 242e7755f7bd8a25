"""Capacity planning from offline guarantees (§5.1's resource-scaling loop).

A :class:`CapacityPlanner` answers the resource manager's question — *how
many workers does this load need?* — without serving a query: it generates
RAMSIS policies at candidate worker counts and picks the smallest one whose
§5.1 expectations meet the accuracy floor and violation ceiling.  Plans are
cached per load level, so planning over a whole trace touches each distinct
load once.

:meth:`CapacityPlanner.schedule_for_trace` turns a query-load trace into a
worker schedule with scale-down hysteresis (scale up immediately, scale
down only after the load has stayed low for ``cooldown_intervals``), and
reports the schedule's cost in worker-seconds — making the paper's "same
accuracy with fewer resources" claim measurable as a provisioning outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arrivals.traces import LoadTrace
from repro.core.config import WorkerMDPConfig
from repro.core.generator import PolicyGenerator
from repro.core.guarantees import PolicyGuarantees
from repro.core.policy import Policy
from repro.errors import CapacityError

__all__ = ["CapacityPlan", "ScheduleEntry", "WorkerSchedule", "CapacityPlanner"]


@dataclass(frozen=True)
class CapacityPlan:
    """The provisioning decision for one load level."""

    load_qps: float
    num_workers: int
    policy: Policy
    guarantees: PolicyGuarantees


@dataclass(frozen=True)
class ScheduleEntry:
    """Worker allocation for one trace interval."""

    start_ms: float
    end_ms: float
    load_qps: float
    num_workers: int


@dataclass(frozen=True)
class WorkerSchedule:
    """A per-interval worker schedule plus its cost."""

    entries: Tuple[ScheduleEntry, ...]

    @property
    def peak_workers(self) -> int:
        """Largest allocation across the trace."""
        return max(e.num_workers for e in self.entries)

    @property
    def worker_seconds(self) -> float:
        """Total provisioned cost (the autoscaling objective)."""
        return sum(
            e.num_workers * (e.end_ms - e.start_ms) / 1000.0 for e in self.entries
        )

    def workers_at(self, t_ms: float) -> int:
        """Allocation in effect at trace time ``t_ms``."""
        for e in self.entries:
            if e.start_ms <= t_ms < e.end_ms:
                return e.num_workers
        raise CapacityError(f"time {t_ms} outside the schedule")


class CapacityPlanner:
    """Offline search for minimal worker counts meeting §5.1 targets."""

    def __init__(
        self,
        base_config: WorkerMDPConfig,
        accuracy_floor: float,
        violation_ceiling: float,
        min_workers: int = 1,
        max_workers: int = 64,
    ) -> None:
        if not 0.0 <= accuracy_floor <= 1.0:
            raise CapacityError(f"accuracy_floor must be in [0,1]: {accuracy_floor}")
        if not 0.0 <= violation_ceiling <= 1.0:
            raise CapacityError(
                f"violation_ceiling must be in [0,1]: {violation_ceiling}"
            )
        if min_workers < 1 or max_workers < min_workers:
            raise CapacityError("require 1 <= min_workers <= max_workers")
        self._base = base_config
        self._floor = accuracy_floor
        self._ceiling = violation_ceiling
        self._min = min_workers
        self._max = max_workers
        self._generator = PolicyGenerator(base_config)
        self._plans: Dict[float, CapacityPlan] = {}

    # ------------------------------------------------------------------
    # Single-load planning
    # ------------------------------------------------------------------
    def plan(self, load_qps: float) -> CapacityPlan:
        """Smallest worker count whose policy meets both targets.

        Uses a doubling + bisection search over worker counts: guarantees
        improve monotonically with more workers at fixed load (each worker
        sees a thinner, smoother arrival stream), so bisection applies.
        Raises :class:`CapacityError` when even ``max_workers`` fails.
        """
        key = round(load_qps, 6)
        cached = self._plans.get(key)
        if cached is not None:
            return cached

        def meets(workers: int) -> Optional[Tuple[Policy, PolicyGuarantees]]:
            result = self._generator.generate(load_qps, num_workers=workers)
            g = result.guarantees
            if g.meets(self._floor, self._ceiling):
                return result.policy, g
            return None

        # Exponential probe for a feasible upper bound.
        feasible: Optional[int] = None
        probe = self._min
        while probe <= self._max:
            if meets(probe) is not None:
                feasible = probe
                break
            probe = min(probe * 2, self._max) if probe != self._max else self._max + 1
        if feasible is None:
            raise CapacityError(
                f"no configuration up to {self._max} workers meets "
                f"accuracy >= {self._floor:.3f} and violations <= "
                f"{self._ceiling:.3f} at {load_qps:g} QPS"
            )
        lo = max(self._min, feasible // 2)
        hi = feasible
        while lo < hi:
            mid = (lo + hi) // 2
            if meets(mid) is not None:
                hi = mid
            else:
                lo = mid + 1
        policy, guarantees = meets(hi)  # type: ignore[misc]
        plan = CapacityPlan(
            load_qps=load_qps, num_workers=hi, policy=policy, guarantees=guarantees
        )
        self._plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    # Trace-wide scheduling
    # ------------------------------------------------------------------
    def schedule_for_trace(
        self,
        trace: LoadTrace,
        load_quantum_qps: float = 25.0,
        cooldown_intervals: int = 2,
        headroom: float = 1.0,
    ) -> WorkerSchedule:
        """Per-interval worker schedule with scale-down hysteresis.

        Loads are rounded *up* to multiples of ``load_quantum_qps`` so the
        planner is consulted once per level.  Scale-ups apply immediately;
        scale-downs wait until the requirement has been lower for
        ``cooldown_intervals`` consecutive intervals (the usual autoscaler
        guard against flapping, cf. MArk/InferLine).  ``headroom``
        multiplies the anticipated load before planning.
        """
        if load_quantum_qps <= 0:
            raise CapacityError("load_quantum_qps must be > 0")
        if cooldown_intervals < 0:
            raise CapacityError("cooldown_intervals must be >= 0")

        entries: List[ScheduleEntry] = []
        current = 0
        pending_down: List[int] = []
        for start, end, qps in trace.intervals():
            target_load = (
                math.ceil(qps * headroom / load_quantum_qps) * load_quantum_qps
            )
            required = self.plan(max(target_load, load_quantum_qps)).num_workers
            if required >= current:
                current = required
                pending_down.clear()
            else:
                pending_down.append(required)
                if len(pending_down) > cooldown_intervals:
                    current = max(pending_down)
                    pending_down.clear()
            entries.append(
                ScheduleEntry(
                    start_ms=start,
                    end_ms=end,
                    load_qps=qps,
                    num_workers=current,
                )
            )
        return WorkerSchedule(entries=tuple(entries))

    def plans(self) -> List[CapacityPlan]:
        """All plans computed so far, sorted by load."""
        return [self._plans[k] for k in sorted(self._plans)]
