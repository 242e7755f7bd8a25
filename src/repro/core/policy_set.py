"""Load-indexed policy sets (§3.1.3, §3.2.2, §6 "Query Load Adaptation").

RAMSIS pre-computes a *set* of MS policies, one per query load.  Online, the
worker model selector uses the **lowest-load policy that meets the
anticipated load** — i.e. the policy generated for the smallest load that is
still at least the anticipated one, so the policy's burst headroom is never
under-provisioned.  When the anticipated load exceeds every pre-computed
policy, a new one is generated on the fly (§3.2.2).

The pre-computation grid follows §6: policies are generated for a load range
such that the largest expected-accuracy gap between adjacent policies stays
below a threshold (1 % in the paper) — midpoints are inserted until the rule
holds.
"""

from __future__ import annotations

import bisect
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.generator import PolicyGenerator
from repro.core.policy import Policy
from repro.errors import PolicyError

__all__ = ["PolicySet"]


class PolicySet:
    """An ordered collection of policies keyed by generation load.

    Construct directly from policies, or with :meth:`generate` to run the
    §6 refinement loop against a :class:`PolicyGenerator`.
    """

    def __init__(self, policies: Iterable[Policy]) -> None:
        ordered = sorted(policies, key=lambda p: p.load_qps)
        if not ordered:
            raise PolicyError("a policy set needs at least one policy")
        loads = [p.load_qps for p in ordered]
        if len(set(loads)) != len(loads):
            raise PolicyError("duplicate loads in policy set")
        self._policies: List[Policy] = ordered
        self._loads: List[float] = loads
        self._generator: Optional[PolicyGenerator] = None

    # ------------------------------------------------------------------
    # Construction via refinement
    # ------------------------------------------------------------------
    @staticmethod
    def generate(
        generator: PolicyGenerator,
        load_grid_qps: Sequence[float],
        accuracy_gap_threshold: float = 0.01,
        max_policies: int = 64,
    ) -> "PolicySet":
        """Generate a refined set over ``load_grid_qps``.

        Starts from the given grid and inserts load midpoints between
        adjacent policies whose expected accuracies differ by more than
        ``accuracy_gap_threshold`` (1 % in the paper), until the rule holds
        everywhere or ``max_policies`` is reached.

        Refinement proceeds in rounds: every adjacent pair currently over
        the gap threshold gets its midpoint in the *same* round, worst gaps
        first when the ``max_policies`` budget cannot cover them all.  Each
        round — the initial grid, then every round's midpoints — solves as
        *one* batched :class:`repro.core.bank.StackedBankMDP` program.
        Each midpoint's value iteration is seeded from the lower
        neighbour's stopping values — fewer sweeps, same policy.
        """
        if not load_grid_qps:
            raise PolicyError("load grid must be non-empty")
        loads = sorted(set(float(q) for q in load_grid_qps))
        batch = generator.generate_many(loads)
        results = dict(zip(loads, batch))

        def gap(a: float, b: float) -> float:
            acc_a = results[a].guarantees.expected_accuracy
            acc_b = results[b].guarantees.expected_accuracy
            return abs(acc_a - acc_b)

        while len(results) < max_policies:
            over: List[Tuple[float, float, float]] = []
            for a, b in zip(loads, loads[1:]):
                g = gap(a, b)
                if g > accuracy_gap_threshold:
                    over.append((g, a, b))
            midpoints: List[float] = []
            initials = {}
            # Worst gaps first, so a tight budget refines where it matters.
            for g, a, b in sorted(over, key=lambda item: (-item[0], item[1])):
                if len(results) + len(midpoints) >= max_policies:
                    break
                mid = (a + b) / 2.0
                if mid in results or b - a < 1e-6:
                    continue
                midpoints.append(mid)
                if results[a].values is not None:
                    initials[mid] = results[a].values
            if not midpoints:
                break
            batch = generator.generate_many(midpoints, initials=initials)
            results.update(zip(midpoints, batch))
            loads = sorted(results)

        policy_set = PolicySet(r.policy for r in results.values())
        policy_set._generator = generator
        return policy_set

    def attach_generator(self, generator: PolicyGenerator) -> None:
        """Enable on-the-fly generation for unanticipated loads (§3.2.2)."""
        self._generator = generator

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._policies)

    def __iter__(self):
        return iter(self._policies)

    @property
    def loads_qps(self) -> Tuple[float, ...]:
        """Generation loads, ascending."""
        return tuple(self._loads)

    @property
    def max_load_qps(self) -> float:
        """Largest pre-computed load."""
        return self._loads[-1]

    # ------------------------------------------------------------------
    # Online selection (§3.2.2)
    # ------------------------------------------------------------------
    def policy_for(self, anticipated_load_qps: float) -> Policy:
        """The lowest-load policy that meets the anticipated load.

        Returns the policy generated for the smallest load ``>=`` the
        anticipated one.  When the anticipated load exceeds every
        pre-computed policy: generate a new policy if a generator is
        attached, else fall back to the highest-load policy (which serves
        with the fastest feasible models — the only safe choice).
        """
        index = bisect.bisect_left(self._loads, anticipated_load_qps)
        if index < len(self._loads):
            return self._policies[index]
        if self._generator is not None:
            result = self._generator.generate(anticipated_load_qps)
            self._insert(result.policy)
            return result.policy
        return self._policies[-1]

    def _insert(self, policy: Policy) -> None:
        if policy.load_qps in self._loads:
            return
        index = bisect.bisect_left(self._loads, policy.load_qps)
        self._loads.insert(index, policy.load_qps)
        self._policies.insert(index, policy)

    # ------------------------------------------------------------------
    # Serialization — one file per policy, artifact-style layout:
    # <dir>/<load>.json
    # ------------------------------------------------------------------
    def save(self, directory: Union[str, Path]) -> None:
        """Write every policy as ``<load>.json`` inside ``directory``."""
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        for policy in self._policies:
            policy.save(path / f"{policy.load_qps:g}.json")

    @staticmethod
    def load(directory: Union[str, Path]) -> "PolicySet":
        """Read a directory written by :meth:`save`."""
        path = Path(directory)
        files = sorted(path.glob("*.json"))
        if not files:
            raise PolicyError(f"no policy files found in {path}")
        return PolicySet(Policy.load(f) for f in files)

    def summary(self) -> List[Dict[str, float]]:
        """Per-policy (load, expected accuracy, expected violation) rows."""
        rows = []
        for p in self._policies:
            rows.append(
                {
                    "load_qps": p.load_qps,
                    "expected_accuracy": p.metadata.expected_accuracy or float("nan"),
                    "expected_violation_rate": p.metadata.expected_violation_rate
                    or float("nan"),
                }
            )
        return rows
