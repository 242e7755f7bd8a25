"""Total variation over a freshly sorted key union: the oracle of
:class:`repro.core.guarantees.TotalVariation`.

:func:`total_variation` rebuilds the sorted union of both sides' keys on
every call and sums ``|p - q|`` through a generator with the built-in
``sum``.  The indexed distance, which keeps one sorted state index per
expected distribution, must be ``==`` to it.
"""

from __future__ import annotations

from typing import Mapping


def total_variation(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """``0.5 * sum |p - q|`` over the key union, in sorted key order."""
    keys = sorted(set(p) | set(q))
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
