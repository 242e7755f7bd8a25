"""The per-(latency, load) renewal-row reductions: the renewal-rows oracle.

Production builds the equilibrium-renewal kernels from a load-invariant
:class:`repro.core.transitions.QuadraturePlan` and contracts each
quadrature block once, over all of its windows and loads.  This module
keeps the formulation that replaced: quadrature *parts* (one per
latency) evaluated in blocks, then one ``einsum`` (full drains) or one
``pmf @ wfe`` (arrival counts) per latency and load.

:meth:`repro.core.transitions.EquilibriumRenewalKernelBuilder.service_rows`
and ``count_rows`` must be ``==`` to :class:`LoopRenewalKernelBuilder`'s
(``tests/test_renewal_rows.py``).
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.core import transitions
from repro.core.transitions import (
    _COUNT_NODES,
    _COUNT_WEIGHTS,
    _WINDOW_NODES,
    _WINDOW_WEIGHTS,
    EquilibriumRenewalKernelBuilder,
    _count_pmf,
    _service_windows,
)

__all__ = ["LoopRenewalKernelBuilder"]


class LoopRenewalKernelBuilder(EquilibriumRenewalKernelBuilder):
    """:class:`EquilibriumRenewalKernelBuilder` with the per-(latency,
    load) reduction loops."""

    def _parts(
        self, parts: Sequence[Tuple[float, np.ndarray, np.ndarray]]
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Integrand terms of each ``(latency_ms, u, w)`` quadrature part.

        Yields, per part, the weighted equilibrium density ``w * f_e(u)``,
        ``(loads,) + u.shape``, and the pmf of the further arrivals in the
        time ``latency_ms - u`` left after the first one, C-contiguous
        ``(loads, max_queue, u.size)``.  Parts are evaluated in blocks of
        at most ``_KERNEL_BLOCK`` nodes times loads.
        """
        loads = self._gaps.loads
        blocks: list = [[]]
        size = 0
        for part in parts:
            if blocks[-1] and size + part[1].size * loads > transitions._KERNEL_BLOCK:
                blocks.append([])
                size = 0
            blocks[-1].append(part)
            size += part[1].size * loads
        for block in blocks:
            if not block:
                continue
            u_all = np.concatenate([u.ravel() for _, u, _ in block])
            left = np.concatenate([(lat - u).ravel() for lat, u, _ in block])
            f_e = self._gaps.equilibrium_density(u_all)
            pmf = _count_pmf(self._gaps.kfold_cdfs(self._space.max_queue, left))
            end = 0
            for _, u, w in block:
                start, end = end, end + u.size
                yield (
                    w * f_e[:, start:end].reshape((loads,) + u.shape),
                    np.ascontiguousarray(pmf[:, :, start:end].transpose(1, 0, 2)),
                )

    def service_rows(self, latencies: Sequence[float]) -> np.ndarray:
        space = self._space
        loads = self._gaps.loads
        rows = np.zeros((len(latencies), loads, space.size), dtype=np.float64)
        rows[:, :, space.EMPTY] = 1.0 - self._gaps.equilibrium_cdf(latencies).T
        parts, where = [], []
        for j, latency_ms in enumerate(latencies):
            lo, width, _ = _service_windows(self._grid, latency_ms)
            live = np.nonzero(width > 0.0)[0]
            if live.size:
                # Gauss-Legendre nodes for every live window at once: (W, Q).
                half = 0.5 * width[live]
                u = lo[live][:, None] + half[:, None] * (_WINDOW_NODES[None, :] + 1.0)
                w = _WINDOW_WEIGHTS[None, :] * half[:, None]
                parts.append((latency_ms, u, w))
                where.append((j, live))
        for (j, live), (wfe, pmf) in zip(where, self._parts(parts)):
            for i in range(loads):
                space.occupied_view(rows[j, i])[:, live] = np.einsum(
                    "nlq,lq->nl", pmf[i].reshape((-1,) + wfe.shape[1:]), wfe[i]
                )

        totals = rows.sum(axis=2)
        over = totals > 1.0
        if over.any():
            rows[over] /= totals[over][:, None]
            totals[over] = 1.0
        rows[:, :, space.FULL] = np.maximum(0.0, 1.0 - totals)
        return rows

    def count_rows(self, latencies: Sequence[float]) -> np.ndarray:
        loads = self._gaps.loads
        counts = np.zeros(
            (len(latencies), loads, self._space.max_queue + 1), dtype=np.float64
        )
        counts[:, :, 0] = 1.0 - self._gaps.equilibrium_cdf(latencies).T
        parts, where = [], []
        for j, latency_ms in enumerate(latencies):
            if latency_ms > 0.0:
                half = 0.5 * latency_ms
                parts.append((latency_ms, half * (_COUNT_NODES + 1.0), _COUNT_WEIGHTS * half))
                where.append(j)
        for j, (wfe, pmf) in zip(where, self._parts(parts)):
            for i in range(loads):
                counts[j, i, 1:] = pmf[i] @ wfe[i]
        np.clip(counts, 0.0, 1.0, out=counts)
        totals = counts.sum(axis=2)
        over = totals > 1.0
        if over.any():
            counts[over] /= totals[over][:, None]
        return counts
