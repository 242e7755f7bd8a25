"""Persistent, content-addressed store for generated policies.

Artifacts live under a cache directory (``$RAMSIS_CACHE_DIR``, or
``~/.cache/ramsis`` by default) sharded by digest prefix::

    <cache_dir>/<digest[:2]>/<digest>.json

Each artifact is a self-describing JSON document carrying the canonical key
dictionary it was stored under (so :meth:`PolicyCache.verify` can re-derive
the digest), the serialized policy, its §5.1 guarantees, and solve
statistics.  Writes are atomic (temp file + ``os.replace``); reads treat any
malformed artifact as a miss — the cell is re-solved and the corrupt file is
counted, never trusted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

import numpy as np

from repro.cache.keys import CACHE_SCHEMA_VERSION, cache_key, canonical_config_dict
from repro.core.config import WorkerMDPConfig
from repro.core.guarantees import PolicyGuarantees
from repro.core.policy import Policy
from repro.errors import PolicyError
from repro.obs.log import get_logger
from repro.obs.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.bank import GenerationResult
    from repro.obs.metrics import MetricsRegistry

__all__ = ["PolicyCache", "DEFAULT_CACHE_DIR", "ENV_VAR"]

ENV_VAR = "RAMSIS_CACHE_DIR"
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "ramsis"

_logger = get_logger("cache")

#: Exceptions that mark an artifact as corrupt rather than the cache broken.
_ARTIFACT_ERRORS = (
    json.JSONDecodeError,
    KeyError,
    TypeError,
    ValueError,
    PolicyError,
)


def _resolve_directory(directory: Optional[Union[str, Path]]) -> Path:
    if directory is not None:
        return Path(directory)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return DEFAULT_CACHE_DIR


class PolicyCache:
    """Disk cache mapping canonical config digests to generation results.

    Parameters
    ----------
    directory:
        Cache root.  Defaults to ``$RAMSIS_CACHE_DIR`` when set, else
        ``~/.cache/ramsis``.  Created lazily on first store.
    registry:
        Optional metrics registry; hit/miss/invalidation/store totals are
        published as ``policy_cache_*_total`` counters in addition to the
        instance attributes.
    tracer:
        Optional tracer; every lookup/store becomes a ``cache_get``/
        ``cache_put`` span on the ``cache`` track with its outcome
        (hit/stored) in the span args — the phase profiler's view of
        cache behaviour.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        registry: Optional["MetricsRegistry"] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self._directory = _resolve_directory(directory)
        self._registry = registry
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.stores = 0

    @property
    def directory(self) -> Path:
        """Cache root directory."""
        return self._directory

    def _count(self, name: str) -> None:
        if self._registry is not None:
            self._registry.counter(
                f"policy_cache_{name}_total",
                f"Policy cache {name}",
            ).inc()

    def _path_for(self, digest: str) -> Path:
        return self._directory / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(
        self, config: WorkerMDPConfig, tolerance: float
    ) -> Optional["GenerationResult"]:
        """Cached result for ``(config, tolerance)``, or ``None`` on a miss.

        Corrupt or unreadable artifacts are logged, counted as
        invalidations, and reported as misses — callers fall back to
        solving, and the next :meth:`put` overwrites the bad file.
        """
        if not self._tracer.enabled:
            return self._get(config, tolerance)
        # The span args dict is captured by reference at span exit, so
        # mutating it after the lookup records the outcome.
        outcome: Dict[str, Any] = {}
        with self._tracer.span("cache_get", track="cache", args=outcome):
            result = self._get(config, tolerance)
            outcome["hit"] = result is not None
        return result

    def _get(
        self, config: WorkerMDPConfig, tolerance: float
    ) -> Optional["GenerationResult"]:
        digest = cache_key(config, tolerance)
        if digest is None:
            self.misses += 1
            self._count("misses")
            return None
        path = self._path_for(digest)
        try:
            raw = path.read_text()
        except OSError:
            self.misses += 1
            self._count("misses")
            return None
        try:
            result = self._decode(raw)
        except _ARTIFACT_ERRORS as exc:
            _logger.warning(
                "discarding corrupt cache artifact %s (%s: %s); re-solving",
                path,
                type(exc).__name__,
                exc,
            )
            self.invalidations += 1
            self._count("invalidations")
            self.misses += 1
            self._count("misses")
            return None
        self.hits += 1
        self._count("hits")
        return result

    def put(
        self,
        config: WorkerMDPConfig,
        tolerance: float,
        result: "GenerationResult",
    ) -> Optional[Path]:
        """Store ``result`` under its content digest; atomic overwrite.

        Returns the artifact path, or ``None`` when the config is
        uncacheable (no stable key).
        """
        if not self._tracer.enabled:
            return self._put(config, tolerance, result)
        outcome: Dict[str, Any] = {}
        with self._tracer.span("cache_put", track="cache", args=outcome):
            path = self._put(config, tolerance, result)
            outcome["stored"] = path is not None
        return path

    def _put(
        self,
        config: WorkerMDPConfig,
        tolerance: float,
        result: "GenerationResult",
    ) -> Optional[Path]:
        canonical = canonical_config_dict(config, tolerance)
        if canonical is None:
            return None
        rendered = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
        path = self._path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        artifact = self._encode(digest, canonical, result)
        payload = json.dumps(artifact, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        self._count("stores")
        return path

    # ------------------------------------------------------------------
    # Artifact codec
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(
        digest: str, canonical: Dict[str, Any], result: "GenerationResult"
    ) -> Dict[str, Any]:
        return {
            "schema_version": CACHE_SCHEMA_VERSION,
            "digest": digest,
            "key": canonical,
            "policy": result.policy.to_json_dict(),
            "guarantees": dataclasses.asdict(result.guarantees),
            "iterations": result.iterations,
            "runtime_s": result.runtime_s,
            "residuals": (
                None if result.residuals is None else list(result.residuals)
            ),
            "values": (
                None if result.values is None else result.values.tolist()
            ),
        }

    @staticmethod
    def _decode(raw: str) -> "GenerationResult":
        from repro.core.bank import GenerationResult

        data = json.loads(raw)
        if data["schema_version"] != CACHE_SCHEMA_VERSION:
            raise ValueError(
                f"artifact schema {data['schema_version']} != "
                f"{CACHE_SCHEMA_VERSION}"
            )
        policy = Policy.from_json_dict(data["policy"])
        guarantees = PolicyGuarantees(**data["guarantees"])
        residuals = data.get("residuals")
        values = data.get("values")
        return GenerationResult(
            policy=policy,
            guarantees=guarantees,
            iterations=int(data["iterations"]),
            runtime_s=float(data["runtime_s"]),
            residuals=None if residuals is None else tuple(residuals),
            values=None if values is None else np.asarray(values, dtype=float),
            from_cache=True,
        )

    # ------------------------------------------------------------------
    # Maintenance (`ramsis cache` subcommand)
    # ------------------------------------------------------------------
    def _artifact_paths(self) -> List[Path]:
        if not self._directory.is_dir():
            return []
        return sorted(
            p
            for p in self._directory.glob("??/*.json")
            if not p.name.startswith(".tmp-")
        )

    def stats(self) -> Dict[str, Any]:
        """Directory totals plus this instance's hit/miss counters."""
        paths = self._artifact_paths()
        return {
            "directory": str(self._directory),
            "artifacts": len(paths),
            "total_bytes": sum(p.stat().st_size for p in paths),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "stores": self.stores,
        }

    def clear(self) -> int:
        """Delete every artifact; returns how many were removed."""
        removed = 0
        for path in self._artifact_paths():
            path.unlink()
            removed += 1
        return removed

    def verify(self) -> Dict[str, List[str]]:
        """Check every artifact decodes and its digest matches its key.

        Returns ``{"ok": [...], "corrupt": [...]}`` artifact paths.  Corrupt
        artifacts are left in place (a subsequent ``get`` re-solves and
        ``put`` overwrites them); use :meth:`clear` to drop everything.
        """
        ok: List[str] = []
        corrupt: List[str] = []
        for path in self._artifact_paths():
            try:
                raw = path.read_text()
                data = json.loads(raw)
                rendered = json.dumps(
                    data["key"], sort_keys=True, separators=(",", ":")
                )
                digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
                if digest != path.stem or digest != data["digest"]:
                    raise ValueError("digest mismatch")
                self._decode(raw)
            except _ARTIFACT_ERRORS as exc:
                _logger.warning("cache artifact %s failed verify: %s", path, exc)
                corrupt.append(str(path))
            else:
                ok.append(str(path))
        return {"ok": ok, "corrupt": corrupt}
