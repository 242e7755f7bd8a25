"""Persistent content-addressed caching of generated policies.

The offline pipeline keys each :class:`~repro.core.bank.GenerationResult`
by a stable hash of its canonicalized configuration plus solver tolerance and
a code-schema version (:mod:`repro.cache.keys`) and stores artifacts under a
shared cache directory (:mod:`repro.cache.store`), so repeated experiment
invocations skip re-solving identical grid cells entirely.
"""

from repro.cache.keys import (
    CACHE_SCHEMA_VERSION,
    cache_key,
    canonical_config_dict,
)
from repro.cache.store import DEFAULT_CACHE_DIR, ENV_VAR, PolicyCache

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "ENV_VAR",
    "PolicyCache",
    "cache_key",
    "canonical_config_dict",
]
