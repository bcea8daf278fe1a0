"""Thread-safe pooling of compilation sessions.

A :class:`SessionPool` owns one :class:`~repro.toolchain.Toolchain`
(registry + retarget cache) and hands out
:class:`~repro.toolchain.Session` objects keyed by
``(target, pipeline config)``.  The first request for a key pays
retargeting (or a retarget-cache hit) plus selector restriction; every
later request -- including concurrent ones -- reuses the pooled session.
Per-key locks serialize construction of the *same* session while distinct
targets retarget in parallel.

Sessions are safe to share across service threads: ``Session.compile`` is
side-effect free (the selection pass copies its output), so the pool
never needs to check sessions in or out.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro.toolchain.cache import RetargetCache
from repro.toolchain.passes import PipelineConfig
from repro.toolchain.registry import TargetRegistry
from repro.toolchain.session import Session, Toolchain

PoolKey = Tuple[str, PipelineConfig]


class SessionPool:
    """A concurrent cache of :class:`Session` objects.

    ``toolchain`` defaults to a private :class:`Toolchain` with a
    memory-tier :class:`RetargetCache`, so pool statistics (hits, misses,
    retargets) describe exactly this pool's traffic.
    """

    def __init__(
        self,
        toolchain: Optional[Toolchain] = None,
        registry: Optional[TargetRegistry] = None,
        cache: Optional[RetargetCache] = None,
    ):
        if toolchain is None:
            toolchain = Toolchain(
                registry=registry,
                cache=cache if cache is not None else RetargetCache(directory=False),
            )
        self.toolchain = toolchain
        self._sessions: Dict[PoolKey, Session] = {}
        self._lock = threading.Lock()
        self._target_locks: Dict[str, threading.Lock] = {}
        self.hits = 0
        self.misses = 0

    # -- the entry point ---------------------------------------------------------

    def session(
        self, target: str, config: Optional[PipelineConfig] = None
    ) -> Session:
        """The pooled session for ``(target, config)`` (built on first use).
        ``target`` is a registered name: a job never opens a file."""
        key = (target, config if config is not None else PipelineConfig())
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self.hits += 1
                return session
            # An unknown name raises here, before it keys a lock.
            spec = self.toolchain.registry.get(target)
            # One construction lock per *target*, not per key: two configs
            # of one target share a retarget run through the toolchain's
            # cache, which is not thread-safe -- racing them would retarget
            # twice.  Distinct targets still build fully in parallel.
            target_lock = self._target_locks.setdefault(target, threading.Lock())
        with target_lock:
            # Double-checked: another thread may have built it meanwhile.
            with self._lock:
                session = self._sessions.get(key)
                if session is not None:
                    self.hits += 1
                    return session
            session = self.toolchain.session_for_hdl(
                spec.hdl_source, spec=spec, config=key[1]
            )
            with self._lock:
                self._sessions[key] = session
                self.misses += 1
        return session

    # -- introspection -----------------------------------------------------------

    @property
    def retarget_count(self) -> int:
        """Retargeting runs this pool actually paid for (cache misses of
        the underlying retarget cache)."""
        return self.toolchain.cache.misses

    def stats(self) -> dict:
        with self._lock:
            sessions = len(self._sessions)
            distinct_targets = len({target for target, _config in self._sessions})
        return {
            "sessions": sessions,
            "distinct_targets": distinct_targets,
            "hits": self.hits,
            "misses": self.misses,
            "retargets": self.retarget_count,
        }
