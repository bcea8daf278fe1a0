"""Content-addressed retarget caching.

Retargeting -- HDL parse, netlist construction, instruction-set
extraction, template expansion, grammar and parser generation -- is by far
the most expensive step of the flow (seconds per target; table 3 of the
paper).  Its output depends only on the HDL text and the retargeting
options, so it is a perfect caching target: the :class:`RetargetCache`
maps ``sha256(HDL text + options)`` to a pickled
:class:`~repro.record.retarget.RetargetResult` held in memory and,
optionally, on disk, making repeated retargets of the same model
near-free across sessions, CLI invocations and benchmark runs.

A disk hit unpickles the entry (about 6 ms on ``ref``) with the cyclic
garbage collector paused, since a full collection set off by the load's
many allocations could cost more than the load.  The pause is
process-wide, so it is taken under a lock: otherwise one load could
re-enable the collector under another, or leave it disabled.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import tempfile
import threading
from typing import Optional, Tuple

from repro.expansion.expander import ExpansionOptions
from repro.ise.routes import MAX_ROUTE_ALTERNATIVES, MAX_ROUTE_DEPTH
from repro.record.retarget import RetargetResult, retarget

#: Bump to invalidate every existing cache entry when the pickled layout
#: of RetargetResult (or any object it contains) changes.
#: 2: PhaseTimings grew the ``tables`` phase and GrammarTables became the
#:    offline-compiled matcher tables (match programs + chain closure).
#: 3: pickled GrammarTables gained the depth-one normal form
#:    (``shape_rules``, ``hardwired_values``).
#: 4: pickled GrammarTables lost the match programs and the dense ids.
#: 5: pattern nodes are hash-consed and pickle as constructor calls, so
#:    shared sub-patterns are stored once.
#: 6: a pickled BDDManager holds only its node list and variable order;
#:    the unique table and the per-operation computed tables are rebuilt
#:    (empty) on load.
CACHE_FORMAT_VERSION = 6

_LOAD_LOCK = threading.Lock()


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/retarget``."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "retarget")


def retarget_fingerprint(
    hdl_source: str,
    expansion: Optional[ExpansionOptions] = None,
) -> str:
    """Content hash of one retargeting problem.

    Covers everything :func:`repro.record.retarget.retarget` depends on
    except ``generate_matcher``: the emitted matcher module is never
    stored, so it does not split the key space.
    """
    hasher = hashlib.sha256()
    hasher.update(b"repro-retarget-v%d\n" % CACHE_FORMAT_VERSION)
    hasher.update(hdl_source.encode("utf-8"))
    if expansion is None:
        expansion_key = "default"
    else:
        expansion_key = "commut=%s rewrite=%s rules=%s" % (
            expansion.use_commutativity,
            expansion.use_rewrite_rules,
            # In list order: the first matching rule of equal cost wins,
            # so the order of the rules can change the result.
            "default" if expansion.rules is None
            else repr([repr(rule) for rule in expansion.rules]),
        )
    hasher.update(b"\x00")
    hasher.update(expansion_key.encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(
        ("depth=%d alts=%d" % (MAX_ROUTE_DEPTH, MAX_ROUTE_ALTERNATIVES)).encode("utf-8")
    )
    return hasher.hexdigest()


def _load(data: bytes) -> object:
    """``pickle.loads`` with the collector paused (see the module docstring)."""
    with _LOAD_LOCK:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return pickle.loads(data)
        finally:
            if enabled:
                gc.enable()


class RetargetCache:
    """Two-level (memory + disk) cache of retargeting results.

    ``directory=None`` selects the default on-disk location
    (:func:`default_cache_dir`); ``directory=False`` disables the disk
    tier entirely (memory-only).  Disk failures -- unwritable directory,
    corrupt or version-skewed entries -- degrade to cache misses, never to
    errors.
    """

    def __init__(self, directory=None):
        if directory is False:
            self.directory: Optional[str] = None
        else:
            self.directory = str(directory) if directory else default_cache_dir()
        self._memory: dict = {}
        self.hits = 0
        self.misses = 0

    # -- key/path helpers --------------------------------------------------------

    def _path_of(self, key: str) -> Optional[str]:
        if not self.directory:
            return None
        return os.path.join(self.directory, key + ".pkl")

    # -- raw get/put -------------------------------------------------------------

    def get(self, key: str) -> Optional[RetargetResult]:
        """The cached result under ``key``, or ``None`` (never raises)."""
        if key in self._memory:
            return self._memory[key]
        path = self._path_of(key)
        if path and os.path.exists(path):
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
                result = _load(data)
            except Exception:
                # Corrupt or truncated entry: discard it and fall back to
                # a miss (the caller re-retargets and put() overwrites).
                try:
                    os.remove(path)
                except OSError:
                    pass
                return None
            if isinstance(result, RetargetResult):
                self._memory[key] = result
                return result
            # Unpicklable-into-the-right-type (format skew, foreign file
            # under our key): treat exactly like corruption.
            try:
                os.remove(path)
            except OSError:
                pass
        return None

    def put(self, key: str, result: RetargetResult) -> None:
        self._memory[key] = result
        path = self._path_of(key)
        if not path:
            return
        try:
            os.makedirs(self.directory, exist_ok=True)
            # Write-then-rename so concurrent readers never see a torn file.
            fd, temp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(temp_path, path)
            except BaseException:
                os.remove(temp_path)
                raise
        except Exception:
            # Disk tier is best-effort; memory tier already holds the
            # result.  Covers unwritable directories (OSError) as well as
            # serialization failures (PicklingError, RecursionError on
            # very deep grammars).
            pass

    # -- the high-level entry point ----------------------------------------------

    def get_or_retarget(
        self,
        hdl_source: str,
        expansion: Optional[ExpansionOptions] = None,
        generate_matcher: bool = True,
    ) -> Tuple[RetargetResult, bool]:
        """``(result, hit)`` for one retargeting problem.

        On a miss the full retargeting flow runs and the result is stored
        in both tiers.  With ``generate_matcher`` the result carries the
        emitted matcher module; the module is never stored, so a hit emits
        it from the cached grammar and tables when the entry has none
        (see :meth:`RetargetResult.regenerate_matcher`).
        """
        key = retarget_fingerprint(hdl_source, expansion=expansion)
        from repro.obs.trace import current_tracer

        cached = self.get(key)
        if cached is not None:
            self.hits += 1
            current_tracer().instant("retarget_cache:hit", key=key[:12])
            if generate_matcher and cached.matcher_module is None:
                cached.regenerate_matcher()
            return cached, True
        self.misses += 1
        current_tracer().instant("retarget_cache:miss", key=key[:12])
        result = retarget(
            hdl_source, expansion=expansion, generate_matcher=generate_matcher
        )
        self.put(key, result)
        return result, False

    def prewarm(self, hdl_sources) -> list:
        """Retarget-and-store several HDL sources; returns their cache keys.

        This is the shipping path of the process compile backend: the
        parent prewarms a *disk-tier* cache once, worker processes open
        the same directory read-only and hit its pickles instead of
        re-retargeting.  Their sessions never read the matcher module, so
        it is not emitted.
        """
        keys = []
        for hdl_source in hdl_sources:
            self.get_or_retarget(hdl_source, generate_matcher=False)
            keys.append(retarget_fingerprint(hdl_source))
        return keys

    # -- maintenance -------------------------------------------------------------

    def clear(self, disk: bool = True) -> int:
        """Drop every entry; returns the number of disk entries removed."""
        self._memory.clear()
        removed = 0
        if disk and self.directory and os.path.isdir(self.directory):
            for entry in os.listdir(self.directory):
                if entry.endswith(".pkl"):
                    try:
                        os.remove(os.path.join(self.directory, entry))
                        removed += 1
                    except OSError:
                        pass
        return removed

    def stats(self) -> dict:
        disk_entries = 0
        if self.directory and os.path.isdir(self.directory):
            disk_entries = len(
                [e for e in os.listdir(self.directory) if e.endswith(".pkl")]
            )
        return {
            "hits": self.hits,
            "misses": self.misses,
            "memory_entries": len(self._memory),
            "disk_entries": disk_entries,
            "directory": self.directory,
        }


#: Process-wide default cache used by :class:`repro.toolchain.Toolchain`
#: and the CLI.  Memory-only by default so importing the package never
#: touches the filesystem; pass an explicit cache (or set
#: ``REPRO_CACHE_DIR``) to persist across processes.
_DEFAULT_CACHE: Optional[RetargetCache] = None


def default_cache() -> RetargetCache:
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        directory = os.environ.get("REPRO_CACHE_DIR")
        _DEFAULT_CACHE = RetargetCache(directory=directory if directory else False)
    return _DEFAULT_CACHE
