"""Live server metrics in Prometheus text exposition format.

Every :class:`~repro.toolchain.results.CompilationResult` already
carries a :class:`~repro.toolchain.results.CompileMetrics` block and
per-pass wall-clock timings; the compile server only has to *aggregate*
them.  :class:`ServerMetrics` is that aggregator, built on the shared
counter/gauge/histogram primitives of :mod:`repro.obs.metrics` (one
:class:`~repro.obs.metrics.MetricsRegistry` per server) --
:meth:`record_compile` feeds it from each response envelope and
:meth:`render` serializes it for ``GET /metrics``.

Exported families (all prefixed ``repro_``):

* ``repro_compile_requests_total{target=,status=}`` -- completed/failed
  counts per target;
* ``repro_compiles_per_second`` -- completion rate over the trailing
  window (default 60s; exactly ``0.0`` once the window empties);
* ``repro_http_requests_total{endpoint=,code=}`` and
  ``repro_http_rejected_total`` -- front-end traffic and backpressure
  rejections (429s);
* ``repro_request_seconds`` -- service-time histogram per request;
* ``repro_phase_seconds{phase=}`` -- per-pass latency histograms
  aggregated from ``CompilationResult.pass_timings`` (lower, opt,
  select, schedule, spill, compact, ...);
* ``repro_target_phase_seconds_total{target=,phase=}`` -- cumulative
  per-pass seconds broken down by target (where does each chip's
  compile time go?);
* ``repro_label_memo_hit_rate`` -- node-weighted hit rate of the BURS
  automaton's transition memo (one lookup per labelled subject node),
  aggregated from ``CompileMetrics``;
* ``repro_global_opt_total{target=,kind=}`` -- cumulative global
  optimizer activity per target (``kind`` is ``gvn_hits``,
  ``licm_hoisted``, ``strength_reductions`` or ``hw_loops``);
* ``repro_retarget_cache_*`` / ``repro_session_pool_*`` /
  ``repro_worker_*`` -- backend snapshot gauges taken at scrape time
  from :meth:`CompileBackend.stats`, including per-worker
  ``repro_worker_requests_total{worker=,status=}`` lines from the
  process backend.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, List, Optional

from repro.obs.metrics import (
    MetricsRegistry,
    format_labels as _labels,
    format_value as _format_value,
)


class ServerMetrics:
    """Thread-safe aggregation of server traffic (see module docstring).

    ``backend_stats`` is an optional zero-argument callable (typically
    ``backend.stats``) sampled at render time, so cache hit rates and
    worker counts are always current without the hot path touching
    them.  ``clock`` is injectable for rate-window tests.
    """

    def __init__(
        self,
        backend_stats: Optional[Callable[[], dict]] = None,
        rate_window_s: float = 60.0,
        clock: Callable[[], float] = time.time,
    ):
        self._lock = threading.Lock()
        self._clock = clock
        self._started = clock()
        self._backend_stats = backend_stats
        self._rate_window_s = rate_window_s
        self._recent_completions: deque = deque()
        self._label_nodes = 0
        self._label_memo_hits = 0.0
        self.registry = MetricsRegistry()
        self._compile_requests = self.registry.counter(
            "repro_compile_requests_total",
            "Compile requests by target and status.",
            labels=("target", "status"),
        )
        self._http_requests = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests by endpoint and status code.",
            labels=("endpoint", "code"),
        )
        self._http_rejected = self.registry.counter(
            "repro_http_rejected_total",
            "Requests rejected with 429 (backpressure).",
        )
        self._http_rejected.inc(0)  # always present, even before traffic
        self._request_seconds = self.registry.histogram(
            "repro_request_seconds",
            "Wall-clock service time per compile request.",
        )
        self._request_seconds.labels()  # render zero buckets before traffic
        self._phase_seconds = self.registry.histogram(
            "repro_phase_seconds",
            "Per-pass compile latency "
            "(aggregated from CompilationResult.pass_timings).",
            labels=("phase",),
        )
        self._target_phase_seconds = self.registry.counter(
            "repro_target_phase_seconds_total",
            "Cumulative per-pass compile seconds by target.",
            labels=("target", "phase"),
        )
        self._labelled_nodes = self.registry.counter(
            "repro_labelled_nodes_total",
            "Subject-tree nodes labelled.",
        )
        self._labelled_nodes.inc(0)
        self._global_opt = self.registry.counter(
            "repro_global_opt_total",
            "Global optimizer activity by target "
            "(gvn_hits, licm_hoisted, strength_reductions, hw_loops).",
            labels=("target", "kind"),
        )

    # -- recording ---------------------------------------------------------------

    def record_http(self, endpoint: str, code: int) -> None:
        self._http_requests.labels(endpoint=endpoint, code=str(code)).inc()
        if code == 429:
            self._http_rejected.inc()

    def record_compile(self, response: dict) -> None:
        """Fold one response envelope (a ``CompileResponse.to_dict``)
        into the counters and histograms."""
        target = str(response.get("target", "") or "")
        ok = bool(response.get("ok"))
        elapsed = response.get("elapsed_s")
        result = response.get("result") or {}
        pass_timings = result.get("pass_timings") or {}
        metrics = result.get("metrics") or {}
        now = self._clock()
        self._compile_requests.labels(
            target=target, status="ok" if ok else "error"
        ).inc()
        with self._lock:
            self._recent_completions.append(now)
            self._trim_recent(now)
        if isinstance(elapsed, (int, float)):
            self._request_seconds.labels().observe(float(elapsed))
        for phase, seconds in pass_timings.items():
            if not isinstance(seconds, (int, float)):
                continue
            self._phase_seconds.labels(phase=phase).observe(float(seconds))
            self._target_phase_seconds.labels(target=target, phase=phase).inc(
                float(seconds)
            )
        for kind, key in (
            ("gvn_hits", "opt_gvn_hits"),
            ("licm_hoisted", "opt_licm_hoisted"),
            ("strength_reductions", "opt_strength_reductions"),
            ("hw_loops", "opt_hw_loops"),
        ):
            value = metrics.get(key)
            if isinstance(value, int) and value > 0:
                self._global_opt.labels(target=target, kind=kind).inc(value)
        nodes = metrics.get("nodes_labelled")
        rate = metrics.get("label_memo_hit_rate")
        if isinstance(nodes, int) and nodes > 0 and isinstance(rate, (int, float)):
            self._labelled_nodes.inc(nodes)
            with self._lock:
                self._label_nodes += nodes
                self._label_memo_hits += nodes * float(rate)

    def _trim_recent(self, now: float) -> None:
        horizon = now - self._rate_window_s
        while self._recent_completions and self._recent_completions[0] < horizon:
            self._recent_completions.popleft()

    # -- rendering ---------------------------------------------------------------

    def compiles_per_second(self) -> float:
        """Completion rate over the trailing window.

        Decays to exactly ``0.0`` once no completion falls inside the
        window anymore -- a scrape after traffic stops must read an
        idle server, not the last window's stale rate.
        """
        now = self._clock()
        with self._lock:
            self._trim_recent(now)
            if not self._recent_completions:
                return 0.0
            window = min(self._rate_window_s, max(now - self._started, 1e-9))
            return len(self._recent_completions) / window if window else 0.0

    def _status_totals(self) -> dict:
        totals = {"ok": 0, "error": 0}
        for label_dict, child in self._compile_requests.collect():
            status = label_dict.get("status")
            if status in totals:
                totals[status] += int(child.value)
        return totals

    def snapshot(self) -> dict:
        """A plain-dict summary (the JSON sibling of :meth:`render`)."""
        totals = self._status_totals()
        return {
            "uptime_s": self._clock() - self._started,
            "completed": totals["ok"],
            "failed": totals["error"],
            "rejected": int(self._http_rejected.labels().value),
            "compiles_per_second": self.compiles_per_second(),
        }

    def render(self) -> str:
        """The full Prometheus text exposition."""
        backend_stats = {}
        if self._backend_stats is not None:
            try:
                backend_stats = dict(self._backend_stats())
            except Exception:
                backend_stats = {}
        per_second = self.compiles_per_second()
        with self._lock:
            memo_rate = (
                self._label_memo_hits / self._label_nodes
                if self._label_nodes
                else 0.0
            )
        lines: List[str] = []
        lines.append("# HELP repro_uptime_seconds Seconds since server start.")
        lines.append("# TYPE repro_uptime_seconds gauge")
        lines.append("repro_uptime_seconds %s" % repr(self._clock() - self._started))
        lines.extend(self._compile_requests.render())
        lines.append(
            "# HELP repro_compiles_per_second Completion rate over the trailing window."
        )
        lines.append("# TYPE repro_compiles_per_second gauge")
        lines.append("repro_compiles_per_second %s" % repr(per_second))
        lines.extend(self._http_requests.render())
        lines.extend(self._http_rejected.render())
        lines.extend(self._request_seconds.render())
        lines.extend(self._phase_seconds.render())
        lines.extend(self._target_phase_seconds.render())
        lines.append(
            "# HELP repro_label_memo_hit_rate Share of labelled subject nodes whose "
            "BURS transition came from the memo."
        )
        lines.append("# TYPE repro_label_memo_hit_rate gauge")
        lines.append("repro_label_memo_hit_rate %s" % repr(memo_rate))
        lines.extend(self._labelled_nodes.render())
        lines.extend(self._global_opt.render())
        lines.extend(self._render_backend(backend_stats))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_backend(stats: dict) -> List[str]:
        """Gauge lines from one backend.stats() snapshot.

        The thread backend exposes ``pool_hits``/``pool_misses``/
        ``pool_retargets`` directly; the process backend aggregates the
        same keys across workers, adds crash/respawn/timeout counters
        and a ``per_worker`` list rendered as
        ``repro_worker_requests_total{status=,worker=}``.
        """
        lines: List[str] = []
        gauges = (
            ("pool_hits", "repro_session_pool_hits_total",
             "Session-pool lookups served from a pooled session."),
            ("pool_misses", "repro_session_pool_misses_total",
             "Session-pool lookups that built a new session."),
            ("pool_retargets", "repro_retarget_cache_misses_total",
             "Retargeting runs actually paid (retarget-cache misses)."),
            ("pool_sessions", "repro_sessions",
             "Live pooled sessions across workers."),
            ("workers", "repro_workers", "Live backend workers."),
            ("crashes", "repro_worker_crashes_total",
             "Worker processes that died mid-request."),
            ("respawns", "repro_worker_respawns_total",
             "Worker processes respawned after a crash or timeout."),
            ("timeouts", "repro_request_timeouts_total",
             "Requests killed by their per-request timeout."),
            ("backoff_waits", "repro_worker_backoff_waits_total",
             "Respawns delayed by the crash-storm backoff."),
            ("consecutive_crashes", "repro_worker_consecutive_crashes",
             "Current worker crash streak (resets on a successful result)."),
        )
        for key, name, help_text in gauges:
            value = stats.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            lines.append("# HELP %s %s" % (name, help_text))
            lines.append("# TYPE %s gauge" % name)
            lines.append("%s %s" % (name, _format_value(value)))
        hits = stats.get("pool_hits")
        misses = stats.get("pool_misses")
        if isinstance(hits, int) and isinstance(misses, int) and (hits + misses):
            lines.append(
                "# HELP repro_session_pool_hit_rate Session-pool hit fraction."
            )
            lines.append("# TYPE repro_session_pool_hit_rate gauge")
            lines.append(
                "repro_session_pool_hit_rate %s" % repr(hits / (hits + misses))
            )
        per_worker = stats.get("per_worker")
        if isinstance(per_worker, list) and per_worker:
            lines.append(
                "# HELP repro_worker_requests_total Requests served per live worker."
            )
            lines.append("# TYPE repro_worker_requests_total gauge")
            for entry in per_worker:
                if not isinstance(entry, dict):
                    continue
                worker = str(entry.get("worker", "") or "")
                for status, key in (("ok", "completed"), ("error", "failed")):
                    value = entry.get(key)
                    if not isinstance(value, (int, float)):
                        continue
                    lines.append(
                        "repro_worker_requests_total%s %s"
                        % (
                            _labels({"worker": worker, "status": status}),
                            _format_value(value),
                        )
                    )
        return lines
