"""Compile backends: where a batch of compile jobs actually executes.

The service layer (PR 2) runs requests on a *thread* pool.  Threads are
the right shape for overlapping session construction (retargeting of
distinct targets) but the compile itself is CPU-bound Python, so a
thread pool tops out at one core no matter the hardware.  This module
abstracts "a thing that executes compile-job dicts" behind
:class:`CompileBackend` and adds a true multi-core implementation:

* :class:`ThreadCompileBackend` -- the existing
  :class:`~repro.service.service.CompileService` thread pool behind the
  backend interface (single-core, zero startup cost);
* :class:`ProcessCompileBackend` -- a pool of worker *processes*.  The
  parent prewarms a shared disk-tier
  :class:`~repro.toolchain.cache.RetargetCache` (the v2 pickle format,
  which already ships pre-built ``GrammarTables``); each worker opens
  that directory read-only, so workers never re-retarget.  Jobs and
  results travel as the existing :class:`~repro.service.api`
  ``CompileRequest``/``CompileResponse`` JSON envelopes over a pipe
  (one duplex :func:`multiprocessing.Pipe` per worker).  The parent
  detects worker crashes (EOF on the pipe / dead process), turns them
  into structured error responses, and respawns the worker; a
  per-request ``timeout_s`` kills and respawns a stuck worker the same
  way.  One bad request can therefore never hang or drop a batch.

Both backends speak plain dicts (decoded JSON job objects in, response
dicts out) because that is what the HTTP front end
(:mod:`repro.server`) and the ``repro batch`` CLI shuttle around.
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence

from repro.diagnostics import ReproError
from repro.obs import log
from repro.obs.context import use_request_id

#: Wall-clock bound on one request when neither the job nor the backend
#: pins one (process backend only; threads cannot be preempted).
DEFAULT_REQUEST_TIMEOUT_S = 60.0

#: How long to wait for a freshly spawned worker to report ready.
WORKER_BOOT_TIMEOUT_S = 120.0

#: Respawn backoff against crash storms: after
#: ``DEFAULT_RESPAWN_BACKOFF_AFTER`` *consecutive* crashes (no
#: successful result in between) each further respawn sleeps an
#: exponentially growing delay, starting at
#: ``DEFAULT_RESPAWN_BACKOFF_S`` and capped at
#: ``DEFAULT_RESPAWN_BACKOFF_MAX_S``.  A worker that dies on every
#: request then costs a bounded respawn rate instead of a fork
#: livelock; one successful request resets the streak.
DEFAULT_RESPAWN_BACKOFF_S = 0.05
DEFAULT_RESPAWN_BACKOFF_MAX_S = 1.0
DEFAULT_RESPAWN_BACKOFF_AFTER = 3

#: How many trailing worker-stderr lines a crash report carries.
DEFAULT_STDERR_TAIL_LINES = 20


def default_process_workers() -> int:
    """Default worker-process count: one per CPU core.

    This is the fix for the thread-pool era ``DEFAULT_MAX_WORKERS = 8``
    hard cap: processes scale with cores, so the default derives from
    ``os.cpu_count()`` instead of a constant.
    """
    return max(1, os.cpu_count() or 1)


class BackendError(ReproError):
    """The backend itself (not a request) is unusable."""

    phase = "server"


def error_response(
    job: object,
    error_type: str,
    message: str,
    elapsed_s: float = 0.0,
    phase: str = "server",
) -> dict:
    """A CompileResponse-shaped error dict for ``job`` (server-level
    failures: crashes, timeouts, saturation -- anything that never
    reached a worker's ``CompileService``)."""
    job_dict = job if isinstance(job, dict) else {}
    return {
        "target": str(job_dict.get("target", "") or ""),
        "name": str(job_dict.get("name") or job_dict.get("kernel") or "request"),
        "ok": False,
        "elapsed_s": elapsed_s,
        "request_id": job_dict.get("request_id"),
        "error": {"type": error_type, "message": message, "phase": phase},
    }


class CompileBackend:
    """Executes decoded compile-job dicts; see module docstring.

    Subclasses provide :meth:`run_job`, :meth:`stats` and
    :meth:`close`; :meth:`run_jobs` fans a batch out over the backend's
    workers and always returns one response dict per job, in input
    order.
    """

    kind = "abstract"
    workers = 1

    def run_job(self, job: dict, index: int = 0) -> dict:
        """Execute one decoded job dict; ``index`` positions default
        request names (``request<index>``) exactly like a batch."""
        raise NotImplementedError

    def run_jobs(self, jobs: Sequence[dict]) -> List[dict]:
        job_list = list(jobs)
        if not job_list:
            return []
        threads = max(1, min(self.workers, len(job_list)))
        if threads == 1:
            return [self.run_job(job, index) for index, job in enumerate(job_list)]
        with ThreadPoolExecutor(max_workers=threads) as executor:
            futures = [
                executor.submit(self.run_job, job, index)
                for index, job in enumerate(job_list)
            ]
            return [future.result() for future in futures]

    def stats(self) -> dict:
        return {}

    def describe(self) -> dict:
        return {"backend": self.kind, "workers": self.workers}

    def close(self) -> None:
        pass

    def __enter__(self) -> "CompileBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class ThreadCompileBackend(CompileBackend):
    """The PR-2 thread-pool :class:`CompileService` as a backend.

    Zero startup cost and shared in-process sessions, but Python
    threads cannot use more than one core for this CPU-bound work --
    use the process backend for throughput.  ``timeout_s`` on a job is
    ignored (a running compile cannot be preempted from a thread).
    """

    kind = "thread"

    def __init__(self, workers: Optional[int] = None, cache=None):
        from repro.service.pool import SessionPool
        from repro.service.service import DEFAULT_MAX_WORKERS, CompileService
        from repro.toolchain import RetargetCache, Toolchain

        if cache is None:
            cache = RetargetCache(directory=False)
        pool = SessionPool(toolchain=Toolchain(cache=cache))
        self.workers = workers if workers else DEFAULT_MAX_WORKERS
        self.service = CompileService(pool=pool, max_workers=self.workers)

    def run_job(self, job: dict, index: int = 0) -> dict:
        return _run_one_dict(self.service, job, index)

    def run_jobs(self, jobs: Sequence[dict]) -> List[dict]:
        responses = self.service.run_batch_dicts(list(jobs), max_workers=self.workers)
        return [response.to_dict() for response in responses]

    def stats(self) -> dict:
        stats = self.service.stats()
        stats["backend"] = self.kind
        stats["workers"] = self.workers
        return stats


def _job_request_id(job: object) -> Optional[str]:
    if isinstance(job, dict):
        request_id = job.get("request_id")
        if isinstance(request_id, str):
            return request_id
    return None


def _run_one_dict(service, job: object, index: int) -> dict:
    """One decoded job through a :class:`CompileService`, positional
    default naming included (the single-job sibling of
    ``run_batch_dicts``)."""
    from repro.service.api import CompileRequest, CompileResponse, ErrorInfo

    try:
        request = CompileRequest.from_dict(job)
    except Exception as error:
        return CompileResponse(
            target=str(job.get("target", "") if isinstance(job, dict) else ""),
            name="request%d" % index,
            ok=False,
            error=ErrorInfo.from_exception(error),
            request_id=(job.get("request_id") if isinstance(job, dict) else None),
        ).to_dict()
    return service.run(request, index).to_dict()


# ---------------------------------------------------------------------------
# the process backend
# ---------------------------------------------------------------------------


def _redirect_stderr(path: str) -> None:
    """Point this process's fd 2 (and ``sys.stderr``) at ``path``.

    A crashing worker's tracebacks and abort messages land in a file
    the parent can read back, instead of vanishing with the process --
    ``os._exit`` and C-level aborts only flush through the fd, which is
    why this dups over fd 2 rather than rebinding ``sys.stderr`` alone.
    """
    import sys

    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)
    try:
        os.dup2(fd, 2)
    finally:
        os.close(fd)
    sys.stderr = os.fdopen(2, "w", buffering=1, closefd=False)


def _worker_main(
    conn,
    cache_dir: Optional[str],
    warm_targets,
    test_hooks: bool,
    stderr_path: Optional[str] = None,
):
    """Worker-process entry point.

    Builds a :class:`~repro.service.pool.SessionPool` whose retarget
    cache reads the parent's prewarmed spool directory (pickles shared
    read-only), reports ready, then serves JSON frames off the pipe until
    EOF or a shutdown frame.  Every result frame piggybacks the
    worker's own ``CompileService.stats()`` snapshot so the parent can
    aggregate pool/cache hit rates without a second round trip.

    With ``stderr_path`` the worker's fd 2 is redirected there so the
    parent can attach the trailing lines to a crash report.  Each job's
    ``request_id`` is made ambient before the compile runs, so worker
    log records join the HTTP access log on one id.
    """
    from repro.service.pool import SessionPool
    from repro.service.service import CompileService
    from repro.toolchain import RetargetCache, Toolchain

    if stderr_path:
        try:
            if log.enabled() and not os.environ.get("REPRO_LOG_FILE"):
                # Keep log records flowing to the *inherited* stderr (the
                # server's log stream) even after fd 2 is redirected into
                # the crash-capture file below.
                log.configure(
                    stream=os.fdopen(os.dup(2), "w", buffering=1)
                )
            _redirect_stderr(stderr_path)
        except OSError:
            pass  # stderr capture is best-effort; the worker still serves
    cache = RetargetCache(directory=cache_dir if cache_dir else False)
    pool = SessionPool(toolchain=Toolchain(cache=cache))
    service = CompileService(pool=pool, max_workers=1)
    warmed: List[str] = []
    for target in warm_targets or ():
        try:
            pool.session(target)
            warmed.append(target)
        except Exception:
            pass  # a broken warm target fails per-request, not at boot
    conn.send_bytes(
        json.dumps({"op": "ready", "pid": os.getpid(), "warmed": warmed}).encode()
    )
    log.info("worker_ready", pid=os.getpid(), warmed=len(warmed))
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            break
        try:
            frame = json.loads(data.decode("utf-8"))
        except ValueError:
            frame = {"op": "job", "job": {"_malformed": "undecodable frame"}}
        op = frame.get("op")
        if op == "shutdown":
            break
        if op == "ping":
            conn.send_bytes(json.dumps({"op": "pong", "pid": os.getpid()}).encode())
            continue
        job = frame.get("job")
        job = dict(job) if isinstance(job, dict) else job
        index = frame.get("index", 0)
        index = index if isinstance(index, int) else 0
        if test_hooks and isinstance(job, dict):
            # Fault-injection hooks for the crash/timeout test suites;
            # only honored when the backend was built with
            # test_hooks=True, never in production configurations.
            exit_code = job.pop("_test_exit", None)
            sleep_s = job.pop("_test_sleep_s", None)
            stderr_text = job.pop("_test_stderr", None)
            if stderr_text is not None:
                import sys

                print(stderr_text, file=sys.stderr, flush=True)
            if exit_code is not None:
                os._exit(int(exit_code))
            if sleep_s is not None:
                time.sleep(float(sleep_s))
        job_request_id = job.get("request_id") if isinstance(job, dict) else None
        try:
            with use_request_id(job_request_id):
                response = _run_one_dict(service, job, index)
            stats = service.stats()
        except Exception as error:
            # Crash-proofing contract: a bug in the envelope/stats layer
            # (CompileService.run itself never raises) answers the frame
            # with a structured internal-error response instead of
            # killing the worker.
            from repro.diagnostics import InternalCompilerError

            wrapped = InternalCompilerError.wrap(
                error, context="worker pid %d" % os.getpid()
            )
            response = error_response(
                job, "InternalCompilerError", str(wrapped), phase="internal"
            )
            stats = {}
        payload = {"op": "result", "response": response, "stats": stats}
        try:
            data = json.dumps(payload).encode("utf-8")
        except (TypeError, ValueError):
            payload = {
                "op": "result",
                "response": error_response(
                    job,
                    "InternalCompilerError",
                    "worker produced an unserializable response",
                    phase="internal",
                ),
                "stats": {},
            }
            data = json.dumps(payload).encode("utf-8")
        conn.send_bytes(data)
    try:
        conn.close()
    except OSError:
        pass


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("process", "conn", "pid", "generation", "last_stats", "stderr_path")

    def __init__(self, process, conn, generation: int, stderr_path: Optional[str] = None):
        self.process = process
        self.conn = conn
        self.pid = process.pid
        self.generation = generation
        self.last_stats: dict = {}
        self.stderr_path = stderr_path


class ProcessCompileBackend(CompileBackend):
    """A pool of compile-worker processes (the multi-core backend).

    Startup: the parent resolves ``warm_targets`` through the default
    registry and prewarms a disk-tier retarget cache in ``cache_dir``
    (a private temp directory by default), then spawns ``workers``
    processes that warm their session pools from those shared pickles.
    ``start_method`` defaults to ``"spawn"`` -- immune to
    fork-with-threads lock inheritance, and workers are long-lived so
    the ~100ms interpreter boot amortizes away.

    Dispatch: :meth:`run_job` checks an idle worker out of a queue,
    ships the job's JSON envelope over the worker's pipe and waits for
    the result envelope, bounded by the job's ``timeout_s`` (or the
    backend's ``request_timeout_s``).  A timeout or crash yields a
    structured error response and a respawned worker; the slot is
    never lost.
    """

    kind = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        warm_targets: Optional[Iterable[str]] = ("all",),
        cache_dir: Optional[str] = None,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        start_method: str = "spawn",
        test_hooks: bool = False,
        respawn_backoff_s: float = DEFAULT_RESPAWN_BACKOFF_S,
        respawn_backoff_max_s: float = DEFAULT_RESPAWN_BACKOFF_MAX_S,
        respawn_backoff_after: int = DEFAULT_RESPAWN_BACKOFF_AFTER,
        stderr_tail_lines: int = DEFAULT_STDERR_TAIL_LINES,
    ):
        import multiprocessing

        self.workers = workers if workers else default_process_workers()
        self.request_timeout_s = request_timeout_s
        self.stderr_tail_lines = stderr_tail_lines
        self.respawn_backoff_s = respawn_backoff_s
        self.respawn_backoff_max_s = respawn_backoff_max_s
        self.respawn_backoff_after = respawn_backoff_after
        self._context = multiprocessing.get_context(start_method)
        self._test_hooks = test_hooks
        self._owns_cache_dir = cache_dir is None
        self.cache_dir = cache_dir or tempfile.mkdtemp(prefix="repro-serve-cache-")
        self.warm_targets = self._resolve_warm_targets(warm_targets)
        self._prewarm_shared_cache()
        self._lock = threading.Lock()
        self._closed = False
        self._generation = 0
        self._live: Dict[int, _Worker] = {}  # id(worker) -> worker
        self._counters = {
            "completed": 0,
            "failed": 0,
            "timeouts": 0,
            "crashes": 0,
            "respawns": 0,
            "backoff_waits": 0,
        }
        self._consecutive_crashes = 0
        self._per_target: Dict[str, Dict[str, int]] = {}
        self._idle: "queue.Queue[_Worker]" = queue.Queue()
        boot_errors = []
        for _ in range(self.workers):
            try:
                self._idle.put(self._spawn_worker())
            except Exception as error:
                boot_errors.append(error)
        if boot_errors and self._idle.qsize() == 0:
            self.close()
            raise BackendError(
                "no compile worker could start: %s" % boot_errors[0]
            )

    # -- startup -----------------------------------------------------------------

    @staticmethod
    def _resolve_warm_targets(warm_targets) -> List[str]:
        if warm_targets is None:
            return []
        names = list(warm_targets)
        if "all" in names:
            from repro.toolchain import default_registry

            names = [name for name in names if name != "all"]
            names.extend(
                name for name in default_registry() if name not in names
            )
        return names

    def _prewarm_shared_cache(self) -> None:
        """Retarget every warm target once into the shared disk cache
        (the v2 pickles the workers will map in read-only)."""
        if not self.warm_targets:
            return
        from repro.toolchain import RetargetCache, default_registry

        registry = default_registry()
        cache = RetargetCache(directory=self.cache_dir)
        sources = []
        for name in self.warm_targets:
            try:
                sources.append(registry.hdl_source(name))
            except Exception:
                pass  # unknown warm target: workers simply stay cold for it
        cache.prewarm(sources)

    def _spawn_worker(self) -> _Worker:
        with self._lock:
            if self._closed:
                raise BackendError("backend is closed")
            self._generation += 1
            generation = self._generation
        stderr_path: Optional[str] = None
        if self.stderr_tail_lines > 0:
            fd, stderr_path = tempfile.mkstemp(
                prefix="repro-worker-%d-" % generation, suffix=".stderr"
            )
            os.close(fd)
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn,
                self.cache_dir,
                self.warm_targets,
                self._test_hooks,
                stderr_path,
            ),
            daemon=True,
            name="repro-compile-worker-%d" % generation,
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn, generation, stderr_path=stderr_path)
        if not parent_conn.poll(WORKER_BOOT_TIMEOUT_S):
            self._kill(worker)
            raise BackendError("compile worker %d did not boot" % generation)
        try:
            frame = json.loads(parent_conn.recv_bytes().decode("utf-8"))
        except (EOFError, OSError, ValueError) as error:
            self._kill(worker)
            raise BackendError("compile worker %d died at boot: %s" % (generation, error))
        if frame.get("op") != "ready":
            self._kill(worker)
            raise BackendError("compile worker %d sent %r at boot" % (generation, frame))
        with self._lock:
            self._live[id(worker)] = worker
        return worker

    # -- worker lifecycle --------------------------------------------------------

    def _kill(self, worker: _Worker) -> None:
        with self._lock:
            self._live.pop(id(worker), None)
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=5.0)
            if worker.process.is_alive() and hasattr(worker.process, "kill"):
                worker.process.kill()
                worker.process.join(timeout=5.0)
        if worker.stderr_path:
            try:
                os.unlink(worker.stderr_path)
            except OSError:
                pass

    def _stderr_tail(self, worker: _Worker) -> str:
        """The last ``stderr_tail_lines`` lines the worker wrote to its
        captured stderr ('' when capture is off or the file is empty).
        Read *before* :meth:`_kill`, which deletes the file."""
        if not worker.stderr_path or self.stderr_tail_lines <= 0:
            return ""
        try:
            with open(worker.stderr_path, "r", errors="replace") as handle:
                lines = handle.read().splitlines()
        except OSError:
            return ""
        return "\n".join(lines[-self.stderr_tail_lines:]).strip()

    def _respawn(self, worker: _Worker) -> _Worker:
        self._kill(worker)
        self._bump("respawns")
        with self._lock:
            self._consecutive_crashes += 1
            streak = self._consecutive_crashes
        delay = self._backoff_delay(streak)
        if delay > 0:
            self._bump("backoff_waits")
            time.sleep(delay)
        return self._spawn_worker()

    def _backoff_delay(self, streak: int) -> float:
        """Respawn delay for the ``streak``-th consecutive crash (0.0
        until the streak passes ``respawn_backoff_after``, then
        exponential up to ``respawn_backoff_max_s``)."""
        after = self.respawn_backoff_after
        if streak <= after or self.respawn_backoff_s <= 0:
            return 0.0
        return min(
            self.respawn_backoff_s * (2.0 ** (streak - after - 1)),
            self.respawn_backoff_max_s,
        )

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._counters[counter] += by

    def _record(self, job: object, ok: bool) -> None:
        target = ""
        if isinstance(job, dict):
            target = str(job.get("target", "") or "")
        with self._lock:
            self._counters["completed" if ok else "failed"] += 1
            counts = self._per_target.setdefault(
                target, {"completed": 0, "failed": 0}
            )
            counts["completed" if ok else "failed"] += 1

    def worker_pids(self) -> List[int]:
        """PIDs of the currently live workers (crash-injection tests)."""
        with self._lock:
            return [w.process.pid for w in self._live.values()]

    # -- dispatch ----------------------------------------------------------------

    def run_job(self, job: dict, index: int = 0) -> dict:
        """Execute one decoded job dict; never raises for request-level
        failures (crash/timeout/compile errors become response dicts)."""
        if self._closed:
            raise BackendError("backend is closed")
        worker = self._idle.get()
        try:
            worker, response = self._dispatch(worker, job, index)
        except BaseException:
            # _dispatch never raises by design; if something truly
            # unexpected escapes, don't strand the slot.
            self._idle.put(worker)
            raise
        self._idle.put(worker)
        self._record(job, ok=bool(response.get("ok")))
        return response

    def _timeout_of(self, job: object) -> float:
        if isinstance(job, dict):
            timeout = job.get("timeout_s")
            if isinstance(timeout, (int, float)) and not isinstance(timeout, bool):
                if timeout > 0:
                    return float(timeout)
        return self.request_timeout_s

    def _dispatch(self, worker: _Worker, job: dict, index: int = 0):
        """Run ``job`` on ``worker``; returns ``(healthy_worker,
        response_dict)`` where the worker may be a respawned
        replacement."""
        started = time.perf_counter()
        frame = json.dumps({"op": "job", "job": job, "index": index}).encode("utf-8")
        try:
            worker.conn.send_bytes(frame)
        except (OSError, ValueError):
            # The worker died while idle (or was externally killed):
            # respawn and retry once -- the job never started, so the
            # retry cannot double-execute anything.
            self._bump("crashes")
            tail = self._stderr_tail(worker)
            log.error(
                "worker_crash",
                pid=worker.pid,
                generation=worker.generation,
                when="idle",
                request_id=_job_request_id(job),
                stderr_tail=tail or None,
            )
            worker = self._respawn(worker)
            try:
                worker.conn.send_bytes(frame)
            except (OSError, ValueError) as error:
                return worker, error_response(
                    job,
                    "WorkerCrashError",
                    "compile worker unavailable: %s" % error,
                    elapsed_s=time.perf_counter() - started,
                )
        timeout_s = self._timeout_of(job)
        deadline = started + timeout_s
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                self._bump("timeouts")
                log.warning(
                    "request_timeout",
                    pid=worker.pid,
                    timeout_s=timeout_s,
                    target=(job.get("target") if isinstance(job, dict) else None),
                    request_id=_job_request_id(job),
                )
                worker = self._respawn(worker)
                return worker, error_response(
                    job,
                    "RequestTimeoutError",
                    "request exceeded its %.3gs timeout; the worker was "
                    "killed and respawned" % timeout_s,
                    elapsed_s=time.perf_counter() - started,
                )
            try:
                if not worker.conn.poll(min(remaining, 0.1)):
                    if not worker.process.is_alive():
                        raise EOFError("worker process exited")
                    continue
                data = worker.conn.recv_bytes()
            except (EOFError, OSError):
                worker.process.join(timeout=2.0)  # reap, so exitcode is real
                exitcode = worker.process.exitcode
                self._bump("crashes")
                tail = self._stderr_tail(worker)
                log.error(
                    "worker_crash",
                    pid=worker.pid,
                    generation=worker.generation,
                    when="mid-request",
                    exitcode=exitcode,
                    target=(job.get("target") if isinstance(job, dict) else None),
                    request_id=_job_request_id(job),
                    stderr_tail=tail or None,
                )
                worker = self._respawn(worker)
                message = (
                    "compile worker crashed mid-request (exit code %s); "
                    "a fresh worker took its slot" % (exitcode,)
                )
                if tail:
                    message += "\nworker stderr (last %d lines):\n%s" % (
                        self.stderr_tail_lines,
                        tail,
                    )
                return worker, error_response(
                    job,
                    "WorkerCrashError",
                    message,
                    elapsed_s=time.perf_counter() - started,
                )
            try:
                result_frame = json.loads(data.decode("utf-8"))
            except ValueError:
                self._bump("crashes")
                worker = self._respawn(worker)
                return worker, error_response(
                    job,
                    "WorkerProtocolError",
                    "compile worker sent an undecodable result frame",
                    elapsed_s=time.perf_counter() - started,
                )
            if result_frame.get("op") != "result":
                continue  # stale pong etc.; keep waiting for the result
            with self._lock:
                self._consecutive_crashes = 0  # worker is healthy again
            worker.last_stats = result_frame.get("stats") or {}
            response = result_frame.get("response")
            if not isinstance(response, dict):
                response = error_response(
                    job, "WorkerProtocolError", "result frame had no response"
                )
            return worker, response

    # -- introspection / shutdown ------------------------------------------------

    def stats(self) -> dict:
        """Parent-side counters plus an aggregate of the last per-worker
        ``CompileService.stats()`` snapshots (pool/cache hit totals) and
        a ``per_worker`` breakdown (one entry per live worker, keyed by
        its generation -- what ``/metrics`` renders as
        ``repro_worker_requests_total{worker="g<N>",...}``)."""
        with self._lock:
            stats: dict = dict(self._counters)
            stats["per_target"] = {
                target: dict(counts) for target, counts in self._per_target.items()
            }
            workers = list(self._live.values())
            stats["workers"] = len(workers)
            stats["backend"] = self.kind
            stats["generations"] = self._generation
            stats["consecutive_crashes"] = self._consecutive_crashes
        aggregate = {
            "pool_hits": 0,
            "pool_misses": 0,
            "pool_retargets": 0,
            "pool_sessions": 0,
        }
        per_worker = []
        for worker in workers:
            snapshot = worker.last_stats
            for key in aggregate:
                value = snapshot.get(key)
                if isinstance(value, int):
                    aggregate[key] += value
            per_worker.append(
                {
                    "worker": "g%d" % worker.generation,
                    "pid": worker.pid,
                    "completed": int(snapshot.get("completed") or 0),
                    "failed": int(snapshot.get("failed") or 0),
                }
            )
        per_worker.sort(key=lambda entry: entry["worker"])
        stats.update(aggregate)
        stats["per_worker"] = per_worker
        return stats

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._live.values())
            self._live.clear()
        for worker in workers:
            try:
                worker.conn.send_bytes(json.dumps({"op": "shutdown"}).encode())
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.stderr_path:
                try:
                    os.unlink(worker.stderr_path)
                except OSError:
                    pass
        while True:
            try:
                self._idle.get_nowait()
            except queue.Empty:
                break
        if self._owns_cache_dir:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


#: Backend kinds accepted by :func:`create_backend` and the CLI.
BACKEND_KINDS = ("thread", "process")


def create_backend(kind: str = "thread", workers: Optional[int] = None, **kwargs):
    """Build a :class:`CompileBackend` by kind name (the CLI entry)."""
    if kind == "thread":
        return ThreadCompileBackend(workers=workers, **kwargs)
    if kind == "process":
        return ProcessCompileBackend(workers=workers, **kwargs)
    raise BackendError(
        "unknown backend %r; available: %s" % (kind, ", ".join(BACKEND_KINDS))
    )
