"""Compile backends: where compile jobs actually execute.

Jobs arrive as plain dicts (decoded JSON job objects); each response
leaves encoded once, as the bytes the HTTP front end
(:mod:`repro.server`) and ``repro batch`` write out unread.
:class:`CompileBackend` owns what the backends share:

* the guard that turns an exception escaping a backend into a
  structured error envelope, and that one encode
  (:meth:`~CompileBackend.respond`);
* the ordered fan-out of a batch over the backend's workers
  (:meth:`~CompileBackend.stream_responses`, which ``POST /batch``
  streams), and the library's dict API over both (``run_job``,
  ``run_jobs``);
* the completed/failed counts, in total and per target.

Subclasses implement :meth:`~CompileBackend._execute` (a response dict)
or :meth:`~CompileBackend._execute_encoded`:

* :class:`ThreadCompileBackend` -- an in-process
  :class:`~repro.service.service.CompileService` (single-core: the
  compile is CPU-bound Python under the GIL; zero startup cost);
* :class:`ProcessCompileBackend` -- a pool of worker *processes*.  The
  parent prewarms a shared disk-tier
  :class:`~repro.toolchain.cache.RetargetCache` whose pickles already
  ship pre-built ``GrammarTables``; each worker opens that directory
  read-only, so workers never re-retarget.  Jobs travel as JSON frames
  over one duplex :func:`multiprocessing.Pipe` per worker; a result
  frame is a summary line, then the envelope the worker encoded.  The
  parent detects worker crashes (EOF on the pipe / dead process), turns
  them into structured error responses, and respawns the worker; a
  per-request ``timeout_s`` kills and respawns a stuck worker the same
  way.  One bad request can therefore never hang or drop a batch.
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
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.diagnostics import InternalCompilerError, ReproError
from repro.obs import log
from repro.service.api import MIN_TIMEOUT_S, ErrorInfo, failed_envelope
from repro.service.pool import SessionPool
from repro.service.service import CompileService
from repro.toolchain import RetargetCache, default_registry

#: Worker *threads* of a thread backend when the caller does not pin a
#: count.  Threads mostly overlap session construction and lock waits
#: (the compile itself is GIL-bound), so this stays a small constant.
DEFAULT_THREAD_WORKERS = 8

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
    """Default worker-process count: one per CPU core (processes scale
    with cores, unlike the GIL-bound threads of the thread backend)."""
    return max(1, os.cpu_count() or 1)


class BackendError(ReproError):
    """The backend itself (not a request) is unusable."""

    phase = "server"


def encode_response(response: dict) -> bytes:
    """The bytes a response envelope travels and is served as."""
    return json.dumps(response).encode("utf-8")


def strip_result(body: bytes) -> bytes:
    """An encoded envelope without its ``result`` (``?results=0``,
    ``repro batch --no-results``)."""
    response = json.loads(body)
    response.pop("result", None)
    return encode_response(response)


class CompileBackend:
    """Executes decoded compile-job dicts; see module docstring.

    Subclasses implement :meth:`_execute` or :meth:`_execute_encoded`
    (and may extend :meth:`stats` and :meth:`close`); everything else --
    the guard, the encode, fan-out, the counts -- lives here, once for
    every backend.
    """

    kind = "abstract"
    workers = 1
    _closed = False  # a closed backend refuses jobs with BackendError

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # completed/failed per target; the totals are derived from it
        self._per_target: Dict[str, Dict[str, int]] = {}

    def _execute(self, job: dict, index: int) -> dict:
        """Run one job and return its response dict (the backend hook)."""
        raise NotImplementedError

    def _execute_encoded(self, job: dict, index: int) -> Tuple[dict, bytes]:
        """Run one job: its summary and its encoded envelope.  By default
        :meth:`_execute`'s dict, encoded once, is its own summary."""
        response = self._execute(job, index)
        return response, encode_response(response)

    def respond(self, job: dict, index: int = 0) -> Tuple[dict, bytes]:
        """Execute one decoded job dict: ``(summary, body)``.  ``body`` is
        the encoded ``CompileResponse`` envelope; ``summary`` has its
        fields, of ``result`` only ``pass_timings`` and ``metrics`` (what
        ``ServerMetrics.record_compile`` reads).  ``index`` positions
        default request names (``request<index>``) exactly like a batch.

        Never raises for a job: an exception escaping the backend hook
        becomes an error envelope -- a :class:`ReproError` keeps its type,
        anything else is an ``InternalCompilerError`` (crash-proofing
        contract).  Every response is counted once, by the target it
        names.
        """
        if self._closed:
            raise BackendError("backend is closed")
        try:
            summary, body = self._execute_encoded(job, index)
        except Exception as error:
            if not isinstance(error, ReproError):
                error = InternalCompilerError.wrap(error, context="backend run_job")
            summary = failed_envelope(job, index, ErrorInfo.from_exception(error))
            body = encode_response(summary)
        target = str(summary.get("target", "") or "")
        with self._lock:
            counts = self._per_target.setdefault(target, {"completed": 0, "failed": 0})
            counts["completed" if summary.get("ok") else "failed"] += 1
        return summary, body

    def run_job(self, job: dict, index: int = 0) -> dict:
        """:meth:`respond`'s envelope, decoded (the library dict API)."""
        return json.loads(self.respond(job, index)[1])

    def stream_responses(self, jobs: Iterable[dict]) -> Iterator[Tuple[dict, bytes]]:
        """Fan ``jobs`` out over ``min(len(jobs), workers)`` threads and
        yield one :meth:`respond` pair per job, in input order, each as
        soon as it and every job before it finished.  Closing the
        generator early still waits for the jobs already submitted."""
        job_list = list(jobs)
        threads = min(self.workers, len(job_list))
        if threads <= 1:
            for index, job in enumerate(job_list):
                yield self.respond(job, index)
            return
        with ThreadPoolExecutor(max_workers=threads) as executor:
            futures = [
                executor.submit(self.respond, job, index)
                for index, job in enumerate(job_list)
            ]
            for future in futures:
                yield future.result()

    def run_jobs(self, jobs: Iterable[dict]) -> List[dict]:
        """One decoded response per job, in input order."""
        return [json.loads(body) for _summary, body in self.stream_responses(jobs)]

    def stats(self) -> dict:
        """A point-in-time snapshot: ``completed``/``failed`` totals and
        their ``per_target`` breakdown (the source of ``repro batch
        --stats`` and the ``/metrics`` backend gauges)."""
        with self._lock:
            per_target = {target: dict(counts) for target, counts in self._per_target.items()}
        return {
            "backend": self.kind,
            "workers": self.workers,
            "completed": sum(counts["completed"] for counts in per_target.values()),
            "failed": sum(counts["failed"] for counts in per_target.values()),
            "per_target": per_target,
        }

    def describe(self) -> dict:
        return {"backend": self.kind, "workers": self.workers}

    def close(self) -> None:
        pass

    def __enter__(self) -> "CompileBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class ThreadCompileBackend(CompileBackend):
    """An in-process :class:`CompileService` as a backend.

    Zero startup cost and shared in-process sessions, but Python
    threads cannot use more than one core for this CPU-bound work --
    use the process backend for throughput.  ``timeout_s`` on a job is
    ignored (a running compile cannot be preempted from a thread).
    """

    kind = "thread"

    def __init__(self, workers: Optional[int] = None, cache=None):
        super().__init__()
        self.workers = workers if workers else DEFAULT_THREAD_WORKERS
        self.service = CompileService(pool=SessionPool(cache=cache))

    def _execute(self, job: dict, index: int) -> dict:
        return self.service.run_dict(job, index)

    def stats(self) -> dict:
        stats = super().stats()
        stats.update(
            ("pool_%s" % key, value) for key, value in self.service.pool.stats().items()
        )
        return stats


def _job_request_id(job: object) -> Optional[str]:
    if isinstance(job, dict):
        request_id = job.get("request_id")
        if isinstance(request_id, str):
            return request_id
    return None


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
    stderr_path: str,
):
    """Worker-process entry point.

    Builds a :class:`~repro.service.pool.SessionPool` whose retarget
    cache reads the parent's prewarmed spool directory (pickles shared
    read-only), reports ready, then serves JSON frames off the pipe until
    EOF or a shutdown frame.  A result frame is one summary line (the
    summary of :meth:`CompileBackend.respond`, and the pool's ``stats()``
    so the parent can aggregate pool/cache hit rates), then the encoded
    envelope.  The parent counts the responses itself.

    The worker's fd 2 is redirected to ``stderr_path`` so the parent can
    attach the trailing lines to a crash report -- including the
    traceback of anything that escapes this loop.
    """
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
    pool = SessionPool(cache=RetargetCache(directory=cache_dir if cache_dir else False))
    service = CompileService(pool=pool)
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
        if frame.get("op") == "shutdown":
            break
        job, index = frame.get("job"), frame.get("index", 0)
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
        response = service.run_dict(job, index)
        summary = {key: value for key, value in response.items() if key != "result"}
        if "result" in response:
            summary["result"] = {
                key: response["result"].get(key) for key in ("pass_timings", "metrics")
            }
        head = json.dumps({"op": "result", "response": summary, "pool": pool.stats()})
        conn.send_bytes(head.encode("utf-8") + b"\n" + encode_response(response))
    try:
        conn.close()
    except OSError:
        pass


class _Worker:
    """Parent-side handle of one worker process: ``completed``/``failed``
    count the result frames it answered, ``pool_stats`` is the session-pool
    snapshot of its latest one."""

    __slots__ = (
        "process", "conn", "pid", "generation", "stderr_path",
        "completed", "failed", "pool_stats",
    )

    def __init__(self, process, conn, generation: int, stderr_path: str):
        self.process = process
        self.conn = conn
        self.pid = process.pid
        self.generation = generation
        self.stderr_path = stderr_path
        self.completed = 0
        self.failed = 0
        self.pool_stats: dict = {}


class ProcessCompileBackend(CompileBackend):
    """A pool of compile-worker processes (the multi-core backend).

    Startup: the parent resolves ``warm_targets`` through the default
    registry and prewarms a disk-tier retarget cache in ``cache_dir``
    (a private temp directory by default), then spawns ``workers``
    processes that warm their session pools from those shared pickles.
    Workers start with ``"spawn"`` -- immune to fork-with-threads lock
    inheritance, and workers are long-lived so the ~100ms interpreter
    boot amortizes away.

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
        test_hooks: bool = False,
    ):
        import multiprocessing

        super().__init__()
        self.workers = workers if workers else default_process_workers()
        self.request_timeout_s = request_timeout_s
        self._context = multiprocessing.get_context("spawn")
        self._test_hooks = test_hooks
        self._owns_cache_dir = cache_dir is None
        self.cache_dir = cache_dir or tempfile.mkdtemp(prefix="repro-serve-cache-")
        self.warm_targets = self._resolve_warm_targets(warm_targets)
        self._prewarm_shared_cache()
        self._closed = False
        self._generation = 0
        self._live: Dict[int, _Worker] = {}  # id(worker) -> worker
        self._counters = {"timeouts": 0, "crashes": 0, "respawns": 0, "backoff_waits": 0}
        self._consecutive_crashes = 0
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
            names = [name for name in names if name != "all"]
            names.extend(
                name for name in default_registry() if name not in names
            )
        return names

    def _prewarm_shared_cache(self) -> None:
        """Retarget every warm target once into the shared disk cache
        (the pickles the workers will map in read-only)."""
        if not self.warm_targets:
            return
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
        worker = _Worker(process, parent_conn, generation, stderr_path)
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
        try:
            os.unlink(worker.stderr_path)
        except OSError:
            pass

    def _stderr_tail(self, worker: _Worker) -> str:
        """The last ``DEFAULT_STDERR_TAIL_LINES`` lines the worker wrote to
        its captured stderr ('' when the file is empty or unreadable).
        Read *before* :meth:`_kill`, which deletes the file."""
        try:
            with open(worker.stderr_path, "r", errors="replace") as handle:
                lines = handle.read().splitlines()
        except OSError:
            return ""
        return "\n".join(lines[-DEFAULT_STDERR_TAIL_LINES:]).strip()

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
        until the streak passes ``DEFAULT_RESPAWN_BACKOFF_AFTER``, then
        exponential up to ``DEFAULT_RESPAWN_BACKOFF_MAX_S``)."""
        after = DEFAULT_RESPAWN_BACKOFF_AFTER
        if streak <= after:
            return 0.0
        return min(
            DEFAULT_RESPAWN_BACKOFF_S * (2.0 ** (streak - after - 1)),
            DEFAULT_RESPAWN_BACKOFF_MAX_S,
        )

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._counters[counter] += by

    def worker_pids(self) -> List[int]:
        """PIDs of the currently live workers (crash-injection tests)."""
        with self._lock:
            return [w.process.pid for w in self._live.values()]

    # -- dispatch ----------------------------------------------------------------

    def _execute_encoded(self, job: dict, index: int) -> Tuple[dict, bytes]:
        worker = self._idle.get()
        try:
            worker, response, body = self._dispatch(worker, job, index)
        finally:
            # The slot survives whatever happens: the healthy (possibly
            # respawned) worker, or the original one if dispatch raised.
            self._idle.put(worker)
        return response, body if body is not None else encode_response(response)

    def _timeout_of(self, job: object) -> float:
        """The job's ``timeout_s`` when it is at least ``MIN_TIMEOUT_S``,
        else the backend's: the worker refuses a shorter one with a
        ``RequestError`` long before that deadline."""
        if isinstance(job, dict):
            timeout = job.get("timeout_s")
            if isinstance(timeout, (int, float)) and not isinstance(timeout, bool):
                if timeout >= MIN_TIMEOUT_S:
                    return float(timeout)
        return self.request_timeout_s

    def _dispatch(self, worker: _Worker, job: dict, index: int = 0):
        """Run ``job`` on ``worker``; returns ``(healthy_worker, summary,
        body)`` where the worker may be a respawned replacement and
        ``body`` is None for an error the parent made up itself."""
        started = time.perf_counter()

        def failed(error_type: str, message: str) -> dict:
            error = ErrorInfo(type=error_type, message=message, phase="server")
            return failed_envelope(job, index, error, time.perf_counter() - started)

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
                message = "compile worker unavailable: %s" % error
                return worker, failed("WorkerCrashError", message), None
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
                message = (
                    "request exceeded its %.3gs timeout; the worker was "
                    "killed and respawned" % timeout_s
                )
                return worker, failed("RequestTimeoutError", message), None
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
                        DEFAULT_STDERR_TAIL_LINES,
                        tail,
                    )
                return worker, failed("WorkerCrashError", message), None
            head, _, body = data.partition(b"\n")
            try:
                result_frame = json.loads(head)
            except ValueError:
                self._bump("crashes")
                worker = self._respawn(worker)
                message = "compile worker sent an undecodable result frame"
                return worker, failed("WorkerProtocolError", message), None
            if result_frame.get("op") != "result":
                continue  # not a result frame; keep waiting for the result
            response = result_frame.get("response")
            if not isinstance(response, dict) or not body:
                response, body = failed(
                    "WorkerProtocolError", "result frame had no response"
                ), None
            with self._lock:
                self._consecutive_crashes = 0  # worker is healthy again
                if response.get("ok"):
                    worker.completed += 1
                else:
                    worker.failed += 1
            worker.pool_stats = result_frame.get("pool") or {}
            return worker, response, body

    # -- introspection / shutdown ------------------------------------------------

    def stats(self) -> dict:
        """The shared counts plus crash/respawn/timeout counters, the
        session-pool statistics summed over the live workers' latest
        result frames, and a ``per_worker`` breakdown (one entry per live
        worker, keyed by its generation -- what ``/metrics`` renders as
        ``repro_worker_requests_total{worker="g<N>",...}``)."""
        stats = super().stats()
        with self._lock:
            stats.update(self._counters)
            workers = sorted(self._live.values(), key=lambda w: "g%d" % w.generation)
            stats["workers"] = len(workers)
            stats["generations"] = self._generation
            stats["consecutive_crashes"] = self._consecutive_crashes
            stats["per_worker"] = [
                {
                    "worker": "g%d" % worker.generation,
                    "pid": worker.pid,
                    "completed": worker.completed,
                    "failed": worker.failed,
                }
                for worker in workers
            ]
        for key in ("hits", "misses", "retargets", "sessions"):
            stats["pool_" + key] = sum(
                worker.pool_stats.get(key, 0) for worker in workers
            )
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
            self._kill(worker)
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
