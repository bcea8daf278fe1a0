"""The four workloads: what one operation is, its seeded inputs, and the
check of its output.

Every workload is a closed loop from one thread: the next operation
starts when the previous one returned.  ``jobs()`` yields the seeded
inputs, ``run(job)`` is the timed operation, and ``check(job, output)``
(outside the timed section) says whether the output is correct.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional

from repro.dspstone.kernels import all_kernel_names, kernel_program, loop_kernel_names
from repro.frontend.lowering import lower_to_program
from repro.fuzz.generator import generate_source
from repro.fuzz.oracles import (
    SIMULATION_STEP_LIMIT,
    faithful_simulate,
    observables,
    seed_environment,
)
from repro.hdl.ast import ModuleKind
from repro.record.retarget import retarget
from repro.toolchain import Session, Toolchain, default_registry

#: The built-in targets DSPStone compiles on (the other three built-ins
#: compile no DSPStone kernel).
DSP_TARGETS = ("demo", "ref", "tms320c25")

#: The 10 figure-2 kernels followed by the 6 loop forms.
KERNELS = tuple(all_kernel_names() + loop_kernel_names())

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")) as _handle:
    PINNED = json.load(_handle)

#: The CPUs this process may use before the benchmark pins itself to one;
#: the server of the ``server`` workload gets all of them back.
ALL_CPUS = os.sched_getaffinity(0)


def memory_storages(retarget_result) -> frozenset:
    return frozenset(
        module.name
        for module in retarget_result.netlist.sequential_modules()
        if module.kind == ModuleKind.MEMORY
    )


def matches_reference(result, program, storages) -> bool:
    """Storage-faithful RT simulation of ``result`` agrees with reference
    execution of the lowered *source* program on every observable."""
    environment = seed_environment(program)
    try:
        simulated = faithful_simulate(result, storages, environment)
        reference = program.execute(dict(environment), max_steps=SIMULATION_STEP_LIMIT)
    except Exception:
        return False
    left, right = observables(reference), observables(simulated)
    return all(left.get(key, 0) == right.get(key, 0) for key in set(left) | set(right))


def signature(result) -> tuple:
    return (result.code_size, result.metrics.operation_count, result.metrics.selection_cost)


class Workload:
    """One workload of the benchmark (subclasses fill in the hooks)."""

    name = ""
    #: operations per throughput window (ops_per_s is the median window rate)
    window_ops = 1

    def __init__(self, seed: int, work_dir: str, env: Dict[str, str]):
        self.seed = seed
        self.work_dir = work_dir
        self.env = env
        self.mismatches = 0

    def setup(self) -> None:
        """What a user waits for before the first operation."""

    def jobs(self) -> Iterator:
        raise NotImplementedError

    def run(self, job):
        raise NotImplementedError

    def check(self, job, output) -> bool:
        raise NotImplementedError

    def job_key(self, job):
        """Jobs with one key do the same work (compared for the cost of
        tracing)."""
        return job

    def warm_up(self) -> int:
        """Run the fixed input set once, check it, and return its total
        instruction words (``code_words``)."""
        raise NotImplementedError

    def counts(self, output) -> Dict[str, float]:
        """Exact per-operation counts for the traced run."""
        return {}

    def selectors(self) -> List:
        return []

    def retarget_results(self) -> List:
        """One retarget result per distinct target this process retargeted."""
        return []

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(os.getpid())

    def close(self) -> None:
        """Stop every process the workload started."""


class _SessionWorkload(Workload):
    targets = DSP_TARGETS

    def setup(self) -> None:
        toolchain = Toolchain()
        self.sessions = {target: toolchain.session(target) for target in self.targets}
        self.storages = {
            target: memory_storages(session.retarget_result)
            for target, session in self.sessions.items()
        }

    def counts(self, output) -> Dict[str, float]:
        metrics = output.metrics
        return {
            "opt.nodes_in": metrics.opt_nodes_before,
            "opt.nodes_out": metrics.opt_nodes_after,
            "selector.nodes_labelled": metrics.nodes_labelled,
            "codegen.rts": metrics.operation_count,
            "codegen.spills": metrics.spill_count,
        }

    def selectors(self) -> List:
        return [session.selector for session in self.sessions.values()]

    def retarget_results(self) -> List:
        return [session.retarget_result for session in self.sessions.values()]


class KernelsWorkload(_SessionWorkload):
    """All 16 DSPStone kernels on demo, ref and tms320c25, warm sessions."""

    name = "kernels"
    window_ops = 8 * len(KERNELS) * len(DSP_TARGETS)

    def _mix(self) -> List[tuple]:
        return [(target, kernel) for target in self.targets for kernel in KERNELS]

    def jobs(self) -> Iterator:
        rng = random.Random(self.seed)
        mix = self._mix()
        while True:
            rng.shuffle(mix)
            yield from list(mix)

    def run(self, job):
        target, kernel = job
        return self.sessions[target].compile_kernel(kernel)

    def check(self, job, output) -> bool:
        return signature(output) == self.expected[job]

    def warm_up(self) -> int:
        self.expected = {}
        for job in self._mix():
            result = self.run(job)
            if not matches_reference(result, kernel_program(job[1]), self.storages[job[0]]):
                self.mismatches += 1
            self.expected[job] = signature(result)
        return sum(expected[0] for expected in self.expected.values())


class FreshWorkload(_SessionWorkload):
    """Never-repeating generated programs compiled from source text."""

    name = "fresh"
    targets = ("ref", "tms320c25")
    window_ops = 64
    #: size of the fixed program set code_words is counted over
    fixed_programs = 25

    def jobs(self) -> Iterator:
        # Seeds 0..fixed_programs-1 are the fixed set; a run's programs
        # start at (seed + 1) * 1_000_003, so the two never overlap.  Each
        # program goes to one target, the targets taking turns: twice the
        # distinct programs per run of compiling each on both.
        index = 0
        while True:
            source = generate_source((self.seed + 1) * 1_000_003 + index)
            yield (self.targets[index % len(self.targets)], source)
            index += 1

    def run(self, job):
        target, source = job
        return self.sessions[target].compile(source, name="fresh")

    def check(self, job, output) -> bool:
        target, source = job
        return matches_reference(output, lower_to_program(source), self.storages[target])

    def job_key(self, job):
        return job[0]  # programs never repeat; compare per target

    def warm_up(self) -> int:
        words = 0
        for index in range(self.fixed_programs):
            source = generate_source(index)
            for target in self.targets:
                result = self.run((target, source))
                if not self.check((target, source), result):
                    self.mismatches += 1
                words += result.code_size
        return words


class RetargetWorkload(Workload):
    """Uncached retargeting of all six built-in HDL models."""

    name = "retarget"
    window_ops = 6

    def setup(self) -> None:
        registry = default_registry()
        self.sources = {name: registry.hdl_source(name) for name in registry}
        self.latest: Dict[str, object] = {}

    def jobs(self) -> Iterator:
        rng = random.Random(self.seed)
        names = sorted(self.sources)
        while True:
            rng.shuffle(names)
            yield from list(names)

    def run(self, job):
        return retarget(self.sources[job])

    def check(self, job, output) -> bool:
        self.latest[job] = output
        pinned = PINNED["retarget_counts"][job]
        return (
            output.template_count == pinned["extended_templates"]
            and len(output.grammar.rules) == pinned["grammar_rules"]
        )

    def warm_up(self) -> int:
        for name in sorted(self.sources):
            if not self.check(name, self.run(name)):
                self.mismatches += 1
        return self.code_words()

    def code_words(self) -> int:
        """The kernel mix compiled by the selectors the latest retargets
        generated, each output checked against reference execution."""
        registry = default_registry()
        words = 0
        for target in DSP_TARGETS:
            result = self.latest[target]
            session = Session(result, spec=registry.resolve(target))
            storages = memory_storages(result)
            for kernel in KERNELS:
                compiled = session.compile_kernel(kernel)
                if not matches_reference(compiled, kernel_program(kernel), storages):
                    self.mismatches += 1
                words += compiled.code_size
        return words

    def retarget_results(self) -> List:
        return [self.latest[name] for name in sorted(self.latest)]


class ServerWorkload(Workload):
    """The kernel mix as JSON jobs posted to ``repro serve``."""

    name = "server"
    window_ops = 4 * len(KERNELS) * len(DSP_TARGETS)
    prewarm = DSP_TARGETS

    def setup(self) -> None:
        self.server = ServerProcess.boot(self.work_dir, self.env, self.prewarm, cpus=ALL_CPUS)

    def _mix(self) -> List[tuple]:
        return [(target, kernel) for target in DSP_TARGETS for kernel in KERNELS]

    def jobs(self) -> Iterator:
        rng = random.Random(self.seed)
        mix = self._mix()
        while True:
            rng.shuffle(mix)
            yield from list(mix)

    def run(self, job):
        started = time.perf_counter()
        target, kernel = job
        body = json.dumps({"target": target, "kernel": kernel}).encode("utf-8")
        connection = http.client.HTTPConnection(self.server.host, self.server.port, timeout=60)
        try:
            connection.request(
                "POST", "/compile", body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            ttfb = time.perf_counter() - started
            payload = response.read()
        finally:
            connection.close()
        return response.status, payload, ttfb

    def envelope(self, output) -> Optional[dict]:
        status, payload, _ttfb = output
        if status != 200:
            return None
        envelope = json.loads(payload.decode("utf-8"))
        return envelope if envelope.get("ok") else None

    def check(self, job, output) -> bool:
        envelope = self.envelope(output)
        return (
            envelope is not None
            and envelope["result"]["metrics"]["code_size"] == self.expected[job]
        )

    def warm_up(self) -> int:
        """Expected code sizes come from in-process sessions whose outputs
        are checked against reference execution; one round through the
        server must reproduce them."""
        reference = KernelsWorkload(self.seed, self.work_dir, self.env)
        reference.setup()
        reference.warm_up()
        self.mismatches += reference.mismatches
        self.expected = {job: expected[0] for job, expected in reference.expected.items()}
        words = 0
        for job in self._mix():
            output = self.run(job)
            if not self.check(job, output):
                self.mismatches += 1
                continue
            words += self.envelope(output)["result"]["metrics"]["code_size"]
        return words

    def counts(self, output) -> Dict[str, float]:
        status, payload, ttfb = output
        envelope = self.envelope(output) or {}
        elapsed = float(envelope.get("elapsed_s", 0.0))
        result = envelope.get("result") or {}
        timings = result.get("pass_timings", {})
        metrics = result.get("metrics", {})
        return {
            "server.ttfb_ms": ttfb * 1e3,
            "service.elapsed_ms": elapsed * 1e3,
            "server.overhead_ms": (ttfb - elapsed) * 1e3,
            "server.response_kb": len(payload) / 1024.0,
            "codegen.schedule_us": timings.get("schedule", 0.0) * 1e6,
            "codegen.spill_us": timings.get("spill", 0.0) * 1e6,
            "codegen.compact_us": timings.get("compact", 0.0) * 1e6,
            "opt.nodes_in": metrics.get("opt_nodes_before", 0),
            "opt.nodes_out": metrics.get("opt_nodes_after", 0),
            "selector.nodes_labelled": metrics.get("nodes_labelled", 0),
            "codegen.rts": metrics.get("operation_count", 0),
            "codegen.spills": metrics.get("spill_count", 0),
        }

    def scrape(self) -> Dict[str, float]:
        """Counters from the server's Prometheus ``/metrics``."""
        connection = http.client.HTTPConnection(self.server.host, self.server.port, timeout=60)
        try:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode("utf-8")
        finally:
            connection.close()
        totals: Dict[str, float] = {}
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            name, _, value = line.rpartition(" ")
            family = name.split("{", 1)[0]
            totals[family] = totals.get(family, 0.0) + float(value)
        return totals

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in self.server.pids())

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.close()


class ServerProcess:
    """One ``repro serve`` process (process backend, one worker)."""

    def __init__(self, process, host: str, port: int):
        self.process = process
        self.host = host
        self.port = port

    @classmethod
    def boot(cls, work_dir: str, env: Dict[str, str], prewarm, cpus=None) -> "ServerProcess":
        """Start a server on an ephemeral port and return once ``/healthz``
        answers 200.  ``cpus`` replaces the CPU affinity it would inherit."""
        cache_dir = fresh_dir(work_dir, "server-cache")
        stderr = open(os.path.join(cache_dir, "server.stderr"), "wb")
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--backend", "process", "--workers", "1",
            "--prewarm", ",".join(prewarm), "--cache-dir", cache_dir,
        ]
        process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=stderr, cwd=work_dir,
            preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
        )
        stderr.close()
        server = cls(process, "127.0.0.1", 0)
        try:
            line = process.stdout.readline().decode("utf-8", "replace")
            if not line.startswith("serving on http://"):
                raise RuntimeError("server did not start: %r" % line)
            server.port = int(line.split()[2].rsplit(":", 1)[1].rstrip("/"))
            server.wait_healthy()
        except BaseException:
            server.close()
            raise
        return server

    def wait_healthy(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                connection = http.client.HTTPConnection(self.host, self.port, timeout=10)
                try:
                    connection.request("GET", "/healthz")
                    if connection.getresponse().status == 200:
                        return
                finally:
                    connection.close()
            except OSError:
                pass
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError("server on port %d never became healthy" % self.port)
            time.sleep(0.01)

    def pids(self) -> List[int]:
        """The server process and its compile workers."""
        return [self.process.pid] + child_pids(self.process.pid)

    def close(self) -> None:
        """Interrupt the server (it closes its workers), wait for it and
        for every worker to end."""
        workers = child_pids(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        deadline = time.monotonic() + 10
        while workers and time.monotonic() < deadline:
            workers = [pid for pid in workers if pid_alive(pid)]
            time.sleep(0.02)
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


def fresh_dir(parent: str, prefix: str) -> str:
    import tempfile

    return tempfile.mkdtemp(prefix=prefix + "-", dir=parent)


def child_pids(parent: int) -> List[int]:
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == parent:
            children.append(int(entry))
    return children


def pid_alive(pid: int) -> bool:
    try:
        with open("/proc/%d/stat" % pid) as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of one process, in MB."""
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


WORKLOADS = {
    workload.name: workload
    for workload in (KernelsWorkload, FreshWorkload, RetargetWorkload, ServerWorkload)
}
