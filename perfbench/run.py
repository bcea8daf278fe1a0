#!/usr/bin/env python3
"""Seeded benchmark of the RECORD reproduction: warm DSPStone compiles,
fresh generated programs, cold retargeting and HTTP serving.

Run it from the repository root::

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run and writes a
Chrome trace that ``python -m repro trace FILE`` renders.  Human-readable
lines (environment, raw times, sample counts) come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 only
when every output check passed.  Times are stated at the reference host
speed (see perfbench/speed.py).  BENCHMARK.json names the metrics and
workloads; perfbench/LAYERS.md maps each layer to the end-to-end metric
it moves.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from speed import probe_rate, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build")

WORKLOAD_NAMES = ("kernels", "fresh", "retarget", "server")

#: Set-up samples per run, each in a fresh interpreter (or a fresh server),
#: spread between the segments of the timed section; setup_s is their median.
SETUP_SAMPLES = 5

#: Wall seconds of operations per block, and of the host-speed probe
#: after each block (and around each set-up sample).
BLOCK_S = 0.2
PROBE_S = 0.03
SETUP_PROBE_S = 0.1

#: Environment variables that change what a compile does or where it
#: writes: the verifier switch, fault injection, logging, the cache.
HERMETIC_UNSET = (
    "REPRO_VERIFY",
    "REPRO_INJECT_FAULT",
    "REPRO_LOG",
    "REPRO_LOG_FILE",
    "REPRO_CACHE_DIR",
    "PYTHONPATH",
)

#: Operations recorded under one tracer for the exported Chrome trace.
EXPORT_OPS = 12


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def hermetic_env(work_dir: str) -> dict:
    """The environment of this process and every process it starts."""
    env = {key: value for key, value in os.environ.items() if key not in HERMETIC_UNSET}
    temp_dir = os.path.join(work_dir, "tmp")
    os.makedirs(temp_dir, exist_ok=True)
    env["TMPDIR"] = temp_dir
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
    return env


def commit_id() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def setup_probe(workload_name: str) -> int:
    """Child mode: do one workload's set-up in this fresh interpreter."""
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](0, os.environ["TMPDIR"], dict(os.environ))
    workload.setup()
    print("ready", flush=True)
    workload.close()
    return 0


def setup_sample(workload, env: dict):
    """``(scaled, raw)`` seconds from launch until a fresh interpreter (for
    ``server``: a fresh ``repro serve``) can serve its first operation,
    with an empty cache."""
    sample_dir = tempfile.mkdtemp(prefix="setup-", dir=workload.work_dir)
    sample_env = dict(env)
    sample_env["REPRO_CACHE_DIR"] = os.path.join(sample_dir, "cache")
    sample_env["TMPDIR"] = sample_dir
    rate_before = probe_rate(SETUP_PROBE_S)
    if workload.name == "server":
        from workloads import ServerProcess

        started = time.perf_counter()
        server = ServerProcess.boot(sample_dir, sample_env, workload.prewarm)
        elapsed = time.perf_counter() - started
        server.close()
    else:
        command = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
                   "--workload", workload.name]
        started = time.perf_counter()
        child = subprocess.Popen(command, env=sample_env, stdout=subprocess.PIPE, cwd=ROOT)
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.close()
        if child.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe of %s failed" % workload.name)
    return elapsed * scale(rate_before, probe_rate(SETUP_PROBE_S)), elapsed


class TimedSection:
    """Closed-loop operations in short blocks, each followed by a probe of
    the host's speed.

    Only ``workload.run`` is timed.  Drawing the next input, checking the
    output and the probes happen between timestamps.  Each latency is
    kept raw and scaled to the reference speed by the probes on either
    side of its block.  With ``tracing`` every other block runs each
    operation under its own tracer, folds its layer self times into
    ``totals`` and shows its output to ``observe(job, output, factor)``;
    the blocks between are the untraced baseline of the same run.
    """

    def __init__(self, workload, tracing: bool = False, observe=None):
        from layers import LayerTotals

        self.workload = workload
        self.jobs = workload.jobs()
        self.tracing = tracing
        self.observe = observe
        self.totals = LayerTotals()
        self.latencies = []
        self.raw_latencies = []
        self.traced_latencies = []
        #: job key -> scaled latencies, of traced and of untraced blocks
        self.by_key = ({}, {})
        self.window_rates = []
        self.failed = 0
        self._window = [0, 0.0]
        self._pending = []
        self._traced_block = False
        self._rate = probe_rate(PROBE_S)

    def run(self, seconds: float, segments: int = 1, between=None) -> None:
        per_segment = seconds / segments
        for segment in range(segments):
            if segment and between is not None:
                between()
                self._rate = probe_rate(PROBE_S)
            stop = time.perf_counter() + per_segment
            while time.perf_counter() < stop:
                self._traced_block = self.tracing and not self._traced_block
                block_end = min(stop, time.perf_counter() + BLOCK_S)
                while time.perf_counter() < block_end:
                    self._step()
                self._flush()

    def _step(self) -> None:
        from layers import traced_call
        from repro.obs.trace import Tracer

        job = next(self.jobs)
        tracer = Tracer(name="perfbench") if self._traced_block else None
        started = time.perf_counter()
        try:
            if tracer is None:
                output = self.workload.run(job)
            else:
                output = traced_call(tracer, self.workload.run, job)
        except Exception:
            output = None
        elapsed = time.perf_counter() - started
        if output is not None and not self.workload.check(job, output):
            output = None
        self._pending.append((job, output, elapsed, tracer))

    def _flush(self) -> None:
        rate = probe_rate(PROBE_S)
        factor = scale(self._rate, rate)
        self._rate = rate
        for job, output, elapsed, tracer in self._pending:
            scaled = elapsed * factor
            self.raw_latencies.append(elapsed)
            self.latencies.append(scaled)
            if output is None:
                self.failed += 1
            if self.tracing:
                side = self.by_key[tracer is None]
                side.setdefault(self.workload.job_key(job), []).append(scaled)
            if tracer is not None:
                self.totals.add(tracer, factor)
                self.traced_latencies.append(scaled)
                if output is not None and self.observe is not None:
                    self.observe(job, output, factor)
            self._window[0] += 1
            self._window[1] += scaled
            if self._window[0] == self.workload.window_ops:
                self.window_rates.append(self._window[0] / self._window[1])
                self._window = [0, 0.0]
        self._pending = []

    def trace_overhead(self) -> float:
        """Traced over untraced time of the same jobs (by job key), minus 1."""
        traced, untraced = self.by_key
        spent = expected = 0.0
        for key, times in traced.items():
            if key in untraced:
                spent += sum(times)
                expected += len(times) * statistics.fmean(untraced[key])
        return spent / expected - 1.0 if expected else 0.0

    def ops_per_s(self) -> float:
        rates = list(self.window_rates)
        count, busy = self._window
        if busy and (count * 2 >= self.workload.window_ops or not rates):
            rates.append(count / busy)
        return statistics.median(rates)


def percentile(values, fraction: float) -> float:
    """The ``fraction`` quantile (inclusive method) of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def end_to_end(workload, seconds: float, env: dict):
    """The untraced run: every end-to-end metric."""
    setup_sample(workload, env)  # unmeasured: fills byte-code and page caches
    workload.setup()
    code_words = workload.warm_up()
    setups = []
    section = TimedSection(workload)
    section.run(
        seconds,
        segments=SETUP_SAMPLES + 1,
        between=lambda: setups.append(setup_sample(workload, env)),
    )
    latencies, raw = section.latencies, section.raw_latencies
    print("raw (host speed): latency p50 %.4f ms, p90 %.4f ms, setup %.4f s; "
          "host at %.2f of reference speed" % (
              percentile(raw, 0.5) * 1e3, percentile(raw, 0.9) * 1e3,
              statistics.median(sample[1] for sample in setups),
              sum(latencies) / sum(raw)))
    metrics = {
        "ops_per_s": (section.ops_per_s(), "ops/s", len(section.window_rates)),
        "latency_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms", len(latencies)),
        "latency_p90_ms": (percentile(latencies, 0.90) * 1e3, "ms", len(latencies)),
        "code_words": (code_words, "words", 1),
        "setup_s": (statistics.median(sample[0] for sample in setups), "s", len(setups)),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB", 1),
    }
    return section, metrics


#: Time-valued per-operation counts (scaled like latencies).
_TIMED_COUNTS = ("_ms", "_us", "_s")


def traced(workload, seconds: float):
    """The traced run: per-layer self times and counts of the traced
    blocks, and the cost of tracing against the untraced blocks between
    them.  The wrappers stay installed for both kinds of block."""
    from layers import COMPILE_LAYERS, RETARGET_LAYERS, Instrumentation, LayerTotals, traced_call
    from repro.obs.trace import Tracer, use_tracer
    setup_totals = LayerTotals()
    setup_tracer = Tracer(name="perfbench-setup")
    rate_before = probe_rate(SETUP_PROBE_S)
    with Instrumentation():
        with use_tracer(setup_tracer):
            workload.setup()
    setup_totals.add(setup_tracer, scale(rate_before, probe_rate(SETUP_PROBE_S)))
    workload.warm_up()

    counts = {}

    def observe(job, output, factor):
        for key, value in workload.counts(output).items():
            if key.endswith(_TIMED_COUNTS):
                value *= factor
            counts[key] = counts.get(key, 0.0) + value

    selectors = workload.selectors()
    memo_before = [(s.memo_hits, s.memo_misses) for s in selectors]
    section = TimedSection(workload, tracing=True, observe=observe)
    with Instrumentation() as instrumentation:
        section.run(seconds)
        tokens = instrumentation.tokens
        export = Tracer(name="perfbench-%s" % workload.name)
        for job in (next(section.jobs) for _ in range(EXPORT_OPS)):
            try:
                output = traced_call(export, workload.run, job)
            except Exception:
                output = None
            workload.mismatches += output is None or not workload.check(job, output)
    trace_path = os.path.join(BUILD_DIR, "perfbench-trace-%s.json" % workload.name)
    export.write_chrome_trace(trace_path, process_name="perfbench %s" % workload.name)
    print("chrome trace: %s (render: python -m repro trace FILE)" % trace_path)

    ops = len(section.traced_latencies)
    totals = section.totals
    metrics = {}
    for layer, value in totals.per_event(COMPILE_LAYERS, ops, 1e6).items():
        metrics[layer + "_us"] = (value, "us")
    for key in ("codegen.schedule_us", "codegen.spill_us", "codegen.compact_us"):
        if key in counts:  # server: the worker's own pass timings
            metrics[key] = (counts[key] / ops, "us")

    retargets = setup_totals.counts["retarget:hdl_frontend"] + totals.counts["retarget:hdl_frontend"]
    for layer in RETARGET_LAYERS:
        spent = setup_totals.seconds.get(layer, 0.0) + totals.seconds.get(layer, 0.0)
        metrics[layer + "_ms"] = (spent * 1e3 / retargets if retargets else 0.0, "ms")
    sessions = setup_totals.counts["toolchain.session"]
    metrics["toolchain.session_ms"] = (
        setup_totals.seconds.get("toolchain.session", 0.0) * 1e3 / sessions if sessions else 0.0,
        "ms",
    )
    distinct = workload.retarget_results()
    metrics["ise.templates"] = (sum(r.raw_template_count for r in distinct), "count")
    metrics["expansion.templates"] = (sum(r.template_count for r in distinct), "count")
    metrics["grammar.rules"] = (sum(len(r.grammar.rules) for r in distinct), "count")

    # The lexer wrapper counts in traced and untraced blocks alike.
    metrics["frontend.tokens"] = (tokens / len(section.latencies), "count")
    for key in ("opt.nodes_in", "opt.nodes_out", "selector.nodes_labelled",
                "codegen.rts", "codegen.spills"):
        metrics[key] = (counts.get(key, 0.0) / ops, "count")
    hits = sum(s.memo_hits - before[0] for s, before in zip(selectors, memo_before))
    misses = sum(s.memo_misses - before[1] for s, before in zip(selectors, memo_before))
    memo_rate = hits / (hits + misses) if hits + misses else 0.0
    scraped = workload.scrape() if workload.name == "server" else {}
    if scraped:
        memo_rate = scraped.get("repro_label_memo_hit_rate", 0.0)
    metrics["selector.memo_hit_rate"] = (memo_rate, "ratio")
    for key in ("server.ttfb_ms", "service.elapsed_ms", "server.overhead_ms"):
        metrics[key] = (counts.get(key, 0.0) / ops, "ms")
    metrics["server.response_kb"] = (counts.get("server.response_kb", 0.0) / ops, "KB")
    metrics["server.rejected"] = (scraped.get("repro_http_rejected_total", 0.0), "count")
    metrics["backend.respawns"] = (scraped.get("repro_worker_respawns_total", 0.0), "count")

    traced_mean = statistics.fmean(section.traced_latencies)
    if workload.name == "server":
        # Nothing is traced inside the server: what remains after the
        # response headers (reading the body) is the unattributed part.
        unattributed = traced_mean - counts.get("server.ttfb_ms", 0.0) / ops / 1e3
    else:
        unattributed = totals.seconds.get("unattributed", 0.0) / ops
    metrics["unattributed_us"] = (unattributed * 1e6, "us")
    metrics["unattributed_share"] = (unattributed / traced_mean, "ratio")
    metrics["trace.overhead_pct"] = (section.trace_overhead() * 100.0, "%")
    return section, {name: (value, unit, ops) for name, (value, unit) in metrics.items()}


def pin_to_one_cpu() -> None:
    """Keep this process, and the set-up samples it starts, on the CPU it
    runs on now: the probes must time the CPU the measured work runs on,
    and the two vCPUs of a shared host change speed independently."""
    with open("/proc/self/stat") as handle:
        cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def measure(args, work_dir: str, env: dict):
    from workloads import WORKLOADS

    pin_to_one_cpu()
    workload = WORKLOADS[args.workload](args.seed, work_dir, env)
    try:
        if args.trace:
            section, metrics = traced(workload, args.seconds)
        else:
            section, metrics = end_to_end(workload, args.seconds, env)
    finally:
        workload.close()
    return workload, section, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no program under %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.setup_probe:
        return setup_probe(args.workload)
    # On SIGTERM, unwind so the servers and work directory are cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(BUILD_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="perfbench-", dir=BUILD_DIR)
    try:
        env = hermetic_env(work_dir)
        os.environ.clear()
        os.environ.update(env)
        tempfile.tempdir = env["TMPDIR"]
        print("python %s, nproc %d, seed %d, commit %s, workload %s, trace %d" % (
            platform.python_version(), os.cpu_count() or 0, args.seed, commit_id(),
            args.workload, args.trace))
        workload, section, metrics = measure(args, work_dir, env)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = len(section.raw_latencies)
    failed = section.failed + workload.mismatches
    for name, (value, unit, samples) in metrics.items():
        print("%-32s %14.4f %-6s n=%d" % (name, value, unit, samples))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _samples) in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
