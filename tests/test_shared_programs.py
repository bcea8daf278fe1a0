"""Frozen IR programs shared between threads.

Every compile of a DSPStone kernel by name reads the one program
:func:`repro.dspstone.kernel_program` lowered, and a thread backend
shares one session per target between its workers.  Here four threads
compile the sixteen kernels on three targets at once, through one
session per target and the shared kernel programs: every listing must
equal the sequential one, and no shared program may change.  CI also
runs this file under ``python -X dev``."""

from __future__ import annotations

import sys
import threading

from repro.dspstone import all_kernel_names, kernel_program, loop_kernel_names
from repro.toolchain import Session

THREADS = 4
TARGETS = ("demo", "ref", "tms320c25")


def test_threads_share_sessions_and_kernel_programs(retarget_results):
    kernels = list(all_kernel_names()) + list(loop_kernel_names())
    programs = {kernel: kernel_program(kernel) for kernel in kernels}
    before = {kernel: repr(program) for kernel, program in programs.items()}
    sessions = {target: Session(retarget_results[target]) for target in TARGETS}
    expected = {
        (target, kernel): sessions[target].compile_kernel(kernel).listing()
        for target in TARGETS
        for kernel in kernels
    }
    jobs = list(expected)
    listings = [{} for _ in range(THREADS)]
    errors = []
    barrier = threading.Barrier(THREADS, timeout=60)

    def work(index):
        try:
            barrier.wait()
            # Each thread starts at another job, so the threads compile
            # different kernels of one session at the same time.
            start = index * len(jobs) // THREADS
            for target, kernel in jobs[start:] + jobs[:start]:
                listings[index][target, kernel] = (
                    sessions[target].compile_kernel(kernel).listing()
                )
        except Exception as error:  # reported below, with the thread's index
            errors.append((index, error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(index,)) for index in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for got in listings:
        assert got == expected
    for kernel, program in programs.items():
        assert kernel_program(kernel) is program
        assert repr(program) == before[kernel], kernel
