"""The DSPStone kernels: the paper's ten unrolled blocks plus loop forms.

Each figure-2 kernel is the straight-line basic block of the corresponding
DSPStone benchmark (loop bodies unrolled to a fixed, documented size),
written in the reproduction's C-like source language.  The fixed sizes are
recorded in ``Kernel.parameters`` so the benchmark harness and the
hand-written reference sizes agree on the workload.

The *loop-form* kernels (``fir_loop``, ``dot_product_loop``, ...) express
the same computations as real ``while`` / ``do``-``while`` loops over an
induction variable with runtime array indexing -- the shape the original
DSPStone sources have before unrolling.  Every loop kernel names its
``unrolled`` counterpart; at the documented trip count the two must
simulate observably equal, which the test suite checks on every target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.diagnostics import KernelError
from repro.frontend.lowering import lower_to_program
from repro.ir.program import Program


@dataclass(frozen=True)
class Kernel:
    """One DSPStone kernel: name, source text and workload parameters.

    ``unrolled`` names the straight-line counterpart of a loop-form
    kernel (``None`` for the unrolled kernels themselves).
    """

    name: str
    source: str
    description: str
    parameters: Dict[str, int] = field(default_factory=dict)
    unrolled: Optional[str] = None


def _real_update() -> Kernel:
    source = """
    int a, b, c, d;
    d = c + a * b;
    """
    return Kernel(
        name="real_update",
        source=source,
        description="single real update d = c + a * b",
    )


def _complex_multiply() -> Kernel:
    source = """
    int ar, ai, br, bi, cr, ci;
    cr = ar * br - ai * bi;
    ci = ar * bi + ai * br;
    """
    return Kernel(
        name="complex_multiply",
        source=source,
        description="complex multiplication (c = a * b)",
    )


def _complex_update() -> Kernel:
    source = """
    int ar, ai, br, bi, cr, ci, dr, di;
    dr = cr + ar * br - ai * bi;
    di = ci + ar * bi + ai * br;
    """
    return Kernel(
        name="complex_update",
        source=source,
        description="complex update d = c + a * b",
    )


def _n_real_updates(n: int = 4) -> Kernel:
    lines = ["int a[%d], b[%d], c[%d], d[%d];" % (n, n, n, n)]
    for i in range(n):
        lines.append("d[%d] = c[%d] + a[%d] * b[%d];" % (i, i, i, i))
    return Kernel(
        name="n_real_updates",
        source="\n".join(lines),
        description="N real updates d[i] = c[i] + a[i] * b[i]",
        parameters={"N": n},
    )


def _n_complex_updates(n: int = 2) -> Kernel:
    lines = [
        "int ar[%d], ai[%d], br[%d], bi[%d], cr[%d], ci[%d], dr[%d], di[%d];"
        % (n, n, n, n, n, n, n, n)
    ]
    for i in range(n):
        lines.append(
            "dr[%d] = cr[%d] + ar[%d] * br[%d] - ai[%d] * bi[%d];" % (i, i, i, i, i, i)
        )
        lines.append(
            "di[%d] = ci[%d] + ar[%d] * bi[%d] + ai[%d] * br[%d];" % (i, i, i, i, i, i)
        )
    return Kernel(
        name="n_complex_updates",
        source="\n".join(lines),
        description="N complex updates d[i] = c[i] + a[i] * b[i]",
        parameters={"N": n},
    )


def _fir(taps: int = 8) -> Kernel:
    lines = ["int x[%d], h[%d], y;" % (taps, taps)]
    terms = " + ".join("x[%d] * h[%d]" % (i, i) for i in range(taps))
    lines.append("y = %s;" % terms)
    return Kernel(
        name="fir",
        source="\n".join(lines),
        description="FIR filter inner block (%d taps)" % taps,
        parameters={"taps": taps},
    )


def _biquad_one() -> Kernel:
    source = """
    int x, y, w, w1, w2, a1, a2, b0, b1, b2;
    w = x - a1 * w1 - a2 * w2;
    y = b0 * w + b1 * w1 + b2 * w2;
    """
    return Kernel(
        name="biquad_one",
        source=source,
        description="one biquad IIR section (direct form II)",
    )


def _biquad_n(sections: int = 4) -> Kernel:
    n = sections
    lines = [
        "int x, y%d;" % (n - 1),
        "int w[%d], w1[%d], w2[%d], a1[%d], a2[%d], b0[%d], b1[%d], b2[%d], s[%d];"
        % (n, n, n, n, n, n, n, n, n),
    ]
    previous = "x"
    for i in range(n):
        lines.append(
            "w[%d] = %s - a1[%d] * w1[%d] - a2[%d] * w2[%d];" % (i, previous, i, i, i, i)
        )
        # The last section writes the kernel output directly; inner sections
        # feed the next section through s[i].
        target = "y%d" % (n - 1) if i == n - 1 else "s[%d]" % i
        lines.append(
            "%s = b0[%d] * w[%d] + b1[%d] * w1[%d] + b2[%d] * w2[%d];"
            % (target, i, i, i, i, i, i)
        )
        previous = "s[%d]" % i
    return Kernel(
        name="biquad_n",
        source="\n".join(lines),
        description="cascade of N biquad IIR sections",
        parameters={"sections": n},
    )


def _dot_product(n: int = 4) -> Kernel:
    lines = ["int a[%d], b[%d], z;" % (n, n)]
    terms = " + ".join("a[%d] * b[%d]" % (i, i) for i in range(n))
    lines.append("z = %s;" % terms)
    return Kernel(
        name="dot_product",
        source="\n".join(lines),
        description="dot product of two N-vectors",
        parameters={"N": n},
    )


def _convolution(n: int = 8) -> Kernel:
    lines = ["int x[%d], h[%d], y;" % (n, n)]
    terms = " + ".join("x[%d] * h[%d]" % (i, n - 1 - i) for i in range(n))
    lines.append("y = %s;" % terms)
    return Kernel(
        name="convolution",
        source="\n".join(lines),
        description="convolution sum of length N",
        parameters={"N": n},
    )


# ---------------------------------------------------------------------------
# Loop-form kernels: the pre-unrolling DSPStone shapes (while / do-while
# loops, runtime array indexing).  Trip counts match the unrolled
# counterparts so the two forms simulate observably equal.
# ---------------------------------------------------------------------------


def _fir_loop(taps: int = 8) -> Kernel:
    source = """
    int x[%d], h[%d], y, i;
    y = 0;
    i = 0;
    while (i < %d) {
        y = y + x[i] * h[i];
        i = i + 1;
    }
    """ % (taps, taps, taps)
    return Kernel(
        name="fir_loop",
        source=source,
        description="FIR filter inner loop (%d taps, runtime indexing)" % taps,
        parameters={"taps": taps},
        unrolled="fir",
    )


def _dot_product_loop(n: int = 4) -> Kernel:
    source = """
    int a[%d], b[%d], z, i;
    z = 0;
    i = 0;
    while (i < %d) {
        z = z + a[i] * b[i];
        i = i + 1;
    }
    """ % (n, n, n)
    return Kernel(
        name="dot_product_loop",
        source=source,
        description="dot product of two N-vectors as a while loop",
        parameters={"N": n},
        unrolled="dot_product",
    )


def _convolution_loop(n: int = 8) -> Kernel:
    source = """
    int x[%d], h[%d], y, i;
    y = 0;
    i = 0;
    while (i < %d) {
        y = y + x[i] * h[%d - i];
        i = i + 1;
    }
    """ % (n, n, n, n - 1)
    return Kernel(
        name="convolution_loop",
        source=source,
        description="convolution sum of length N with reversed coefficients",
        parameters={"N": n},
        unrolled="convolution",
    )


def _n_real_updates_loop(n: int = 4) -> Kernel:
    source = """
    int a[%d], b[%d], c[%d], d[%d], i;
    i = 0;
    while (i < %d) {
        d[i] = c[i] + a[i] * b[i];
        i = i + 1;
    }
    """ % (n, n, n, n, n)
    return Kernel(
        name="n_real_updates_loop",
        source=source,
        description="N real updates d[i] = c[i] + a[i] * b[i] as a while loop",
        parameters={"N": n},
        unrolled="n_real_updates",
    )


def _n_complex_updates_loop(n: int = 2) -> Kernel:
    source = """
    int ar[%d], ai[%d], br[%d], bi[%d], cr[%d], ci[%d], dr[%d], di[%d], i;
    i = 0;
    while (i < %d) {
        dr[i] = cr[i] + ar[i] * br[i] - ai[i] * bi[i];
        di[i] = ci[i] + ar[i] * bi[i] + ai[i] * br[i];
        i = i + 1;
    }
    """ % (n, n, n, n, n, n, n, n, n)
    return Kernel(
        name="n_complex_updates_loop",
        source=source,
        description="N complex updates d[i] = c[i] + a[i] * b[i] as a while loop",
        parameters={"N": n},
        unrolled="n_complex_updates",
    )


def _mac_dowhile(n: int = 4) -> Kernel:
    # The do-while form: DSPStone's inner MAC loops run at least once,
    # which is exactly the post-test shape.
    source = """
    int a[%d], b[%d], z, i;
    z = 0;
    i = 0;
    do {
        z = z + a[i] * b[i];
        i = i + 1;
    } while (i < %d);
    """ % (n, n, n)
    return Kernel(
        name="mac_dowhile",
        source=source,
        description="multiply-accumulate post-test (do-while) loop",
        parameters={"N": n},
        unrolled="dot_product",
    )


_KERNELS: Dict[str, Kernel] = {
    kernel.name: kernel
    for kernel in (
        _real_update(),
        _complex_multiply(),
        _complex_update(),
        _n_real_updates(),
        _n_complex_updates(),
        _fir(),
        _biquad_one(),
        _biquad_n(),
        _dot_product(),
        _convolution(),
        _fir_loop(),
        _dot_product_loop(),
        _convolution_loop(),
        _n_real_updates_loop(),
        _n_complex_updates_loop(),
        _mac_dowhile(),
    )
}

# The left-to-right order of figure 2 in the paper.
FIGURE2_ORDER: List[str] = [
    "real_update",
    "complex_multiply",
    "complex_update",
    "n_real_updates",
    "n_complex_updates",
    "fir",
    "biquad_one",
    "biquad_n",
    "dot_product",
    "convolution",
]

#: The loop-form kernels (each names its unrolled counterpart).
LOOP_KERNELS: List[str] = [
    "fir_loop",
    "dot_product_loop",
    "convolution_loop",
    "n_real_updates_loop",
    "n_complex_updates_loop",
    "mac_dowhile",
]


def all_kernel_names() -> List[str]:
    """Unrolled (figure-2) kernel names, in figure-2 order."""
    return list(FIGURE2_ORDER)


def loop_kernel_names() -> List[str]:
    """Loop-form kernel names."""
    return list(LOOP_KERNELS)


def get_kernel(name: str) -> Kernel:
    try:
        return _KERNELS[name]
    except KeyError:
        raise KernelError(
            "unknown kernel %r; available: %s"
            % (name, ", ".join(FIGURE2_ORDER + LOOP_KERNELS))
        )


#: Kernel name -> its lowered program, filled on first use (lowering at
#: import would slow down every ``import repro``).
_LOWERED: Dict[str, Program] = {}


def kernel_program(name: str) -> Program:
    """A kernel's IR program.

    The constant source is lexed, parsed and lowered once per process,
    and every call returns that one program: programs are frozen, so
    every caller can share it.
    """
    program = _LOWERED.get(name)
    if program is None:
        kernel = get_kernel(name)
        # setdefault: threads lowering one kernel at once share the first.
        program = _LOWERED.setdefault(
            name, lower_to_program(kernel.source, name=kernel.name)
        )
    return program
