"""Pinned emitted bytes.

The listing, the binary encoding and the size metrics of the 16 DSPStone
kernels on demo, ref and tms320c25, under the full, conventional and
no-opt presets (each with the encode pass), are compared against the
SHA-256 digests committed in ``emitted_bytes.json``.  The other listing
tests compare two computations within one run; this one fails when a
change to the compiler changes what it emits.

After an intended output change, regenerate the digests and review the
entries that changed::

    PYTHONPATH=src python tests/test_emitted_bytes.py
"""

import hashlib
import json
import os

import pytest

from repro.dspstone.kernels import all_kernel_names, loop_kernel_names
from repro.toolchain import PipelineConfig, Session

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "emitted_bytes.json")

TARGETS = ("demo", "ref", "tms320c25")
PRESETS = ("full", "conventional", "no-opt")
KERNELS = tuple(all_kernel_names() + loop_kernel_names())

#: The metrics pinned with each listing.  Times and the label memo's hit
#: rate (which depends on what the session compiled before) are left out.
METRICS = (
    "code_size",
    "operation_count",
    "spill_count",
    "selection_cost",
    "statement_count",
    "nodes_labelled",
    "opt_nodes_before",
    "opt_nodes_after",
    "opt_folds",
    "opt_cse_hits",
    "opt_temps",
    "opt_gvn_hits",
    "opt_licm_hoisted",
    "opt_strength_reductions",
    "opt_hw_loops",
)


def entry_digest(result) -> str:
    metrics = result.metrics.to_dict()
    payload = {
        "listing": result.listing(),
        "encoding": result.encoding,
        "metrics": {name: metrics[name] for name in METRICS},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def digests(retarget_result, target: str, preset: str) -> dict:
    """Entry name (``target/preset/kernel``) -> digest."""
    config = PipelineConfig.preset(preset).with_updates(encode=True)
    session = Session(retarget_result, config=config)
    return {
        "%s/%s/%s" % (target, preset, kernel): entry_digest(session.compile_kernel(kernel))
        for kernel in KERNELS
    }


@pytest.fixture(scope="module")
def pinned():
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("target", TARGETS)
def test_emitted_bytes_match_the_pinned_digests(retarget_results, pinned, target, preset):
    got = digests(retarget_results[target], target, preset)
    changed = sorted(entry for entry, digest in got.items() if pinned.get(entry) != digest)
    assert not changed, "emitted bytes differ from %s: %s" % (
        os.path.basename(DIGESTS_PATH),
        ", ".join(changed),
    )


if __name__ == "__main__":
    from repro.record.retarget import retarget
    from repro.toolchain import default_registry

    table: dict = {}
    for name in TARGETS:
        retargeted = retarget(default_registry().hdl_source(name))
        for preset_name in PRESETS:
            table.update(digests(retargeted, name, preset_name))
    with open(DIGESTS_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %d digests to %s" % (len(table), DIGESTS_PATH))
