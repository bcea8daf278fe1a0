"""Pinned emitted bytes.

What the compiler emits is compared against ``emitted_bytes.json``:

* the 16 DSPStone kernels on demo, ref and tms320c25, under the full,
  conventional and no-opt presets;
* generated programs on ref and tms320c25 under the full preset: the
  default profile's seeds 0-24 (``fresh``'s fixed set) and 125, and the
  loops profile's seeds 0-24, 125 and 194, the programs on which
  rotation, strength reduction and loop-invariant code motion fire.

Every compile runs the encode pass.  Each entry is one line: ``code``, a
SHA-256 digest of the listing and the encoding, and the pinned metrics in
clear, so a change to the metrics alone reads as such in a diff.  A
generated program that a target refuses is pinned as its error type.

After an intended output change, regenerate the file and review what it
reports (entries added, removed and changed, and for each changed entry
whether its code or only its metrics changed)::

    PYTHONPATH=src python tests/test_emitted_bytes.py
"""

import hashlib
import json
import os

import pytest

from repro.diagnostics import ReproError
from repro.dspstone.kernels import all_kernel_names, loop_kernel_names
from repro.fuzz.generator import GENERATOR_PROFILES, generate_source
from repro.toolchain import PipelineConfig, Session

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "emitted_bytes.json")

TARGETS = ("demo", "ref", "tms320c25")
PRESETS = ("full", "conventional", "no-opt")
KERNELS = tuple(all_kernel_names() + loop_kernel_names())

#: ``(profile, seed)`` of the pinned generated programs.
GENERATED = (
    tuple(("default", seed) for seed in range(25))
    + (("default", 125),)
    + tuple(("loops", seed) for seed in range(25))
    + (("loops", 125), ("loops", 194))
)
GENERATED_TARGETS = ("ref", "tms320c25")

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


def pinned_entry(result) -> dict:
    """``code``: the digest of the listing and encoding; then the metrics."""
    code = json.dumps({"listing": result.listing(), "encoding": result.encoding}, sort_keys=True)
    entry = {"code": hashlib.sha256(code.encode("utf-8")).hexdigest()}
    metrics = result.metrics.to_dict()
    entry.update((name, metrics[name]) for name in METRICS)
    return entry


def _session(retarget_result, preset: str) -> Session:
    return Session(retarget_result, config=PipelineConfig.preset(preset).with_updates(encode=True))


def kernel_entries(retarget_result, target: str, preset: str) -> dict:
    """Entry name (``target/preset/kernel``) -> pinned entry."""
    session = _session(retarget_result, preset)
    return {
        "%s/%s/%s" % (target, preset, kernel): pinned_entry(session.compile_kernel(kernel))
        for kernel in KERNELS
    }


def generated_entries(retarget_result, target: str) -> dict:
    """Entry name (``target/full/<profile>_seed<n>``) -> pinned entry, or
    ``{"error": <error type>}`` for a program the target refuses."""
    session = _session(retarget_result, "full")
    entries = {}
    for profile, seed in GENERATED:
        name = "%s/full/%s_seed%d" % (target, profile, seed)
        source = generate_source(seed, GENERATOR_PROFILES[profile])
        try:
            entries[name] = pinned_entry(session.compile(source, name=name))
        except ReproError as error:
            entries[name] = {"error": type(error).__name__}
    return entries


@pytest.fixture(scope="module")
def pinned():
    with open(PINS_PATH) as handle:
        return json.load(handle)


def _assert_pinned(got: dict, pinned: dict) -> None:
    changed = sorted(name for name, entry in got.items() if pinned.get(name) != entry)
    assert not changed, "emitted bytes differ from %s: %s" % (
        os.path.basename(PINS_PATH),
        "; ".join("%s: %s != %s" % (name, got[name], pinned.get(name)) for name in changed),
    )


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("target", TARGETS)
def test_emitted_bytes_match_the_pinned_digests(retarget_results, pinned, target, preset):
    _assert_pinned(kernel_entries(retarget_results[target], target, preset), pinned)


@pytest.mark.parametrize("target", GENERATED_TARGETS)
def test_generated_programs_match_the_pinned_entries(retarget_results, pinned, target):
    _assert_pinned(generated_entries(retarget_results[target], target), pinned)


def test_every_pinned_entry_is_compared(pinned):
    expected = {
        "%s/%s/%s" % (target, preset, kernel)
        for target in TARGETS
        for preset in PRESETS
        for kernel in KERNELS
    } | {
        "%s/full/%s_seed%d" % (target, profile, seed)
        for target in GENERATED_TARGETS
        for profile, seed in GENERATED
    }
    assert set(pinned) == expected


def write_pins(table: dict) -> None:
    """One entry per line, sorted by name."""
    lines = [
        "%s: %s" % (json.dumps(name), json.dumps(table[name], sort_keys=True))
        for name in sorted(table)
    ]
    with open(PINS_PATH, "w") as handle:
        handle.write("{\n " + ",\n ".join(lines) + "\n}\n")


def describe_changes(old: dict, new: dict) -> list:
    """One line per entry added, removed or changed, then a count line."""
    added = sorted(set(new) - set(old))
    removed = sorted(set(old) - set(new))
    code_changed, metrics_changed = [], []
    for name in sorted(set(old) & set(new)):
        before, after = old[name], new[name]
        if before == after:
            continue
        if "code" in before and before.get("code") == after.get("code"):
            fields = sorted(key for key in after if before.get(key) != after[key])
            moves = ", ".join("%s %s -> %s" % (key, before.get(key), after[key]) for key in fields)
            metrics_changed.append("metrics only  %s: %s" % (name, moves))
        else:
            code_changed.append("code changed  %s" % name)
    lines = ["added         %s" % name for name in added]
    lines += ["removed       %s" % name for name in removed]
    lines += code_changed + metrics_changed
    lines.append(
        "%d added, %d removed, %d with changed code, %d with changed metrics only, %d unchanged"
        % (
            len(added),
            len(removed),
            len(code_changed),
            len(metrics_changed),
            len(set(old) & set(new)) - len(code_changed) - len(metrics_changed),
        )
    )
    return lines


if __name__ == "__main__":
    from repro.record.retarget import retarget
    from repro.toolchain import default_registry

    table: dict = {}
    for target_name in TARGETS:
        retargeted = retarget(default_registry().hdl_source(target_name))
        for preset_name in PRESETS:
            table.update(kernel_entries(retargeted, target_name, preset_name))
        if target_name in GENERATED_TARGETS:
            table.update(generated_entries(retargeted, target_name))
    try:
        with open(PINS_PATH) as existing:
            previous = json.load(existing)
    except (OSError, ValueError):
        previous = {}
    for line in describe_changes(previous, table):
        print(line)
    write_pins(table)
    print("wrote %d entries to %s" % (len(table), PINS_PATH))
