"""Ablation benchmarks for the design choices the paper calls out.

Three mechanisms give RECORD its code quality on DSP kernels (sections 3
and 4): chained-operation templates discovered by instruction-set
extraction, the commutativity/rewrite extension of the template base, and
post-selection code compaction.  Each ablation disables one mechanism --
expressed as a :class:`repro.toolchain.PipelineConfig` preset -- and
measures the code-size impact on MAC-heavy DSPStone kernels.

Because restricted selectors are memoized per retargeting result, the
sessions below share grammar construction across rounds instead of paying
it once per compiler instance.
"""

from __future__ import annotations

import pytest

from repro.dspstone import kernel_program
from repro.expansion import ExpansionOptions
from repro.record.retarget import retarget
from repro.toolchain import PipelineConfig, Session, default_registry

_KERNELS = ["real_update", "fir", "biquad_one", "dot_product"]


def _total_code_size(session, kernels=_KERNELS):
    return sum(session.compile_program(kernel_program(name)).code_size for name in kernels)


@pytest.mark.parametrize("preset", ["full", "no-chained"])
def test_ablation_chained_templates(benchmark, tms_result, preset):
    """Chained multiply-accumulate templates on/off."""
    session = Session(tms_result, config=PipelineConfig.preset(preset))
    total = benchmark.pedantic(_total_code_size, args=(session,), rounds=3, iterations=1)
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["total_code_size_words"] = total
    assert total > 0


@pytest.mark.parametrize("preset", ["full", "no-compaction"])
def test_ablation_compaction(benchmark, tms_result, preset):
    """Code compaction on/off."""
    session = Session(tms_result, config=PipelineConfig.preset(preset))
    total = benchmark.pedantic(_total_code_size, args=(session,), rounds=3, iterations=1)
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["total_code_size_words"] = total
    assert total > 0


@pytest.mark.parametrize("use_expansion", [True, False], ids=["expansion", "no-expansion"])
def test_ablation_template_expansion(benchmark, use_expansion):
    """Commutativity / rewrite-rule expansion on/off.

    Expansion happens at retargeting time, so this ablation re-runs the
    retargeting flow with expansion disabled and compares template counts
    and code size.
    """
    options = ExpansionOptions(
        use_commutativity=use_expansion, use_rewrite_rules=use_expansion
    )

    def run():
        result = retarget(
            default_registry().hdl_source("tms320c25"), expansion=options, generate_matcher=False
        )
        session = Session(result)
        return result.template_count, _total_code_size(session)

    templates, total = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["use_expansion"] = use_expansion
    benchmark.extra_info["template_count"] = templates
    benchmark.extra_info["total_code_size_words"] = total
    assert total > 0


def test_ablation_chaining_increases_code_size(tms_result):
    """Sanity check on the ablation direction: removing chained templates
    must not decrease code size, and on MAC-heavy kernels it increases it."""
    full = Session(tms_result, config=PipelineConfig.preset("full"))
    restricted = Session(tms_result, config=PipelineConfig.preset("no-chained"))
    assert _total_code_size(restricted) > _total_code_size(full)


def test_ablation_compaction_never_hurts(tms_result):
    compacted = Session(tms_result, config=PipelineConfig.preset("full"))
    uncompacted = Session(tms_result, config=PipelineConfig.preset("no-compaction"))
    assert _total_code_size(compacted) <= _total_code_size(uncompacted)
