"""Baselines for the code-quality experiment (figure 2).

The paper compares RECORD against the TMS320C25's target-specific C
compiler and against hand-written assembly.  Neither is available here, so
we substitute:

* a *conventional compiler* baseline: the same infrastructure with the
  features the paper attributes to RECORD turned off -- no chained-operation
  templates, no commutativity/rewrite expansion, no clobber-aware
  scheduling, no compaction.  It is the ``conventional`` pipeline preset:
  ``Session(result, config=PipelineConfig.preset("conventional"))``;
* *hand-written reference sizes* (``hand_reference_size``): idiomatic
  TMS320C25 instruction counts per kernel, computed from the standard
  LAC/LT/MPY/APAC/SACL coding patterns for the documented workload sizes.
"""

from repro.baselines.reference import (
    hand_reference_size,
    hand_reference_table,
    has_hand_reference_size,
)

__all__ = [
    "hand_reference_size",
    "has_hand_reference_size",
    "hand_reference_table",
]
