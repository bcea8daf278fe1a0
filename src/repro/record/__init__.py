"""The RECORD tool flow.

* :mod:`repro.record.retarget` -- the retargeting procedure of fig. 1: HDL
  model -> netlist -> instruction-set extraction -> template expansion ->
  tree grammar -> generated code selector, with per-phase timings (the
  quantity reported in table 3 of the paper);
* :mod:`repro.record.report` -- textual reports (retargeting summary,
  processor-class feature checklist of table 1).

The compiler built on a retargeting result is the session/pipeline API of
:mod:`repro.toolchain`.
"""

from repro.record.retarget import PhaseTimings, RetargetResult, retarget
from repro.record.report import (
    compilation_report,
    processor_class_report,
    retargeting_report,
)

__all__ = [
    "PhaseTimings",
    "RetargetResult",
    "compilation_report",
    "processor_class_report",
    "retarget",
    "retargeting_report",
]
