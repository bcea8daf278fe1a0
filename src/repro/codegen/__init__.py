"""Code generation backend.

The backend turns bound IR programs into machine code for a retargeted
processor:

* :mod:`repro.codegen.selection` -- optimal code selection per statement via
  the processor-specific tree parser (RT covers);
* :mod:`repro.codegen.schedule` -- evaluation-order scheduling that reduces
  clobbering of special-purpose registers (in the spirit of Araujo/Malik);
* :mod:`repro.codegen.spill` -- insertion of spill/reload transfers when a
  live intermediate result would be overwritten;
* :mod:`repro.codegen.compaction` -- packing of selected RTs into parallel
  instruction words, using the per-RT execution conditions extracted from
  the instruction encoding;
* :mod:`repro.codegen.emitter` -- assembly-style listings;
* :mod:`repro.codegen.encoding` -- concrete binary instruction words derived
  from the per-RT execution conditions (binary partial instructions).
"""

from repro.codegen.selection import (
    CONTROL_KINDS,
    BlockCode,
    CodeGenerationError,
    RTInstance,
    StatementCode,
    select_block_code,
    select_statement,
    select_terminator,
)
from repro.codegen.schedule import schedule_instances
from repro.codegen.spill import count_spills, insert_spills
from repro.codegen.compaction import InstructionWord, compact, compact_blocks
from repro.codegen.emitter import format_listing
from repro.codegen.encoding import EncodedWord, InstructionEncoder

__all__ = [
    "BlockCode",
    "CONTROL_KINDS",
    "CodeGenerationError",
    "EncodedWord",
    "InstructionEncoder",
    "InstructionWord",
    "RTInstance",
    "StatementCode",
    "compact",
    "compact_blocks",
    "count_spills",
    "format_listing",
    "insert_spills",
    "schedule_instances",
    "select_block_code",
    "select_statement",
    "select_terminator",
]
