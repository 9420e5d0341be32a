"""dRMT: disaggregated match+action simulation (paper §4).

dgen converts a P4-14-like program into a table-dependency DAG, schedules its
match and action operations under dRMT hardware constraints, and dsim
executes the schedule on a set of match+action processors fed round-robin by
a traffic generator, using centralised tables populated from a table-entry
configuration file.
"""

from .codegen import DrmtProgramBundle, StaticAnalysis, analyze_program, generate_bundle
from .fused import DrmtFusedProgram, generate_fused
from .processor import MatchActionProcessor, PacketContext, RegisterFile
from .resources import DEFAULT_HARDWARE, DrmtHardwareParams
from .scheduler import (
    ACTION_OP,
    MATCH_OP,
    GreedyScheduler,
    MilpScheduler,
    Schedule,
    schedule_program,
    validate_schedule,
)
from .simulator import DRMTSimulator, DrmtPacketRecord, DrmtSimulationResult
from .table_config import load_entries, parse_entries, parse_entry_line, populate_store
from .tables import MatchActionTable, MatchPattern, TableEntry, TableStore
from ..traffic import PacketGenerator, values_field

__all__ = [
    "DrmtHardwareParams",
    "DEFAULT_HARDWARE",
    "generate_bundle",
    "DrmtProgramBundle",
    "DrmtFusedProgram",
    "generate_fused",
    "StaticAnalysis",
    "analyze_program",
    "Schedule",
    "GreedyScheduler",
    "MilpScheduler",
    "schedule_program",
    "validate_schedule",
    "MATCH_OP",
    "ACTION_OP",
    "DRMTSimulator",
    "DrmtSimulationResult",
    "DrmtPacketRecord",
    "MatchActionProcessor",
    "PacketContext",
    "RegisterFile",
    "TableStore",
    "MatchActionTable",
    "TableEntry",
    "MatchPattern",
    "parse_entries",
    "parse_entry_line",
    "load_entries",
    "populate_store",
    "PacketGenerator",
    "values_field",
]
