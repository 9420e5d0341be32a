"""dsim: the Druzhba RMT simulation component (paper §3.3).

dsim executes pipeline descriptions produced by dgen.  The traffic generator
creates random PHVs; every simulation tick a PHV enters the pipeline, PHVs in
flight advance one stage (modelled with read/write PHV halves), and the
output trace records the modified PHVs and the state vectors.
"""

from .phv import PHV
from .pipeline import Pipeline
from .reference import ReferenceSimulator, ReferenceStage
from .simulator import RMTSimulator, SimulationResult
from .trace import Trace, TraceRecord
from ..traffic import DEFAULT_MAX_VALUE, TrafficGenerator, choice_field

__all__ = [
    "PHV",
    "Pipeline",
    "ReferenceSimulator",
    "ReferenceStage",
    "RMTSimulator",
    "SimulationResult",
    "Trace",
    "TraceRecord",
    "TrafficGenerator",
    "DEFAULT_MAX_VALUE",
    "choice_field",
]
