"""Behavioral synthesis: decompiled CDFG -> RT-level VHDL + area/time model.

Plays the role of the paper's in-house synthesis tool plus Xilinx ISE:

* :mod:`fpga` -- Virtex-II technology model (per-operator equivalent-gate
  area, delay, device capacities, achievable clock),
* :mod:`scheduling` -- ASAP/ALAP/resource-constrained list scheduling,
* :mod:`binding` -- functional-unit and register binding (left edge),
  multiplexer estimation,
* :mod:`pipeline` -- loop initiation-interval estimation (resource and
  recurrence bounds),
* :mod:`vhdl` -- RT-level VHDL emission (FSM + datapath),
* :mod:`synthesizer` -- the tool driver producing :class:`HwKernel`
  implementations for loops/regions.
"""

from repro.synth.fpga import FpgaDevice, TechnologyModel, VIRTEX2_DEVICES
from repro.synth.scheduling import Schedule, asap_schedule, alap_schedule, list_schedule
from repro.synth.binding import BindingResult, bind
from repro.synth.pipeline import initiation_interval
from repro.synth.synthesizer import HwKernel, SynthesisOptions, Synthesizer
from repro.synth.vhdl import emit_vhdl

__all__ = [
    "BindingResult",
    "FpgaDevice",
    "HwKernel",
    "Schedule",
    "SynthesisOptions",
    "Synthesizer",
    "TechnologyModel",
    "VIRTEX2_DEVICES",
    "alap_schedule",
    "asap_schedule",
    "bind",
    "emit_vhdl",
    "initiation_interval",
    "list_schedule",
]
