"""repro: decompilation-based binary-level hardware/software partitioning.

A from-scratch Python reproduction of

    Greg Stitt and Frank Vahid, "A Decompilation Approach to Partitioning
    Software for Microprocessor/FPGA Platforms", DATE 2005.

The package contains the complete system the paper describes plus every
substrate it needs: a mini-C compiler emitting real MIPS-I binaries at
gcc-style optimization levels, a cycle simulator/profiler, the decompiler
(binary parsing, CDFG recovery, constant propagation, stack operation
removal, operator size reduction, strength promotion, loop rerolling),
a behavioral synthesis tool with a Virtex-II technology model and VHDL
backend, the 90-10 partitioner with classic baselines, and the
hypothetical MIPS+FPGA platform model.

Typical use::

    from repro import run_flow, MIPS_200MHZ

    report = run_flow(source_code, name="kernel", opt_level=1,
                      platform=MIPS_200MHZ)
    print(report.app_speedup, report.energy_savings)

See README.md for the architecture overview and examples/ for runnable
walkthroughs.
"""

from repro.binary.image import Executable
from repro.compiler.driver import CompilerOptions, compile_source, compile_to_asm
from repro.decompile.decompiler import (
    DecompilationOptions,
    DecompiledProgram,
    decompile,
)
from repro.dynamic.flow import run_dynamic_flow
from repro.flow import (
    DynamicFlowReport,
    FlowReport,
    run_flow,
    run_flow_on_executable,
)
from repro.partition.api import PartitionOutcome
from repro.platform.devices import DeviceSpec
from repro.platform.platform import (
    MIPS_200MHZ,
    MIPS_400MHZ,
    MIPS_40MHZ,
    SOFTCORE_50MHZ,
    SOFTCORE_85MHZ,
    Platform,
)
from repro.sim.cpu import run_executable
from repro.synth.synthesizer import SynthesisOptions, Synthesizer

__version__ = "1.2.0"

__all__ = [
    "CompilerOptions",
    "DecompilationOptions",
    "DecompiledProgram",
    "DynamicFlowReport",
    "Executable",
    "FlowReport",
    "MIPS_200MHZ",
    "MIPS_400MHZ",
    "MIPS_40MHZ",
    "DeviceSpec",
    "PartitionOutcome",
    "Platform",
    "SOFTCORE_50MHZ",
    "SOFTCORE_85MHZ",
    "SynthesisOptions",
    "Synthesizer",
    "compile_source",
    "compile_to_asm",
    "decompile",
    "run_dynamic_flow",
    "run_executable",
    "run_flow",
    "run_flow_on_executable",
]
