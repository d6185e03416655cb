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

import sys
from types import ModuleType

from repro.surface import lazy_surface

__version__ = "1.2.0"

#: where each public name lives; a name's module loads on first access
#: (PEP 562), so ``import repro`` loads no stage the session does not use
_EXPORTS = {
    "CompilerOptions": "repro.compiler.driver",
    "DecompilationOptions": "repro.decompile.decompiler",
    "DecompiledProgram": "repro.decompile.decompiler",
    "DynamicFlowReport": "repro.flow",
    "Executable": "repro.binary.image",
    "FlowReport": "repro.flow",
    "MIPS_200MHZ": "repro.platform.platform",
    "MIPS_400MHZ": "repro.platform.platform",
    "MIPS_40MHZ": "repro.platform.platform",
    "DeviceSpec": "repro.platform.devices",
    "PartitionOutcome": "repro.partition.api",
    "Platform": "repro.platform.platform",
    "SOFTCORE_50MHZ": "repro.platform.platform",
    "SOFTCORE_85MHZ": "repro.platform.platform",
    "SynthesisOptions": "repro.synth.synthesizer",
    "Synthesizer": "repro.synth.synthesizer",
    "compile_source": "repro.compiler.driver",
    "compile_to_asm": "repro.compiler.driver",
    "decompile": "repro.decompile.decompiler",
    "run_dynamic_flow": "repro.dynamic.flow",
    "run_executable": "repro.sim.cpu",
    "run_flow": "repro.flow",
    "run_flow_on_executable": "repro.flow",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_surface(__name__, _EXPORTS)


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # the import system binds a subpackage on its parent when the
        # subpackage first loads; ``repro.decompile`` stays the function
        if name == "decompile" and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
