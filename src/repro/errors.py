"""Exception hierarchy shared across the repro toolchain.

Every stage of the flow (compiler, assembler, simulator, decompiler,
synthesis, partitioning) raises a subclass of :class:`ReproError` so callers
can distinguish toolchain failures from programming errors.  The decompiler
additionally distinguishes *recoverable* analysis limitations (e.g. the
indirect-jump failure mode reported in the paper) from hard errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all toolchain errors."""


class CompileError(ReproError):
    """Raised by the mini-C front end (lexer, parser, sema) and code generator."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AssemblerError(ReproError):
    """Raised when assembly text or instruction records cannot be encoded
    into machine words."""


class EncodingError(ReproError):
    """Raised when an instruction cannot be encoded or a word cannot be decoded."""


class LinkError(ReproError):
    """Raised when an executable image cannot be built (duplicate/undefined symbols)."""


class SimulationError(ReproError):
    """Raised by the MIPS simulator for invalid execution states."""


class MemoryFault(SimulationError):
    """Out-of-range or misaligned memory access during simulation."""

    def __init__(self, address: int, reason: str = "access"):
        self.address = address
        super().__init__(f"memory fault: {reason} at 0x{address:08x}")


class DecompilationError(ReproError):
    """Base class for failures while recovering a CDFG from a binary."""


class IndirectJumpError(DecompilationError):
    """CDFG recovery failure caused by a register-indirect jump.

    The paper reports exactly this failure mode: "CDFG recovery ... failed
    for two EEMBC examples because of indirect jumps."  The address of the
    offending instruction is preserved for the recovery-statistics table.
    """

    def __init__(self, address: int, function: str | None = None):
        self.address = address
        self.function = function
        where = f" in {function!r}" if function else ""
        super().__init__(f"indirect jump at 0x{address:08x}{where} defeats CDFG recovery")


class StructureRecoveryError(DecompilationError):
    """Control-structure recovery could not reduce the CFG to high-level constructs."""


class SynthesisError(ReproError):
    """Raised by the behavioral synthesis tool (scheduling/binding/VHDL)."""


class ResourceConstraintError(SynthesisError):
    """A schedule could not be found under the given resource constraints."""


class PartitionError(ReproError):
    """Raised by hardware/software partitioning algorithms."""


class AreaConstraintError(PartitionError):
    """No feasible partition exists under the platform's FPGA area budget."""
