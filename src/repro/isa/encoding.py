"""Binary encoding and decoding of MIPS-I instructions.

``encode`` and ``decode`` are exact inverses over the supported instruction
set (property-tested in tests/isa/test_encoding.py).  Decoding an unsupported
word raises :class:`~repro.errors.EncodingError` -- the decompiler treats that
as an unparseable binary, which never happens for binaries produced by this
repository's compiler.

:func:`decode_text` decodes a whole text section and keeps the last one:
the simulator, the decompiler's lifter and the profile mapper each need
the same binary's text in turn, so each binary is decoded once.
"""

from __future__ import annotations

from repro.errors import EncodingError
from repro.isa.instructions import SPECS, Format, Instruction

_OPCODE_SPECIAL = 0
_OPCODE_REGIMM = 1

# Lookup tables built once from SPECS.
_BY_FUNCT = {spec.funct: spec for spec in SPECS.values() if spec.fmt is Format.R}
_BY_OPCODE = {
    spec.opcode: spec
    for spec in SPECS.values()
    if spec.fmt in (Format.I, Format.J) and spec.opcode != _OPCODE_REGIMM
}
_BY_REGIMM_RT = {
    spec.regimm_rt: spec for spec in SPECS.values() if spec.regimm_rt is not None
}

#: (words, instructions) of the text section :func:`decode_text` decoded last
_last_text: tuple[tuple[int, ...], tuple[Instruction, ...]] = ((), ())


def _check_reg(value: int, what: str) -> None:
    if not 0 <= value < 32:
        raise EncodingError(f"{what} out of range: {value}")


def encode(instr: Instruction) -> int:
    """Encode *instr* into its 32-bit machine word."""
    try:
        spec = SPECS[instr.mnemonic]
    except KeyError:
        raise EncodingError(f"unknown mnemonic: {instr.mnemonic!r}") from None

    if spec.fmt is Format.R:
        _check_reg(instr.rd, "rd")
        _check_reg(instr.rs, "rs")
        _check_reg(instr.rt, "rt")
        if not 0 <= instr.shamt < 32:
            raise EncodingError(f"shamt out of range: {instr.shamt}")
        return (
            (instr.rs << 21)
            | (instr.rt << 16)
            | (instr.rd << 11)
            | (instr.shamt << 6)
            | spec.funct
        )

    if spec.fmt is Format.J:
        if not 0 <= instr.target < (1 << 26):
            raise EncodingError(f"jump target out of range: {instr.target}")
        return (spec.opcode << 26) | instr.target

    # I-format.
    _check_reg(instr.rs, "rs")
    rt = spec.regimm_rt if spec.regimm_rt is not None else instr.rt
    _check_reg(rt, "rt")
    if spec.zero_extend_imm:
        if not 0 <= instr.imm <= 0xFFFF:
            raise EncodingError(
                f"{instr.mnemonic} immediate out of unsigned 16-bit range: {instr.imm}"
            )
        imm16 = instr.imm
    else:
        if not -0x8000 <= instr.imm <= 0x7FFF:
            raise EncodingError(
                f"{instr.mnemonic} immediate out of signed 16-bit range: {instr.imm}"
            )
        imm16 = instr.imm & 0xFFFF
    return (spec.opcode << 26) | (instr.rs << 21) | (rt << 16) | imm16


def decode_text(words) -> tuple[Instruction, ...]:
    """Every word of a text section, decoded, in order.

    Returns the previous call's tuple when *words* holds the same words, so
    the simulator, the lifter and the profile mapper of one binary share one
    decoding (:class:`Instruction` is frozen).  Only the last section is
    kept, one binary's worth of memory; a word that fails to decode raises
    :class:`EncodingError` and replaces nothing.
    """
    global _last_text
    key = tuple(words)
    if key != _last_text[0]:
        _last_text = (key, tuple(map(decode, key)))
    return _last_text[1]


def decode(word: int) -> Instruction:
    """Decode a 32-bit machine *word* into an :class:`Instruction`."""
    if not 0 <= word <= 0xFFFF_FFFF:
        raise EncodingError(f"word out of 32-bit range: {word:#x}")
    # fields extracted inline: this runs once per text word of every binary
    opcode = word >> 26
    rs = (word >> 21) & 31
    rt = (word >> 16) & 31

    if opcode == _OPCODE_SPECIAL:
        funct = word & 63
        spec = _BY_FUNCT.get(funct)
        if spec is None:
            raise EncodingError(f"unsupported R-type funct {funct} in word {word:#010x}")
        return Instruction(
            spec.mnemonic, rs=rs, rt=rt, rd=(word >> 11) & 31, shamt=(word >> 6) & 31
        )

    imm = word & 0xFFFF
    if opcode == _OPCODE_REGIMM:
        spec = _BY_REGIMM_RT.get(rt)
        if spec is None:
            raise EncodingError(f"unsupported REGIMM selector {rt} in word {word:#010x}")
        return Instruction(spec.mnemonic, rs=rs, imm=imm - 0x10000 if imm & 0x8000 else imm)

    spec = _BY_OPCODE.get(opcode)
    if spec is None:
        raise EncodingError(f"unsupported opcode {opcode} in word {word:#010x}")

    if spec.fmt is Format.J:
        return Instruction(spec.mnemonic, target=word & 0x3FF_FFFF)

    if imm & 0x8000 and not spec.zero_extend_imm:
        imm -= 0x10000
    return Instruction(spec.mnemonic, rs=rs, rt=rt, imm=imm)
