"""Binary encoding and decoding of MIPS-I instructions.

``encode`` and ``decode`` are exact inverses over the supported instruction
set (property-tested in tests/isa/test_encoding.py).  Decoding an unsupported
word raises :class:`~repro.errors.EncodingError` -- the decompiler treats that
as an unparseable binary, which never happens for binaries produced by this
repository's compiler.  ``encode`` wraps :func:`encode_fields`, which
encodes from field values: the assembler calls it directly, so assembling
builds no :class:`Instruction`.

:func:`decode_text` decodes a whole text section; each image keeps its
decoding (:attr:`~repro.binary.image.Executable.instructions`), so the
simulator, the lifter and the profile mapper share one.  Under it, a
bounded word -> :class:`Instruction` memo decodes each distinct word
once across binaries: the 80 ``static_suite`` binaries hold 26,574 text
words but only 6,125 distinct ones.
"""

from __future__ import annotations

from repro.errors import EncodingError
from repro.isa.instructions import SPECS, Format, Instruction, InstrSpec

_OPCODE_SPECIAL = 0
_OPCODE_REGIMM = 1
#: the formats as module constants (an enum member lookup is far slower)
_FORMAT_I, _FORMAT_R = Format.I, Format.R

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

#: the most words :data:`_decoded_words` holds; it is cleared whole when a
#: section would take it past the bound
DECODE_MEMO_MAX = 1 << 14
#: word -> its decoded instruction, for the words :func:`decode_text` has
#: decoded (never a word that failed to decode)
_decoded_words: dict[int, Instruction] = {}


def _check_reg(value: int, what: str) -> None:
    if not 0 <= value < 32:
        raise EncodingError(f"{what} out of range: {value}")


def encode(instr: Instruction) -> int:
    """Encode *instr* into its 32-bit machine word."""
    try:
        spec = SPECS[instr.mnemonic]
    except KeyError:
        raise EncodingError(f"unknown mnemonic: {instr.mnemonic!r}") from None
    return encode_fields(
        spec, instr.rd, instr.rs, instr.rt, instr.shamt, instr.imm, instr.target
    )


def encode_fields(
    spec: InstrSpec, rd: int, rs: int, rt: int, shamt: int, imm: int, target: int
) -> int:
    """Encode one *spec* instruction from its field values (the fields of
    :class:`Instruction`; those its format does not use are ignored).

    The one encoder: :func:`encode` wraps it, and the assembler's back end
    calls it for every word it emits.
    """
    fmt = spec.fmt
    if fmt is _FORMAT_I:
        if spec.regimm_rt is not None:
            rt = spec.regimm_rt
        if (rs | rt) >> 5:  # either outside 0..31 (a negative one too)
            _check_reg(rs, "rs")
            _check_reg(rt, "rt")
        if spec.zero_extend_imm:
            if not 0 <= imm <= 0xFFFF:
                raise EncodingError(
                    f"{spec.mnemonic} immediate out of unsigned 16-bit range: {imm}"
                )
        elif -0x8000 <= imm <= 0x7FFF:
            imm &= 0xFFFF
        else:
            raise EncodingError(
                f"{spec.mnemonic} immediate out of signed 16-bit range: {imm}"
            )
        return (spec.opcode << 26) | (rs << 21) | (rt << 16) | imm

    if fmt is _FORMAT_R:
        if (rd | rs | rt | shamt) >> 5:
            _check_reg(rd, "rd")
            _check_reg(rs, "rs")
            _check_reg(rt, "rt")
            raise EncodingError(f"shamt out of range: {shamt}")
        return (rs << 21) | (rt << 16) | (rd << 11) | (shamt << 6) | spec.funct

    if not 0 <= target < (1 << 26):
        raise EncodingError(f"jump target out of range: {target}")
    return (spec.opcode << 26) | target


def decode_text(words) -> tuple[Instruction, ...]:
    """Every word of a text section, decoded, in order.

    The section is built from the word memo, which decodes only the words
    no earlier section held (:class:`Instruction` is frozen, so sections
    share them).  A word that fails to decode raises
    :class:`EncodingError` and leaves the memo unchanged.  The memo holds
    at most :data:`DECODE_MEMO_MAX` words, about 3 MB, and is cleared
    whole when a section would take it past that.
    """
    words = tuple(words)
    memo = _decoded_words
    fresh: dict[int, Instruction] = {}
    for word in words:
        if word not in memo and word not in fresh:
            fresh[word] = decode(word)  # raises before the memo changes
    if not fresh:
        return tuple(map(memo.__getitem__, words))
    decoded = tuple([memo[word] if word in memo else fresh[word] for word in words])
    if len(memo) + len(fresh) > DECODE_MEMO_MAX:
        memo.clear()
    if len(fresh) <= DECODE_MEMO_MAX:
        memo.update(fresh)
    return decoded


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
