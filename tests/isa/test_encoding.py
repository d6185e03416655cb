"""Encode/decode round-trip tests, directed and property-based."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodingError
from repro.isa import Instruction, decode, decode_text, encode
from repro.isa.instructions import SPECS, Format, Syntax


class TestDirectedEncodings:
    def test_addu(self):
        word = encode(Instruction("addu", rd=3, rs=4, rt=5))
        assert decode(word) == Instruction("addu", rd=3, rs=4, rt=5)

    def test_addiu_negative_imm(self):
        word = encode(Instruction("addiu", rt=8, rs=29, imm=-32))
        decoded = decode(word)
        assert decoded.imm == -32
        assert decoded.mnemonic == "addiu"

    def test_lui_zero_extended(self):
        word = encode(Instruction("lui", rt=9, imm=0xFFFF))
        assert decode(word).imm == 0xFFFF

    def test_sll_shamt(self):
        word = encode(Instruction("sll", rd=2, rt=3, shamt=31))
        decoded = decode(word)
        assert decoded.shamt == 31

    def test_jump_target(self):
        word = encode(Instruction("j", target=0x100))
        assert decode(word).target == 0x100

    def test_regimm_bltz(self):
        word = encode(Instruction("bltz", rs=7, imm=-4))
        decoded = decode(word)
        assert decoded.mnemonic == "bltz"
        assert decoded.imm == -4

    def test_regimm_bgez(self):
        word = encode(Instruction("bgez", rs=7, imm=12))
        assert decode(word).mnemonic == "bgez"

    def test_nop_is_zero_word(self):
        assert encode(Instruction("sll", rd=0, rt=0, shamt=0)) == 0

    def test_break(self):
        word = encode(Instruction("break"))
        assert decode(word).mnemonic == "break"


class TestEncodingErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(EncodingError):
            encode(Instruction("fadd", rd=1, rs=2, rt=3))

    def test_register_out_of_range(self):
        with pytest.raises(EncodingError):
            encode(Instruction("addu", rd=32, rs=0, rt=0))

    def test_imm_out_of_range_signed(self):
        with pytest.raises(EncodingError):
            encode(Instruction("addiu", rt=1, rs=1, imm=0x8000))

    def test_imm_out_of_range_unsigned(self):
        with pytest.raises(EncodingError):
            encode(Instruction("andi", rt=1, rs=1, imm=-1))

    def test_decode_unknown_funct(self):
        with pytest.raises(EncodingError):
            decode(0x0000_003F)  # SPECIAL with unused funct 63

    def test_decode_unknown_opcode(self):
        with pytest.raises(EncodingError):
            decode(0xFC00_0000)  # opcode 63


# -- property-based round trips ------------------------------------------

_R_MNEMONICS = sorted(
    m for m, s in SPECS.items() if s.fmt is Format.R and s.syntax is Syntax.RD_RS_RT
)
_I_ARITH = sorted(
    m for m, s in SPECS.items()
    if s.fmt is Format.I and s.syntax is Syntax.RT_RS_IMM and not s.zero_extend_imm
)
_I_LOGIC = sorted(
    m for m, s in SPECS.items()
    if s.fmt is Format.I and s.syntax is Syntax.RT_RS_IMM and s.zero_extend_imm
)
_MEM = sorted(m for m, s in SPECS.items() if s.is_load or s.is_store)

regs = st.integers(0, 31)


@given(st.sampled_from(_R_MNEMONICS), regs, regs, regs)
def test_r_type_round_trip(mnemonic, rd, rs, rt):
    instr = Instruction(mnemonic, rd=rd, rs=rs, rt=rt)
    assert decode(encode(instr)) == instr


@given(st.sampled_from(_I_ARITH), regs, regs, st.integers(-0x8000, 0x7FFF))
def test_i_type_signed_round_trip(mnemonic, rt, rs, imm):
    instr = Instruction(mnemonic, rt=rt, rs=rs, imm=imm)
    assert decode(encode(instr)) == instr


@given(st.sampled_from(_I_LOGIC), regs, regs, st.integers(0, 0xFFFF))
def test_i_type_unsigned_round_trip(mnemonic, rt, rs, imm):
    instr = Instruction(mnemonic, rt=rt, rs=rs, imm=imm)
    decoded = decode(encode(instr))
    assert decoded.mnemonic == instr.mnemonic
    assert decoded.imm == imm


@given(st.sampled_from(_MEM), regs, regs, st.integers(-0x8000, 0x7FFF))
def test_memory_round_trip(mnemonic, rt, rs, imm):
    instr = Instruction(mnemonic, rt=rt, rs=rs, imm=imm)
    assert decode(encode(instr)) == instr


@given(st.integers(0, (1 << 26) - 1), st.sampled_from(["j", "jal"]))
def test_jump_round_trip(target, mnemonic):
    instr = Instruction(mnemonic, target=target)
    assert decode(encode(instr)) == instr


@given(regs, regs, st.integers(0, 31), st.sampled_from(["sll", "srl", "sra"]))
def test_shift_round_trip(rd, rt, shamt, mnemonic):
    instr = Instruction(mnemonic, rd=rd, rt=rt, shamt=shamt)
    assert decode(encode(instr)) == instr


def test_branch_target_arithmetic():
    instr = Instruction("beq", rs=1, rt=2, imm=-2)
    assert instr.branch_target(pc=0x400010) == 0x400010 + 4 - 8


def test_jump_target_arithmetic():
    instr = Instruction("j", target=0x100)
    assert instr.jump_target(pc=0x0040_0000) == 0x400



class TestDecodeText:
    """``decode_text`` decodes a section once for all its consumers."""

    WORDS = [encode(Instruction("addiu", rt=8, rs=29, imm=-4)),
             encode(Instruction("jr", rs=31)), 0]

    def test_matches_decode_and_is_shared(self):
        decoded = decode_text(self.WORDS)
        assert decoded == tuple(decode(word) for word in self.WORDS)
        # another list with the same words (a second consumer of the same
        # binary) gets the same tuple; different words get their own
        assert decode_text(list(self.WORDS)) is decoded
        assert decode_text(self.WORDS[:2]) == decoded[:2]
        assert decode_text(self.WORDS) is not decoded

    def test_errors_are_not_kept(self):
        decoded = decode_text(self.WORDS)
        for _ in range(2):
            with pytest.raises(EncodingError):
                decode_text([*self.WORDS, 0xFC00_0000])
        assert decode_text(self.WORDS) is decoded
