"""Assembler tests: directives, labels, pseudo-expansion, errors."""

import pytest

from repro.errors import AssemblerError
from repro.isa import assemble, disassemble_one
from repro.isa.encoding import decode


def _decode_all(exe):
    return [decode(w) for w in exe.text_words]


class TestBasics:
    def test_single_instruction(self):
        exe = assemble(".text\nmain: addu $t0, $t1, $t2\n")
        assert len(exe.text_words) == 1
        instr = _decode_all(exe)[0]
        assert (instr.mnemonic, instr.rd, instr.rs, instr.rt) == ("addu", 8, 9, 10)

    def test_comments_stripped(self):
        exe = assemble(".text\nstart: addu $t0, $t1, $t2  # comment\n# full line\n")
        assert len(exe.text_words) == 1

    def test_memory_operand(self):
        exe = assemble(".text\nf: lw $t0, -8($sp)\n")
        instr = _decode_all(exe)[0]
        assert instr.mnemonic == "lw"
        assert instr.imm == -8
        assert instr.rs == 29

    def test_branch_backward(self):
        source = """
        .text
        top: addiu $t0, $t0, 1
        bne $t0, $t1, top
        """
        exe = assemble(source)
        branch = _decode_all(exe)[1]
        assert branch.imm == -2  # (top - (pc+4)) >> 2

    def test_entry_prefers_start_symbol(self):
        exe = assemble(".text\n_start: break\nmain: break\n")
        assert exe.entry == exe.symbols["_start"].address

    def test_numeric_register_names(self):
        exe = assemble(".text\nf: addu $8, $9, $10\n")
        instr = _decode_all(exe)[0]
        assert (instr.rd, instr.rs, instr.rt) == (8, 9, 10)


class TestDataDirectives:
    def test_word_values(self):
        exe = assemble(".data\nvals: .word 1, -2, 0x10\n")
        assert exe.data[:4] == (1).to_bytes(4, "little")
        assert exe.data[4:8] == (0xFFFF_FFFE).to_bytes(4, "little")
        assert exe.data[8:12] == (16).to_bytes(4, "little")

    def test_space_and_align(self):
        exe = assemble(".data\na: .byte 1\n.align 2\nb: .word 7\n")
        assert exe.symbols["b"].address % 4 == 0

    def test_half_and_byte(self):
        exe = assemble(".data\nh: .half -1, 2\nb: .byte 255\n")
        assert exe.data[0:2] == b"\xff\xff"
        assert exe.data[2:4] == b"\x02\x00"
        assert exe.data[4] == 255

    def test_asciiz(self):
        exe = assemble('.data\ns: .asciiz "hi"\n')
        assert exe.data[:3] == b"hi\x00"

    def test_word_with_label_reference(self):
        source = """
        .text
        f: break
        g: break
        .data
        table: .word f, g
        """
        exe = assemble(source)
        words = [
            int.from_bytes(exe.data[i : i + 4], "little") for i in (0, 4)
        ]
        assert words == [exe.symbols["f"].address, exe.symbols["g"].address]


class TestCharacterLiterals:
    """A single-quoted literal is one operand: a ``#`` in it starts no
    comment and a ``,`` in it separates no operands."""

    def test_li_hash_literal(self):
        exe = assemble(".text\nf: li $t0, '#'  # a real comment\n")
        instr = _decode_all(exe)[0]
        assert (instr.mnemonic, instr.rt, instr.imm) == ("addiu", 8, ord("#"))

    def test_addiu_hash_literal(self):
        exe = assemble(".text\nf: addiu $t0, $zero, '#'\n")
        instr = _decode_all(exe)[0]
        assert (instr.mnemonic, instr.rs, instr.imm) == ("addiu", 0, ord("#"))

    def test_byte_comma_literal(self):
        exe = assemble(".data\nb: .byte ',', 1\n")
        assert exe.data[:2] == bytes([ord(","), 1])

    def test_escaped_quote_literal(self):
        exe = assemble(".data\nb: .byte '\\'', '#', 2 # trailing\n")
        assert exe.data[:3] == bytes([ord("'"), ord("#"), 2])

    def test_hash_inside_string(self):
        exe = assemble('.data\ns: .asciiz "a#b" # comment\n')
        assert exe.data[:4] == b"a#b\x00"

    def test_memory_operand_next_to_literal(self):
        exe = assemble(".text\nf: li $t1, ','\nsw $t1, 4($sp)\n")
        li, sw = _decode_all(exe)
        assert li.imm == ord(",")
        assert (sw.mnemonic, sw.rt, sw.rs, sw.imm) == ("sw", 9, 29, 4)


class TestPseudoInstructions:
    def test_li_small(self):
        exe = assemble(".text\nf: li $t0, 42\n")
        instr = _decode_all(exe)[0]
        assert (instr.mnemonic, instr.imm) == ("addiu", 42)

    def test_li_negative(self):
        exe = assemble(".text\nf: li $t0, -5\n")
        assert _decode_all(exe)[0].imm == -5

    def test_li_large_expands_to_two(self):
        exe = assemble(".text\nf: li $t0, 0x12345678\n")
        instrs = _decode_all(exe)
        assert [i.mnemonic for i in instrs] == ["lui", "ori"]
        assert instrs[0].imm == 0x1234
        assert instrs[1].imm == 0x5678

    def test_move_is_addiu_zero(self):
        # the exact idiom the paper's constant propagation removes
        exe = assemble(".text\nf: move $t0, $t1\n")
        instr = _decode_all(exe)[0]
        assert (instr.mnemonic, instr.imm) == ("addiu", 0)

    def test_la_two_instructions(self):
        exe = assemble(".text\nf: la $t0, x\n.data\nx: .word 0\n")
        instrs = _decode_all(exe)
        assert [i.mnemonic for i in instrs] == ["lui", "ori"]
        address = (instrs[0].imm << 16) | instrs[1].imm
        assert address == exe.symbols["x"].address

    def test_blt_expansion(self):
        source = ".text\nf: blt $t0, $t1, f\n"
        exe = assemble(source)
        instrs = _decode_all(exe)
        assert [i.mnemonic for i in instrs] == ["slt", "bne"]

    def test_nop(self):
        exe = assemble(".text\nf: nop\n")
        assert exe.text_words[0] == 0


class TestErrors:
    def test_duplicate_label(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble(".text\nx: break\nx: break\n")

    def test_undefined_symbol(self):
        with pytest.raises(AssemblerError, match="undefined"):
            assemble(".text\nf: j nowhere\n")

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError, match="unknown mnemonic"):
            assemble(".text\nf: frobnicate $t0\n")

    def test_instruction_in_data_section(self):
        with pytest.raises(AssemblerError):
            assemble(".data\naddu $t0, $t1, $t2\n")

    def test_operand_count(self):
        with pytest.raises(AssemblerError):
            assemble(".text\nf: addu $t0, $t1\n")

    def test_branch_out_of_range(self):
        body = "\n".join("    nop" for _ in range(40000))
        source = f".text\ntop: nop\n{body}\n    beq $t0, $t1, top\n"
        with pytest.raises(AssemblerError, match="out of range"):
            assemble(source)


class TestDisassemblerRoundTrip:
    def test_disassemble_reassemble_fixed_point(self):
        source = """
        .text
        main:
            addiu $sp, $sp, -16
            sw $ra, 12($sp)
            li $t0, 7
            sll $t1, $t0, 2
            lw $ra, 12($sp)
            addiu $sp, $sp, 16
            jr $ra
        """
        exe = assemble(source)
        lines = [".text", "main:"]
        for index, word in enumerate(exe.text_words):
            lines.append(disassemble_one(word))
        re_exe = assemble("\n".join(lines) + "\n")
        assert re_exe.text_words == exe.text_words
