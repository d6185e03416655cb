"""Every threaded-handler shape against the reference interpreter.

The threaded handlers and the superblock units are both generated from
the code generator's per-instruction templates, so the engines' agreement
with each other checks nothing about those templates; the reference
interpreter (:mod:`repro.sim.reference`) is the one independent copy of
the semantics.  A handler's *shape* is its mnemonic plus which operand
fields are zero, and the templates fold on exactly that, so each test
here runs one mnemonic in every zero pattern of its operand fields
(with distinct and with aliased registers, and ``jr``/``jalr`` with and
without profiling) as a one-instruction program on the threaded engine,
from seeded registers and HI/LO, and compares the outcome (the
``RunResult`` or the error), the registers, HI/LO and every non-zero
memory page with the reference loop's.
"""

from __future__ import annotations

import itertools
import re

import pytest

from repro.binary.image import Executable
from repro.binary.loader import load_into_memory
from repro.errors import SimulationError
from repro.isa.encoding import encode
from repro.isa.instructions import SPECS, Instruction
from repro.sim.cpu import STACK_TOP, Cpu
from repro.sim.memory import Memory
from repro.sim.reference import _interpret

TEXT_BASE = 0x0040_0000
DATA_BASE = 0x1001_0000
#: bytes that make sign extension visible: lb at +0, lh at +4 are negative
DATA = bytes((0x80, 0x81, 0x82, 0x83, 0x7F, 0xFF, 0x00, 0x01))

#: the register values every shape runs on
VALUES = (0, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF)
#: (rs, rt) seeds: every pair of VALUES, plus a data address, an in-text
#: target (the second ``break``) and a misaligned one
SEEDS = (*itertools.product(VALUES, VALUES), (DATA_BASE, 0xA5A5_A5A5),
         (TEXT_BASE + 8, 1), (TEXT_BASE + 6, 1))
#: what the destination and HI/LO hold before the instruction runs
RD_SEED = 0x1234_5678
HILO_SEED = (0x0123_4567, 0x89AB_CDEF)
#: the nonzero registers; the aliased variant uses 8 for every field
REGISTERS = {"rs": 8, "rt": 9, "rd": 10}

#: nonzero values of the other fields: a branch offset of 1 lands on the
#: second ``break``, -1 on the branch itself and -3 outside the text
IMMEDIATES = {"signed": (4, -0x8000), "unsigned": (4, 0xFFFF),
              "branch": (1, -1, -3)}
SHAMTS = (1, 31)
#: j/jal targets: the second ``break``, and address 0 outside the text
JUMP_TARGETS = ((TEXT_BASE >> 2) + 2, 0)

#: enough steps for every one-instruction program, short enough that a
#: branch to itself runs out of them
MAX_STEPS = 6


def _fields(spec) -> list[str]:
    """The operand fields of *spec* whose zero pattern shapes a handler."""
    tokens = set(re.findall(r"\w+", spec.syntax.value))
    fields = [name for name in ("rs", "rt", "rd", "shamt") if name in tokens]
    if "base" in tokens:
        fields.append("rs")
    if tokens & {"imm", "off", "label"}:
        fields.append("imm")
    return fields


def _instructions(mnemonic: str):
    """Every zero pattern of *mnemonic*'s fields, with each nonzero field
    at each of its test values, and with registers distinct and aliased."""
    spec = SPECS[mnemonic]
    fields = _fields(spec)
    kind = ("branch" if spec.is_branch else
            "unsigned" if spec.zero_extend_imm else "signed")
    choices = {"imm": IMMEDIATES[kind], "shamt": SHAMTS}
    targets = JUMP_TARGETS if mnemonic in ("j", "jal") else (0,)
    seen = set()
    for zeros in itertools.product((True, False), repeat=len(fields)):
        nonzero = [name for name, zero in zip(fields, zeros) if not zero]
        values = [choices.get(name, (None,)) for name in nonzero]
        for picked, alias, target in itertools.product(
                itertools.product(*values), (False, True), targets):
            operands = dict.fromkeys(fields, 0)
            for name, value in zip(nonzero, picked):
                operands[name] = 8 if alias and name in REGISTERS else \
                    REGISTERS.get(name, value)
            instr = Instruction(mnemonic, target=target, **operands)
            if instr not in seen:
                seen.add(instr)
                yield instr


def _program(instr: Instruction) -> Executable:
    brk = encode(Instruction("break"))
    return Executable(entry=TEXT_BASE, text_base=TEXT_BASE,
                      text_words=(encode(instr), brk, brk, brk),
                      data_base=DATA_BASE, data=DATA)


_ZERO_PAGE = bytes(4096)


def _pages(memory: Memory) -> dict[int, bytes]:
    pages = {number: bytes(page) for number, page in memory._pages.items()}
    return {number: page for number, page in pages.items() if page != _ZERO_PAGE}


def _outcome(run):
    try:
        return run()
    except SimulationError as error:
        return type(error), str(error)


def _registers(rs: int, rt: int) -> list[int]:
    regs = [0] * 32
    regs[29] = STACK_TOP
    regs[8], regs[9], regs[10] = rs, rt, RD_SEED
    return regs


def _check(instr: Instruction, profile: bool) -> int:
    """Run *instr* from every seed on both engines; return the runs made."""
    exe = _program(instr)
    cpu = Cpu(exe, profile=profile, engine="threaded")
    memory = Memory()
    load_into_memory(exe, memory)
    for rs, rt in SEEDS:
        cpu.regs[:] = _registers(rs, rt)
        cpu._hilo[:] = HILO_SEED
        cpu.pc = TEXT_BASE
        got = _outcome(lambda: cpu.run(MAX_STEPS))
        regs = _registers(rs, rt)
        hilo = list(HILO_SEED)
        want = _outcome(lambda: _interpret(exe, memory, regs, hilo, profile, MAX_STEPS))
        context = f"{instr} from rs={rs:#x} rt={rt:#x}, profile={profile}"
        assert got == want, context
        assert cpu.regs == regs, context
        assert [cpu.hi, cpu.lo] == hilo, context
        assert _pages(cpu.memory) == _pages(memory), context
    return len(SEEDS)


@pytest.mark.parametrize("mnemonic", sorted(SPECS))
def test_every_shape_matches_the_reference(mnemonic):
    profiles = (True, False) if mnemonic in ("jr", "jalr") else (True,)
    runs = sum(_check(instr, profile) for instr in _instructions(mnemonic)
               for profile in profiles)
    assert runs >= len(SEEDS) * 2 ** len(_fields(SPECS[mnemonic]))


def test_the_rare_shapes_are_covered():
    """Shapes no suite binary holds are among the ones checked."""
    shapes = {(i.mnemonic, i.rs == 0, i.rt == 0, i.rd == 0, i.imm == 0, i.shamt == 0)
              for m in SPECS for i in _instructions(m)}
    for shape in [("jalr", False, True, True, True, True),    # jalr $0, $rs
                  ("lh", False, True, True, False, True),      # lh $0, k($rs)
                  ("div", False, True, True, True, True),      # div $rs, $0
                  ("sra", True, False, False, True, True)]:    # sra $rd, $rt, 0
        assert shape in shapes
