"""The IR's operand layout: :func:`repro.compiler.ir.reads` is the one
place that names the registers each instruction class reads, and the
passes' hot loops rely on it, so every class must be covered.

Every subclass of ``Instr`` is built twice from its field annotations --
once with a register in every operand field that can hold one, once with
an immediate or ``None`` wherever the field allows -- so a new class or
operand field is checked whether or not the benchmark suite uses it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.compiler import ir


def _classes() -> list[type]:
    found, todo = [], [ir.Instr]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            found.append(sub)
            todo.append(sub)
    return sorted(found, key=lambda cls: cls.__name__)


def _build(cls: type, registers: bool) -> ir.Instr:
    """An instance of *cls* whose register fields hold fresh registers
    (or, without *registers*, an immediate or None where allowed)."""
    func = ir.Function("f", [])
    values = {}
    for spec in dataclasses.fields(cls):
        kind = spec.type.replace(" ", "")
        if kind == "VReg":
            value = func.new_vreg()
        elif kind == "Operand":
            value = func.new_vreg() if registers else ir.Imm(3)
        elif kind == "VReg|None":
            value = func.new_vreg() if registers else None
        elif kind == "list[VReg]":
            value = [func.new_vreg(), func.new_vreg()] if registers else []
        elif kind == "StackSlot":
            value = ir.StackSlot(0, 4)
        elif kind in ("str", "int", "bool", "list[str]"):
            value = {"str": "x", "int": 4, "bool": True, "list[str]": ["L"]}[kind]
        else:
            raise AssertionError(f"{cls.__name__}.{spec.name}: unknown field type {kind}")
        values[spec.name] = value
    return cls(**values)


def _registers_in_fields(instr: ir.Instr) -> list[ir.VReg]:
    """Every register held by a field other than ``dst``, in field order."""
    found = []
    for spec in dataclasses.fields(instr):
        value = getattr(instr, spec.name)
        for item in value if isinstance(value, list) else [value]:
            if type(item) is ir.VReg and spec.name != "dst":
                found.append(item)
    return found


CASES = [(cls, registers) for cls in _classes() for registers in (True, False)]


@pytest.mark.parametrize(
    "cls,registers", CASES,
    ids=[f"{cls.__name__}-{'regs' if registers else 'bare'}" for cls, registers in CASES])
def test_reads_names_every_operand_register(cls, registers):
    instr = _build(cls, registers)
    expected = _registers_in_fields(instr)
    assert ir.reads(instr) == tuple(expected)
    assert instr.uses() == expected


@pytest.mark.parametrize(
    "cls,registers", CASES,
    ids=[f"{cls.__name__}-{'regs' if registers else 'bare'}" for cls, registers in CASES])
def test_only_def_types_define_and_only_dst(cls, registers):
    instr = _build(cls, registers)
    dst = getattr(instr, "dst", None)
    assert (cls in ir.DEF_TYPES) == hasattr(instr, "dst")
    assert instr.defs() == ([dst] if dst is not None else [])


@pytest.mark.parametrize("cls", _classes(), ids=lambda cls: cls.__name__)
def test_replace_uses_renames_what_reads_names(cls):
    instr = _build(cls, registers=True)
    func = ir.Function("g", [])
    func._next_vreg = 100
    mapping = {reg: func.new_vreg() for reg in ir.reads(instr)}
    instr.replace_uses(mapping)
    assert ir.reads(instr) == tuple(mapping.values())
