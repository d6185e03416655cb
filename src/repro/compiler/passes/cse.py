"""Local common-subexpression elimination (block-scoped value numbering).

Pure computations with identical operands inside a basic block are reused
via a Copy.  Loads are *not* CSE'd across stores or calls.  Enabled at -O2.
"""

from __future__ import annotations

from repro.compiler import ir


def _operand_key(operand: ir.Operand) -> tuple:
    if type(operand) is ir.Imm:
        return ("imm", operand.value)
    return ("reg", operand.id)


def local_cse(func: ir.Function) -> bool:
    changed = False
    blocks = ir.build_cfg(func)
    for block in blocks:
        available: dict[tuple, ir.VReg] = {}
        loads: dict[tuple, ir.VReg] = {}
        # reg -> (table, key) of the entries whose key reads reg, and of the
        # entries whose value is reg: a redefinition of reg drops them all
        readers: dict[ir.VReg, list[tuple[dict, tuple]]] = {}
        holders: dict[ir.VReg, list[tuple[dict, tuple]]] = {}
        new_instrs: list[ir.Instr] = []
        for instr in block.instrs:
            cls = type(instr)
            key = None
            table = available
            operands: tuple = ()
            if cls is ir.BinOp:
                operands = (instr.a, instr.b)
                a_key, b_key = _operand_key(instr.a), _operand_key(instr.b)
                if instr.op in ir.COMMUTATIVE_OPS:
                    key = ("bin", instr.op) + tuple(sorted((a_key, b_key)))
                else:
                    key = ("bin", instr.op, a_key, b_key)
            elif cls is ir.UnOp:
                operands = (instr.src,)
                key = ("un", instr.op, _operand_key(instr.src))
            elif cls is ir.Const:
                key = ("const", instr.value)
            elif cls is ir.LoadAddr:
                key = ("addr", instr.symbol, instr.offset)
            elif cls is ir.SlotAddr:
                key = ("slotaddr", instr.slot.index)
            elif cls is ir.Load:
                operands = (instr.base,)
                key = ("load", _operand_key(instr.base), instr.offset, instr.size, instr.signed)
                table = loads
            elif cls is ir.Store or cls is ir.Call:
                loads.clear()  # memory may have changed

            if key is not None:
                existing = table.get(key)
                if existing is not None:
                    new_instrs.append(ir.Copy(instr.dst, existing))
                    changed = True
                    continue
                table[key] = instr.dst
                entry = (table, key)
                holders.setdefault(instr.dst, []).append(entry)
                for reg in operands:
                    if type(reg) is ir.VReg:
                        readers.setdefault(reg, []).append(entry)

            # any redefinition invalidates value-numbering entries using it
            # (a key can come back after a clear: its readers stay the same,
            # but it may now hold another value)
            for reg in instr.defs():
                for stale_table, stale_key in readers.pop(reg, ()):
                    stale_table.pop(stale_key, None)
                for stale_table, stale_key in holders.pop(reg, ()):
                    if stale_table.get(stale_key) is reg:
                        del stale_table[stale_key]
            new_instrs.append(instr)
        block.instrs = new_instrs
    func.instrs = ir.flatten_cfg(blocks)
    return changed
