"""RT-level VHDL emission (FSM + datapath) for synthesized kernels.

The output of the paper's synthesis tool is "register transfer-level VHDL";
this module generates it from a scheduled, bound loop body: one FSM state
per schedule cycle, datapath registers for values crossing cycles, a
dual-port memory interface for loads/stores, and start/done handshaking.

The text is structurally complete VHDL-93 (entity, architecture, typed
signals, clocked process, full case coverage); tests validate the structure
(balanced blocks, declared signals, state coverage) since no vendor tools
exist in this environment.
"""

from __future__ import annotations

from repro.decompile.cdfg import Dfg
from repro.decompile.microop import Imm, Loc, MicroOp, Opcode
from repro.synth.scheduling import Schedule

_BINOP_FMT = {
    Opcode.ADD: "resize(%s + %s, 32)",
    Opcode.SUB: "resize(%s - %s, 32)",
    Opcode.AND: "%s and %s",
    Opcode.OR: "%s or %s",
    Opcode.XOR: "%s xor %s",
    Opcode.NOR: "not (%s or %s)",
    Opcode.MUL: "resize(%s * %s, 32)",
    Opcode.LT: "b32(signed(%s) < signed(%s))",
    Opcode.LTU: "b32(unsigned(%s) < unsigned(%s))",
}


def _sig(name: str) -> str:
    return f"r_{name.lower()}"


class VhdlEmitter:
    def __init__(self, entity: str, dfg: Dfg, schedule: Schedule, guard_comment: str = ""):
        self.entity = entity
        self.dfg = dfg
        self.schedule = schedule
        self.guard_comment = guard_comment

    def _operand(self, operand, values: dict) -> str:
        if isinstance(operand, Imm):
            return f"to_signed({_signed(operand.value)}, 32)"
        if isinstance(operand, Loc):
            if operand.name == "R0":
                return "to_signed(0, 32)"
            value = values.get(operand)
            return _sig(operand.name) if value is None else value
        return "to_signed(0, 32)"

    def emit(self) -> str:
        dfg, schedule = self.dfg, self.schedule
        states = [f"S{c}" for c in range(max(1, schedule.length))]
        inputs = sorted(loc.name for loc in dfg.inputs if loc.name != "R0")
        outputs = sorted(loc.name for loc in dfg.outputs)
        registers = sorted(set(inputs) | set(outputs))

        lines: list[str] = []
        out = lines.append
        out("library IEEE;")
        out("use IEEE.STD_LOGIC_1164.ALL;")
        out("use IEEE.NUMERIC_STD.ALL;")
        out("")
        out(f"entity {self.entity} is")
        out("  port (")
        out("    clk   : in  std_logic;")
        out("    rst   : in  std_logic;")
        out("    start : in  std_logic;")
        out("    done  : out std_logic;")
        out("    mem_addr  : out unsigned(31 downto 0);")
        out("    mem_wdata : out signed(31 downto 0);")
        out("    mem_rdata : in  signed(31 downto 0);")
        out("    mem_we    : out std_logic;")
        for name in inputs:
            out(f"    in_{name.lower()}  : in  signed(31 downto 0);")
        for name in outputs:
            out(f"    out_{name.lower()} : out signed(31 downto 0);")
        # strip the trailing semicolon of the final port
        lines[-1] = lines[-1].rstrip(";")
        out("  );")
        out(f"end {self.entity};")
        out("")
        out(f"architecture rtl of {self.entity} is")
        state_list = ", ".join(["S_IDLE"] + states + ["S_DONE"])
        out(f"  type state_t is ({state_list});")
        out("  signal state : state_t := S_IDLE;")
        for name in registers:
            out(f"  signal {_sig(name)} : signed(31 downto 0) := (others => '0');")
        out("  function b32(c : boolean) return signed is")
        out("  begin")
        out("    if c then return to_signed(1, 32); else return to_signed(0, 32); end if;")
        out("  end function;")
        out("begin")
        if self.guard_comment:
            out(f"  -- loop guard: {self.guard_comment}")
        out("  process(clk)")
        for index, op in enumerate(dfg.ops):
            if op.dst is not None:
                out(f"    variable n{index} : signed(31 downto 0) := (others => '0');")
        out("  begin")
        out("    if rising_edge(clk) then")
        out("      if rst = '1' then")
        out("        state <= S_IDLE;")
        out("        done <= '0';")
        out("        mem_we <= '0';")
        out("      else")
        out("        case state is")
        out("          when S_IDLE =>")
        out("            done <= '0';")
        out("            if start = '1' then")
        for name in inputs:
            out(f"              {_sig(name)} <= in_{name.lower()};")
        out(f"              state <= {states[0]};")
        out("            end if;")

        values: dict[Loc, str] = {}
        by_cycle: dict[int, list[int]] = {}
        start_cycle = schedule.start_cycle
        for index in range(len(dfg.ops)):
            by_cycle.setdefault(start_cycle[index], []).append(index)

        emit_op = self._emit_op
        for cycle, state in enumerate(states):
            out(f"          when {state} =>")
            out("            mem_we <= '0';")
            for index in by_cycle.get(cycle, ()):
                emit_op(index, values, out)
            next_state = states[cycle + 1] if cycle + 1 < len(states) else "S_DONE"
            out(f"            state <= {next_state};")
        out("          when S_DONE =>")
        for name in outputs:
            value = values.get(Loc(name))
            out(f"            out_{name.lower()} <= {_sig(name) if value is None else value};")
        out("            done <= '1';")
        out("            state <= S_IDLE;")
        out("        end case;")
        out("      end if;")
        out("    end if;")
        out("  end process;")
        out("end rtl;")
        return "\n".join(lines) + "\n"

    def _emit_op(self, index: int, values: dict, out) -> None:
        op = self.dfg.ops[index]
        code = op.opcode
        target = f"n{index}"
        if code is Opcode.CONST:
            out(f"            {target} := to_signed({_signed(op.a.value)}, 32);")
        elif code is Opcode.MOVE:
            out(f"            {target} := {self._operand(op.a, values)};")
        elif code in _BINOP_FMT:
            expr = _BINOP_FMT[code] % (
                self._operand(op.a, values), self._operand(op.b, values)
            )
            out(f"            {target} := {expr};")
        elif code in (Opcode.SHL, Opcode.SHR, Opcode.SAR):
            a = self._operand(op.a, values)
            fn = {
                Opcode.SHL: "shift_left",
                Opcode.SHR: "shift_right",
                Opcode.SAR: "shift_right",
            }[code]
            if isinstance(op.b, Imm):
                amount = op.b.value & 31
            else:
                amount = f"to_integer({self._operand(op.b, values)}(4 downto 0))"
            if code is Opcode.SHR:
                out(
                    f"            {target} := signed({fn}(unsigned({a}), {amount}));"
                )
            else:
                out(f"            {target} := {fn}({a}, {amount});")
        elif code in (Opcode.MULHI, Opcode.MULHIU):
            a, b = self._operand(op.a, values), self._operand(op.b, values)
            out(f"            {target} := resize(({a} * {b}) srl 32, 32);")
        elif code in (Opcode.DIV, Opcode.DIVU):
            a, b = self._operand(op.a, values), self._operand(op.b, values)
            out(f"            {target} := {a} / {b};  -- serial divider instance")
        elif code in (Opcode.REM, Opcode.REMU):
            a, b = self._operand(op.a, values), self._operand(op.b, values)
            out(f"            {target} := {a} rem {b};  -- serial divider instance")
        elif code is Opcode.LOAD:
            base = self._operand(op.a, values)
            out(
                f"            mem_addr <= unsigned(resize({base} + to_signed({op.offset}, 32), 32));"
            )
            out(f"            {target} := mem_rdata;  -- available next cycle")
        elif code is Opcode.STORE:
            base = self._operand(op.b, values)
            value = self._operand(op.a, values)
            out(
                f"            mem_addr <= unsigned(resize({base} + to_signed({op.offset}, 32), 32));"
            )
            out(f"            mem_wdata <= {value};")
            out("            mem_we <= '1';")
        if op.dst is not None:
            values[op.dst] = target


def _signed(value: int) -> int:
    value &= 0xFFFF_FFFF
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


def emit_vhdl(entity: str, dfg: Dfg, schedule: Schedule, guard_comment: str = "") -> str:
    """Emit RT-level VHDL for one scheduled loop body."""
    return VhdlEmitter(entity, dfg, schedule, guard_comment).emit()
