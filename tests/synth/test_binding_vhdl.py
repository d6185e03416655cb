"""Binding, pipelining and VHDL emission tests."""

import re

from repro.compiler import compile_source
from repro.decompile import decompile
from repro.decompile.cdfg import Dfg, DfgEdge
from repro.decompile.dataflow import liveness
from repro.decompile.microop import Imm, Loc, MicroOp, Opcode
from repro.partition.estimator import kernel_fpga_cycles
from repro.partition.profiles import LoopProfile
from repro.synth import (
    Synthesizer,
    SynthesisOptions,
    bind,
    emit_vhdl,
    initiation_interval,
    list_schedule,
)
from repro.synth.fpga import TechnologyModel
from repro.synth.scheduling import ResourceConstraints

_TECH = TechnologyModel()


def _schedule(dfg, constraints):
    """List-schedule *dfg*, its ops priced by the technology model."""
    costs = _TECH.op_costs(dfg.ops)
    return list_schedule(dfg, costs, constraints, _TECH.chain_budget_of(costs))


def _bind(dfg, schedule):
    return bind(dfg, schedule, _TECH.op_costs(dfg.ops), _TECH)


def _ii(dfg, constraints):
    return initiation_interval(dfg, _TECH.op_costs(dfg.ops), constraints)


def _mk(opcode, index, a="R8", b="R9"):
    return MicroOp(opcode, dst=Loc(f"T{index}"), a=Loc(a), b=Loc(b))


class TestBinding:
    def test_disjoint_ops_share_unit(self):
        # two adds in sequence (dependent) share one adder
        ops = [_mk(Opcode.ADD, 0), MicroOp(Opcode.ADD, dst=Loc("T1"), a=Loc("T0"), b=Loc("R9"))]
        dfg = Dfg(ops=ops, edges=[DfgEdge(0, 1, "data")])
        schedule = _schedule(dfg, ResourceConstraints())
        result = _bind(dfg, schedule)
        adders = [u for u in result.units if u.unit_class == "alu"]
        if schedule.start_cycle[0] != schedule.start_cycle[1]:
            assert len(adders) == 1
            assert result.mux_gates > 0  # shared unit grows muxes

    def test_parallel_ops_need_separate_units(self):
        dfg = Dfg(ops=[_mk(Opcode.MUL, 0), _mk(Opcode.MUL, 1)])
        schedule = _schedule(dfg, ResourceConstraints(mul=2))
        result = _bind(dfg, schedule)
        muls = [u for u in result.units if u.unit_class == "mul"]
        assert len(muls) == 2

    def test_logic_never_shared(self):
        ops = [_mk(Opcode.AND, 0), MicroOp(Opcode.AND, dst=Loc("T1"), a=Loc("T0"), b=Loc("R9"))]
        dfg = Dfg(ops=ops, edges=[DfgEdge(0, 1, "data")])
        schedule = _schedule(dfg, ResourceConstraints())
        result = _bind(dfg, schedule)
        logic = [u for u in result.units if u.unit_class == "logic"]
        assert len(logic) == 2

    def test_area_positive_and_composed(self):
        dfg = Dfg(ops=[_mk(Opcode.ADD, 0), _mk(Opcode.MUL, 1)])
        schedule = _schedule(dfg, ResourceConstraints())
        result = _bind(dfg, schedule)
        assert result.total_gates == (
            result.unit_gates + result.register_gates
            + result.mux_gates + result.controller_gates
        )
        assert result.total_gates > 0


class TestInitiationInterval:
    def test_accumulator_recurrence_is_one(self):
        # acc = acc + x: the only cycle is the 1-cycle add
        ops = [MicroOp(Opcode.ADD, dst=Loc("R9"), a=Loc("R9"), b=Loc("R8"))]
        dfg = Dfg(ops=ops)
        dfg.inputs = {Loc("R9"), Loc("R8")}
        estimate = _ii(dfg, ResourceConstraints())
        assert estimate.recurrence_bound == 1

    def test_divider_bounds_ii(self):
        ops = [MicroOp(Opcode.DIV, dst=Loc("T0"), a=Loc("R8"), b=Loc("R9"))]
        dfg = Dfg(ops=ops)
        estimate = _ii(dfg, ResourceConstraints(div=1))
        assert estimate.resource_bound == 32  # serial divider occupies 32 cycles

    def test_memory_port_bound(self):
        loads = [
            MicroOp(Opcode.LOAD, dst=Loc(f"T{i}"), a=Loc("R8"), offset=4 * i)
            for i in range(4)
        ]
        dfg = Dfg(ops=loads)
        two_ports = _ii(dfg, ResourceConstraints(mem=2))
        four_ports = _ii(dfg, ResourceConstraints(mem=4))
        assert two_ports.resource_bound == 2
        assert four_ports.resource_bound == 1


class TestVhdlEmission:
    def _kernel_vhdl(self):
        source = """
        int data[32];
        int out[32];
        int checksum;
        int main(void) {
            int i;
            for (i = 0; i < 32; i++) out[i] = (data[i] * 3 + 1) & 255;
            checksum = out[7];
            return 0;
        }
        """
        exe = compile_source(source, opt_level=1)
        program = decompile(exe)
        func = program.functions["main"]
        loop = func.loops[0]
        kernel = Synthesizer().synthesize_loop(func, loop, exe)
        return kernel.vhdl

    def test_structure_complete(self):
        vhdl = self._kernel_vhdl()
        assert vhdl.count("entity ") == 1
        assert "architecture rtl of" in vhdl
        assert vhdl.count("end rtl;") == 1
        assert "process(clk)" in vhdl
        assert vhdl.count("case state is") == 1
        assert vhdl.count("end case;") == 1
        assert "when S_IDLE" in vhdl and "when S_DONE" in vhdl

    def test_all_states_covered(self):
        vhdl = self._kernel_vhdl()
        declared = re.search(r"type state_t is \(([^)]*)\);", vhdl).group(1)
        for state in (s.strip() for s in declared.split(",")):
            assert f"when {state}" in vhdl or state.startswith("S_"), state
        # every declared plain state has a when arm
        plain = [s.strip() for s in declared.split(",") if s.strip() not in ("S_IDLE", "S_DONE")]
        for state in plain:
            assert f"when {state} =>" in vhdl

    def test_variables_declared_before_use(self):
        vhdl = self._kernel_vhdl()
        assigned = set(re.findall(r"(n\d+)\s*:=", vhdl))
        declared = set(re.findall(r"variable (n\d+) :", vhdl))
        assert assigned <= declared

    def test_handshake_ports(self):
        vhdl = self._kernel_vhdl()
        for port in ("clk", "rst", "start", "done", "mem_addr", "mem_we"):
            assert port in vhdl

    def test_emit_standalone(self):
        ops = [MicroOp(Opcode.ADD, dst=Loc("R9"), a=Loc("R9"), b=Imm(1))]
        dfg = Dfg(ops=ops)
        dfg.inputs = {Loc("R9")}
        dfg.outputs = {Loc("R9")}
        schedule = _schedule(dfg, ResourceConstraints())
        vhdl = emit_vhdl("tiny", dfg, schedule)
        assert "entity tiny is" in vhdl
        assert "in_r9" in vhdl and "out_r9" in vhdl


class TestSynthesizerEstimates:
    def _kernel(self, source, opt_level=1, options=None, loop_index=0):
        exe = compile_source(source, opt_level=opt_level)
        program = decompile(exe)
        func = program.functions["main"]
        loop = func.loops[loop_index]
        return Synthesizer(options).synthesize_loop(func, loop, exe)

    _SIMPLE = """
    int data[64];
    int checksum;
    int main(void) {
        int i;
        for (i = 0; i < 64; i++) data[i] = i * 7;
        checksum = data[10];
        return 0;
    }
    """

    def test_kernel_fields_sane(self):
        kernel = self._kernel(self._SIMPLE)
        assert kernel.area_gates > 0
        assert 0 < kernel.clock_mhz <= 210.0
        assert kernel.ii >= 1
        assert kernel.schedule_length >= kernel.ii
        assert kernel.localized
        assert kernel.bram_bytes == 64 * 4

    def test_cycles_scale_with_iterations(self):
        kernel = self._kernel(self._SIMPLE)

        def cycles(iterations):
            profile = LoopProfile(
                "main", kernel.header_address, 1, list(kernel.block_schedules),
                iterations=iterations, invocations=1,
                block_counts=dict.fromkeys(kernel.block_schedules, iterations),
            )
            return kernel_fpga_cycles(kernel, profile)

        assert cycles(200) > cycles(100)

    def test_unlocalized_when_disabled(self):
        kernel = self._kernel(
            self._SIMPLE, options=SynthesisOptions(localized_memory=False)
        )
        assert not kernel.localized

    def test_adaptive_strength_reduces_muls(self):
        source = """
        int a[32]; int b[32]; int c[32]; int d[32];
        int checksum;
        int main(void) {
            int i;
            for (i = 0; i < 32; i++)
                d[i] = a[i] * 5 + b[i] * 10 + c[i] * 3 + d[i] * 6;
            checksum = d[2];
            return 0;
        }
        """
        constrained = self._kernel(
            source, opt_level=2,
            options=SynthesisOptions(constraints=ResourceConstraints(mul=1)),
        )
        assert constrained.area_gates > 0  # survived with 1 multiplier
