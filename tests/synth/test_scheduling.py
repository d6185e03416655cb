"""Scheduling tests: directed cases plus hypothesis properties on random
DFGs (dependences respected, resource limits honoured, list >= ASAP)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.decompile.cdfg import Dfg, DfgEdge
from repro.decompile.microop import Imm, Loc, MicroOp, Opcode
from repro.errors import ResourceConstraintError
from repro.synth.fpga import DEFAULT_DEVICE, FpgaDevice, TechnologyModel
from repro.synth.pipeline import initiation_interval
from repro.synth.scheduling import (
    ResourceConstraints,
    alap_schedule,
    asap_schedule,
    list_schedule,
)

_TECH = TechnologyModel()


def _op(opcode, index):
    return MicroOp(opcode, dst=Loc(f"T{index}"), a=Loc("R8"), b=Loc("R9"))


def _chain_dfg(opcodes):
    """A linear dependence chain of the given opcodes."""
    ops = [_op(code, index) for index, code in enumerate(opcodes)]
    dfg = Dfg(ops=ops)
    for index in range(1, len(ops)):
        dfg.edges.append(DfgEdge(index - 1, index, "data"))
    return dfg


def _parallel_dfg(opcodes):
    return Dfg(ops=[_op(code, index) for index, code in enumerate(opcodes)])


class TestAsapAlap:
    def test_chain_length_sums_latencies(self):
        dfg = _chain_dfg([Opcode.ADD, Opcode.MUL, Opcode.ADD])
        schedule = asap_schedule(dfg, _TECH)
        # add(1) -> mul(2) -> add(1)
        assert schedule.length == 4

    def test_alap_within_asap_length(self):
        dfg = _chain_dfg([Opcode.ADD] * 5)
        asap = asap_schedule(dfg, _TECH)
        alap = alap_schedule(dfg, asap.length, _TECH)
        for node in range(5):
            assert alap.start_cycle[node] >= asap.start_cycle[node]

    def test_independent_ops_start_at_zero_asap(self):
        dfg = _parallel_dfg([Opcode.ADD] * 4)
        schedule = asap_schedule(dfg, _TECH)
        assert all(c == 0 for c in schedule.start_cycle.values())


class TestListScheduling:
    def test_resource_limit_serializes(self):
        dfg = _parallel_dfg([Opcode.MUL] * 4)
        tight = list_schedule(dfg, ResourceConstraints(mul=1), _TECH)
        loose = list_schedule(dfg, ResourceConstraints(mul=4), _TECH)
        assert tight.length > loose.length

    def test_chaining_packs_logic_ops(self):
        # four dependent logic ops chain into far fewer cycles than four
        dfg = _chain_dfg([Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.AND])
        schedule = list_schedule(dfg, ResourceConstraints(), _TECH)
        assert schedule.length <= 2

    def test_multicycle_ops_do_not_chain(self):
        dfg = _chain_dfg([Opcode.AND, Opcode.MUL])
        schedule = list_schedule(dfg, ResourceConstraints(), _TECH)
        # the multiplier starts at a register boundary after the AND's cycle
        assert schedule.start_cycle[1] > schedule.start_cycle[0]

    def test_empty_dfg(self):
        schedule = list_schedule(Dfg(ops=[]), ResourceConstraints(), _TECH)
        assert schedule.length == 0


class TestResourceConstraints:
    @pytest.mark.parametrize("value", [-3, -1, 1.5, "2", None, True, False])
    def test_bad_limits_are_rejected(self, value):
        for name in ("alu", "mul", "mem", "div"):
            with pytest.raises(ValueError, match=name):
                ResourceConstraints(**{name: value})

    def test_zero_units_is_a_valid_budget(self):
        assert ResourceConstraints(alu=0).limit("alu") == 0

    def test_ii_with_no_units_of_a_needed_class_is_a_typed_error(self):
        # list scheduling and the II estimate agree: no ALU, no schedule
        dfg = _parallel_dfg([Opcode.ADD, Opcode.ADD])
        with pytest.raises(ResourceConstraintError, match="alu"):
            list_schedule(dfg, ResourceConstraints(alu=0), _TECH)
        with pytest.raises(ResourceConstraintError, match="alu"):
            initiation_interval(dfg, ResourceConstraints(alu=0), _TECH)

    def test_ii_ignores_classes_the_body_does_not_use(self):
        dfg = _parallel_dfg([Opcode.ADD, Opcode.ADD])
        estimate = initiation_interval(dfg, ResourceConstraints(mul=0, div=0), _TECH)
        assert estimate.resource_bound == 1


class TestChainBudgetDevice:
    """Chaining packs ops into the clock period of the device the kernel
    is synthesized for, not of the default device."""

    SLOW = FpgaDevice("slow50", 100_000, 48 * 1024, 50.0)

    def test_budget_follows_the_device_ceiling(self):
        ops = _chain_dfg([Opcode.AND] * 2).ops
        assert _TECH.chain_budget_ns(ops, self.SLOW) == pytest.approx(18.4)
        assert _TECH.chain_budget_ns(ops, DEFAULT_DEVICE) == pytest.approx(
            1000.0 / DEFAULT_DEVICE.max_clock_mhz - _TECH.CLOCK_OVERHEAD_NS
        )

    def test_a_slow_device_chains_more_per_cycle(self):
        # six dependent adds (3.0 ns each): one per cycle under the default
        # 210 MHz ceiling, six in one 20 ns cycle at 50 MHz
        dfg = _chain_dfg([Opcode.ADD] * 6)
        fast = list_schedule(dfg, ResourceConstraints(), _TECH)
        slow = list_schedule(dfg, ResourceConstraints(), _TECH, device=self.SLOW)
        assert fast.length == 6
        assert slow.length == 1
        assert set(slow.start_cycle.values()) == {0}

    def test_synthesizer_schedules_for_its_device(self):
        from repro.compiler import compile_source
        from repro.decompile import decompile
        from repro.programs import get_benchmark
        from repro.synth import SynthesisOptions, Synthesizer

        exe = compile_source(get_benchmark("brev").source, opt_level=1)
        func = decompile(exe).functions["brev_block"]
        loop = func.loops[0]
        fast = Synthesizer().synthesize_loop(func, loop, exe)
        slow = Synthesizer(SynthesisOptions(device=self.SLOW)).synthesize_loop(
            func, loop, exe
        )
        assert slow.clock_mhz == 50.0
        # the 20 ns cycle chains more of the body: fewer FSM states
        assert sum(slow.block_schedules.values()) < sum(fast.block_schedules.values())


# -- property-based: random DAGs -------------------------------------------

_OPCODES = [Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.MUL, Opcode.SHL, Opcode.LT]


@st.composite
def random_dfgs(draw):
    count = draw(st.integers(1, 14))
    ops = []
    for index in range(count):
        code = draw(st.sampled_from(_OPCODES))
        if code is Opcode.SHL:
            ops.append(MicroOp(code, dst=Loc(f"T{index}"), a=Loc("R8"), b=Imm(3)))
        else:
            ops.append(_op(code, index))
    dfg = Dfg(ops=ops)
    for dst in range(1, count):
        for src in range(dst):
            if draw(st.booleans()) and draw(st.booleans()):
                dfg.edges.append(DfgEdge(src, dst, "data"))
    return dfg


@settings(max_examples=60, deadline=None)
@given(random_dfgs(), st.integers(1, 3), st.integers(1, 2))
def test_list_schedule_respects_dependences_and_resources(dfg, alus, muls):
    constraints = ResourceConstraints(alu=alus, mul=muls)
    schedule = list_schedule(dfg, constraints, _TECH)

    # every op scheduled exactly once
    assert set(schedule.start_cycle) == set(range(len(dfg.ops)))

    # dependences: a consumer never starts before its producer starts, and
    # only shares the producer's cycle via legal chaining (single-cycle ops)
    for edge in dfg.edges:
        src_start = schedule.start_cycle[edge.src]
        dst_start = schedule.start_cycle[edge.dst]
        src_end = src_start + schedule.latency[edge.src]
        assert dst_start >= src_start
        if dst_start < src_end:
            assert schedule.latency[edge.src] == 1
            assert dst_start == src_start

    # resource limits per cycle (constrained classes only)
    for cycle in range(schedule.length):
        usage = {}
        for node in schedule.start_cycle:
            start = schedule.start_cycle[node]
            if start <= cycle < start + schedule.latency[node]:
                klass = _TECH.op_cost(dfg.ops[node]).unit_class
                usage[klass] = usage.get(klass, 0) + 1
        assert usage.get("alu", 0) <= alus
        assert usage.get("mul", 0) <= muls


@settings(max_examples=40, deadline=None)
@given(random_dfgs())
def test_list_schedule_never_beats_asap(dfg):
    asap = asap_schedule(dfg, _TECH)
    listed = list_schedule(dfg, ResourceConstraints(alu=64, mul=64, mem=64, div=64), _TECH)
    # with effectively unlimited resources, chaining can only help
    assert listed.length <= asap.length
