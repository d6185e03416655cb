"""Loop regions: each innermost loop runs inside one generated function.

A region keeps registers and counters in locals across iterations and
writes them back at exit, runs whole iterations under an instruction
budget, and leaves at a block boundary when a guard on a register the
loop writes fails.  Every test here pins that against the other engines:

* sampled runs at intervals 1 to 4,000 on loop-rich O1 and O3 binaries
  fire every sample with the same counters as the threaded engine, and
  finish with the reference interpreter's statistics;
* a *max_steps* budget that runs out inside a region stops on the same
  step, pc, registers and memory on every engine;
* a pointer that walks out of the data window partway through a loop
  fails its per-iteration guard, and the run stays exact;
* a fault inside a region leaves the registers and HI/LO as the
  threaded engine leaves them;
* at least 80% of ``static_suite``'s instructions run inside regions,
  reported at run end as ``engine.instructions_in_regions``.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.compiler import compile_source
from repro.errors import MemoryFault, SimulationError
from repro.isa import assemble
from repro.isa.assembler import DATA_BASE
from repro.programs import ALL_BENCHMARKS, get_benchmark
from repro.sim import run_reference
from repro.sim.cpu import Cpu

from tests.sim.test_differential import assert_identical

#: an inner loop the O3 compiler unrolls, with a data-dependent arm
_UNROLLED = """
int data[64];
int checksum;
int main(void) {
    int i; int r; int acc;
    acc = 0;
    for (r = 0; r < 20; r++) {
        for (i = 0; i < 64; i++) {
            data[i] = data[i] + (i ^ r);
            if (data[i] & 1) acc = acc + data[i];
        }
    }
    checksum = acc;
    return 0;
}
"""


def _exe(name: str, level: int):
    source = _UNROLLED if name == "unrolled" else get_benchmark(name).source
    return compile_source(source, opt_level=level)


def _samples(exe, engine: str, interval: int, **kwargs):
    """(run result, a hash of each sample's counter arrays, the Cpu)."""
    cpu = Cpu(exe, profile=True, engine=engine)
    trace = []

    def on_sample(counts, taken):
        trace.append(hash((tuple(counts), tuple(taken))))

    result = cpu.run(sample_interval=interval, on_sample=on_sample, **kwargs)
    return result, trace, cpu


def _region_instructions(cpu: Cpu) -> set[int]:
    """Instruction indices that run inside region functions."""
    sb = cpu._sb
    return {index for bid in sb.region_bids
            for start, length in sb.members[bid]
            for index in range(start, start + length)}


class TestSampledRegions:
    @pytest.mark.parametrize("key, intervals", [
        ("crc/O1", (7, 97, 997, 4000)),
        ("crc/O3", (7, 97, 997, 4000)),
        ("fir/O1", (97, 997, 4000)),
        ("fir/O3", (97, 997, 4000)),
        ("g721/O1", (997, 4000)),
        ("unrolled/O3", (1, 7, 97, 997, 4000)),
        ("unrolled/O1", (1, 7, 4000)),
    ])
    def test_samples_match_threaded_and_run_matches_reference(self, key, intervals):
        name, level = key.split("/O")
        exe = _exe(name, int(level))
        reference = run_reference(exe, profile=True)
        assert _region_instructions(Cpu(exe)), f"{key}: no loop region formed"
        for interval in intervals:
            expected, expected_trace, _ = _samples(exe, "threaded", interval)
            got, got_trace, cpu = _samples(exe, "superblock", interval)
            assert_identical(got, reference, f"{key} every {interval}")
            assert got_trace == expected_trace, f"{key} every {interval}"
        # a region runs whole iterations only, so at the shorter
        # intervals every chunk may be stepped; at 4,000 regions run
        assert cpu._sb.instructions_in_regions() > 0, key


def _outcome(cpu: Cpu, **kwargs):
    try:
        return cpu.run(**kwargs)
    except SimulationError as error:
        return type(error), str(error)


class TestMaxStepsInsideRegions:
    """A budget that runs out in the middle of a loop iteration."""

    @pytest.mark.parametrize("key", ["crc/O1", "fir/O3", "unrolled/O3"])
    @pytest.mark.parametrize("fraction", [0.31, 0.5, 0.77])
    def test_every_engine_stops_on_the_same_state(self, key, fraction):
        name, level = key.split("/O")
        exe = _exe(name, int(level))
        steps = run_reference(exe).steps
        inside = _region_instructions(Cpu(exe))
        assert inside, f"{key}: no loop region formed"
        for budget in range(int(steps * fraction), steps):
            # move the stop off any region header, into an iteration
            probe = Cpu(exe, engine="threaded")
            _outcome(probe, max_steps=budget)
            stop = (probe.pc - exe.text_base) >> 2
            if stop in inside and (stop - 1) in inside:
                break
        with pytest.raises(SimulationError) as reference:
            run_reference(exe, profile=True, max_steps=budget)
        engines = {
            "threaded": Cpu(exe, profile=True, engine="threaded"),
            "superblock": Cpu(exe, profile=True),
            "sampled": Cpu(exe, profile=True),
        }
        sampled = {"sample_interval": 997, "on_sample": lambda c, t: None}
        outcomes = {
            name: _outcome(cpu, max_steps=budget, **(sampled if name == "sampled" else {}))
            for name, cpu in engines.items()
        }
        for name, outcome in outcomes.items():
            assert outcome == (SimulationError, str(reference.value)), name
        threaded = engines["threaded"]
        for name, cpu in engines.items():
            assert cpu.regs == threaded.regs, name
            assert (cpu.hi, cpu.lo, cpu.pc) == (threaded.hi, threaded.lo, threaded.pc)
            assert {k: bytes(p) for k, p in cpu.memory._pages.items()} == \
                {k: bytes(p) for k, p in threaded.memory._pages.items()}, name


#: $t0 walks a word at a time from the data section's last words past
#: the end of its 4 KiB window; the load in the loop's second block is
#: guarded on $t0, which the loop writes, so the guard is per iteration
_WALK_OUT = f"""
.text
_start:
    li $t0, {DATA_BASE + 4096 - 24}
    li $t2, {DATA_BASE + 4096 + 40}
    li $s0, 0
    li $s1, 0
loop:
    andi $t3, $s1, 1
    beq $t3, $zero, even
    addiu $s0, $s0, 3
even:
    lw $t1, 0($t0)
    sw $s1, 4($t0)
    addu $s0, $s0, $t1
    addiu $s1, $s1, 1
    addiu $t0, $t0, 4
    bne $t0, $t2, loop
    la $t4, total
    sw $s0, 0($t4)
    break
.data
total: .word 7
"""

#: the same walk in a one-block loop: the guard sits on the header
_WALK_OUT_SELF = f"""
.text
_start:
    li $t0, {DATA_BASE + 4096 - 24}
    li $t2, {DATA_BASE + 4096 + 40}
    li $s0, 0
loop:
    lw $t1, 0($t0)
    sw $s0, 4($t0)
    addu $s0, $s0, $t1
    addiu $s0, $s0, 1
    addiu $t0, $t0, 4
    bne $t0, $t2, loop
    la $t4, total
    sw $s0, 0($t4)
    break
.data
total: .word 7
"""


#: the same walk with the guarded load on one arm of a branch: in an
#: iteration whose guard fails there, the region leaves before the join
#: (``skip``), so the join must not be counted as entered
_WALK_OUT_ARM = f"""
.text
_start:
    li $t0, {DATA_BASE + 4096 - 24}
    li $t2, {DATA_BASE + 4096 + 40}
    li $s0, 0
    li $s1, 0
loop:
    andi $t3, $s1, 1
    beq $t3, $zero, skip
    lw $t1, 0($t0)
    addu $s0, $s0, $t1
skip:
    addiu $s1, $s1, 1
    addiu $t0, $t0, 4
    bne $t0, $t2, loop
    la $t4, total
    sw $s0, 0($t4)
    break
.data
total: .word 7
"""


class TestInductionGuardLeavesTheWindow:
    @pytest.mark.parametrize("source", [_WALK_OUT, _WALK_OUT_SELF, _WALK_OUT_ARM],
                             ids=["member", "header", "arm"])
    @pytest.mark.parametrize("sampled", [False, True], ids=["unsampled", "sampled"])
    def test_walk_out_of_the_data_window_is_exact(self, source, sampled):
        exe = assemble(source)
        kwargs = {"sample_interval": 50, "on_sample": lambda c, t: None} \
            if sampled else {}
        reference = run_reference(exe, profile=True)
        threaded = Cpu(exe, profile=True, engine="threaded")
        threaded.run(**kwargs)
        cpu = Cpu(exe, profile=True)
        assert _region_instructions(cpu), "the loop must run as a region"
        got = cpu.run(**kwargs)
        assert_identical(got, reference)
        assert cpu.regs == threaded.regs
        assert {k: bytes(p) for k, p in cpu.memory._pages.items()} == \
            {k: bytes(p) for k, p in threaded.memory._pages.items()}
        # the first iterations ran in the region, the last ones did not
        assert 0 < cpu._sb.instructions_in_regions() < got.steps


#: a loop that faults in its sixth iteration: ``lh`` at an odd address,
#: after the iteration wrote registers and HI/LO
_FAULTS = f"""
.text
_start:
    li $t0, {DATA_BASE}
    li $t2, 100
    li $s0, 0
    li $s2, 0
loop:
    addiu $s0, $s0, 7
    mult $s0, $t2
    mflo $s1
    sltiu $t5, $s2, 5
    xori $t5, $t5, 1
    addu $t4, $t0, $t5
    lh $t3, 0($t4)
    addu $s1, $s1, $t3
    addiu $s2, $s2, 1
    bne $s2, $t2, loop
    break
.data
half: .word 0x00050003
"""


class TestFaultInsideRegion:
    @pytest.mark.parametrize("sampled", [False, True], ids=["unsampled", "sampled"])
    def test_registers_are_exact_at_the_fault(self, sampled):
        exe = assemble(_FAULTS)
        kwargs = {"sample_interval": 13, "on_sample": lambda c, t: None} \
            if sampled else {}
        threaded = Cpu(exe, profile=True, engine="threaded")
        expected = _outcome(threaded, **kwargs)
        assert expected[0] is MemoryFault
        # $s0, $s1 = LO and $s2 as the sixth pass left them
        assert threaded.regs[16:19] == [42, 4200, 5]
        assert threaded._hilo == [0, 4200]
        cpu = Cpu(exe, profile=True)
        assert _region_instructions(cpu), "the loop must run as a region"
        assert _outcome(cpu, **kwargs) == expected
        assert cpu.regs == threaded.regs
        assert cpu._hilo == threaded._hilo


@pytest.fixture
def telemetry(monkeypatch):
    monkeypatch.delenv(obs.ENABLE_ENV, raising=False)
    obs.clear_metrics()
    obs.enable(tracing=False)
    yield
    obs.disable()
    obs.clear_metrics()


def test_static_suite_runs_mostly_inside_regions(telemetry):
    """Innermost loops with static control flow hold most of the suite's
    instructions; at least 80% of them must run inside region functions,
    as the run-end metric reports."""
    for benchmark in ALL_BENCHMARKS:
        for level in range(4):
            Cpu(compile_source(benchmark.source, opt_level=level)).run()
    registry = obs.registry()
    total = registry.get("engine.instructions_total").value
    in_regions = registry.get("engine.instructions_in_regions").value
    assert in_regions <= registry.get("engine.instructions_in_blocks").value
    assert in_regions >= 0.8 * total, f"{in_regions / total:.3f} in regions"
