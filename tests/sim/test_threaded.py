"""Differential tests for the fast interpreters (threaded + superblock).

Both fast engines in ``repro.sim.cpu`` derive their statistics from
per-site counter arrays instead of collecting them inline, so these tests
pin them against the straight-line reference interpreter
(``repro.sim.reference``): every stat of :class:`RunResult` must be
bit-identical, on real compiled benchmarks and on hand-written corner
cases.  Every test runs per engine -- the threaded engine stays live code
(chunk-tail single-stepping, ``--engine threaded``, the ``--smoke`` A/B
baseline) and must keep its own corner-case coverage now that the
superblock engine is the default.
"""

import pytest

from repro.compiler import compile_source
from repro.isa import assemble
from repro.programs import ALL_BENCHMARKS, get_benchmark
from repro.sim import CpiModel, run_executable, run_reference

#: the acceptance bar is the whole suite, and a differential run is cheap
DIFF_BENCHMARKS = [bench.name for bench in ALL_BENCHMARKS]

ENGINES = ["threaded", "superblock"]


@pytest.fixture(params=ENGINES)
def engine(request):
    return request.param


def assert_identical(new, ref):
    assert new.steps == ref.steps
    assert new.cycles == ref.cycles
    assert new.halted == ref.halted
    assert new.exit_pc == ref.exit_pc
    assert new.taken == ref.taken
    assert new.mix == ref.mix
    assert new.pc_counts == ref.pc_counts
    assert new.edge_counts == ref.edge_counts


class TestDifferentialBenchmarks:
    @pytest.mark.parametrize("name", DIFF_BENCHMARKS)
    def test_profiled_run_matches_reference(self, name, engine):
        exe = compile_source(get_benchmark(name).source, opt_level=1)
        _, new = run_executable(exe, profile=True, engine=engine)
        ref = run_reference(exe, profile=True)
        assert_identical(new, ref)

    @pytest.mark.parametrize("opt_level", [0, 2, 3])
    def test_opt_levels_match_reference(self, opt_level, engine):
        exe = compile_source(get_benchmark("crc").source, opt_level=opt_level)
        _, new = run_executable(exe, profile=True, engine=engine)
        ref = run_reference(exe, profile=True)
        assert_identical(new, ref)

    def test_unprofiled_run_matches_reference(self, engine):
        exe = compile_source(get_benchmark("brev").source, opt_level=1)
        _, new = run_executable(exe, engine=engine)
        ref = run_reference(exe)
        assert_identical(new, ref)
        assert not new.mix and not new.pc_counts and not new.edge_counts

    def test_custom_cpi_matches_reference(self, engine):
        cpi = CpiModel(load=7, store=3, taken_penalty=2, div=11)
        exe = compile_source(get_benchmark("fir").source, opt_level=1)
        _, new = run_executable(exe, profile=True, cpi=cpi, engine=engine)
        ref = run_reference(exe, profile=True, cpi=cpi)
        assert_identical(new, ref)


def run_asm_both(body: str, data: str = "scratch: .word 0", profile: bool = True,
                 engine: str = "superblock"):
    source = f".text\n_start:\n{body}\n    break\n.data\n{data}\n"
    exe = assemble(source)
    _, new = run_executable(exe, profile=profile, engine=engine)
    ref = run_reference(exe, profile=profile)
    return exe, new, ref


class TestCornerCases:
    def test_jalr_records_call_edge(self, engine):
        """jalr must profile its edge like every other control transfer."""
        exe, new, ref = run_asm_both(
            """    la $t0, callee
    jalr $t1, $t0
    j done
callee:
    jr $t1
done:
""",
            engine=engine,
        )
        assert_identical(new, ref)
        jalr_pc = None
        callee = exe.symbols["callee"].address
        for (src, dst), count in new.edge_counts.items():
            if dst == callee:
                jalr_pc = src
                assert count == 1
        assert jalr_pc is not None, "jalr edge missing from profile"

    def test_branch_to_own_fallthrough(self, engine):
        # taken branch with offset 0 still pays the penalty and records
        # an edge distinct from the fall-through path
        _, new, ref = run_asm_both(
            "    li $t0, 1\n    li $t1, 1\n    beq $t0, $t1, next\nnext:\n",
            engine=engine,
        )
        assert_identical(new, ref)

    def test_dense_call_graph(self, engine):
        _, new, ref = run_asm_both(
            """    li $s0, 0
    li $s1, 0
outer:
    jal helper
    addiu $s1, $s1, 1
    li $t2, 6
    bne $s1, $t2, outer
    j done
helper:
    addiu $s0, $s0, 3
    jr $ra
done:
""",
            engine=engine,
        )
        assert_identical(new, ref)

    def test_writes_to_zero_register_ignored(self, engine):
        _, new, ref = run_asm_both(
            "    li $t0, 5\n    addiu $zero, $t0, 7\n    addu $t1, $zero, $zero\n",
            engine=engine,
        )
        assert_identical(new, ref)

    def test_rerun_resets_statistics(self, engine):
        source = ".text\n_start:\n    li $t0, 3\nspin:\n    addiu $t0, $t0, -1\n    bne $t0, $zero, spin\n    break\n"
        exe = assemble(source)
        cpu, first = run_executable(exe, profile=True, engine=engine)
        second = cpu.run()  # resumes at the break: one step, no stale counts
        assert second.steps == 1
        assert second.halted
        assert second.exit_pc == first.exit_pc
        assert first.steps > second.steps

    def test_profile_and_cpi_are_constructor_only(self, engine):
        # the executor table bakes these in at build time; late assignment
        # would silently desync it, so it must fail loudly instead
        exe = assemble(".text\n_start:\n    break\n")
        cpu, _ = run_executable(exe, engine=engine)
        with pytest.raises(AttributeError):
            cpu.profile = True
        with pytest.raises(AttributeError):
            cpu.cpi = CpiModel()

    def test_hi_lo_survive_across_runs(self, engine):
        source = ".text\n_start:\n    li $t0, 6\n    li $t1, 7\n    mult $t0, $t1\n    break\n"
        exe = assemble(source)
        cpu, _ = run_executable(exe, engine=engine)
        assert cpu.lo == 42

    def test_unknown_engine_rejected(self):
        exe = assemble(".text\n_start:\n    break\n")
        with pytest.raises(ValueError):
            run_executable(exe, engine="jit")
