"""Differential fuzz harness: three engines, one binary, identical stats.

The simulator carries two copies of the MIPS-I semantics: the reference
interpreter (:mod:`repro.sim.reference`, the executable spec) and the
code generator's templates, from which both the threaded handlers and
the superblock units are built.  This suite is what keeps the engines
honest (``tests/sim/test_handler_shapes.py`` checks every handler shape
against the reference on its own):

* every benchmark of the suite runs on all three engines under both the
  hard-core and the soft-core CPI models, and every
  :class:`~repro.sim.cpu.RunResult` field must be bit-identical;
* a seeded generator produces randomized mini-C programs (loops, calls,
  switches that compile to jump tables, sub-word memory traffic,
  multiplication/division) which are compiled at rotating opt levels and
  must agree the same way, memory checksum included.

The generator is deliberately oracle-free: it only needs to emit *valid,
terminating* programs, because the reference interpreter is the oracle.
That keeps it free to generate arithmetic whose C-level behaviour would
be awkward to model (overflow, shifts by variable amounts, division of
negative numbers) -- whatever the binary does, the engines must agree on
it.  Failures reproduce exactly from the printed seed.
"""

from __future__ import annotations

import random

import pytest

from repro.compiler import compile_source
from repro.platform import MIPS_200MHZ, SOFTCORE_85MHZ
from repro.programs import ALL_BENCHMARKS, get_benchmark
from repro.sim import run_executable, run_reference
from repro.sim.cpu import Cpu

# (label, Cpu kwargs, sample interval; 0 runs unsampled).  "sampled" is
# the block tier run in chunks of 997 instructions, the interval of the
# dynamic flows' recordings: an unsampled run that halts folds its
# counters only once, at the end, while the sampled one folds at every
# boundary and single-steps each chunk's tail.
ENGINES = (
    ("threaded", {"engine": "threaded"}, 0),
    ("superblock", {"engine": "superblock"}, 0),
    ("sampled", {"engine": "superblock"}, 997),
)


def run_engine(exe, kwargs, interval, max_steps=100_000_000, cpi=None):
    """Run *exe* profiled under one ENGINES entry; return (cpu, result)."""
    cpu = Cpu(exe, profile=True, cpi=cpi, **kwargs)
    if interval:
        return cpu, cpu.run(max_steps, interval, lambda counts, taken: None)
    return cpu, cpu.run(max_steps)

#: the acceptance bar: the whole suite, on hard- and soft-core platforms
CORES = {"hard": MIPS_200MHZ, "soft": SOFTCORE_85MHZ}
DIFF_BENCHMARKS = [bench.name for bench in ALL_BENCHMARKS]


def assert_identical(new, ref, context=""):
    assert new.steps == ref.steps, context
    assert new.cycles == ref.cycles, context
    assert new.halted == ref.halted, context
    assert new.exit_pc == ref.exit_pc, context
    assert new.taken == ref.taken, context
    assert new.mix == ref.mix, context
    assert new.pc_counts == ref.pc_counts, context
    assert new.edge_counts == ref.edge_counts, context


# -- benchmark suite x platforms x engines ----------------------------------


@pytest.fixture(scope="module")
def compiled():
    cache: dict[str, object] = {}

    def get(name: str):
        if name not in cache:
            cache[name] = compile_source(get_benchmark(name).source, opt_level=1)
        return cache[name]

    return get


class TestBenchmarkSuite:
    @pytest.mark.parametrize("core", sorted(CORES))
    @pytest.mark.parametrize("name", DIFF_BENCHMARKS)
    def test_engines_bit_identical(self, compiled, name, core):
        exe = compiled(name)
        cpi = CORES[core].cpi
        ref = run_reference(exe, profile=True, cpi=cpi)
        for label, kwargs, interval in ENGINES:
            _, got = run_engine(exe, kwargs, interval, cpi=cpi)
            assert_identical(got, ref, f"{name} on {core} core, {label} engine")


# -- randomized program generator -------------------------------------------
#
# Programs are built from terminating-by-construction pieces: bounded for
# loops whose counters the bodies never touch, while loops that decrement
# their own counter, array indices masked to power-of-two bounds, literal
# divisors forced odd (so compile-time constant folding never divides by
# zero).  Everything else -- operand values, operators, call sites, switch
# shapes -- is up to the seed.

_BINOPS = ["+", "-", "*", "&", "|", "^"]
_CMPOPS = ["<", ">", "<=", ">=", "==", "!="]


class _ProgramBuilder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.size = 1 << rng.choice([4, 5, 6])
        self.mask = self.size - 1
        self.scalars = ["s0", "s1", "s2"]

    # -- expressions --

    def value(self, idx_vars: list[str]) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.25:
            return str(rng.randint(-99, 999))
        if roll < 0.5:
            return rng.choice(self.scalars)
        if roll < 0.7 and idx_vars:
            return rng.choice(idx_vars)
        array = rng.choice(["data", "aux"])
        return f"{array}[({self.expr(idx_vars, 1)}) & {self.mask}]"

    def expr(self, idx_vars: list[str], depth: int = 0) -> str:
        rng = self.rng
        if depth >= 2 or rng.random() < 0.35:
            return self.value(idx_vars)
        kind = rng.random()
        left = self.expr(idx_vars, depth + 1)
        if kind < 0.5:
            op = rng.choice(_BINOPS)
            right = self.expr(idx_vars, depth + 1)
            return f"({left} {op} {right})"
        if kind < 0.62:
            op = rng.choice(_CMPOPS)
            right = self.expr(idx_vars, depth + 1)
            return f"({left} {op} {right})"
        if kind < 0.74:
            # shifts by a literal amount keep values bounded-ish
            return f"({left} {rng.choice(['<<', '>>'])} {rng.randint(0, 7)})"
        if kind < 0.86:
            # odd literal-or-expression divisor: never zero, and never a
            # literal zero for the compiler's constant folder either
            right = self.expr(idx_vars, depth + 1)
            return f"({left} {rng.choice(['/', '%'])} (({right}) | 1))"
        return f"(- {left})"  # space matters: "-(-1)" must not lex as "--"

    def call(self, idx_vars: list[str]) -> str:
        a = self.expr(idx_vars, 1)
        b = self.expr(idx_vars, 1)
        return f"mixer({a}, {b})"

    # -- program pieces --

    def helper(self) -> str:
        rng = self.rng
        if rng.random() < 0.7:
            # dense switch: compiles to a data-section jump table + jr
            cases = "\n".join(
                f"    case {value}: return {self.expr(['x', 'y'], 1)};"
                for value in range(rng.randint(6, 9))
            )
            return (
                "int mixer(int x, int y) {\n"
                "    switch (x & 7) {\n"
                f"{cases}\n"
                f"    default: return {self.expr(['x', 'y'], 1)};\n"
                "    }\n"
                "}\n"
            )
        body = self.expr(["x", "y"])
        alt = self.expr(["x", "y"])
        return (
            "int mixer(int x, int y) {\n"
            f"    if ({self.expr(['x', 'y'], 1)})\n"
            f"        return {body};\n"
            f"    return {alt};\n"
            "}\n"
        )

    def store_stmt(self, idx_vars: list[str]) -> str:
        rng = self.rng
        roll = rng.random()
        rhs = self.call(idx_vars) if rng.random() < 0.3 else self.expr(idx_vars)
        if roll < 0.4:
            array = rng.choice(["data", "aux"])
            index = f"({self.expr(idx_vars, 1)}) & {self.mask}"
            return f"{array}[{index}] = {rhs};"
        if roll < 0.6:
            array = rng.choice(["bytes8", "halves16"])
            index = f"({self.expr(idx_vars, 1)}) & {self.mask}"
            return f"{array}[{index}] = {rhs};"
        scalar = rng.choice(self.scalars)
        return f"{scalar} = {rhs};"

    def loop(self, depth: int = 0) -> list[str]:
        rng = self.rng
        var = "i" if depth == 0 else "j"
        bound = rng.randint(4, self.size)
        body: list[str] = []
        idx_vars = ["i", "j"][: depth + 1]
        for _ in range(rng.randint(1, 3)):
            body.append("    " + self.store_stmt(idx_vars))
        if rng.random() < 0.5:
            body.append(f"    if ({self.expr(idx_vars, 1)}) {{")
            body.append("        " + self.store_stmt(idx_vars))
            body.append("    } else {")
            body.append("        " + self.store_stmt(idx_vars))
            body.append("    }")
        if depth == 0 and rng.random() < 0.4:
            inner = self.loop(depth=1)
            body.extend("    " + line for line in inner)
        return [f"for ({var} = 0; {var} < {bound}; {var}++) {{"] + body + ["}"]

    def while_loop(self) -> list[str]:
        count = self.rng.randint(3, 20)
        return [
            f"t = {count};",
            "while (t > 0) {",
            "    t = t - 1;",
            "    " + self.store_stmt(["t"]),
            "}",
        ]

    def build(self) -> str:
        rng = self.rng
        pieces = [
            f"int data[{self.size}];",
            f"int aux[{self.size}];",
            f"char bytes8[{self.size}];",
            f"short halves16[{self.size}];",
            "int s0; int s1; int s2;",
            "int checksum;",
            self.helper(),
        ]
        main: list[str] = ["int i; int j; int t;"]
        for scalar in self.scalars:
            main.append(f"{scalar} = {rng.randint(-50, 500)};")
        main.append(f"for (i = 0; i < {self.size}; i++) {{")
        main.append(f"    data[i] = {self.expr(['i'], 1)};")
        main.append(f"    aux[i] = {self.expr(['i'], 1)};")
        main.append(f"    bytes8[i] = {self.expr(['i'], 1)};")
        main.append(f"    halves16[i] = {self.expr(['i'], 1)};")
        main.append("}")
        for _ in range(rng.randint(1, 3)):
            main.extend(self.loop() if rng.random() < 0.75 else self.while_loop())
        main.append("t = 0;")
        main.append(f"for (i = 0; i < {self.size}; i++) {{")
        main.append("    t = (t ^ data[i]) + aux[i] + bytes8[i] + halves16[i];")
        main.append("}")
        main.append("checksum = t + s0 * 3 + s1 - s2;")
        main.append("return 0;")
        body = "\n    ".join(main)
        pieces.append(f"int main(void) {{\n    {body}\n}}\n")
        return "\n".join(pieces)


def random_program(seed: int) -> str:
    """A valid, terminating mini-C program, reproducible from *seed*."""
    return _ProgramBuilder(random.Random(seed)).build()


class TestRandomPrograms:
    @pytest.mark.parametrize("seed", range(24))
    def test_engines_bit_identical(self, seed):
        source = random_program(seed)
        opt_level = seed % 4  # rotate through the optimizer pipeline too
        exe = compile_source(source, opt_level=opt_level)
        ref = run_reference(exe, profile=True, max_steps=20_000_000)
        checksums = set()
        for label, kwargs, interval in ENGINES:
            cpu, got = run_engine(exe, kwargs, interval, max_steps=20_000_000)
            assert_identical(got, ref, f"seed={seed} -O{opt_level} {label}\n{source}")
            checksums.add(cpu.read_word_global_signed("checksum"))
        assert len(checksums) == 1, f"seed={seed}: engines disagree on memory"

    def test_generator_is_deterministic(self):
        assert random_program(7) == random_program(7)

    def test_generator_covers_jump_tables(self):
        # at least one seed in the tested range must produce a switch dense
        # enough for the compiler's jump-table lowering, so the fuzz suite
        # keeps exercising jr-dispatch through data-section tables
        assert any("switch" in random_program(seed) for seed in range(24))


# -- dispatch hazard programs -----------------------------------------------
#
# Deterministic sources aimed at the spots where the block tier could
# drift from the reference: long fused j-chains, a loop whose hot branch
# direction flips halfway through the run (one arm's units go quiet for
# many folds while the other's start counting), and jump-table dispatch
# landing on lazily materialized suffix blocks.


def _j_chain_ladder(rungs: int) -> str:
    """Empty-else cascades compile to ladders of unconditional ``j``:
    every arm jumps to the join point, so chain fusion gets long
    multi-segment units, and the hot path threads through them."""
    arms = "\n".join(
        f"        if (v == {k}) {{ acc += {k + 1}; }} else {{ acc ^= {k + 3}; }}"
        for k in range(rungs)
    )
    return (
        "int acc;\n"
        "int main(void) {\n"
        "    int i; int v;\n"
        "    acc = 1;\n"
        "    for (i = 0; i < 3000; i++) {\n"
        "        v = i & 7;\n"
        f"{arms}\n"
        "    }\n"
        "    return 0;\n"
        "}\n"
    )


def _phase_flip(iters: int) -> str:
    """A loop whose hot arm flips halfway through the run: the arm that
    was hot in the first phase goes cold while the other one heats up."""
    half = iters // 2
    return (
        "int acc; int alt;\n"
        "int main(void) {\n"
        "    int i;\n"
        "    acc = 0; alt = 0;\n"
        f"    for (i = 0; i < {iters}; i++) {{\n"
        f"        if (i < {half}) {{\n"
        "            acc = acc + (i ^ 3) + (acc >> 2);\n"
        "        } else {\n"
        "            alt = alt + (i | 5) - (alt >> 3);\n"
        "        }\n"
        "    }\n"
        "    return 0;\n"
        "}\n"
    )


def _jr_into_hot_loop(iters: int) -> str:
    """A dense switch inside a hot loop: the jump table dispatches by
    ``jr`` into case bodies that sit on the loop's hot fall-through
    path, so dynamic entries land mid-block and hit lazily materialized
    suffix units."""
    cases = "\n".join(
        f"        case {k}: acc += (acc >> {k + 1}) ^ {k * 7 + 1}; break;"
        for k in range(8)
    )
    return (
        "int acc;\n"
        "int main(void) {\n"
        "    int i;\n"
        "    acc = 5;\n"
        f"    for (i = 0; i < {iters}; i++) {{\n"
        "        switch (acc & 7) {\n"
        f"{cases}\n"
        "        }\n"
        "        acc = acc + i;\n"
        "    }\n"
        "    return 0;\n"
        "}\n"
    )


HAZARDS = {
    "j_chain_ladder": _j_chain_ladder(12),
    "phase_flip": _phase_flip(4000),
    "jr_into_hot_loop": _jr_into_hot_loop(3000),
}


class TestDispatchHazards:
    @pytest.mark.parametrize("name", sorted(HAZARDS))
    @pytest.mark.parametrize("opt_level", [0, 2])
    def test_engines_bit_identical(self, name, opt_level):
        exe = compile_source(HAZARDS[name], opt_level=opt_level)
        ref = run_reference(exe, profile=True)
        for label, kwargs, interval in ENGINES:
            _, got = run_engine(exe, kwargs, interval)
            assert_identical(got, ref, f"{name} -O{opt_level} {label}")

    def test_phase_flip_sampled_matches_threaded(self):
        # folded every 997 instructions, the first phase's arm shows no
        # delta for dozens of folds after the flip, and the second
        # phase's arm none before it
        exe = compile_source(_phase_flip(40_000), opt_level=1)
        block = Cpu(exe, profile=True)
        got = block.run(sample_interval=997, on_sample=lambda counts, taken: None)
        plain, want = run_executable(exe, profile=True, engine="threaded")
        assert_identical(got, want)
        for symbol in ("acc", "alt"):
            assert block.read_word_global_signed(symbol) \
                == plain.read_word_global_signed(symbol)
