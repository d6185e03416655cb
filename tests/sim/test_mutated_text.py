"""Engine agreement on corrupted binaries: mutated text, four engines.

The differential suite (:mod:`tests.sim.test_differential`) runs valid
programs.  This one runs suite binaries whose text was damaged the way a
bad image or a miscompile would damage it: one to three words get a bit
flipped, and in half the trials some branches and jumps are retargeted
outside the text.  The reference interpreter, the threaded engine, the
superblock engine unsampled and the superblock engine sampled at the
dynamic flows' interval must then agree exactly:

* either every field of the :class:`~repro.sim.cpu.RunResult` is equal,
* or all four raise the same :mod:`repro.errors` class with the same
  message (an undecodable word, a fault, a pc outside the text, the
  step budget).

Any other exception escapes and fails the test.  ``max_steps`` bounds
every run, so a mutated program that loops forever, or stores to fresh
pages, costs at most that many steps.  Failures reproduce exactly from
the printed seed.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.compiler import compile_source
from repro.errors import EncodingError, ReproError
from repro.isa.encoding import decode
from repro.programs import ALL_BENCHMARKS
from repro.sim import run_reference
from repro.sim.cpu import Cpu
from repro.sim.superblock.leaders import BRANCHES

MAX_STEPS = 20_000
#: the sample interval of the dynamic flows' recordings
INTERVAL = 997
TRIALS_PER_BENCHMARK = 4


@pytest.fixture(scope="module")
def suite():
    return {bench.name: compile_source(bench.source, opt_level=1)
            for bench in ALL_BENCHMARKS}


def mutate(exe, rng: random.Random):
    """*exe* with 1-3 text words bit-flipped and, half the time, 1-3
    branches or jumps retargeted up to 64 words outside the text."""
    words = list(exe.text_words)
    n = len(words)
    for _ in range(rng.randint(1, 3)):
        words[rng.randrange(n)] ^= 1 << rng.randrange(32)
    if rng.random() < 0.5:
        transfers = []
        for i, word in enumerate(words):
            try:
                mnemonic = decode(word).mnemonic
            except EncodingError:
                continue
            if mnemonic in BRANCHES or mnemonic in ("j", "jal"):
                transfers.append((i, mnemonic))
        for i, mnemonic in rng.sample(transfers, min(len(transfers), rng.randint(1, 3))):
            target = n + rng.randrange(64) if rng.random() < 0.5 else -1 - rng.randrange(64)
            if mnemonic in BRANCHES:
                words[i] = (words[i] & ~0xFFFF) | ((target - i - 1) & 0xFFFF)
            else:
                field = ((exe.text_base + 4 * target) >> 2) & 0x3FF_FFFF
                words[i] = (words[i] & ~0x3FF_FFFF) | field
    return replace(exe, text_words=words)


def outcome(run):
    """The run's result, or the class and message of the toolchain
    error it raised."""
    try:
        return run()
    except ReproError as error:
        return type(error), str(error)


def engine_outcomes(exe) -> dict:
    return {
        "reference": outcome(lambda: run_reference(exe, profile=True, max_steps=MAX_STEPS)),
        "threaded": outcome(
            lambda: Cpu(exe, profile=True, engine="threaded").run(MAX_STEPS)),
        "superblock": outcome(lambda: Cpu(exe, profile=True).run(MAX_STEPS)),
        "sampled": outcome(lambda: Cpu(exe, profile=True).run(
            MAX_STEPS, INTERVAL, lambda counts, taken: None)),
    }


def test_engines_agree_on_mutated_text(suite):
    seen = set()
    for name, exe in suite.items():
        for trial in range(TRIALS_PER_BENCHMARK):
            seed = f"{name}/{trial}"
            outcomes = engine_outcomes(mutate(exe, random.Random(seed)))
            want = outcomes.pop("reference")
            for label, got in outcomes.items():
                assert got == want, f"seed {seed!r}: {label} diverged from the reference"
            seen.add(want[0].__name__ if isinstance(want, tuple) else "halt")
    # decode errors, faults, escapes or an exhausted budget, and clean
    # halts must all occur, or the agreement would be vacuous
    assert {"EncodingError", "MemoryFault", "SimulationError", "halt"} <= seen
