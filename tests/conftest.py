"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro import stages
from repro.compiler import CompilerOptions, compile_source
from repro.decompile import decompile
from repro.decompile.interp import CdfgInterpreter
from repro.sim import run_executable


def compile_and_run(source: str, opt_level: int = 1, max_steps: int = 50_000_000):
    """Compile, simulate to halt, return (cpu, result)."""
    exe = compile_source(source, opt_level=opt_level)
    return run_executable(exe, max_steps=max_steps)


def checksum_of(source: str, opt_level: int = 1, symbol: str = "checksum") -> int:
    """Compile and run; read back a global as signed int."""
    cpu, _ = compile_and_run(source, opt_level)
    return cpu.read_word_global_signed(symbol)


def decompiled_checksum(source: str, opt_level: int = 1, symbol: str = "checksum") -> int:
    """Compile, decompile, run the recovered CDFG, read back a global."""
    exe = compile_source(source, opt_level=opt_level)
    program = decompile(exe)
    assert program.recovered, program.failures
    interp = CdfgInterpreter(program)
    interp.run_main()
    value = interp.memory.read_u32(exe.symbols[symbol].address)
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


@pytest.fixture(scope="session", autouse=True)
def _isolate_flow_cache():
    """Keep unit tests honest and hermetic: the on-disk flow-report cache
    must neither serve stale results to tests that exercise the real
    pipeline (a warm cache would bypass e.g. the parallel runner entirely)
    nor write pickles into the developer's ``~/.cache``.  The cache's own
    tests re-enable it against a tmp directory."""
    previous = os.environ.get("REPRO_CACHE")
    os.environ["REPRO_CACHE"] = "off"
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE", None)
    else:
        os.environ["REPRO_CACHE"] = previous


@pytest.fixture(autouse=True)
def _isolate_stage_memo():
    """Start every test with a cold in-process stage memo, so a test that
    counts (or rebinds) a stage's entry point sees the real call rather
    than an artifact an earlier test left behind."""
    stages.clear()
    yield
    stages.clear()


@pytest.fixture(scope="session")
def all_opt_levels():
    return [0, 1, 2, 3]
