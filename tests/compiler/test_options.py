"""Compiler option values that no build can use raise ``ConfigError``."""

from __future__ import annotations

import pytest

from repro.compiler import CompilerOptions, compile_source
from repro.errors import ConfigError, ReproError
from repro.programs import get_benchmark
from repro.sim import run_executable


@pytest.mark.parametrize("factor", [0, -2])
def test_an_unroll_factor_below_one_is_refused(factor):
    with pytest.raises(ConfigError) as caught:
        CompilerOptions.from_level(3, unroll_factor=factor)
    assert isinstance(caught.value, ValueError)
    assert isinstance(caught.value, ReproError)
    with pytest.raises(ValueError):
        CompilerOptions(unroll=True, unroll_factor=factor)


def test_an_unroll_factor_of_one_still_computes_the_checksum():
    fir = get_benchmark("fir")
    exe = compile_source(fir.source, CompilerOptions.from_level(3, unroll_factor=1))
    cpu, _ = run_executable(exe)
    assert cpu.read_word_global_signed("checksum") == fir.expected_checksum()
