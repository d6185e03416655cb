"""Bit-identity gate for the compiler.

One sha256 per ``(benchmark, opt level)`` over the 80 sources of the
``static_suite`` sweep (the 20 benchmarks at -O0..-O3).  Each digest covers
the assembly text from :func:`compile_to_asm` and the assembled
:class:`Executable`: its entry point, every text word, the data bytes and
the sorted symbol table.  A compiler or assembler change that moves one
instruction, one data byte or one symbol address fails here even when the
flow's figures do not move.

Regenerate (only after a reviewed change of compiler output) with::

    PYTHONPATH=src python -m tests.compiler.test_golden_executables --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.compiler import CompilerOptions, compile_to_asm
from repro.isa.assembler import assemble
from repro.programs import ALL_BENCHMARKS

GOLDEN = Path(__file__).with_name("golden_executables.json")
LEVELS = (0, 1, 2, 3)


def digest(name: str, level: int) -> str:
    bench = next(b for b in ALL_BENCHMARKS if b.name == name)
    asm = compile_to_asm(bench.source, CompilerOptions.from_level(level))
    exe = assemble(asm)
    hasher = hashlib.sha256(asm.encode())
    hasher.update(f"\nentry {exe.entry:#x} text {exe.text_base:#x} "
                  f"data {exe.data_base:#x}\n".encode())
    hasher.update(" ".join(f"{word:08x}" for word in exe.text_words).encode())
    hasher.update(b"\n" + exe.data + b"\n")
    for symbol in sorted(exe.symbols.values(), key=lambda s: s.name):
        hasher.update(f"{symbol}\n".encode())
    return hasher.hexdigest()


def _keys() -> list[tuple[str, int]]:
    return [(bench.name, level) for bench in ALL_BENCHMARKS for level in LEVELS]


def test_golden_covers_the_static_suite():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(f"{name}/O{level}" for name, level in _keys())


@pytest.mark.parametrize("name", [bench.name for bench in ALL_BENCHMARKS])
def test_compiler_output_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    differ = [level for level in LEVELS
              if digest(name, level) != golden[f"{name}/O{level}"]]
    assert not differ, f"{name}: compiler output moved at -O{differ}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python -m tests.compiler.test_golden_executables --regen")
    record = {f"{name}/O{level}": digest(name, level) for name, level in _keys()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} digests to {GOLDEN}")
