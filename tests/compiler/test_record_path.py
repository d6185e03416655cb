"""The compile path hands instruction records to the assembler's back end.

``compile_source`` never prints or lexes assembly text: the code
generator's records go straight to the back end.  Every ``static_suite``
compile must give the executable that assembling the rendered text gives
(``test_golden_executables.py`` pins that text and that executable), and
a malformed record must raise a typed :class:`AssemblerError`.
"""

from __future__ import annotations

import pytest

from repro.compiler import CompilerOptions, compile_source, compile_to_asm
from repro.errors import AssemblerError
from repro.isa.assembler import Ref, assemble, assemble_records, parse_text, render
from repro.programs import ALL_BENCHMARKS

LEVELS = (0, 1, 2, 3)


def _image(exe):
    return (exe.entry, exe.text_words, exe.data,
            sorted((s.name, s.address, s.is_text) for s in exe.symbols.values()))


@pytest.mark.parametrize("name", [bench.name for bench in ALL_BENCHMARKS])
def test_record_path_matches_the_text_path(name):
    bench = next(b for b in ALL_BENCHMARKS if b.name == name)
    for level in LEVELS:
        direct = compile_source(bench.source, opt_level=level)
        text = assemble(compile_to_asm(bench.source, CompilerOptions.from_level(level)))
        assert _image(direct) == _image(text), f"{name} -O{level}"


def test_rendered_text_parses_back_to_the_records():
    records = [
        (".text",), "main", ("addiu", 29, 29, -8), ("sw", 31, 4, 29),
        ("li", 8, 0x12345678), ("la", 9, Ref("tab", 4)), ("sllv", 2, 8, 9),
        ("bne", 8, 0, Ref("main")), ("bltz", 8, Ref("main")), ("blt", 8, 9, Ref("main")),
        ("jal", Ref("main")), ("jalr", 31, 9), ("mult", 8, 9), ("mflo", 2),
        ("lui", 3, 0xFFFF), ("jr", 31), ("nop",), ("break",),
        (".data",), (".align", 2), "tab", (".word", 1, Ref("main"), Ref("tab", -4)),
        "h", (".half", 65535), "b", (".byte", 7, 9), (".space", 3),
        "s", (".asciiz", b'a"b#\n'),
    ]
    text = render(records)
    assert parse_text(text)[0] == records
    assert _image(assemble(text)) == _image(assemble_records(records))


_PROLOGUE = [(".text",), "main"]


@pytest.mark.parametrize("records, message", [
    (_PROLOGUE + [("j", Ref("nowhere"))], "record 2: undefined symbol 'nowhere'"),
    (_PROLOGUE + [("la", 8, Ref("nowhere", 8))], "undefined symbol 'nowhere\\+8'"),
    (_PROLOGUE + [("nop",)] * 40000 + [("beq", 8, 9, Ref("main"))],
     "record 40002: branch target out of range"),
    (_PROLOGUE + [("frobnicate", 8)], "record 2: unknown mnemonic 'frobnicate'"),
    (_PROLOGUE + [("addu", 32, 9, 10)], "record 2: rd out of range: 32"),
    (_PROLOGUE + [("addiu", 8, -1, 0)], "record 2: rs out of range: -1"),
    (_PROLOGUE + [("lw", 8, 0, 40)], "record 2: rs out of range: 40"),
    (_PROLOGUE + [("sll", 8, 9, 32)], "record 2: shamt out of range: 32"),
    (_PROLOGUE + [("li", 99, 5)], "record 2: rt out of range: 99"),
    (_PROLOGUE + [("addu", 8, 9)], "record 2: malformed record"),
    (_PROLOGUE + [()], "record 2: malformed record"),
    (_PROLOGUE + [("beq", 8, 9, "main")], "record 2: malformed record"),
    (_PROLOGUE + [("addu", "$t0", 9, 10)], "record 2: malformed record"),
    (_PROLOGUE + ["main"], "record 2: duplicate label 'main'"),
    (_PROLOGUE + [(".word", 1)], "record 2: directive .word only allowed in .data"),
    ([(".data",), ("addu", 8, 9, 10)], "record 1: instruction 'addu' outside .text"),
    ([(".data",), (".word", Ref("nowhere"))],
     "record 1: undefined symbol 'nowhere' in .word"),
    ([(".data",), (".frob", 1)], "record 1: unknown directive .frob"),
])
def test_bad_records_raise_assembler_errors(records, message):
    with pytest.raises(AssemblerError, match=message):
        assemble_records(records)
