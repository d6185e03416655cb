"""MIPS assembler: two front ends, one back end.

A program reaches the back end as a list of **records**, one per label,
directive or instruction:

* a label definition is its name, a ``str``;
* anything else is a tuple: a mnemonic from :mod:`repro.isa.instructions`,
  a pseudo-op or a directive, then its operands in assembly order.  An
  operand is a register number, an integer, a label reference (a
  :class:`Ref`, or an ``int`` absolute address) or a memory operand,
  which takes two items: the offset, then the base register.  ``("lw",
  8, 4, 29)`` is ``lw $t0, 4($sp)``; ``("beq", 8, 0, Ref("L1"))`` is
  ``beq $t0, $zero, L1``.

The pseudo-ops are ``li``, ``la``, ``move``, ``b``, ``nop``, ``not``,
``neg``, ``blt``, ``bgt``, ``ble`` and ``bge``; the directives ``.text``,
``.data``, ``.word`` (integers or label references: jump tables),
``.half``, ``.byte``, ``.space``, ``.align`` and ``.asciiz`` (its bytes).

The two front ends:

* :func:`parse_text` reads assembly text (hand-written assembly, and
  :func:`assemble`): comments, ``name:`` labels, ``.globl`` (dropped),
  register names, character literals and ``symbol+offset`` references.
* The mini-C code generator (:mod:`repro.compiler.codegen`) builds the
  records itself, so a compile never prints or lexes assembly text.

The back end, :meth:`Assembler.assemble_records`, lays both sections out,
expands the pseudo-ops as a real MIPS assembler would, resolves labels and
encodes every word through :func:`repro.isa.encoding.encode_fields`.  In
particular ``move`` expands to ``addiu rd, rs, 0`` -- the exact
arithmetic-with-zero-immediate register-move idiom the paper's decompiler
removes with constant propagation.  :func:`render` prints records as the
text :func:`parse_text` reads back into the same records.

The output is an :class:`~repro.binary.image.Executable` image.
"""

from __future__ import annotations

import re
from struct import pack
from typing import NamedTuple

from repro.errors import AssemblerError, EncodingError
from repro.binary.image import Executable, Symbol
from repro.isa.encoding import encode_fields
from repro.isa.instructions import SPECS, SYNTAX_SHAPE, Syntax, render_operands
from repro.isa.registers import Reg, reg_num

TEXT_BASE = 0x0040_0000
DATA_BASE = 0x1001_0000


class Ref(NamedTuple):
    """A label reference in a record: the label's address plus *addend*."""

    symbol: str
    addend: int = 0

    def __str__(self) -> str:
        return f"{self.symbol}{self.addend:+d}" if self.addend else self.symbol


# ----------------------------------------------------------------------
# operand shapes
# ----------------------------------------------------------------------

_PSEUDO_SHAPE = {
    "li": "ri", "la": "rl", "move": "rr", "not": "rr", "neg": "rr",
    "b": "l", "nop": "",
    "blt": "rrl", "bgt": "rrl", "ble": "rrl", "bge": "rrl",
}
_DIRECTIVE_SHAPE = {
    ".text": "", ".data": "", ".space": "i", ".align": "i",
    ".word": "*w", ".half": "*i", ".byte": "*i", ".asciiz": "s",
}
#: every record head's shape (``w`` is an integer or a label reference,
#: ``s`` the bytes of a string)
_SHAPES = {
    **{op: SYNTAX_SHAPE[spec.syntax] for op, spec in SPECS.items()},
    **_PSEUDO_SHAPE,
    **_DIRECTIVE_SHAPE,
}


# ----------------------------------------------------------------------
# text front end
# ----------------------------------------------------------------------

#: a stripped code line: an optional ``label:``, then the mnemonic or
#: directive, then its operands
_LINE_RE = re.compile(r"(?:([A-Za-z_.$][\w.$]*)\s*:)?\s*(\S*)\s*(.*)", re.S)
#: a quoted literal ('c' or "text", backslash escapes allowed)
_QUOTED = r"'(?:[^'\\]|\\.)*'" + "|" + r'"(?:[^"\\]|\\.)*"'
#: the code part of a line: everything up to the first ``#`` outside a
#: quoted literal (an unterminated quote runs to the end of the line)
_CODE_RE = re.compile(r"(?:[^\"'#]|" + _QUOTED + r"|[\"'].*)*")
#: an operand separator: a comma outside quotes and parentheses (the
#: protected spans are matched, and so skipped, first; an unclosed
#: parenthesis runs to the end)
_SEPARATOR_RE = re.compile(_QUOTED + r"|\([^)]*\)?|(,)")
_SYMBOL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*([+-]\s*\d+)?$")
_MEMORY_RE = re.compile(r"^(-?\w*)\s*\(\s*(\$\w+)\s*\)$")


def _parse_int(text: str, line: int) -> int:
    text = text.strip()
    try:
        if text.startswith("'") and text.endswith("'") and len(text) >= 3:
            body = text[1:-1]
            unescaped = body.encode().decode("unicode_escape")
            if len(unescaped) != 1:
                raise ValueError(text)
            return ord(unescaped)
        return int(text, 0)
    except ValueError:
        raise AssemblerError(f"line {line}: bad integer literal {text!r}") from None


def _parse_register(text: str, line: int) -> int:
    try:
        return reg_num(text)
    except ValueError as exc:
        raise AssemblerError(f"line {line}: {exc}") from None


def _parse_label(text: str, line: int) -> Ref | int:
    """A label operand: ``symbol``, ``symbol+offset`` or an absolute address."""
    match = _SYMBOL_RE.match(text)
    if match:
        addend = int(match.group(2).replace(" ", "")) if match.group(2) else 0
        return Ref(match.group(1), addend)
    try:
        return _parse_int(text, line)
    except AssemblerError:
        raise AssemblerError(f"line {line}: undefined symbol {text!r}") from None


def _parse_word(text: str, line: int) -> Ref | int:
    try:  # the common case: a plain integer
        return int(text, 0)
    except ValueError:
        pass
    try:
        return _parse_int(text, line)
    except AssemblerError:
        match = _SYMBOL_RE.match(text)
        if not match:
            raise AssemblerError(f"line {line}: bad .word operand {text!r}") from None
        addend = int(match.group(2).replace(" ", "")) if match.group(2) else 0
        return Ref(match.group(1), addend)


def _parse_string(text: str, line: int) -> bytes:
    text = text.strip()
    if not (text.startswith('"') and text.endswith('"')):
        raise AssemblerError(f"line {line}: .asciiz needs a quoted string")
    return text[1:-1].encode().decode("unicode_escape").encode("latin-1")


def _split_args(rest: str) -> list[str]:
    """Split an operand string on commas outside parentheses and quotes."""
    if "(" in rest or "'" in rest or '"' in rest:
        cuts = [m.start() for m in _SEPARATOR_RE.finditer(rest) if m.group(1)]
        bounds = zip([-1] + cuts, cuts + [len(rest)])
        args = [rest[start + 1 : end].strip() for start, end in bounds]
    else:
        args = [arg.strip() for arg in rest.split(",")]
    if not args[-1]:
        args.pop()
    return args


def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line
    return line[: _CODE_RE.match(line).end()]


def _parse_record(op: str, rest: str, line: int) -> tuple:
    """The record for one mnemonic, pseudo-op or directive and its operands."""
    shape = _SHAPES.get(op)
    if shape is None:  # unknown: the back end reports it, knowing the section
        return (op,)
    if shape == "s":
        return (op, _parse_string(rest, line))
    args = _split_args(rest)
    if shape.startswith("*"):
        parse = _parse_word if shape == "*w" else _parse_int
        return (op, *(parse(arg, line) for arg in args))
    if op == "jalr" and len(args) == 1:  # jalr $rs: rd defaults to $ra
        args.insert(0, "$ra")
    if len(args) != len(shape) and shape:  # an operand-less head ignores any
        raise AssemblerError(
            f"line {line}: {op} expects {len(shape)} operands, got {len(args)}"
        )
    record = [op]
    for kind, arg in zip(shape, args):
        if kind == "r":
            record.append(_parse_register(arg, line))
        elif kind == "i":
            record.append(_parse_int(arg, line))
        elif kind == "l":
            record.append(_parse_label(arg, line))
        else:  # m
            match = _MEMORY_RE.match(arg)
            if not match:
                raise AssemblerError(f"line {line}: bad memory operand {arg!r}")
            offset = _parse_int(match.group(1), line) if match.group(1) else 0
            record += (offset, _parse_register(match.group(2), line))
    return tuple(record)


def parse_text(source: str) -> tuple[list, list[int]]:
    """The text front end: *source*'s records, and each one's line number."""
    records: list = []
    lines: list[int] = []
    for number, raw in enumerate(source.splitlines(), start=1):
        code = _strip_comment(raw).strip()
        if not code:
            continue
        label, op, rest = _LINE_RE.match(code).groups()
        if label is not None:
            records.append(label)
            lines.append(number)
        op = op.lower()
        if op and op != ".globl":
            records.append(_parse_record(op, rest, number))
            lines.append(number)
    return records, lines


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def render(records) -> str:
    """Assembly text for *records*: one instruction per indented line; a
    label shares the line of a directive that follows it, and otherwise
    takes a line of its own."""
    out: list[str] = []
    label = None
    for record in records:
        if label is not None and (record.__class__ is str or record[0][0] != "."):
            out.append(f"{label}:")
            label = None
        if record.__class__ is str:
            label = record
            continue
        op = record[0]
        if op[0] == ".":
            line = op if label is None else f"{label}: {op}"
            label = None
        else:
            line = "    " + op
        shape = _SHAPES[op]
        if shape:
            line += " " + render_operands(shape, record[1:])
        out.append(line)
    if label is not None:
        out.append(f"{label}:")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# back end
# ----------------------------------------------------------------------

# the back end's per-head dispatch: real instructions by syntax, each
# pseudo-op by name
(_RT_RS_IMM, _RT_OFF_BASE, _RD_RS_RT, _RS_RT_LABEL, _TARGET, _RD_RT_SHAMT,
 _RD_RT_RS, _RS, _RD_RS, _RD, _RS_RT, _RT_IMM, _RS_LABEL, _NONE,
 _LI, _LA, _MOVE, _NOT, _NEG, _B, _NOP, _BLT, _BGT, _BLE, _BGE) = range(25)
_SYNTAX_KIND = {
    Syntax.RT_RS_IMM: _RT_RS_IMM, Syntax.RT_OFF_BASE: _RT_OFF_BASE,
    Syntax.RD_RS_RT: _RD_RS_RT, Syntax.RS_RT_LABEL: _RS_RT_LABEL,
    Syntax.TARGET: _TARGET, Syntax.RD_RT_SHAMT: _RD_RT_SHAMT,
    Syntax.RD_RT_RS: _RD_RT_RS, Syntax.RS: _RS, Syntax.RD_RS: _RD_RS,
    Syntax.RD: _RD, Syntax.RS_RT: _RS_RT, Syntax.RT_IMM: _RT_IMM,
    Syntax.RS_LABEL: _RS_LABEL, Syntax.NONE: _NONE,
}
#: text record head -> (dispatch kind, spec or None for a pseudo-op, words
#: it expands to; 0 for ``li``, whose value decides between one and two)
_HEADS = {op: (_SYNTAX_KIND[spec.syntax], spec, 1) for op, spec in SPECS.items()}
_HEADS.update({
    "li": (_LI, None, 0), "la": (_LA, None, 2), "move": (_MOVE, None, 1),
    "not": (_NOT, None, 1), "neg": (_NEG, None, 1), "b": (_B, None, 1),
    "nop": (_NOP, None, 1), "blt": (_BLT, None, 2), "bgt": (_BGT, None, 2),
    "ble": (_BLE, None, 2), "bge": (_BGE, None, 2),
})
_ADDIU, _ORI, _LUI = SPECS["addiu"], SPECS["ori"], SPECS["lui"]
_SLL, _NOR, _SUBU, _SLT = SPECS["sll"], SPECS["nor"], SPECS["subu"], SPECS["slt"]
_BEQ, _BNE = SPECS["beq"], SPECS["bne"]
_AT = int(Reg.AT)
#: errors a malformed record raises from Python itself (a wrong operand
#: count, an operand of the wrong type)
_MALFORMED = (TypeError, ValueError, IndexError, KeyError, AttributeError)


def _address(ref, symbols: dict[str, int]) -> int:
    """The address a label operand names."""
    if ref.__class__ is int:
        return ref
    if ref.__class__ is not Ref:
        raise TypeError(ref)
    address = symbols.get(ref.symbol)
    if address is None:
        raise AssemblerError(f"undefined symbol {str(ref)!r}")
    return address + ref.addend


def _branch_offset(ref, symbols: dict[str, int], addr: int) -> int:
    """The offset field of a branch at *addr* to *ref*."""
    delta = _address(ref, symbols) - (addr + 4)
    if delta % 4:
        raise AssemblerError("branch target not word aligned")
    offset = delta >> 2
    if not -0x8000 <= offset <= 0x7FFF:
        raise AssemblerError("branch target out of range")
    return offset


class Assembler:
    """The back end: records (from either front end) to an executable."""

    def __init__(self, text_base: int = TEXT_BASE, data_base: int = DATA_BASE):
        self.text_base = text_base
        self.data_base = data_base

    def assemble(self, source: str) -> Executable:
        """Assemble *source* text (the text front end, then the back end)."""
        records, lines = parse_text(source)
        return self.assemble_records(records, lines)

    def assemble_records(self, records, lines: list[int] | None = None) -> Executable:
        """Lay out, expand, resolve and encode *records*.

        *lines* gives each record's source line for error messages; without
        it an error names the record's index.  Every error is an
        :class:`AssemblerError`.
        """
        symbols, data, data_refs = self._layout(records, lines)
        words = self._encode(records, lines, symbols)
        for index, offset, ref in data_refs:
            try:
                value = _address(ref, symbols) & 0xFFFF_FFFF
            except AssemblerError as exc:
                raise _located(index, lines, f"{exc} in .word") from None
            except _MALFORMED:
                raise _malformed(index, lines, records) from None
            data[offset : offset + 4] = value.to_bytes(4, "little")
        entry = symbols.get("_start", symbols.get("main", self.text_base))
        sym_objects = {
            name: Symbol(name=name, address=addr, is_text=addr < self.data_base)
            for name, addr in symbols.items()
        }
        return Executable(
            entry=entry,
            text_base=self.text_base,
            text_words=words,
            data_base=self.data_base,
            data=bytes(data),
            symbols=sym_objects,
        )

    # ------------------------------------------------------------------
    # pass 1: layout -- label addresses, text sizes, the data section
    # ------------------------------------------------------------------

    def _layout(self, records, lines):
        symbols: dict[str, int] = {}
        data = bytearray()
        data_refs: list[tuple[int, int, Ref]] = []  # (record, data offset, ref)
        in_text = True
        text_addr = self.text_base
        index = 0
        try:
            for index, record in enumerate(records):
                if record.__class__ is str:
                    if record in symbols:
                        raise AssemblerError(f"duplicate label {record!r}")
                    symbols[record] = text_addr if in_text else self.data_base + len(data)
                    continue
                op = record[0]
                head = _HEADS.get(op)
                if head is not None:
                    if not in_text:
                        raise AssemblerError(f"instruction {op!r} outside .text")
                    size = head[2]
                    if not size:  # li
                        size = 1 if -0x8000 <= record[2] <= 0xFFFF else 2
                    text_addr += 4 * size
                elif op == ".text" or op == ".data":
                    in_text = op == ".text"
                elif op.startswith("."):
                    if in_text:
                        raise AssemblerError(f"directive {op} only allowed in .data")
                    self._emit_data(index, record, data, data_refs)
                else:
                    raise AssemblerError(f"unknown mnemonic {op!r}")
        except AssemblerError as exc:
            raise _located(index, lines, exc) from None
        except _MALFORMED:
            raise _malformed(index, lines, records) from None
        return symbols, data, data_refs

    @staticmethod
    def _emit_data(index: int, record, data: bytearray, data_refs: list) -> None:
        op = record[0]
        values = record[1:]
        if op == ".word":
            if not all(value.__class__ is int for value in values):
                values = list(values)
                for position, value in enumerate(values):
                    if value.__class__ is not int:
                        if value.__class__ is not Ref:
                            raise TypeError(value)
                        data_refs.append((index, len(data) + 4 * position, value))
                        values[position] = 0
            data += pack(f"<{len(values)}I", *[value & 0xFFFF_FFFF for value in values])
        elif op == ".half":
            data += pack(f"<{len(values)}H", *[value & 0xFFFF for value in values])
        elif op == ".byte":
            data += bytes([value & 0xFF for value in values])
        elif op == ".space":
            _, count = record
            data += bytes(count)
        elif op == ".align":
            _, power = record
            data += bytes(-len(data) % (1 << power))
        elif op == ".asciiz":
            _, text = record
            data += text + b"\x00"
        else:
            raise AssemblerError(f"unknown directive {op}")

    # ------------------------------------------------------------------
    # pass 2: pseudo expansion, label resolution and encoding
    # ------------------------------------------------------------------

    def _encode(self, records, lines, symbols: dict[str, int]) -> list[int]:
        words: list[int] = []
        emit = words.append
        enc = encode_fields
        base = self.text_base
        index = 0
        try:
            for index, record in enumerate(records):
                if record.__class__ is str:
                    continue
                head = _HEADS.get(record[0])
                if head is None:  # a directive
                    continue
                kind, spec, _ = head
                # most frequent forms first
                if kind == _RT_RS_IMM:
                    _, rt, rs, imm = record
                    emit(enc(spec, 0, rs, rt, 0, imm, 0))
                elif kind == _RT_OFF_BASE:
                    _, rt, offset, rs = record
                    emit(enc(spec, 0, rs, rt, 0, offset, 0))
                elif kind == _RD_RS_RT:
                    _, rd, rs, rt = record
                    emit(enc(spec, rd, rs, rt, 0, 0, 0))
                elif kind == _LI:
                    _, rt, value = record
                    if -0x8000 <= value <= 0x7FFF:
                        emit(enc(_ADDIU, 0, 0, rt, 0, value, 0))
                    elif 0 <= value <= 0xFFFF:
                        emit(enc(_ORI, 0, 0, rt, 0, value, 0))
                    else:
                        value &= 0xFFFF_FFFF
                        emit(enc(_LUI, 0, 0, rt, 0, value >> 16, 0))
                        emit(enc(_ORI, 0, rt, rt, 0, value & 0xFFFF, 0))
                elif kind == _RS_RT_LABEL:
                    _, rs, rt, ref = record
                    offset = _branch_offset(ref, symbols, base + 4 * len(words))
                    emit(enc(spec, 0, rs, rt, 0, offset, 0))
                elif kind == _TARGET:
                    _, ref = record
                    target = _address(ref, symbols)
                    if target % 4:
                        raise AssemblerError("jump target not word aligned")
                    emit(enc(spec, 0, 0, 0, 0, 0, (target >> 2) & 0x03FF_FFFF))
                elif kind == _RD_RT_SHAMT:
                    _, rd, rt, shamt = record
                    emit(enc(spec, rd, 0, rt, shamt, 0, 0))
                elif kind == _RS_LABEL:
                    _, rs, ref = record
                    offset = _branch_offset(ref, symbols, base + 4 * len(words))
                    emit(enc(spec, 0, rs, 0, 0, offset, 0))
                elif kind == _RD:
                    _, rd = record
                    emit(enc(spec, rd, 0, 0, 0, 0, 0))
                elif kind == _RS:
                    _, rs = record
                    emit(enc(spec, 0, rs, 0, 0, 0, 0))
                elif kind == _RS_RT:
                    _, rs, rt = record
                    emit(enc(spec, 0, rs, rt, 0, 0, 0))
                elif kind == _LA:
                    _, rt, ref = record
                    target = _address(ref, symbols)
                    emit(enc(_LUI, 0, 0, rt, 0, target >> 16, 0))
                    emit(enc(_ORI, 0, rt, rt, 0, target & 0xFFFF, 0))
                elif kind == _RD_RT_RS:
                    _, rd, rt, rs = record
                    emit(enc(spec, rd, rs, rt, 0, 0, 0))
                elif kind == _RD_RS:
                    _, rd, rs = record
                    emit(enc(spec, rd, rs, 0, 0, 0, 0))
                elif kind == _RT_IMM:
                    _, rt, imm = record
                    emit(enc(spec, 0, 0, rt, 0, imm, 0))
                elif kind == _NONE:
                    emit(enc(spec, 0, 0, 0, 0, 0, 0))
                elif kind == _MOVE:
                    _, rd, rs = record
                    emit(enc(_ADDIU, 0, rs, rd, 0, 0, 0))
                elif kind == _NOP:
                    emit(enc(_SLL, 0, 0, 0, 0, 0, 0))
                elif kind == _NOT:
                    _, rd, rs = record
                    emit(enc(_NOR, rd, rs, 0, 0, 0, 0))
                elif kind == _NEG:
                    _, rd, rs = record
                    emit(enc(_SUBU, rd, 0, rs, 0, 0, 0))
                elif kind == _B:
                    _, ref = record
                    offset = _branch_offset(ref, symbols, base + 4 * len(words))
                    emit(enc(_BEQ, 0, 0, 0, 0, offset, 0))
                else:  # blt, bgt, ble, bge: slt into $at, then branch on it
                    _, rs, rt, ref = record
                    offset = _branch_offset(ref, symbols, base + 4 * len(words) + 4)
                    if kind == _BGT or kind == _BLE:
                        rs, rt = rt, rs
                    emit(enc(_SLT, _AT, rs, rt, 0, 0, 0))
                    branch = _BNE if kind == _BLT or kind == _BGT else _BEQ
                    emit(enc(branch, 0, _AT, 0, 0, offset, 0))
        except (AssemblerError, EncodingError) as exc:
            raise _located(index, lines, exc) from None
        except _MALFORMED:
            raise _malformed(index, lines, records) from None
        return words


def _located(index: int, lines, message) -> AssemblerError:
    """*message* prefixed with where record *index* came from."""
    where = f"line {lines[index]}" if lines is not None else f"record {index}"
    return AssemblerError(f"{where}: {message}")


def _malformed(index: int, lines, records) -> AssemblerError:
    return _located(index, lines, f"malformed record {records[index]!r}")


def assemble(source: str, text_base: int = TEXT_BASE, data_base: int = DATA_BASE) -> Executable:
    """Assemble *source* text into an executable image (convenience wrapper)."""
    return Assembler(text_base=text_base, data_base=data_base).assemble(source)


def assemble_records(
    records, text_base: int = TEXT_BASE, data_base: int = DATA_BASE
) -> Executable:
    """Assemble *records* into an executable image (convenience wrapper)."""
    return Assembler(text_base=text_base, data_base=data_base).assemble_records(records)
