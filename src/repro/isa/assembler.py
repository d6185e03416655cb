"""Two-pass MIPS assembler.

Accepts the assembly dialect emitted by the mini-C code generator:

* sections ``.text`` / ``.data``, directives ``.word``, ``.half``, ``.byte``,
  ``.space``, ``.align``, ``.asciiz``, ``.globl`` (ignored except recorded),
* labels (``name:``), label arithmetic in ``.word`` (jump tables!),
* all mnemonics from :mod:`repro.isa.instructions`,
* pseudo-instructions ``li``, ``la``, ``move``, ``b``, ``nop``, ``not``,
  ``neg``, ``blt``, ``bgt``, ``ble``, ``bge`` expanded as a real MIPS
  assembler would.  In particular ``move`` expands to ``addiu rd, rs, 0`` --
  the exact arithmetic-with-zero-immediate register-move idiom the paper's
  decompiler removes with constant propagation.

The output is an :class:`~repro.binary.image.Executable` image.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import AssemblerError
from repro.binary.image import Executable, Symbol
from repro.isa.encoding import encode
from repro.isa.instructions import SPECS, Instruction, Syntax
from repro.isa.registers import Reg, reg_num

#: a stripped code line: an optional ``label:``, then the mnemonic or
#: directive, then its operands
_LINE_RE = re.compile(r"(?:([A-Za-z_.$][\w.$]*)\s*:)?\s*(\S*)\s*(.*)", re.S)

TEXT_BASE = 0x0040_0000
DATA_BASE = 0x1001_0000


@dataclass
class _Line:
    """One source line after lexical splitting."""

    number: int
    label: str | None
    op: str | None
    args: list[str]


@dataclass
class _PendingWord:
    """A ``.word`` whose value references a label (resolved in pass 2)."""

    offset: int  # byte offset within the data section
    symbol: str
    addend: int
    line: int


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


class Assembler:
    """Two-pass assembler producing an executable image."""

    def __init__(self, text_base: int = TEXT_BASE, data_base: int = DATA_BASE):
        self.text_base = text_base
        self.data_base = data_base

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def assemble(self, source: str) -> Executable:
        lines = self._lex(source)
        symbols, text_items, data = self._pass1(lines)
        words = self._pass2(text_items, symbols)
        self._patch_data_words(data, symbols)
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
    # pass 0: lexical analysis
    # ------------------------------------------------------------------

    def _lex(self, source: str) -> list[_Line]:
        lines: list[_Line] = []
        for number, raw in enumerate(source.splitlines(), start=1):
            code = self._strip_comment(raw).strip()
            if not code:
                continue
            label, op, rest = _LINE_RE.match(code).groups()
            if not op:
                lines.append(_Line(number, label, None, []))
                continue
            op = op.lower()
            args = [rest] if op == ".asciiz" else _split_args(rest)
            lines.append(_Line(number, label, op, args))
        return lines

    @staticmethod
    def _strip_comment(line: str) -> str:
        if "#" not in line:
            return line
        return line[: _CODE_RE.match(line).end()]

    # ------------------------------------------------------------------
    # pass 1: layout -- assign addresses, expand pseudo sizes, gather data
    # ------------------------------------------------------------------

    def _pass1(
        self, lines: list[_Line]
    ) -> tuple[dict[str, int], list[tuple[_Line, int]], bytearray]:
        symbols: dict[str, int] = {}
        text_items: list[tuple[_Line, int]] = []  # (line, address)
        data = bytearray()
        self._pending_words: list[_PendingWord] = []
        section = "text"
        text_addr = self.text_base

        for line in lines:
            if line.label is not None:
                addr = text_addr if section == "text" else self.data_base + len(data)
                if line.label in symbols:
                    raise AssemblerError(f"line {line.number}: duplicate label {line.label!r}")
                symbols[line.label] = addr
            if line.op is None:
                continue
            if line.op == ".text":
                section = "text"
            elif line.op == ".data":
                section = "data"
            elif line.op == ".globl":
                continue
            elif line.op.startswith("."):
                if section != "data":
                    raise AssemblerError(
                        f"line {line.number}: directive {line.op} only allowed in .data"
                    )
                self._emit_data(line, data)
            else:
                if section != "text":
                    raise AssemblerError(
                        f"line {line.number}: instruction {line.op!r} outside .text"
                    )
                size = self._pseudo_size(line)
                text_items.append((line, text_addr))
                text_addr += 4 * size
        return symbols, text_items, data

    def _emit_data(self, line: _Line, data: bytearray) -> None:
        op = line.op
        if op == ".word":
            for arg in line.args:
                try:  # the common case: a plain integer
                    value = int(arg, 0)
                except ValueError:
                    self._emit_word_arg(arg, data, line.number)
                else:
                    data += (value & 0xFFFF_FFFF).to_bytes(4, "little")
        elif op == ".half":
            for arg in line.args:
                value = _parse_int(arg, line.number)
                data.extend((value & 0xFFFF).to_bytes(2, "little"))
        elif op == ".byte":
            for arg in line.args:
                value = _parse_int(arg, line.number)
                data.append(value & 0xFF)
        elif op == ".space":
            count = _parse_int(line.args[0], line.number)
            data.extend(b"\x00" * count)
        elif op == ".align":
            power = _parse_int(line.args[0], line.number)
            boundary = 1 << power
            while len(data) % boundary:
                data.append(0)
        elif op == ".asciiz":
            text = line.args[0].strip()
            if not (text.startswith('"') and text.endswith('"')):
                raise AssemblerError(f"line {line.number}: .asciiz needs a quoted string")
            decoded = text[1:-1].encode().decode("unicode_escape").encode("latin-1")
            data.extend(decoded + b"\x00")
        else:
            raise AssemblerError(f"line {line.number}: unknown directive {op}")

    def _emit_word_arg(self, arg: str, data: bytearray, line_no: int) -> None:
        arg = arg.strip()
        try:
            value = _parse_int(arg, line_no)
        except AssemblerError:
            # symbol or symbol+offset / symbol-offset
            match = _SYMBOL_RE.match(arg)
            if not match:
                raise AssemblerError(f"line {line_no}: bad .word operand {arg!r}") from None
            addend = int(match.group(2).replace(" ", "")) if match.group(2) else 0
            self._pending_words.append(
                _PendingWord(offset=len(data), symbol=match.group(1), addend=addend, line=line_no)
            )
            value = 0
        data.extend((value & 0xFFFF_FFFF).to_bytes(4, "little"))

    def _patch_data_words(self, data: bytearray, symbols: dict[str, int]) -> None:
        for pending in self._pending_words:
            if pending.symbol not in symbols:
                raise AssemblerError(
                    f"line {pending.line}: undefined symbol {pending.symbol!r} in .word"
                )
            value = (symbols[pending.symbol] + pending.addend) & 0xFFFF_FFFF
            data[pending.offset : pending.offset + 4] = value.to_bytes(4, "little")

    # ------------------------------------------------------------------
    # pseudo-instruction handling
    # ------------------------------------------------------------------

    _PSEUDOS = {"li", "la", "move", "b", "nop", "not", "neg", "blt", "bgt", "ble", "bge"}

    def _pseudo_size(self, line: _Line) -> int:
        """Number of machine instructions this source line expands to."""
        op = line.op
        if op not in self._PSEUDOS:
            if op not in SPECS:
                raise AssemblerError(f"line {line.number}: unknown mnemonic {op!r}")
            return 1
        if op == "li":
            value = _parse_int(line.args[1], line.number)
            return 1 if -0x8000 <= value <= 0xFFFF else 2
        if op == "la":
            return 2
        if op in ("blt", "bgt", "ble", "bge"):
            return 2
        return 1

    def _expand_pseudo(
        self, line: _Line, symbols: dict[str, int], addr: int
    ) -> list[Instruction]:
        op = line.op
        args = line.args
        n = line.number
        if op == "nop":
            return [Instruction("sll", rd=0, rt=0, shamt=0)]
        if op == "move":
            rd, rs = reg_num(args[0]), reg_num(args[1])
            return [Instruction("addiu", rt=rd, rs=rs, imm=0)]
        if op == "not":
            rd, rs = reg_num(args[0]), reg_num(args[1])
            return [Instruction("nor", rd=rd, rs=rs, rt=0)]
        if op == "neg":
            rd, rs = reg_num(args[0]), reg_num(args[1])
            return [Instruction("subu", rd=rd, rs=0, rt=rs)]
        if op == "li":
            rd = reg_num(args[0])
            value = _parse_int(args[1], n)
            if -0x8000 <= value <= 0x7FFF:
                return [Instruction("addiu", rt=rd, rs=0, imm=value)]
            if 0 <= value <= 0xFFFF:
                return [Instruction("ori", rt=rd, rs=0, imm=value)]
            value &= 0xFFFF_FFFF
            hi, lo = value >> 16, value & 0xFFFF
            return [
                Instruction("lui", rt=rd, imm=hi),
                Instruction("ori", rt=rd, rs=rd, imm=lo),
            ]
        if op == "la":
            rd = reg_num(args[0])
            target = self._resolve_label(args[1], symbols, n)
            hi, lo = target >> 16, target & 0xFFFF
            return [
                Instruction("lui", rt=rd, imm=hi),
                Instruction("ori", rt=rd, rs=rd, imm=lo),
            ]
        if op == "b":
            offset = self._branch_offset(args[0], symbols, addr, n)
            return [Instruction("beq", rs=0, rt=0, imm=offset)]
        if op in ("blt", "bgt", "ble", "bge"):
            rs, rt = reg_num(args[0]), reg_num(args[1])
            offset = self._branch_offset(args[2], symbols, addr + 4, n)
            at = int(Reg.AT)
            if op == "blt":
                cmp_instr = Instruction("slt", rd=at, rs=rs, rt=rt)
                br = Instruction("bne", rs=at, rt=0, imm=offset)
            elif op == "bge":
                cmp_instr = Instruction("slt", rd=at, rs=rs, rt=rt)
                br = Instruction("beq", rs=at, rt=0, imm=offset)
            elif op == "bgt":
                cmp_instr = Instruction("slt", rd=at, rs=rt, rt=rs)
                br = Instruction("bne", rs=at, rt=0, imm=offset)
            else:  # ble
                cmp_instr = Instruction("slt", rd=at, rs=rt, rt=rs)
                br = Instruction("beq", rs=at, rt=0, imm=offset)
            return [cmp_instr, br]
        raise AssemblerError(f"line {n}: unhandled pseudo {op!r}")

    # ------------------------------------------------------------------
    # pass 2: encoding
    # ------------------------------------------------------------------

    def _pass2(
        self, text_items: list[tuple[_Line, int]], symbols: dict[str, int]
    ) -> list[int]:
        words: list[int] = []
        for line, addr in text_items:
            if line.op in self._PSEUDOS:
                instrs = self._expand_pseudo(line, symbols, addr)
            else:
                instrs = [self._parse_instruction(line, symbols, addr)]
            for instr in instrs:
                try:
                    words.append(encode(instr))
                except Exception as exc:
                    raise AssemblerError(f"line {line.number}: {exc}") from exc
        return words

    def _resolve_label(self, text: str, symbols: dict[str, int], line_no: int) -> int:
        text = text.strip()
        match = _SYMBOL_RE.match(text)
        if match and match.group(1) in symbols:
            addend = int(match.group(2).replace(" ", "")) if match.group(2) else 0
            return symbols[match.group(1)] + addend
        try:
            return _parse_int(text, line_no)
        except AssemblerError:
            raise AssemblerError(f"line {line_no}: undefined symbol {text!r}") from None

    def _branch_offset(
        self, text: str, symbols: dict[str, int], addr: int, line_no: int
    ) -> int:
        target = self._resolve_label(text, symbols, line_no)
        delta = target - (addr + 4)
        if delta % 4:
            raise AssemblerError(f"line {line_no}: branch target not word aligned")
        offset = delta >> 2
        if not -0x8000 <= offset <= 0x7FFF:
            raise AssemblerError(f"line {line_no}: branch target out of range")
        return offset

    def _parse_instruction(
        self, line: _Line, symbols: dict[str, int], addr: int
    ) -> Instruction:
        op = line.op
        spec = SPECS.get(op)
        if spec is None:
            raise AssemblerError(f"line {line.number}: unknown mnemonic {op!r}")
        args = line.args
        n = line.number
        syn = spec.syntax
        count = _OPERAND_COUNT[op]
        if count is not None and len(args) != count and not (
            syn is Syntax.RD_RS and len(args) == 1  # jalr $rs  (rd defaults to $ra)
        ):
            raise AssemblerError(
                f"line {n}: {op} expects {count} operands, got {len(args)}"
            )

        # most frequent forms first
        if syn is Syntax.RT_RS_IMM:
            return Instruction(
                op, rt=reg_num(args[0]), rs=reg_num(args[1]), imm=_parse_int(args[2], n)
            )
        if syn is Syntax.RT_OFF_BASE:
            match = _MEMORY_RE.match(args[1])
            if not match:
                raise AssemblerError(f"line {n}: bad memory operand {args[1]!r}")
            offset = _parse_int(match.group(1), n) if match.group(1) else 0
            return Instruction(op, rt=reg_num(args[0]), rs=reg_num(match.group(2)), imm=offset)
        if syn is Syntax.RD_RS_RT:
            return Instruction(op, rd=reg_num(args[0]), rs=reg_num(args[1]), rt=reg_num(args[2]))
        if syn is Syntax.RS_RT_LABEL:
            return Instruction(
                op,
                rs=reg_num(args[0]),
                rt=reg_num(args[1]),
                imm=self._branch_offset(args[2], symbols, addr, n),
            )
        if syn is Syntax.TARGET:
            target = self._resolve_label(args[0], symbols, n)
            if target % 4:
                raise AssemblerError(f"line {n}: jump target not word aligned")
            return Instruction(op, target=(target >> 2) & 0x03FF_FFFF)
        if syn is Syntax.RD_RT_SHAMT:
            return Instruction(
                op, rd=reg_num(args[0]), rt=reg_num(args[1]), shamt=_parse_int(args[2], n)
            )
        if syn is Syntax.RD_RT_RS:
            return Instruction(op, rd=reg_num(args[0]), rt=reg_num(args[1]), rs=reg_num(args[2]))
        if syn is Syntax.RS:
            return Instruction(op, rs=reg_num(args[0]))
        if syn is Syntax.RD_RS:
            if len(args) == 1:
                return Instruction(op, rd=int(Reg.RA), rs=reg_num(args[0]))
            return Instruction(op, rd=reg_num(args[0]), rs=reg_num(args[1]))
        if syn is Syntax.RD:
            return Instruction(op, rd=reg_num(args[0]))
        if syn is Syntax.RS_RT:
            return Instruction(op, rs=reg_num(args[0]), rt=reg_num(args[1]))
        if syn is Syntax.RT_IMM:
            return Instruction(op, rt=reg_num(args[0]), imm=_parse_int(args[1], n))
        if syn is Syntax.RS_LABEL:
            return Instruction(
                op, rs=reg_num(args[0]), imm=self._branch_offset(args[1], symbols, addr, n)
            )
        if syn is Syntax.NONE:
            return Instruction(op)
        raise AssemblerError(f"line {n}: unhandled syntax for {op}")


#: operands each syntax takes (None: not checked)
_SYNTAX_OPERANDS = {
    Syntax.RD_RS_RT: 3,
    Syntax.RD_RT_SHAMT: 3,
    Syntax.RD_RT_RS: 3,
    Syntax.RS: 1,
    Syntax.RD_RS: 2,
    Syntax.RD: 1,
    Syntax.RS_RT: 2,
    Syntax.RT_RS_IMM: 3,
    Syntax.RT_IMM: 2,
    Syntax.RT_OFF_BASE: 2,
    Syntax.RS_RT_LABEL: 3,
    Syntax.RS_LABEL: 2,
    Syntax.TARGET: 1,
    Syntax.NONE: None,
}
#: the same per mnemonic (enum members hash in Python; strings do not)
_OPERAND_COUNT = {op: _SYNTAX_OPERANDS[spec.syntax] for op, spec in SPECS.items()}


def assemble(source: str, text_base: int = TEXT_BASE, data_base: int = DATA_BASE) -> Executable:
    """Assemble *source* into an executable image (convenience wrapper)."""
    return Assembler(text_base=text_base, data_base=data_base).assemble(source)
