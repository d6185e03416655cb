"""The mini-C type system: integers of three widths, pointers, arrays.

No floats and no structs -- none of the embedded kernels in the paper's
benchmark suites need them (see DESIGN.md section 5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CompileError


class CType:
    """Base class for mini-C types.  Subclasses define ``size`` in bytes."""

    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    def is_void(self) -> bool:
        return isinstance(self, VoidType)


@dataclass(frozen=True)
class VoidType(CType):
    size: int = 0

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(CType):
    """An integer type of 1, 2 or 4 bytes, signed or unsigned."""

    size: int
    signed: bool

    def __str__(self) -> str:
        names = {1: "char", 2: "short", 4: "int"}
        prefix = "" if self.signed else "unsigned "
        return prefix + names[self.size]

    @property
    def bits(self) -> int:
        return self.size * 8

    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1

    def wrap(self, value: int) -> int:
        """Wrap a Python int into this type's value range (two's complement)."""
        value &= (1 << self.bits) - 1
        if self.signed and value > self.max_value():
            value -= 1 << self.bits
        return value


@dataclass(frozen=True)
class PointerType(CType):
    pointee: CType
    size: int = 4

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(CType):
    element: CType
    length: int

    def __str__(self) -> str:
        return f"{self.element}[{self.length}]"

    @property
    def size(self) -> int:  # type: ignore[override]
        return self.element.size * self.length

    def decay(self) -> PointerType:
        """Array-to-pointer decay (C semantics in expressions)."""
        return PointerType(self.element)


VOID = VoidType()
INT = IntType(4, True)
UINT = IntType(4, False)
SHORT = IntType(2, True)
USHORT = IntType(2, False)
CHAR = IntType(1, True)
UCHAR = IntType(1, False)

_BASE_TYPES = {
    ("int",): INT,
    ("unsigned",): UINT,
    ("unsigned", "int"): UINT,
    ("signed",): INT,
    ("signed", "int"): INT,
    ("short",): SHORT,
    ("short", "int"): SHORT,
    ("signed", "short"): SHORT,
    ("unsigned", "short"): USHORT,
    ("unsigned", "short", "int"): USHORT,
    ("char",): CHAR,
    ("signed", "char"): CHAR,
    ("unsigned", "char"): UCHAR,
    ("void",): VOID,
}

def base_type_from_keywords(words: tuple[str, ...], line: int) -> CType:
    """Resolve a sequence of type keywords ("unsigned short") to a CType.

    ``long`` is accepted as a synonym for ``int`` (both are 32-bit here),
    matching common embedded ABIs.
    """
    normalized = tuple(w for w in words if w != "long") or ("int",)
    ctype = _BASE_TYPES.get(normalized)
    if ctype is None:
        raise CompileError(f"unsupported type {' '.join(words)!r}", line)
    return ctype


def promote(ctype: CType) -> CType:
    """C integer promotion: sub-word integers widen to (unsigned) int."""
    if isinstance(ctype, IntType) and ctype.size < 4:
        return INT
    if isinstance(ctype, ArrayType):
        return ctype.decay()
    return ctype


def common_type(left: CType, right: CType, line: int) -> CType:
    """Usual arithmetic conversions for a binary operator."""
    left, right = promote(left), promote(right)
    if isinstance(left, PointerType) and right.is_integer():
        return left
    if isinstance(right, PointerType) and left.is_integer():
        return right
    if isinstance(left, PointerType) and isinstance(right, PointerType):
        return left
    if left.is_integer() and right.is_integer():
        assert isinstance(left, IntType) and isinstance(right, IntType)
        return UINT if (not left.signed or not right.signed) else INT
    raise CompileError(f"invalid operand types {left} and {right}", line)
