"""The ``Executable`` image: sections, symbols, serialization.

The serialized form ("SXE" -- simple executable) exists so the decompiler can
be demonstrated on a *file*, the same situation a platform vendor's binary
partitioner faces: nothing but bytes, addresses and (optionally) a symbol
table.  Serialization is exact: ``Executable.from_bytes(exe.to_bytes())``
round-trips (property-tested).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import LinkError

_MAGIC = b"SXE1"


@dataclass(frozen=True)
class Symbol:
    """One symbol-table entry."""

    name: str
    address: int
    is_text: bool

    def __str__(self) -> str:
        kind = "T" if self.is_text else "D"
        return f"{self.address:08x} {kind} {self.name}"


@dataclass
class Executable:
    """A loaded/loadable program image.

    Attributes:
        entry: address where execution starts.
        text_base: address of the first text word.
        text_words: machine instructions as 32-bit ints.
        data_base: address of the initialized data section.
        data: initialized data bytes (little-endian words for .word entries).
        symbols: name -> :class:`Symbol`.
    """

    entry: int
    text_base: int
    text_words: list[int]
    data_base: int
    data: bytes
    symbols: dict[str, Symbol] = field(default_factory=dict)

    # -- queries ---------------------------------------------------------

    @property
    def text_end(self) -> int:
        return self.text_base + 4 * len(self.text_words)

    @property
    def data_end(self) -> int:
        return self.data_base + len(self.data)

    def word_at(self, address: int) -> int:
        """Return the text word at *address* (must be inside .text, aligned)."""
        if address % 4:
            raise LinkError(f"unaligned text address 0x{address:08x}")
        index = (address - self.text_base) // 4
        if not 0 <= index < len(self.text_words):
            raise LinkError(f"text address out of range: 0x{address:08x}")
        return self.text_words[index]

    def function_symbols(self) -> list[Symbol]:
        """Text symbols sorted by address (function entry points)."""
        return sorted(
            (s for s in self.symbols.values() if s.is_text and not s.name.startswith(".")),
            key=lambda s: s.address,
        )

    def function_bounds(self, name: str) -> tuple[int, int]:
        """Return the [start, end) address range of function *name*.

        The end is the next text symbol's address (or the end of .text),
        exactly the heuristic a binary tool must apply.
        """
        funcs = self.function_symbols()
        for index, sym in enumerate(funcs):
            if sym.name == name:
                end = funcs[index + 1].address if index + 1 < len(funcs) else self.text_end
                return sym.address, end
        raise LinkError(f"no such function symbol: {name!r}")

    def address_to_symbol(self) -> dict[int, str]:
        """Reverse symbol map used by the disassembler."""
        return {sym.address: sym.name for sym in self.symbols.values()}

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the SXE container format."""
        sym_blob = bytearray()
        for sym in self.symbols.values():
            name_bytes = sym.name.encode()
            sym_blob += struct.pack("<IBH", sym.address, int(sym.is_text), len(name_bytes))
            sym_blob += name_bytes
        header = struct.pack(
            "<4sIIIIII",
            _MAGIC,
            self.entry,
            self.text_base,
            len(self.text_words),
            self.data_base,
            len(self.data),
            len(self.symbols),
        )
        text_blob = struct.pack(f"<{len(self.text_words)}I", *self.text_words)
        return header + text_blob + self.data + bytes(sym_blob)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Executable":
        """Deserialize an SXE container."""
        header_size = struct.calcsize("<4sIIIIII")
        if len(blob) < header_size:
            raise LinkError("truncated SXE image")
        magic, entry, text_base, n_words, data_base, n_data, n_syms = struct.unpack(
            "<4sIIIIII", blob[:header_size]
        )
        if magic != _MAGIC:
            raise LinkError(f"bad magic {magic!r}; not an SXE image")
        offset = header_size
        words = list(struct.unpack(f"<{n_words}I", blob[offset : offset + 4 * n_words]))
        offset += 4 * n_words
        data = blob[offset : offset + n_data]
        offset += n_data
        symbols: dict[str, Symbol] = {}
        for _ in range(n_syms):
            address, is_text, name_len = struct.unpack("<IBH", blob[offset : offset + 7])
            offset += 7
            name = blob[offset : offset + name_len].decode()
            offset += name_len
            symbols[name] = Symbol(name=name, address=address, is_text=bool(is_text))
        return cls(
            entry=entry,
            text_base=text_base,
            text_words=words,
            data_base=data_base,
            data=data,
            symbols=symbols,
        )
