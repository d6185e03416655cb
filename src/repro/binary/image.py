"""The ``Executable`` image: sections, symbols, serialization.

The serialized form ("SXE" -- simple executable) exists so the decompiler can
be demonstrated on a *file*, the same situation a platform vendor's binary
partitioner faces: nothing but bytes, addresses and (optionally) a symbol
table.  Serialization is exact: ``Executable.from_bytes(exe.to_bytes())``
round-trips (property-tested), and ``from_bytes`` raises
:class:`~repro.errors.LinkError` on any image that is not exactly one
well-formed container -- truncated sections, trailing bytes, symbol names
that are not UTF-8.

An :class:`Executable` is immutable: its fields cannot be reassigned, the
text is a tuple and the data ``bytes``.  The symbol table stays a dict,
which must not be mutated either.  That lets an image carry its
:attr:`~Executable.digest` -- a hash of its serialized form, computed on
first use and cached -- which keys every per-binary memo
(:mod:`repro.stages`) without serializing the binary again, and its
decoded text (:attr:`~Executable.instructions`).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import LinkError

_MAGIC = b"SXE1"
_HEADER = struct.Struct("<4sIIIIII")
_SYMBOL = struct.Struct("<IBH")


@dataclass(frozen=True)
class Symbol:
    """One symbol-table entry."""

    name: str
    address: int
    is_text: bool

    def __str__(self) -> str:
        kind = "T" if self.is_text else "D"
        return f"{self.address:08x} {kind} {self.name}"


@dataclass(frozen=True)
class Executable:
    """A loaded/loadable program image, immutable once built.

    Attributes:
        entry: address where execution starts.
        text_base: address of the first text word.
        text_words: machine instructions as 32-bit ints (a tuple; any
            sequence passed in is copied into one).
        data_base: address of the initialized data section.
        data: initialized data bytes (little-endian words for .word entries).
        symbols: name -> :class:`Symbol`.  Must not be mutated: the cached
            :attr:`digest` covers it.
    """

    entry: int
    text_base: int
    text_words: tuple[int, ...]
    data_base: int
    data: bytes
    symbols: dict[str, Symbol] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "text_words", tuple(self.text_words))
        object.__setattr__(self, "data", bytes(self.data))

    @cached_property
    def digest(self) -> str:
        """Hex blake2b of :meth:`to_bytes`: equal images, equal digests.
        Computed once per object."""
        return hashlib.blake2b(self.to_bytes(), digest_size=16).hexdigest()

    @cached_property
    def instructions(self) -> tuple:
        """The text decoded, one ``Instruction`` per word, computed once per
        object: the simulator, the decompiler and the profile mapper share it."""
        from repro.isa.encoding import decode_text

        return decode_text(self.text_words)

    def __getstate__(self) -> dict:
        # a pickled image carries no decoding: the receiver rebuilds it
        state = dict(self.__dict__)
        state.pop("instructions", None)
        return state

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
            sym_blob += _SYMBOL.pack(sym.address, int(sym.is_text), len(name_bytes))
            sym_blob += name_bytes
        header = _HEADER.pack(
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
        """Deserialize an SXE container.

        Raises :class:`LinkError` unless *blob* is exactly one well-formed
        image: every section inside it, nothing after the last symbol, each
        symbol name valid UTF-8 and unique, each kind flag 0 or 1.
        """
        blob = bytes(blob)
        if len(blob) < _HEADER.size:
            raise LinkError("truncated SXE image")
        magic, entry, text_base, n_words, data_base, n_data, n_syms = \
            _HEADER.unpack_from(blob)
        if magic != _MAGIC:
            raise LinkError(f"bad magic {magic!r}; not an SXE image")
        offset = _HEADER.size

        def section(size: int, what: str) -> int:
            """Claim *size* bytes at *offset*; returns where they start."""
            nonlocal offset
            start = offset
            if start + size > len(blob):
                raise LinkError(
                    f"truncated SXE image: {what} needs {size} bytes at "
                    f"offset {start}, {len(blob) - start} left"
                )
            offset += size
            return start

        words = struct.unpack_from(f"<{n_words}I", blob, section(4 * n_words, "text"))
        start = section(n_data, "data")
        data = blob[start:offset]
        symbols: dict[str, Symbol] = {}
        for number in range(n_syms):
            address, is_text, name_len = _SYMBOL.unpack_from(
                blob, section(_SYMBOL.size, f"symbol {number}")
            )
            start = section(name_len, f"symbol {number} name")
            try:
                name = blob[start:offset].decode()
            except UnicodeDecodeError as error:
                raise LinkError(f"symbol {number} name is not UTF-8: {error}") from None
            if is_text > 1:
                raise LinkError(f"symbol {name!r} has kind flag {is_text}, not 0 or 1")
            if name in symbols:
                raise LinkError(f"duplicate symbol {name!r}")
            symbols[name] = Symbol(name=name, address=address, is_text=bool(is_text))
        if offset != len(blob):
            raise LinkError(
                f"{len(blob) - offset} trailing bytes after the SXE image"
            )
        return cls(
            entry=entry,
            text_base=text_base,
            text_words=words,
            data_base=data_base,
            data=data,
            symbols=symbols,
        )
