"""Sparse byte-addressable memory with MIPS alignment rules.

The scalar accessors serve the threaded handlers, the reference
interpreter and the generated code's slow path, so they are written for
CPython speed: the page dictionary lookup is inlined (no ``_page`` helper
call per access) and the last-touched page is cached in two slots, which
turns the common streaming access patterns (stack frames, array walks)
into a single integer compare instead of a dict probe.  Bulk operations
copy whole page slices and are used by the loader to install text/data
sections in one pass.

**Flat windows.**  :meth:`Memory.install_window` backs a page-aligned,
power-of-two-sized address range with one ``bytearray`` whose 4 KiB pages *are*
``memoryview`` slices of that buffer, so there is exactly one copy of the
storage.  The simulator installs a stack window and a data window per
:class:`~repro.sim.cpu.Cpu`; superblock-generated code indexes ``'I'``
(word) and byte views of those buffers inline, and every access outside a
window -- or misaligned inside one -- falls back to the methods here,
which keep the sparse semantics (unmapped memory reads as zero, addresses
wrap at 32 bits) and raise :class:`MemoryFault`.  Word views use the
host's byte order, which the simulator requires to be little-endian, the
same order these methods use.
"""

from __future__ import annotations

from repro.errors import MemoryFault

_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_PAGE_MASK = _PAGE_SIZE - 1
_ADDR_MASK = 0xFFFF_FFFF


class Memory:
    """Sparse 32-bit address space backed by 4 KiB pages.

    All accesses must be naturally aligned (MIPS-I has no unaligned loads in
    this subset); violations raise :class:`MemoryFault`, which in practice
    indicates a compiler bug and is tested for.
    """

    __slots__ = ("_pages", "_cached_index", "_cached_page", "_windows")

    def __init__(self) -> None:
        #: page index -> page; a window's pages are views of its buffer
        self._pages: dict[int, bytearray | memoryview] = {}
        self._cached_index = -1
        self._cached_page: bytearray | memoryview | None = None
        #: installed windows: base -> (size, buffer)
        self._windows: dict[int, tuple[int, bytearray]] = {}

    def install_window(self, base: int, size: int) -> bytearray:
        """Back ``[base, base + size)`` with one flat buffer and return it.

        *size* must be a power of two of at least one page, *base* must be
        page-aligned, and the window must lie inside the 32-bit space.  The
        window's pages become ``memoryview`` slices of the buffer, so a
        write through either the buffer or this object's accessors is seen
        by both.  Contents already on those pages are copied in.
        Installing the same window again returns the existing buffer; a
        window that overlaps a different one takes over the shared pages.
        """
        if (size < _PAGE_SIZE or size & (size - 1) or base & _PAGE_MASK
                or base < 0 or base + size > _ADDR_MASK + 1):
            raise ValueError(
                f"window of 0x{size:x} bytes at 0x{base:x}: need a page-aligned "
                f"base and a power-of-two size of at least one page"
            )
        window = self._windows.get(base)
        if window is not None and window[0] == size:
            return window[1]
        for other, (other_size, _) in list(self._windows.items()):
            if other < base + size and base < other + other_size:
                del self._windows[other]
        buffer = bytearray(size)
        view = memoryview(buffer)
        pages = self._pages
        first = base >> _PAGE_BITS
        for number in range(size >> _PAGE_BITS):
            page = view[number << _PAGE_BITS:(number + 1) << _PAGE_BITS]
            old = pages.get(first + number)
            if old is not None:
                page[:] = old
            pages[first + number] = page
        self._windows[base] = (size, buffer)
        self._cached_index = -1
        self._cached_page = None
        return buffer

    def _page(self, address: int) -> bytearray | memoryview:
        """Page containing *address*, created on demand and cached."""
        index = address >> _PAGE_BITS
        page = self._pages.get(index)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[index] = page
        self._cached_index = index
        self._cached_page = page
        return page

    # -- byte -------------------------------------------------------------

    def read_u8(self, address: int) -> int:
        address &= _ADDR_MASK
        if address >> _PAGE_BITS == self._cached_index:
            page = self._cached_page
        else:
            page = self._page(address)
        return page[address & _PAGE_MASK]

    def write_u8(self, address: int, value: int) -> None:
        address &= _ADDR_MASK
        if address >> _PAGE_BITS == self._cached_index:
            page = self._cached_page
        else:
            page = self._page(address)
        page[address & _PAGE_MASK] = value & 0xFF

    # -- half -------------------------------------------------------------

    def read_u16(self, address: int) -> int:
        address &= _ADDR_MASK
        if address & 1:
            raise MemoryFault(address, "misaligned halfword read")
        if address >> _PAGE_BITS == self._cached_index:
            page = self._cached_page
        else:
            page = self._page(address)
        offset = address & _PAGE_MASK
        return page[offset] | (page[offset + 1] << 8)

    def write_u16(self, address: int, value: int) -> None:
        address &= _ADDR_MASK
        if address & 1:
            raise MemoryFault(address, "misaligned halfword write")
        if address >> _PAGE_BITS == self._cached_index:
            page = self._cached_page
        else:
            page = self._page(address)
        offset = address & _PAGE_MASK
        page[offset] = value & 0xFF
        page[offset + 1] = (value >> 8) & 0xFF

    # -- word -------------------------------------------------------------

    def read_u32(self, address: int) -> int:
        address &= _ADDR_MASK
        if address & 3:
            raise MemoryFault(address, "misaligned word read")
        if address >> _PAGE_BITS == self._cached_index:
            page = self._cached_page
        else:
            page = self._page(address)
        offset = address & _PAGE_MASK
        return (
            page[offset]
            | (page[offset + 1] << 8)
            | (page[offset + 2] << 16)
            | (page[offset + 3] << 24)
        )

    def write_u32(self, address: int, value: int) -> None:
        address &= _ADDR_MASK
        if address & 3:
            raise MemoryFault(address, "misaligned word write")
        if address >> _PAGE_BITS == self._cached_index:
            page = self._cached_page
        else:
            page = self._page(address)
        offset = address & _PAGE_MASK
        page[offset] = value & 0xFF
        page[offset + 1] = (value >> 8) & 0xFF
        page[offset + 2] = (value >> 16) & 0xFF
        page[offset + 3] = (value >> 24) & 0xFF

    # -- bulk -------------------------------------------------------------
    #
    # Bulk transfers work a page slice at a time: at most two slice copies
    # for anything under 4 KiB instead of one method call per byte.

    def write_bytes(self, address: int, data: bytes) -> None:
        position = 0
        length = len(data)
        while position < length:
            start = (address + position) & _ADDR_MASK
            offset = start & _PAGE_MASK
            chunk = min(length - position, _PAGE_SIZE - offset)
            self._page(start)[offset : offset + chunk] = data[position : position + chunk]
            position += chunk

    def read_bytes(self, address: int, length: int) -> bytes:
        out = bytearray()
        position = 0
        while position < length:
            start = (address + position) & _ADDR_MASK
            offset = start & _PAGE_MASK
            chunk = min(length - position, _PAGE_SIZE - offset)
            out += self._page(start)[offset : offset + chunk]
            position += chunk
        return bytes(out)

    def read_words(self, address: int, count: int) -> list[int]:
        address &= _ADDR_MASK
        if address & 3:
            raise MemoryFault(address, "misaligned word read")
        raw = self.read_bytes(address, 4 * count)
        return [
            int.from_bytes(raw[position : position + 4], "little")
            for position in range(0, 4 * count, 4)
        ]

    def write_words(self, address: int, words: list[int]) -> None:
        address &= _ADDR_MASK
        if address & 3:
            raise MemoryFault(address, "misaligned word write")
        self.write_bytes(
            address,
            b"".join((word & _ADDR_MASK).to_bytes(4, "little") for word in words),
        )
