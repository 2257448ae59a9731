"""Symbol tables for firmware images.

The MAVR preprocessing phase (paper §VI-B2) extracts function symbols from
the ELF produced by the compiler and prepends them to the HEX file so the
master processor can move functions as blocks.  This module is the symbol
model both phases share.

Addresses are **byte addresses** into flash, as in listings; sizes are in
bytes.  Function symbols are required to tile their portion of ``.text``
without overlap so that shuffling them is a permutation of code blocks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional

from ..errors import BinfmtError


class SymbolKind(Enum):
    """Subset of ELF symbol types the pipeline cares about."""

    FUNC = "func"
    OBJECT = "object"  # data-section objects (vtables, call tables)


# avr-ld convention: symbols that live in the SRAM data space carry this
# offset in their address (flash symbols are plain byte addresses).
DATA_SPACE_FLAG = 0x0080_0000


def is_sram_symbol(symbol: "Symbol") -> bool:
    """True when the symbol's address is a data-space (SRAM) address."""
    return symbol.address >= DATA_SPACE_FLAG


def sram_address(symbol: "Symbol") -> int:
    """Strip the data-space flag, yielding the raw SRAM byte address."""
    return symbol.address - DATA_SPACE_FLAG


@dataclass(frozen=True)
class Symbol:
    """One named region of the image."""

    name: str
    address: int  # byte address in flash
    size: int  # bytes
    kind: SymbolKind = SymbolKind.FUNC

    @property
    def end(self) -> int:
        return self.address + self.size

    @property
    def word_address(self) -> int:
        """Flash word address (what call/jmp instructions encode)."""
        return self.address // 2


_MAGIC = b"MVRS"
_HEADER = struct.Struct("<4sI")
_ENTRY = struct.Struct("<IIB")


class SymbolTable:
    """Ordered collection of symbols with fast lookup by name and address."""

    def __init__(self, symbols: Iterable[Symbol] = ()) -> None:
        self._symbols: List[Symbol] = []
        self._by_name: Dict[str, Symbol] = {}
        for sym in symbols:
            self.add(sym)

    def add(self, symbol: Symbol) -> None:
        if symbol.name in self._by_name:
            raise BinfmtError(f"duplicate symbol name: {symbol.name}")
        if symbol.size < 0 or symbol.address < 0:
            raise BinfmtError(f"negative address/size for symbol {symbol.name}")
        self._symbols.append(symbol)
        self._by_name[symbol.name] = symbol

    def __len__(self) -> int:
        return len(self._symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._symbols)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise BinfmtError(f"unknown symbol: {name}") from None

    def functions(self) -> List[Symbol]:
        """Function symbols in ascending address order (paper's block list)."""
        funcs = [s for s in self._symbols if s.kind is SymbolKind.FUNC]
        return sorted(funcs, key=lambda s: s.address)

    def objects(self) -> List[Symbol]:
        objs = [s for s in self._symbols if s.kind is SymbolKind.OBJECT]
        return sorted(objs, key=lambda s: s.address)

    def function_containing(self, byte_address: int) -> Optional[Symbol]:
        """The function whose block covers ``byte_address``, if any.

        The paper's switch-trampoline patching needs "the largest old symbol
        address that is less than or equal to the targeted address"; this is
        that binary search.
        """
        funcs = self.functions()
        lo, hi = 0, len(funcs) - 1
        best: Optional[Symbol] = None
        while lo <= hi:
            mid = (lo + hi) // 2
            if funcs[mid].address <= byte_address:
                best = funcs[mid]
                lo = mid + 1
            else:
                hi = mid - 1
        if best is not None and byte_address < best.end:
            return best
        return None

    # -- serialization (the blob prepended to the HEX file) --------------

    def to_bytes(self) -> bytes:
        """Serialize to the compact blob format stored on external flash."""
        out = bytearray(_HEADER.pack(_MAGIC, len(self._symbols)))
        names = bytearray()
        for sym in self._symbols:
            raw = sym.name.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise BinfmtError(f"symbol name too long: {sym.name[:32]}...")
            out += _ENTRY.pack(sym.address, sym.size, _kind_code(sym.kind))
            out += struct.pack("<H", len(raw))
            names += raw
        out += names
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SymbolTable":
        """Parse a table that fills ``blob`` exactly."""
        if len(blob) < _HEADER.size:
            raise BinfmtError("symbol blob truncated (header)")
        magic, count = _HEADER.unpack_from(blob, 0)
        if magic != _MAGIC:
            raise BinfmtError(f"bad symbol blob magic: {magic!r}")
        offset = _HEADER.size
        entries = []
        for _ in range(count):
            if offset + _ENTRY.size + 2 > len(blob):
                raise BinfmtError("symbol blob truncated (entry)")
            address, size, kind_code = _ENTRY.unpack_from(blob, offset)
            offset += _ENTRY.size
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            entries.append((address, size, kind_code, name_len))
        table = cls()
        for address, size, kind_code, name_len in entries:
            if offset + name_len > len(blob):
                raise BinfmtError("symbol blob truncated (names)")
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            table.add(Symbol(name, address, size, _kind_from_code(kind_code)))
        if offset != len(blob):
            raise BinfmtError(
                f"symbol blob has {len(blob) - offset} trailing bytes"
            )
        return table

    def validate_tiling(self, text_start: int, text_end: int) -> None:
        """Check function blocks tile [text_start, text_end) without overlap.

        Raises :class:`BinfmtError` on gaps or overlaps — the precondition
        for randomization to be a clean permutation of blocks.
        """
        cursor = text_start
        for sym in self.functions():
            if sym.address != cursor:
                raise BinfmtError(
                    f"function tiling broken at {sym.name}: expected "
                    f"0x{cursor:05x}, got 0x{sym.address:05x}"
                )
            cursor = sym.end
        if cursor != text_end:
            raise BinfmtError(
                f"function tiling does not cover .text: ends at 0x{cursor:05x}, "
                f"expected 0x{text_end:05x}"
            )


def _kind_code(kind: SymbolKind) -> int:
    return 0 if kind is SymbolKind.FUNC else 1


def _kind_from_code(code: int) -> SymbolKind:
    if code == 0:
        return SymbolKind.FUNC
    if code == 1:
        return SymbolKind.OBJECT
    raise BinfmtError(f"unknown symbol kind code: {code}")
