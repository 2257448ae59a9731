"""The firmware image: flash bytes + layout metadata.

A :class:`FirmwareImage` is what every stage of the pipeline exchanges:

* the **linker** produces one,
* the **attacker** statically analyzes one (the *unprotected* binary, per the
  paper's threat model),
* the **MAVR preprocessor** serializes one to a preprocessed HEX file,
* the **master processor** rebuilds a randomized one and programs it.

Layout in flash (byte addresses)::

    0 .. text_start          interrupt vectors + startup stub (fixed)
    text_start .. text_end   function blocks (randomization domain)
    data_start .. data_end   constants/initialized data incl. vtables
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..errors import BinfmtError
from .ihex import decode_with_symbols, encode_with_symbols
from .symtab import Symbol, SymbolKind, SymbolTable


@dataclass
class FirmwareImage:
    """One complete flash image with symbol/layout metadata."""

    code: bytes
    symbols: SymbolTable
    text_start: int
    text_end: int
    data_start: int
    data_end: int
    entry_symbol: str = "main"
    # byte offsets (within code) of 2-byte little-endian function word
    # addresses stored in the data region (vtables, call-routing tables)
    funcptr_locations: List[int] = field(default_factory=list)
    name: str = "firmware"
    toolchain_tag: str = "stock"

    def __post_init__(self) -> None:
        if not (0 <= self.text_start <= self.text_end <= len(self.code)):
            raise BinfmtError("text region out of image bounds")
        if not (0 <= self.data_start <= self.data_end <= len(self.code)):
            raise BinfmtError("data region out of image bounds")

    # -- queries ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.code)

    def function_bytes(self, symbol: Symbol) -> bytes:
        if symbol.end > len(self.code):
            raise BinfmtError(f"symbol {symbol.name} extends past image end")
        return self.code[symbol.address : symbol.end]

    def functions(self) -> List[Symbol]:
        return self.symbols.functions()

    def function_count(self) -> int:
        return len(self.symbols.functions())

    def read_funcptr(self, location: int) -> int:
        """Read the function *word address* stored at a pointer slot."""
        if location + 1 >= len(self.code):
            raise BinfmtError(f"function pointer slot out of range: {location}")
        return self.code[location] | (self.code[location + 1] << 8)

    def entry_address(self) -> int:
        return self.symbols.get(self.entry_symbol).address

    def validate(self) -> None:
        """Structural sanity: tiling, pointer slots, region ordering.

        A pointer slot may target a function block directly, or a
        trampoline stub inside the fixed executable region (how >128 KB
        images keep their 16-bit pointer tables valid).
        """
        self.symbols.validate_tiling(self.text_start, self.text_end)
        fixed_limit = min(self.text_start, self.data_start)
        for location in self.funcptr_locations:
            if not self.data_start <= location < self.data_end - 1:
                raise BinfmtError(
                    f"function pointer slot 0x{location:05x} outside data region"
                )
            target = self.read_funcptr(location) * 2
            inside_fixed = target < fixed_limit
            if not inside_fixed and self.symbols.function_containing(target) is None:
                raise BinfmtError(
                    f"pointer slot 0x{location:05x} targets 0x{target:05x}, "
                    "which is not inside any function"
                )

    # -- transformation helpers -----------------------------------------

    def with_code(self, code: bytes, symbols: Optional[SymbolTable] = None,
                  toolchain_tag: Optional[str] = None) -> "FirmwareImage":
        """Copy of this image with replaced code (and optionally symbols)."""
        return replace(
            self,
            code=code,
            symbols=symbols if symbols is not None else self.symbols,
            toolchain_tag=toolchain_tag if toolchain_tag is not None else self.toolchain_tag,
        )

    # -- serialization ----------------------------------------------------

    def to_preprocessed_hex(self) -> str:
        """Serialize to the MAVR preprocessed HEX (symbols prepended)."""
        return encode_with_symbols(self.code, _metadata_blob(self))

    @classmethod
    def from_preprocessed_hex(cls, text: str) -> "FirmwareImage":
        code, blob = decode_with_symbols(text)
        return _image_from_blob(code, blob)

    def to_flash_blob(self) -> bytes:
        """Compact binary container for the external flash chip.

        The paper's preprocessor prepends only what the master needs to
        move functions as blocks: *"a list of all functions is compiled
        ... and a list of function start addresses in ascending order is
        added"* — no names.  With start addresses at 4 bytes each, a
        917-function application costs under 4 KB of metadata, which is
        what lets image + symbols squeeze into a chip sized like the
        application processor's flash ("perilously close to the maximum
        allowable size", §VI-B2).
        """
        import struct

        functions = self.symbols.functions()
        tag = self.toolchain_tag.encode("ascii")
        header = struct.pack(
            "<4sIIIIIHHI",
            b"MVRF",
            len(self.code),
            self.text_start,
            self.text_end,
            self.data_start,
            self.data_end,
            len(tag),
            len(self.funcptr_locations),
            len(functions),
        )
        body = bytearray(header)
        body += tag
        for location in self.funcptr_locations:
            body += struct.pack("<I", location)
        for symbol in functions:
            body += struct.pack("<I", symbol.address)
        body += self.code
        return bytes(body)

    @classmethod
    def from_flash_blob(cls, data: bytes) -> "FirmwareImage":
        """Rebuild the image from the chip.

        Function names are not on the chip, so synthetic ``fn_NNNN`` names
        are assigned in address order; sizes come from the gap to the next
        start (the last function ends at ``text_end``).
        """
        import struct

        head = struct.Struct("<4sIIIIIHHI")
        if len(data) < head.size:
            raise BinfmtError("flash container truncated (header)")
        (magic, code_len, text_start, text_end, data_start, data_end,
         tag_len, n_ptrs, n_funcs) = head.unpack_from(data, 0)
        if magic != b"MVRF":
            raise BinfmtError(f"bad flash container magic: {magic!r}")
        offset = head.size
        tag = data[offset : offset + tag_len].decode("ascii")
        offset += tag_len
        locations = []
        for _ in range(n_ptrs):
            (location,) = struct.unpack_from("<I", data, offset)
            locations.append(location)
            offset += 4
        starts = []
        for _ in range(n_funcs):
            (start,) = struct.unpack_from("<I", data, offset)
            starts.append(start)
            offset += 4
        if offset + code_len > len(data):
            raise BinfmtError("flash container truncated (code)")
        code = bytes(data[offset : offset + code_len])
        offset += code_len
        if offset != len(data):
            raise BinfmtError(
                f"flash container has {len(data) - offset} trailing bytes"
            )
        table = SymbolTable()
        ordered = sorted(starts)
        entry_name = "fn_0000"
        for index, start in enumerate(ordered):
            end = ordered[index + 1] if index + 1 < len(ordered) else text_end
            table.add(Symbol(f"fn_{index:04d}", start, end - start, SymbolKind.FUNC))
        return cls(
            code=code,
            symbols=table,
            text_start=text_start,
            text_end=text_end,
            data_start=data_start,
            data_end=data_end,
            entry_symbol=entry_name,
            funcptr_locations=locations,
            name="from-flash",
            toolchain_tag=tag,
        )


_META_MAGIC = b"MVRI"


def _metadata_blob(image: FirmwareImage) -> bytes:
    import struct

    symbols = image.symbols.to_bytes()
    header = struct.pack(
        "<4sIIIIHI",
        _META_MAGIC,
        image.text_start,
        image.text_end,
        image.data_start,
        image.data_end,
        len(image.name.encode("utf-8")),
        len(image.funcptr_locations),
    )
    body = image.name.encode("utf-8")
    body += image.entry_symbol.encode("utf-8") + b"\x00"
    body += image.toolchain_tag.encode("utf-8") + b"\x00"
    for location in image.funcptr_locations:
        body += struct.pack("<I", location)
    return header + body + symbols


def _image_from_blob(code: bytes, blob: bytes) -> FirmwareImage:
    import struct

    head = struct.Struct("<4sIIIIHI")
    if len(blob) < head.size:
        raise BinfmtError("metadata blob truncated")
    magic, text_start, text_end, data_start, data_end, name_len, n_ptrs = (
        head.unpack_from(blob, 0)
    )
    if magic != _META_MAGIC:
        raise BinfmtError(f"bad metadata magic: {magic!r}")
    offset = head.size
    name = blob[offset : offset + name_len].decode("utf-8")
    offset += name_len
    entry_end = blob.index(b"\x00", offset)
    entry_symbol = blob[offset:entry_end].decode("utf-8")
    offset = entry_end + 1
    tag_end = blob.index(b"\x00", offset)
    toolchain_tag = blob[offset:tag_end].decode("utf-8")
    offset = tag_end + 1
    locations = []
    for _ in range(n_ptrs):
        (location,) = struct.unpack_from("<I", blob, offset)
        locations.append(location)
        offset += 4
    return FirmwareImage(
        code=code,
        symbols=SymbolTable.from_bytes(blob[offset:]),
        text_start=text_start,
        text_end=text_end,
        data_start=data_start,
        data_end=data_end,
        entry_symbol=entry_symbol,
        funcptr_locations=locations,
        name=name,
        toolchain_tag=toolchain_tag,
    )
