"""Binary container formats: Intel HEX, symbol tables, firmware images."""

from .funcptr import PointerCandidate, scan_function_pointers, scan_precision_recall
from .ihex import (
    SYMBOL_WINDOW_BASE,
    decode,
    decode_with_symbols,
    encode,
    encode_with_symbols,
)
from .image import FirmwareImage
from .relocindex import (
    PatchSite,
    RelocationIndex,
    build_relocation_index,
    relocation_index,
)
from .symtab import Symbol, SymbolKind, SymbolTable

__all__ = [
    "PatchSite",
    "RelocationIndex",
    "build_relocation_index",
    "relocation_index",
    "PointerCandidate",
    "scan_function_pointers",
    "scan_precision_recall",
    "SYMBOL_WINDOW_BASE",
    "decode",
    "decode_with_symbols",
    "encode",
    "encode_with_symbols",
    "FirmwareImage",
    "Symbol",
    "SymbolKind",
    "SymbolTable",
]
