"""Symbol tables, firmware image metadata, and image containers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.binfmt import (
    FirmwareImage,
    Symbol,
    SymbolKind,
    SymbolTable,
)
from repro.binfmt.symtab import DATA_SPACE_FLAG, is_sram_symbol, sram_address
from repro.errors import BinfmtError


def make_table():
    return SymbolTable([
        Symbol("alpha", 0x100, 0x20),
        Symbol("beta", 0x120, 0x10),
        Symbol("gamma", 0x130, 0x30),
        Symbol("table", 0x160, 8, SymbolKind.OBJECT),
    ])


def test_lookup_and_iteration():
    table = make_table()
    assert len(table) == 4
    assert table.get("beta").address == 0x120
    assert "alpha" in table
    assert "missing" not in table
    with pytest.raises(BinfmtError):
        table.get("missing")


def test_functions_sorted_and_objects_split():
    table = make_table()
    assert [s.name for s in table.functions()] == ["alpha", "beta", "gamma"]
    assert [s.name for s in table.objects()] == ["table"]


def test_duplicate_symbol_rejected():
    table = make_table()
    with pytest.raises(BinfmtError):
        table.add(Symbol("alpha", 0x200, 2))


def test_function_containing_binary_search():
    table = make_table()
    assert table.function_containing(0x100).name == "alpha"
    assert table.function_containing(0x11F).name == "alpha"
    assert table.function_containing(0x120).name == "beta"
    assert table.function_containing(0x135).name == "gamma"
    assert table.function_containing(0x15F).name == "gamma"
    assert table.function_containing(0x160) is None  # object, not function
    assert table.function_containing(0x50) is None


def test_word_address():
    assert Symbol("f", 0x1B284, 2).word_address == 0x1B284 // 2


def test_serialization_roundtrip():
    table = make_table()
    clone = SymbolTable.from_bytes(table.to_bytes())
    assert [(s.name, s.address, s.size, s.kind) for s in clone] == [
        (s.name, s.address, s.size, s.kind) for s in table
    ]


def test_serialization_rejects_garbage():
    with pytest.raises(BinfmtError):
        SymbolTable.from_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BinfmtError):
        SymbolTable.from_bytes(b"MV")


names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_"),
    min_size=1, max_size=24,
)


@given(st.lists(names, unique=True, min_size=1, max_size=20), st.randoms())
def test_serialization_roundtrip_property(symbol_names, rng):
    cursor = 0
    table = SymbolTable()
    for name in symbol_names:
        size = rng.randrange(2, 100, 2)
        table.add(Symbol(name, cursor, size))
        cursor += size
    clone = SymbolTable.from_bytes(table.to_bytes())
    assert len(clone) == len(table)
    for original, copy in zip(table, clone):
        assert original == copy


def test_validate_tiling_detects_gap_and_overlap():
    good = SymbolTable([Symbol("a", 0, 4), Symbol("b", 4, 6)])
    good.validate_tiling(0, 10)
    gap = SymbolTable([Symbol("a", 0, 4), Symbol("b", 6, 4)])
    with pytest.raises(BinfmtError):
        gap.validate_tiling(0, 10)
    short = SymbolTable([Symbol("a", 0, 4)])
    with pytest.raises(BinfmtError):
        short.validate_tiling(0, 10)


def test_sram_symbol_helpers():
    sym = Symbol("counter", DATA_SPACE_FLAG + 0x200, 2, SymbolKind.OBJECT)
    assert is_sram_symbol(sym)
    assert sram_address(sym) == 0x200
    assert not is_sram_symbol(Symbol("f", 0x100, 2))


# -- FirmwareImage -------------------------------------------------------

def tiny_image():
    code = bytes(64)
    table = SymbolTable([
        Symbol("main", 8, 16),
        Symbol("helper", 24, 24),
    ])
    return FirmwareImage(
        code=code, symbols=table, text_start=8, text_end=48,
        data_start=48, data_end=64, entry_symbol="main", name="tiny",
    )


def test_image_queries():
    image = tiny_image()
    assert image.size == 64
    assert image.function_count() == 2
    assert image.entry_address() == 8
    assert len(image.function_bytes(image.symbols.get("helper"))) == 24


def test_image_bounds_validation():
    with pytest.raises(BinfmtError):
        FirmwareImage(
            code=bytes(16), symbols=SymbolTable(), text_start=0, text_end=32,
            data_start=0, data_end=0,
        )


def test_image_funcptr_validation():
    image = tiny_image()
    image.funcptr_locations = [48]
    code = bytearray(image.code)
    code[48] = 50 // 2  # byte 50: in the data region, not a function
    broken = image.with_code(bytes(code))
    broken.funcptr_locations = [48]
    with pytest.raises(BinfmtError):
        broken.validate()
    code[48] = 24 // 2  # helper's word address
    good = image.with_code(bytes(code))
    good.funcptr_locations = [48]
    good.validate()


def test_image_funcptr_trampoline_targets_allowed():
    """Slots may point below .text (fixed-region trampoline stubs)."""
    image = tiny_image()
    code = bytearray(image.code)
    code[48] = 2 // 2  # byte 2: inside the fixed region
    stubbed = image.with_code(bytes(code))
    stubbed.funcptr_locations = [48]
    stubbed.validate()


def test_preprocessed_hex_roundtrip():
    image = tiny_image()
    restored = FirmwareImage.from_preprocessed_hex(image.to_preprocessed_hex())
    assert restored.code == image.code
    assert restored.text_start == image.text_start
    assert restored.text_end == image.text_end
    assert restored.name == "tiny"
    assert restored.entry_symbol == "main"
    assert [s.name for s in restored.symbols] == [s.name for s in image.symbols]


def test_containers_reject_trailing_bytes():
    """Nothing may follow the symbol table (HEX) or the code (flash blob)."""
    from repro.binfmt.ihex import decode_with_symbols, encode_with_symbols

    image = tiny_image()
    blob = image.to_flash_blob()
    assert FirmwareImage.from_flash_blob(blob).code == image.code
    with pytest.raises(BinfmtError, match="trailing"):
        FirmwareImage.from_flash_blob(blob + b"\x00")
    code, metadata = decode_with_symbols(image.to_preprocessed_hex())
    with pytest.raises(BinfmtError, match="trailing"):
        FirmwareImage.from_preprocessed_hex(
            encode_with_symbols(code, metadata + b"\x00\x00\x00\x00")
        )
    with pytest.raises(BinfmtError, match="trailing"):
        SymbolTable.from_bytes(make_table().to_bytes() + b"\x00")


def test_with_code_replaces_tag():
    image = tiny_image()
    clone = image.with_code(bytes(64), toolchain_tag="custom")
    assert clone.toolchain_tag == "custom"
    assert image.toolchain_tag == "stock"
