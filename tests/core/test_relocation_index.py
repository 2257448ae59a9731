"""Relocation index: site finding, the content-keyed memo, and the one
patcher's byte-for-byte equivalence with the streaming reference."""

import random

import pytest

from repro.asm import LinkOptions, link, parse_program
from repro.avr.insn import Mnemonic as M
from repro.binfmt import FirmwareImage, build_relocation_index, relocation_index
from repro.core import preprocess, preprocess_report, randomize_image
from repro.core.patching import patch_image, reference_patch_image
from repro.core.randomize import generate_permutation


@pytest.fixture(scope="module")
def index(testapp):
    return build_relocation_index(testapp)


def test_index_finds_sites(index, testapp):
    assert index.site_count > 0
    for site in index.absolute_sites:
        assert site.mnemonic in (M.CALL, M.JMP)
        # only layout-dependent targets are indexed
        assert testapp.text_start <= site.target < testapp.text_end
    fixed_end = min(testapp.text_start, testapp.data_start)
    for site in index.relative_sites:
        assert site.mnemonic in (M.RCALL, M.RJMP)
        # cross-segment by definition
        if site.offset < fixed_end:
            assert not site.target < fixed_end
        else:
            block = testapp.symbols.function_containing(site.offset)
            assert not block.address <= site.target < block.end


def test_indexed_patch_equals_legacy(testapp):
    for seed in range(5):
        permutation = generate_permutation(testapp, random.Random(seed))
        assert patch_image(testapp, permutation) == reference_patch_image(
            testapp, permutation
        )


#: cross-function calls and a tail jump that a relaxing link shortens to
#: rcall/rjmp — the relative sites no --no-relax build has
RELAXED_SOURCE = """
.text
.func leaf
    ldi r24, 0x01
.endfunc

.func helper
    call leaf
    jmp leaf
.endfunc

.func main inline
    call helper
    call leaf
    break
.endfunc
"""


def test_relative_sites_patch_like_reference():
    image = link(
        parse_program(RELAXED_SOURCE),
        LinkOptions(relax=True, call_prologues=False, align_functions=2),
    )
    index = relocation_index(image)
    assert {site.mnemonic for site in index.relative_sites} == {M.RCALL, M.RJMP}
    for seed in range(5):
        permutation = generate_permutation(image, random.Random(seed))
        assert patch_image(image, permutation) == reference_patch_image(
            image, permutation
        )


def test_hex_and_flash_blob_share_one_memoized_index(index, testapp):
    hex_text = preprocess(testapp)
    from_hex = FirmwareImage.from_preprocessed_hex(hex_text)
    from_blob = FirmwareImage.from_flash_blob(from_hex.to_flash_blob())
    # the index is a function of the code bytes and text bounds only
    shared = relocation_index(testapp)
    assert shared == index
    assert relocation_index(from_hex) is shared
    assert relocation_index(from_blob) is shared
    # the master-side reconstruction patches identically
    permutation = generate_permutation(from_blob, random.Random(3))
    assert patch_image(from_blob, permutation) == reference_patch_image(
        from_blob, permutation
    )


def test_legacy_containers_without_index_still_parse(testapp):
    # containers never carry an index: both formats round-trip the image
    from_hex = FirmwareImage.from_preprocessed_hex(testapp.to_preprocessed_hex())
    assert from_hex.code == testapp.code
    from_blob = FirmwareImage.from_flash_blob(from_hex.to_flash_blob())
    assert from_blob.code == testapp.code
    randomized, _ = randomize_image(from_blob, random.Random(9))
    randomized.validate()


def test_stale_index_is_rejected(testapp):
    """Edited code never reuses the original's index: the memo is keyed
    on the bytes, so the edit gets a fresh sweep of its own."""
    slots = {
        offset for slot in testapp.funcptr_locations for offset in (slot, slot + 1)
    }
    constant = next(
        offset for offset in range(testapp.data_start, testapp.data_end)
        if offset not in slots
    )
    edited = bytearray(testapp.code)
    edited[constant] ^= 0xFF  # a data constant: same sites, new bytes
    stale = testapp.with_code(bytes(edited))
    assert relocation_index(stale) is not relocation_index(testapp)
    assert relocation_index(stale) == relocation_index(testapp)
    permutation = generate_permutation(stale, random.Random(0))
    assert patch_image(stale, permutation) == reference_patch_image(
        stale, permutation
    )


def test_randomized_image_carries_no_index(testapp):
    source = FirmwareImage.from_preprocessed_hex(preprocess(testapp))
    randomized, _ = randomize_image(source, random.Random(4))
    # the index describes the *original* layout; the randomized bytes get
    # their own, so a second-generation shuffle cannot mis-patch
    assert not hasattr(randomized, "reloc_index")
    assert relocation_index(randomized) is not relocation_index(source)


def test_preprocess_report_counts_index(testapp):
    report = preprocess_report(testapp)
    assert report.index_sites == relocation_index(testapp).site_count > 0
