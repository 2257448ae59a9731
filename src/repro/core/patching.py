"""Jump/call/pointer patching (paper §V-B3 / §VI-B3).

After the shuffle, every control-transfer target that referred to the old
layout must be fixed:

* absolute ``call``/``jmp`` — translate the target through the block map;
  targets that are not a function entry (switch-case trampolines, jumps
  into block interiors) are resolved with the binary search over old block
  addresses and an offset adjustment, exactly as the paper describes;
* relative ``rcall``/``rjmp``/branches — unchanged when target and
  instruction move together (same block); recomputed when they cross
  blocks, with a range check (this is why MAVR requires ``--no-relax``:
  a compiler-shortened cross-function call may not reach after a move);
* function pointers in the data section (vtables, call-routing tables) —
  their stored word addresses are rewritten in place.

The pass replays the image's relocation index (built once per code
image by :func:`repro.binfmt.relocindex.relocation_index`), so a shuffle
touches only the words that need new targets.
:func:`reference_patch_image` is the streaming re-decode the index
replaced; it has no production caller and stays as the differential
oracle the tests compare :func:`patch_image` against.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from ..avr.decoder import decode_at
from ..avr.encoder import encode_bytes
from ..avr.insn import Instruction, Mnemonic
from ..binfmt.image import FirmwareImage
from ..binfmt.relocindex import relocation_index
from ..errors import DecodeError, PatchError
from .randomize import Permutation, generate_permutation, shuffled_symbol_table

M = Mnemonic

_RELATIVE = {M.RCALL, M.RJMP}
_BRANCHES = {M.BRBS, M.BRBC}
_ABSOLUTE = {M.CALL, M.JMP}


def randomize_image(
    image: FirmwareImage, rng: Optional[random.Random] = None
) -> Tuple[FirmwareImage, Permutation]:
    """Shuffle + patch: the master processor's whole software job."""
    permutation = generate_permutation(image, rng)
    new_code = patch_image(image, permutation)
    new_symbols = shuffled_symbol_table(image, permutation)
    randomized = image.with_code(
        new_code, symbols=new_symbols, toolchain_tag=image.toolchain_tag
    )
    randomized.validate()
    return randomized, permutation


def patch_image(image: FirmwareImage, permutation: Permutation) -> bytes:
    """Produce the randomized code bytes for ``permutation``."""
    new_code = bytearray(image.code)
    patch_into(image, permutation, new_code)
    return bytes(new_code)


def patch_into(
    image: FirmwareImage, permutation: Permutation, new_code: bytearray
) -> None:
    """Move ``image``'s blocks into ``new_code`` and retarget every site.

    ``new_code`` starts as a copy of ``image.code``, possibly grown (the
    padded scatter places blocks above the original image end).  The
    work is block copies plus direct operand rewrites at the sites of
    ``image``'s relocation index: O(moves + patch-sites), no instruction
    decoding.
    """
    index = relocation_index(image)
    for move in permutation.moves:
        block = image.code[move.old_address : move.old_address + move.size]
        new_code[move.new_address : move.new_address + move.size] = block

    fixed_end = min(image.text_start, image.data_start)
    remap = permutation.new_address_of

    def site_position(offset: int) -> int:
        # the fixed region never moves; everything else sits in a block
        if offset < fixed_end:
            return offset
        moved = remap(offset)
        if moved is None:
            raise PatchError(
                f"indexed site 0x{offset:05x} is outside every function block"
            )
        return moved

    for site in index.absolute_sites:
        new_target = remap(site.target)
        if new_target is None:
            raise PatchError(
                f"{site.mnemonic.value} at 0x{site.offset:05x} targets "
                f"0x{site.target:05x}, which is inside .text but outside "
                "every function block"
            )
        new_offset = site_position(site.offset)
        patched = Instruction(site.mnemonic, k=new_target // 2)
        new_code[new_offset : new_offset + 4] = encode_bytes(patched)

    for site in index.relative_sites:
        new_offset = site_position(site.offset)
        if image.text_start <= site.target < image.text_end:
            new_target = remap(site.target)
            if new_target is None:
                raise PatchError(
                    f"{site.mnemonic.value} at 0x{site.offset:05x} escapes "
                    "its block into unmapped .text"
                )
        else:
            new_target = site.target  # fixed region does not move
        displacement = (new_target - (new_offset + 2)) // 2
        if not -2048 <= displacement <= 2047:
            raise PatchError(
                f"relaxed {site.mnemonic.value} at 0x{site.offset:05x} cannot "
                f"reach 0x{new_target:05x} after randomization "
                "(image must be built with --no-relax)"
            )
        patched = Instruction(site.mnemonic, k=displacement)
        new_code[new_offset : new_offset + 2] = encode_bytes(patched)

    _patch_funcptrs(image, permutation, new_code)


def _patch_funcptrs(
    image: FirmwareImage, permutation: Permutation, new_code: bytearray
) -> None:
    """Rewrite function pointers embedded in the data section.

    Slots that point into the fixed region (trampoline stubs) stay as
    they are — the stubs' jmps were already retargeted by the fixed-region
    sweep.  Shared with the reference patcher so their pointer handling
    cannot drift apart.
    """
    fixed_limit = min(image.text_start, image.data_start)
    for location in image.funcptr_locations:
        old_word = image.code[location] | (image.code[location + 1] << 8)
        old_target = old_word * 2
        if old_target < fixed_limit:
            continue  # trampoline stub: layout-stable by design
        new_byte = permutation.new_address_of(old_target)
        if new_byte is None:
            raise PatchError(
                f"pointer slot 0x{location:05x} targets 0x{old_target:05x} "
                "outside every function block"
            )
        new_word = new_byte // 2
        if new_word > 0xFFFF:
            raise PatchError(
                f"pointer slot 0x{location:05x} would need a 17-bit word "
                f"address (0x{new_word:05x}); route it through a trampoline"
            )
        new_code[location] = new_word & 0xFF
        new_code[location + 1] = (new_word >> 8) & 0xFF


# -- reference oracle -----------------------------------------------------


def reference_patch_image(image: FirmwareImage, permutation: Permutation) -> bytes:
    """The streaming patcher: re-decode every segment on every shuffle.

    Differential oracle only — :func:`patch_image` must produce the same
    bytes for every image and permutation.
    """
    new_code = bytearray(image.code)

    # move every block to its new home
    for move in permutation.moves:
        block = image.code[move.old_address : move.old_address + move.size]
        new_code[move.new_address : move.new_address + move.size] = block

    # patch the fixed region (vectors + __init) in place; when the flash
    # data section sits below .text, stop the sweep before it — data bytes
    # are not instructions
    fixed_end = min(image.text_start, image.data_start)
    _patch_segment(image, permutation, new_code, 0, 0, fixed_end)
    # patch every moved block at its new location
    for move in permutation.moves:
        _patch_segment(
            image, permutation, new_code,
            move.old_address, move.new_address, move.size,
        )

    _patch_funcptrs(image, permutation, new_code)
    return bytes(new_code)


def _patch_segment(
    image: FirmwareImage,
    permutation: Permutation,
    new_code: bytearray,
    old_start: int,
    new_start: int,
    length: int,
) -> None:
    """Stream one executable segment, retargeting control transfers."""
    offset = old_start
    end = old_start + length
    while offset + 1 < end:
        try:
            insn, size = decode_at(image.code, offset)
        except DecodeError as exc:
            raise PatchError(
                f"undecodable word at 0x{offset:05x} inside an executable "
                "segment; cannot patch"
            ) from exc
        new_offset = new_start + (offset - old_start)
        mnemonic = insn.mnemonic

        if mnemonic in _ABSOLUTE:
            _patch_absolute(image, permutation, new_code, insn, offset, new_offset)
        elif mnemonic in _RELATIVE:
            _patch_relative(
                image, permutation, new_code, insn,
                offset, new_offset, old_start, end,
            )
        elif mnemonic in _BRANCHES:
            _check_branch(insn, offset, old_start, end)
        offset += size


def _patch_absolute(
    image: FirmwareImage,
    permutation: Permutation,
    new_code: bytearray,
    insn: Instruction,
    old_offset: int,
    new_offset: int,
) -> None:
    old_target = insn.k * 2
    if not image.text_start <= old_target < image.text_end:
        return  # fixed-region target (vectors, bootloader): unchanged
    new_target = permutation.new_address_of(old_target)
    if new_target is None:
        raise PatchError(
            f"{insn.mnemonic.value} at 0x{old_offset:05x} targets "
            f"0x{old_target:05x}, which is inside .text but outside every "
            "function block"
        )
    patched = Instruction(insn.mnemonic, k=new_target // 2)
    new_code[new_offset : new_offset + 4] = encode_bytes(patched)


def _patch_relative(
    image: FirmwareImage,
    permutation: Permutation,
    new_code: bytearray,
    insn: Instruction,
    old_offset: int,
    new_offset: int,
    segment_start: int,
    segment_end: int,
) -> None:
    old_target = old_offset + 2 + insn.k * 2
    if segment_start <= old_target < segment_end:
        return  # moves with the block; displacement still correct
    # a cross-block relative transfer: retarget from the new position
    if image.text_start <= old_target < image.text_end:
        new_target = permutation.new_address_of(old_target)
        if new_target is None:
            raise PatchError(
                f"{insn.mnemonic.value} at 0x{old_offset:05x} escapes its "
                "block into unmapped .text"
            )
    else:
        new_target = old_target  # fixed region does not move
    displacement = (new_target - (new_offset + 2)) // 2
    if not -2048 <= displacement <= 2047:
        raise PatchError(
            f"relaxed {insn.mnemonic.value} at 0x{old_offset:05x} cannot "
            f"reach 0x{new_target:05x} after randomization "
            "(image must be built with --no-relax)"
        )
    patched = Instruction(insn.mnemonic, k=displacement)
    new_code[new_offset : new_offset + 2] = encode_bytes(patched)


def _check_branch(
    insn: Instruction, old_offset: int, segment_start: int, segment_end: int
) -> None:
    old_target = old_offset + 2 + insn.k * 2
    if not segment_start <= old_target < segment_end:
        raise PatchError(
            f"conditional branch at 0x{old_offset:05x} crosses a block "
            "boundary; cannot be retargeted within 7 bits"
        )


def verify_patched(
    original: FirmwareImage, randomized: FirmwareImage, permutation: Permutation
) -> None:
    """Structural checks tests rely on.

    * the randomized .text is a permutation of the original blocks;
    * every absolute call/jmp in the new image lands inside some function
      block or the fixed region;
    * every pointer slot targets a function entry.
    """
    for move in permutation.moves:
        old_block = original.code[move.old_address : move.old_address + move.size]
        new_block = randomized.code[move.new_address : move.new_address + move.size]
        if len(old_block) != len(new_block):
            raise PatchError(f"block {move.name} changed size")
    fixed_end = min(randomized.text_start, randomized.data_start)
    segments = [(0, fixed_end), (randomized.text_start, randomized.text_end)]
    for start, end in segments:
        _verify_segment(randomized, start, end)
    randomized.validate()


def _verify_segment(randomized: FirmwareImage, start: int, end: int) -> None:
    offset = start
    while offset + 1 < end:
        try:
            insn, size = decode_at(randomized.code, offset)
        except DecodeError as exc:
            raise PatchError(f"randomized image undecodable at 0x{offset:05x}") from exc
        if insn.mnemonic in _ABSOLUTE:
            target = insn.k * 2
            inside_fixed = target < min(
                randomized.text_start, randomized.data_start
            )
            inside_function = (
                randomized.symbols.function_containing(target) is not None
            )
            if not (inside_fixed or inside_function):
                raise PatchError(
                    f"{insn.mnemonic.value} at 0x{offset:05x} targets "
                    f"0x{target:05x}, outside every block"
                )
        offset += size
