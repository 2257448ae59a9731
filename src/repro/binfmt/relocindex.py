"""Relocation index — the patch-site map of one code image.

Re-randomization must find the handful of instructions whose operands
encode a layout-dependent address.  That set is a property of the
*original* code, not of any particular permutation:

* absolute ``call``/``jmp`` whose target lies inside ``.text``;
* ``rcall``/``rjmp`` whose target escapes the containing segment (the
  fixed vectors+init region, or one function block) — same-segment
  relative transfers move with their block and never need touching;
* conditional branches never cross a segment in a randomizable build
  (checked once here; a violation is a :class:`PatchError`);
* function-pointer slots in the data section (already listed in
  :attr:`FirmwareImage.funcptr_locations`).

So the stream is decoded **once** per code image and every later
shuffle is an O(moves + patch-sites) fixup pass with no instruction
decoding (:func:`repro.core.patching.patch_image`).

The index is a pure function of the code bytes and the text bounds, so
:func:`relocation_index` serves it from a bounded, content-keyed,
in-process memo.  It is never attached to an image and never
serialized.  Every tiling of the same bytes this package produces — the
linker's function blocks, the flash-blob reconstruction and the DAEDALUS
sub-block split (whose cuts never separate a relative transfer from its
target) — yields the same site list, which is why the tiling is not part
of the key.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Tuple

from ..avr.decoder import decode_at
from ..avr.insn import Mnemonic
from ..errors import DecodeError, PatchError
from .image import FirmwareImage

M = Mnemonic


@dataclass(frozen=True)
class PatchSite:
    """One layout-dependent instruction in the original image.

    ``offset`` is the instruction's byte offset in the original code;
    ``target`` is the *old* byte address its operand encodes.
    """

    mnemonic: Mnemonic
    offset: int
    target: int


@dataclass(frozen=True)
class RelocationIndex:
    """Every patch site of one code image, decode-free at apply time."""

    absolute_sites: Tuple[PatchSite, ...]
    relative_sites: Tuple[PatchSite, ...]

    @property
    def site_count(self) -> int:
        return len(self.absolute_sites) + len(self.relative_sites)


def build_relocation_index(image: FirmwareImage) -> RelocationIndex:
    """The one full-stream decode: sweep every executable segment.

    Segments are the fixed region (vectors + ``__init``, which never
    moves) and each function block — the units the shuffle moves
    rigidly, so "crosses a segment boundary" is permutation-invariant.
    """
    absolute: List[PatchSite] = []
    relative: List[PatchSite] = []
    for start, end in _segments(image):
        offset = start
        while offset + 1 < end:
            try:
                insn, size = decode_at(image.code, offset)
            except DecodeError as exc:
                raise PatchError(
                    f"undecodable word at 0x{offset:05x} inside an executable "
                    "segment; cannot index"
                ) from exc
            mnemonic = insn.mnemonic
            if mnemonic in (M.CALL, M.JMP):
                target = insn.k * 2
                if image.text_start <= target < image.text_end:
                    absolute.append(PatchSite(mnemonic, offset, target))
            elif mnemonic in (M.RCALL, M.RJMP):
                target = offset + 2 + insn.k * 2
                if not start <= target < end:
                    relative.append(PatchSite(mnemonic, offset, target))
            elif mnemonic in (M.BRBS, M.BRBC):
                target = offset + 2 + insn.k * 2
                if not start <= target < end:
                    raise PatchError(
                        f"conditional branch at 0x{offset:05x} crosses a block "
                        "boundary; cannot be retargeted within 7 bits"
                    )
            offset += size
    return RelocationIndex(tuple(absolute), tuple(relative))


#: the index memo: bounded, content-keyed LRU.  The key is the BLAKE2b
#: digest of the code bytes plus the text bounds, so every image object
#: carrying the same code (build, HEX decode, flash-blob reconstruction,
#: sub-block split) shares one decode, and a long-lived process can
#: never grow it past the bound.
_INDEX_CACHE: "OrderedDict[tuple, RelocationIndex]" = OrderedDict()
_INDEX_CACHE_LIMIT = 16


def relocation_index(image: FirmwareImage) -> RelocationIndex:
    """The relocation index of ``image``'s code, built once per process."""
    key = (
        hashlib.blake2b(image.code, digest_size=16).digest(),
        image.text_start,
        image.text_end,
    )
    index = _INDEX_CACHE.get(key)
    if index is None:
        index = _INDEX_CACHE[key] = build_relocation_index(image)
    else:
        _INDEX_CACHE.move_to_end(key)
    while len(_INDEX_CACHE) > _INDEX_CACHE_LIMIT:
        _INDEX_CACHE.popitem(last=False)
    return index


def _segments(image: FirmwareImage) -> List[Tuple[int, int]]:
    """The executable tiling: fixed region first, then each block."""
    fixed_end = min(image.text_start, image.data_start)
    segments = [(0, fixed_end)]
    for symbol in image.symbols.functions():
        segments.append((symbol.address, symbol.end))
    return segments
