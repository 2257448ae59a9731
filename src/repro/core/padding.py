"""Padded randomization — the §VIII-B extension the paper considered.

"One approach considered to increase MAVR's entropy was to introduce
random padding between each function."  The authors measured 6567 bits
from pure shuffling and dropped the idea; this module implements it
anyway so the trade-off can be evaluated:

* function blocks are scattered over the *whole* free flash (everything
  between ``text_start`` and the data section, plus the region above the
  data section up to the flash size) with random gaps;
* gaps are filled with erased-flash bytes (0xFF), which do not decode —
  a wild control transfer landing in a gap faults immediately instead of
  sliding;
* the data section does not move, so data references stay valid and the
  standard patcher handles all code targets through the block map.

Costs: the image grows to the extent of the scatter (more bytes to
transfer at boot — a direct Table II hit), bounded by the 256 KB flash.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..avr.memory import FLASH_SIZE
from ..binfmt.image import FirmwareImage
from ..binfmt.symtab import Symbol, SymbolKind, SymbolTable
from ..errors import DefenseError
from .patching import patch_into
from .randomize import BlockMove, Permutation, moves_to_permutation


def generate_padded_permutation(
    image: FirmwareImage,
    rng: Optional[random.Random] = None,
    flash_size: int = FLASH_SIZE,
    alignment: int = 2,
) -> Permutation:
    """Scatter the function blocks over the free flash with random gaps.

    Blocks land, in shuffled order, into the region above the data
    section; the original ``.text`` span is left as one huge gap.  (Using
    only the high region keeps the implementation simple while maximizing
    gap entropy; there must be enough free flash above ``data_end``.)
    """
    rng = rng if rng is not None else random.Random()
    functions = image.symbols.functions()
    if not functions:
        raise DefenseError("image has no function symbols to shuffle")
    total_code = sum(symbol.size for symbol in functions)
    free_start = _align_up(max(image.data_end, image.text_end), alignment)
    free_bytes = flash_size - free_start
    slack = free_bytes - total_code
    if slack <= 0:
        raise DefenseError(
            f"not enough free flash for padded randomization: need more "
            f"than {total_code} bytes above 0x{free_start:05x}, have {free_bytes}"
        )

    order = list(functions)
    rng.shuffle(order)
    # distribute the slack into n+1 random gaps (stars and bars)
    gap_units = slack // alignment
    cuts = sorted(rng.randint(0, gap_units) for _ in range(len(order)))
    gaps = [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])]

    moves: List[BlockMove] = []
    cursor = free_start
    for symbol, gap in zip(order, gaps):
        cursor += gap * alignment
        moves.append(BlockMove(symbol.name, symbol.address, cursor, symbol.size))
        cursor += symbol.size
    if cursor > flash_size:
        raise DefenseError("padded layout overflowed the flash (internal error)")
    return moves_to_permutation(moves)


def randomize_image_padded(
    image: FirmwareImage,
    rng: Optional[random.Random] = None,
    flash_size: int = FLASH_SIZE,
    fill: int = 0xFF,
) -> Tuple[FirmwareImage, Permutation]:
    """Produce a padded-randomized image.

    The result's ``code`` extends to the highest placed block; gaps carry
    ``fill`` (0xFF = erased flash, undecodable).  ``text_start``/
    ``text_end`` are widened to bracket the scattered blocks so gadget
    scans and patch sweeps stay meaningful.
    """
    permutation = generate_padded_permutation(image, rng, flash_size)
    new_end = max(move.new_address + move.size for move in permutation.moves)

    # grow the image: original content, erased fill above
    keep = max(image.data_end, image.text_end)
    patched = bytearray(image.code[:keep])
    patched += bytes([fill & 0xFF]) * (new_end - len(patched))
    # the original image's index applies as is: the grown buffer keeps
    # the original bytes below ``keep``
    patch_into(image, permutation, patched)
    # blank the old .text (it must not retain the original gadget bytes);
    # every block now lives above data_end, so this erases only leftovers
    for offset in range(image.text_start, image.text_end):
        patched[offset] = fill & 0xFF
    patched = bytes(patched)

    table = SymbolTable()
    for move in permutation.moves:
        table.add(Symbol(move.name, move.new_address, move.size, SymbolKind.FUNC))
    for symbol in image.symbols.objects():
        table.add(symbol)

    randomized = FirmwareImage(
        code=patched,
        symbols=table,
        text_start=image.text_start,
        text_end=new_end,
        data_start=image.data_start,
        data_end=image.data_end,
        entry_symbol=image.entry_symbol,
        funcptr_locations=list(image.funcptr_locations),
        name=image.name,
        toolchain_tag=image.toolchain_tag,
    )
    return randomized, permutation


def padded_entropy_bits(image: FirmwareImage, flash_size: int = FLASH_SIZE,
                        alignment: int = 2) -> float:
    """Entropy of the padded layout: shuffle bits + gap-placement bits.

    Gap placement is a composition count: C(gap_units + n, n) ways to
    split the slack across n+1 gaps, on top of the n! orderings.
    """
    import math

    functions = image.symbols.functions()
    n = len(functions)
    total_code = sum(symbol.size for symbol in functions)
    free_start = _align_up(max(image.data_end, image.text_end), alignment)
    slack_units = max((flash_size - free_start - total_code) // alignment, 0)
    shuffle_bits = math.lgamma(n + 1) / math.log(2)
    placement_bits = (
        math.lgamma(slack_units + n + 1)
        - math.lgamma(n + 1)
        - math.lgamma(slack_units + 1)
    ) / math.log(2)
    return shuffle_bits + placement_bits


def _align_up(value: int, alignment: int) -> int:
    remainder = value % alignment
    return value if remainder == 0 else value + alignment - remainder
