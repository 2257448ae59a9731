"""External flash memory chip (paper §V-A1).

Models the M95M02-DR serial EEPROM MAVR adds next to the master processor:
256 KB — "limited to the same size as the target application processor" —
holding the *original* unrandomized binary plus the prepended symbol
information.  It is the only entry point for new code; the application
processor never reads it, guaranteeing isolation between the original and
randomized binaries.
"""

from __future__ import annotations

from typing import Optional

from ..errors import HardwareError

M95M02_SIZE = 256 * 1024
M95M02_UNIT_PRICE_USD = 3.94  # paper's batch-of-ten prototype price


class ExternalFlash:
    """Byte-addressable serial flash with random access reads."""

    def __init__(self, size: int = M95M02_SIZE) -> None:
        self.size = size
        self._data = bytearray(b"\xff" * size)
        self._stored_length = 0
        self.write_count = 0
        self.read_count = 0

    def store(self, blob: bytes, offset: int = 0) -> None:
        """Upload content (the preprocessed HEX) onto the chip."""
        if offset < 0 or offset + len(blob) > self.size:
            raise HardwareError(
                f"content of {len(blob)} bytes does not fit the "
                f"{self.size}-byte external flash"
            )
        self._data[offset : offset + len(blob)] = blob
        self._stored_length = max(self._stored_length, offset + len(blob))
        self.write_count += 1

    def read(self, offset: int, length: int) -> bytes:
        """Random-access read — what lets the master stream functions."""
        if offset < 0 or offset + length > self.size:
            raise HardwareError(
                f"read of {length} bytes at {offset} exceeds chip bounds"
            )
        self.read_count += 1
        return bytes(self._data[offset : offset + length])

    def read_all(self) -> bytes:
        """The stored content (up to the high-water mark)."""
        self.read_count += 1
        return bytes(self._data[: self._stored_length])

    @property
    def stored_length(self) -> int:
        return self._stored_length

    def erase(self) -> None:
        self._data = bytearray(b"\xff" * self.size)
        self._stored_length = 0
