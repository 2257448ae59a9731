"""MAVR system facade: the full hardware + software defense in one object.

Wires together everything the paper's Fig. 7 shows: the application
processor (inside :class:`~repro.uav.Autopilot`), the master processor
with its external flash and ISP link, the readout-protection fuse, and the
host-side preprocessing entry point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Union

from ..avr.engine import DEFAULT_ENGINE
from ..binfmt.image import FirmwareImage
from ..hw.board import CostModel
from ..hw.serialbus import PROTOTYPE_LINK, ProgrammingLink
from ..telemetry import Telemetry
from ..uav.autopilot import Autopilot
from ..uav.sensors import SensorState
from .defenses import DefenseBackend, create_backend
from .fuses import ReadoutProtectedFlash
from .master import MasterProcessor
from .policy import RandomizationPolicy
from .watchdog import WatchdogConfig

#: format of :meth:`MavrSystem.capture_snapshot` payloads; bump on any
#: change to the captured fields or their meaning
SNAPSHOT_VERSION = 2


@dataclass
class MavrReport:
    """Summary of a protected system's state."""

    boots: int
    randomizations: int
    attacks_detected: int
    flash_cycles_used: int
    flash_cycles_remaining: int
    last_startup_overhead_ms: float
    cost: dict
    # differential-reflash pricing of the most recent programming pass
    last_pages_written: int = 0
    last_pages_skipped: int = 0
    last_bytes_on_wire: int = 0
    # which defense backend ran, and its own accounting
    defense: str = "mavr"
    defense_stats: dict = field(default_factory=dict)


class MavrSystem:
    """A UAV protected by a pluggable defense backend (MAVR by default).

    ``defense`` selects the mitigation scheme — a name from
    :data:`~repro.core.defenses.DEFENSE_BACKENDS` or a ready-made
    :class:`~repro.core.defenses.DefenseBackend` instance.  The board
    wiring (master processor, external flash, ISP link, readout fuse) is
    identical for every backend; only the prepare/diversify/recover
    hooks differ.
    """

    def __init__(
        self,
        image: FirmwareImage,
        policy: RandomizationPolicy = RandomizationPolicy(),
        link: ProgrammingLink = PROTOTYPE_LINK,
        watchdog: WatchdogConfig = WatchdogConfig(),
        seed: Optional[int] = None,
        sensor_state: Optional[SensorState] = None,
        telemetry: Optional[Telemetry] = None,
        engine: str = DEFAULT_ENGINE,
        defense: Union[str, DefenseBackend] = "mavr",
        deploy_blob: Optional[bytes] = None,
    ) -> None:
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.defense = (
            create_backend(defense) if isinstance(defense, str) else defense
        )
        hex_text = None
        if deploy_blob is None:
            # host phase: preprocess and "upload" to the external flash
            with self.telemetry.span("mavr.preprocess", app=image.name):
                hex_text = self.defense.preprocess(image)
        self.autopilot = Autopilot(image, sensor_state, engine=engine)
        self.master = MasterProcessor(
            self.autopilot,
            policy=policy,
            link=link,
            watchdog=watchdog,
            rng=random.Random(seed),
            telemetry=self.telemetry,
            backend=self.defense,
        )
        with self.telemetry.span("mavr.deploy", app=image.name):
            if deploy_blob is not None:
                # artifact-cache fast path: the blob is byte-identical to
                # what preprocess + deploy produce for this configuration
                self.master.deploy_blob(deploy_blob)
            else:
                self.master.deploy(hex_text)
        self.protected_flash = ReadoutProtectedFlash(
            self.autopilot.cpu.flash, locked=True
        )
        self.cost = CostModel()

    # -- lifecycle -----------------------------------------------------------

    def boot(self) -> float:
        """Power-on: randomize per policy, program, release reset."""
        return self.master.boot()

    def run(self, ticks: int, watch_every: int = 10) -> int:
        """Fly for ``ticks`` control periods under master supervision."""
        return self.master.run(ticks, watch_every)

    @property
    def running_image(self) -> FirmwareImage:
        image = self.master.current_image
        if image is None:
            raise RuntimeError("system has not booted yet")
        return image

    def snapshot(self) -> dict:
        """Full telemetry snapshot (metrics + spans + events)."""
        return self.telemetry.snapshot()

    # -- warm board fork ------------------------------------------------------

    def capture_snapshot(self) -> dict:
        """Freeze the booted board as plain picklable data.

        Captured immediately after the first :meth:`boot` — before any
        tick runs — the snapshot holds everything a fresh process needs
        to reconstruct this exact post-boot state without paying the
        preprocess pass, the external-flash round-trip, or the simulated
        ISP programming: the running (randomized) image, the parsed
        original with its relocation index, the chip blob, the master's
        RNG stream position, and every monotonic counter the defense
        accounting exposes.  :meth:`from_snapshot` is the inverse; the
        warm-vs-cold byte-identity of scenario records is pinned by test.
        """
        master = self.master
        if master.current_image is None:
            raise RuntimeError("cannot snapshot a system that has not booted")
        isp = master.isp
        return {
            "version": SNAPSHOT_VERSION,
            "image": master.current_image,
            "original": master._original,
            "flash_blob": master.external_flash.read_all(),
            "rng_state": master.rng.getstate(),
            "clock_ms": master.clock.now_ms,
            "last_permutation": master.last_permutation,
            "master_stats": master.stats.as_dict(),
            "startup_overheads_ms": list(master.stats.startup_overheads_ms),
            "isp_stats": isp.stats.as_dict(),
            "isp_digests": (
                list(isp._last_digests) if isp._last_digests is not None else None
            ),
            "isp_image_len": isp._last_image_len,
            "defense_stats": self.defense.stats.as_dict(),
        }

    @classmethod
    def from_snapshot(
        cls,
        snapshot: dict,
        base_image: FirmwareImage,
        policy: RandomizationPolicy = RandomizationPolicy(),
        link: ProgrammingLink = PROTOTYPE_LINK,
        watchdog: WatchdogConfig = WatchdogConfig(),
        sensor_state: Optional[SensorState] = None,
        telemetry: Optional[Telemetry] = None,
        engine: str = DEFAULT_ENGINE,
        defense: Union[str, DefenseBackend] = "mavr",
    ) -> "MavrSystem":
        """Rebuild a booted system from :meth:`capture_snapshot` data.

        The reconstruction is behavior-identical to the cold path from
        the first post-boot instruction on: the application flash holds
        the same randomized bytes (loaded directly instead of streamed
        page by page), the master's RNG resumes mid-stream so later
        re-randomizations draw the same layouts, the ISP's page digests
        describe the flash contents so differential reflash stays armed,
        and every stats counter matches the cold boot's accounting.
        Host-visible differences are confined to wall-clock time and the
        flash generation counter's absolute value (kept self-consistent
        with the ISP's record, which is all the differential path needs).
        """
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise RuntimeError(
                f"board snapshot version {snapshot.get('version')!r} does not "
                f"match {SNAPSHOT_VERSION}"
            )
        system = cls.__new__(cls)
        system.telemetry = telemetry if telemetry is not None else Telemetry()
        system.defense = (
            create_backend(defense) if isinstance(defense, str) else defense
        )
        randomized = snapshot["image"]
        system.autopilot = Autopilot(randomized, sensor_state, engine=engine)
        # host-side SRAM map: randomization never moves data, and the
        # snapshot image's own symbols may be the nameless from-flash
        # reconstruction — exactly the cold path's situation, where the
        # autopilot was constructed around the named build
        system.autopilot.debug_symbols = base_image.symbols
        master = MasterProcessor(
            system.autopilot,
            policy=policy,
            link=link,
            watchdog=watchdog,
            rng=random.Random(),
            telemetry=system.telemetry,
            backend=system.defense,
        )
        system.master = master
        master.rng.setstate(snapshot["rng_state"])
        master.external_flash.store(snapshot["flash_blob"])
        master._original = snapshot["original"]
        master.current_image = randomized
        master.last_permutation = snapshot["last_permutation"]
        master.clock.advance_ms(snapshot["clock_ms"])
        for name, value in snapshot["master_stats"].items():
            setattr(master.stats, name, value)
        master.stats.startup_overheads_ms = list(snapshot["startup_overheads_ms"])
        isp = master.isp
        for name, value in snapshot["isp_stats"].items():
            if name == "last_flash_generation":
                continue  # tied to the live chip below
            setattr(isp.stats, name, value)
        flash = system.autopilot.cpu.flash
        isp._last_flash = flash
        isp._last_digests = (
            list(snapshot["isp_digests"])
            if snapshot["isp_digests"] is not None else None
        )
        isp._last_image_len = snapshot["isp_image_len"]
        # the absolute generation value is process-local; what matters is
        # that the ISP's record matches the chip it will diff against
        isp.stats.last_flash_generation = flash.generation
        for name, value in snapshot["defense_stats"].items():
            setattr(system.defense.stats, name, value)
        system.protected_flash = ReadoutProtectedFlash(flash, locked=True)
        system.cost = CostModel()
        return system

    def report(self) -> MavrReport:
        stats = self.master.stats
        return MavrReport(
            boots=stats.boots,
            randomizations=stats.randomizations,
            attacks_detected=stats.attacks_detected,
            flash_cycles_used=self.master.isp.stats.programming_cycles,
            flash_cycles_remaining=self.master.isp.remaining_cycles,
            last_startup_overhead_ms=stats.last_startup_overhead_ms,
            cost=self.cost.report(),
            last_pages_written=stats.last_pages_written,
            last_pages_skipped=stats.last_pages_skipped,
            last_bytes_on_wire=stats.last_bytes_on_wire,
            defense=self.defense.name,
            defense_stats=self.defense.stats.as_dict(),
        )
