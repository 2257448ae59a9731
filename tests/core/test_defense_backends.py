"""Backend conformance: every registered defense satisfies one contract.

Parametrized over ``DEFENSE_BACKENDS`` so a fourth backend inherits the
whole suite by being registered: detection -> recovery end to end, seeded
determinism, monotonic accounting.  Backend-specific guarantees (mavr's
byte-identity with the pre-backend pipeline, ctomp's zero flash wear,
daedalus' sub-block tiling) follow as targeted tests.
"""

import random

import pytest

from repro.avr.memory import FLASH_SIZE
from repro.binfmt import relocation_index
from repro.core.defenses import (
    DEFENSE_BACKENDS,
    CtompBackend,
    DaedalusBackend,
    MavrBackend,
    create_backend,
)
from repro.core.mavr import MavrSystem
from repro.core.patching import randomize_image
from repro.core.splitting import split_image_blocks, split_report
from repro.errors import DefenseError


def wild_jump(system):
    """Hijack the PC beyond flash — the paper's failed-ROP signature."""
    system.autopilot.cpu.pc = (system.running_image.size + 64) // 2


@pytest.fixture(params=DEFENSE_BACKENDS)
def backend_name(request):
    return request.param


# -- the common contract ---------------------------------------------------


def test_detection_and_recovery_end_to_end(testapp, backend_name):
    system = MavrSystem(testapp, seed=7, defense=backend_name)
    system.boot()
    system.run(20, watch_every=5)
    wild_jump(system)
    detections = system.run(10, watch_every=5)
    report = system.report()
    assert detections == 1
    assert report.attacks_detected == 1
    assert system.autopilot.status.value == "running"
    assert report.defense == backend_name
    # and the system keeps flying after recovery
    before = system.autopilot.cpu.instructions_lifetime
    system.run(10, watch_every=5)
    after = (
        system.autopilot.cpu.instructions_lifetime
        + system.autopilot.cpu.instructions_retired
    )
    assert after > before


def test_same_seed_same_layout(testapp, backend_name):
    first = MavrSystem(testapp, seed=2024, defense=backend_name)
    second = MavrSystem(testapp, seed=2024, defense=backend_name)
    first.boot()
    second.boot()
    assert first.running_image.code == second.running_image.code
    # determinism must survive a full detection/recovery cycle too
    for system in (first, second):
        system.run(20, watch_every=5)
        wild_jump(system)
        system.run(10, watch_every=5)
    assert first.running_image.code == second.running_image.code
    assert (
        first.autopilot.cpu.flash.dump() == second.autopilot.cpu.flash.dump()
    )


def test_stats_are_monotonic_and_labelled(testapp, backend_name):
    system = MavrSystem(testapp, seed=3, defense=backend_name)
    snapshots = []

    def counters():
        stats = system.defense.stats
        return (
            stats.diversifications,
            stats.zero_reflash_recoveries,
            stats.checkpoints,
            stats.integrity_checks,
        )

    system.boot()
    snapshots.append(counters())
    system.run(20, watch_every=5)
    snapshots.append(counters())
    wild_jump(system)
    system.run(10, watch_every=5)
    snapshots.append(counters())
    for earlier, later in zip(snapshots, snapshots[1:]):
        for before, after in zip(earlier, later):
            assert after >= before
    # counters refuse to run backwards outright
    from repro.errors import TelemetryError

    with pytest.raises(TelemetryError):
        system.defense.stats.diversifications = -1
    # the report carries the backend's own accounting, labelled by name
    assert system.report().defense_stats == system.defense.stats.as_dict()


def test_create_backend_rejects_unknown_name():
    with pytest.raises(DefenseError, match="unknown defense backend"):
        create_backend("aslr")


def test_system_accepts_backend_instance(testapp):
    backend = DaedalusBackend()
    system = MavrSystem(testapp, seed=1, defense=backend)
    assert system.defense is backend
    system.boot()
    assert system.report().defense == "daedalus"


# -- mavr: byte-identity with the pre-backend pipeline ---------------------


def test_mavr_backend_is_byte_identical_to_legacy_pipeline(testapp):
    default = MavrSystem(testapp, seed=2024)
    named = MavrSystem(testapp, seed=2024, defense="mavr")
    default.boot()
    named.boot()
    assert default.running_image.code == named.running_image.code
    # and both equal the raw randomizer under the same RNG stream
    reference, _ = randomize_image(
        default.master._original_image(), random.Random(2024)
    )
    assert default.running_image.code == reference.code
    assert isinstance(default.defense, MavrBackend)


def test_mavr_honors_policy_schedule(testapp):
    from repro.core.policy import RandomizationPolicy

    system = MavrSystem(
        testapp, seed=5, defense="mavr",
        policy=RandomizationPolicy(randomize_every_boots=10),
    )
    system.boot()
    randomizations = system.report().randomizations
    system.boot()  # a healthy reboot inside the wear-throttling interval
    assert system.report().randomizations == randomizations


# -- daedalus: sub-block granularity, fresh layout every boot --------------


def test_daedalus_rediversifies_every_boot(testapp):
    system = MavrSystem(testapp, seed=5, defense="daedalus")
    first_overhead = system.boot()
    image_one = system.running_image.code
    system.boot()
    assert system.report().randomizations == 2
    assert system.running_image.code != image_one
    assert first_overhead > 0


def test_daedalus_splits_below_function_granularity(testapp):
    report = split_report(testapp)
    assert report.blocks > report.functions
    split = split_image_blocks(testapp)
    assert split.function_count() == report.blocks
    # the re-tiling shares the memoized relocation index (same code bytes)
    assert relocation_index(split) is relocation_index(testapp)


def test_daedalus_scatters_only_with_flash_headroom(testapp):
    roomy = DaedalusBackend()  # full ATmega2560 flash: testapp leaves room
    assert roomy.scatters(roomy.split(testapp))
    scattered, _ = roomy.diversify(testapp, random.Random(1))
    assert len(scattered.code) > len(testapp.code)

    tight = DaedalusBackend(flash_size=len(testapp.code))
    assert not tight.scatters(tight.split(testapp))
    shuffled, _ = tight.diversify(testapp, random.Random(1))
    assert len(shuffled.code) == len(testapp.code)
    # in-place mode still yields more entropy than function granularity
    assert tight.entropy_bits(testapp) > 0
    assert roomy.entropy_bits(testapp) > tight.entropy_bits(testapp)


def test_daedalus_in_place_mode_protects_the_board(testapp):
    backend = DaedalusBackend(flash_size=len(testapp.code))
    system = MavrSystem(testapp, seed=11, defense=backend)
    system.boot()
    system.run(20, watch_every=5)
    wild_jump(system)
    assert system.run(10, watch_every=5) == 1
    assert system.autopilot.status.value == "running"


# -- ctomp: zero-reflash recovery -----------------------------------------


def test_ctomp_recovers_without_flash_wear(testapp):
    system = MavrSystem(testapp, seed=9, defense="ctomp")
    system.boot()
    assert system.report().flash_cycles_used == 1  # the install
    system.run(20, watch_every=5)
    wild_jump(system)
    assert system.run(10, watch_every=5) == 1
    report = system.report()
    assert report.flash_cycles_used == 1  # recovery wrote nothing
    assert report.defense_stats["zero_reflash_recoveries"] == 1
    assert report.last_startup_overhead_ms < 2.0


def test_ctomp_restores_task_context_not_a_cold_reset(testapp):
    system = MavrSystem(testapp, seed=9, defense="ctomp")
    system.boot()
    system.run(30, watch_every=5)
    counter_before = system.autopilot.read_variable("loop_counter")
    assert counter_before > 0
    wild_jump(system)
    system.run(10, watch_every=5)
    counter_after = system.autopilot.read_variable("loop_counter")
    # a reflash-and-reboot would restart the counter near zero; the
    # checkpoint restore resumes it from the last healthy watch pass
    assert counter_after > counter_before * 0.8


def test_ctomp_accepts_stock_toolchain_builds(testapp_stock):
    # MAVR must reject relaxed builds; ctomp never moves code, so the
    # stock toolchain deploys fine
    with pytest.raises(DefenseError):
        MavrSystem(testapp_stock, seed=1, defense="mavr")
    system = MavrSystem(testapp_stock, seed=1, defense="ctomp")
    system.boot()
    assert system.run(20, watch_every=5) == 0


def test_ctomp_checkpoints_on_healthy_watch_passes(testapp):
    system = MavrSystem(testapp, seed=9, defense="ctomp")
    system.boot()
    system.run(20, watch_every=5)
    stats = system.defense.stats
    assert stats.checkpoints == 4
    assert stats.integrity_checks == 4


def test_ctomp_entropy_is_honestly_zero(testapp):
    assert CtompBackend().entropy_bits(testapp) == 0.0
    backend = CtompBackend()
    diversified, layout = backend.diversify(testapp, random.Random(0))
    assert diversified is testapp
    assert layout is None
