"""Re-randomization fast path at paper scale.

Differential guarantees pinned here:

* the one patcher's output is byte-identical to the streaming reference
  patcher for the same permutation, across seeds and all three paper
  applications — at function granularity, on the DAEDALUS sub-block
  split tilings, and on the padded scatter path;
* a differential reflash moves strictly fewer bytes over the ISP wire
  than the full transfer while leaving the flash byte-identical to a
  full reprogram;
* the watchdog recovery loop end-to-end: a dead autopilot is detected,
  re-randomized onto a *new* permutation, and the predecoded engine's
  decode cache is invalidated (flash.generation moved).
"""

import random

import pytest

from repro.asm.linker import MAVR_OPTIONS
from repro.core import MavrSystem
from repro.core.padding import generate_padded_permutation
from repro.core.patching import patch_image, patch_into, reference_patch_image
from repro.core.randomize import generate_permutation
from repro.core.splitting import split_image_blocks
from repro.firmware import ALL_APPS, build_app

SEEDS = (11, 22, 33)


@pytest.fixture(scope="module", params=[m.name for m in ALL_APPS])
def paper_app(request):
    manifest = next(m for m in ALL_APPS if m.name == request.param)
    return build_app(manifest, MAVR_OPTIONS)


def test_fastpath_matches_legacy_across_seeds(paper_app):
    """Acceptance: >= 3 seeds x 3 app manifests, byte-identical output."""
    for seed in SEEDS:
        permutation = generate_permutation(paper_app, random.Random(seed))
        fast = patch_image(paper_app, permutation)
        legacy = reference_patch_image(paper_app, permutation)
        assert fast == legacy, (paper_app.name, seed)


def test_split_tiling_matches_reference_across_seeds(paper_app):
    """DAEDALUS sub-block shuffles replay the function tiling's index."""
    split = split_image_blocks(paper_app)
    assert split.function_count() > paper_app.function_count()
    for seed in SEEDS:
        permutation = generate_permutation(split, random.Random(seed))
        fast = patch_image(split, permutation)
        legacy = reference_patch_image(split, permutation)
        assert fast == legacy, (paper_app.name, seed)


def test_padded_scatter_matches_reference_on_grown_base(testapp):
    """The padded path applies the original's index into the grown buffer;
    the reference sweeps the grown base image itself."""
    split = split_image_blocks(testapp)
    for seed in SEEDS:
        permutation = generate_padded_permutation(split, random.Random(seed))
        new_end = max(m.new_address + m.size for m in permutation.moves)
        keep = max(split.data_end, split.text_end)
        grown = split.code[:keep] + b"\xff" * (new_end - keep)
        fast = bytearray(grown)
        patch_into(split, permutation, fast)
        legacy = reference_patch_image(split.with_code(grown), permutation)
        assert bytes(fast) == legacy, seed


def test_differential_reflash_saves_wire_bytes(testapp):
    system = MavrSystem(testapp, seed=101)
    system.boot()  # first programming is necessarily a full transfer
    full_wire = system.master.isp.stats.last_bytes_on_wire
    assert full_wire == len(system.running_image.code)

    system.master.boot(attack_detected=True)  # re-randomization: page diff
    stats = system.master.isp.stats
    assert stats.differential_passes == 1
    assert stats.last_pages_skipped > 0
    # strictly fewer bytes on the wire than a full transfer
    assert stats.last_bytes_on_wire < full_wire
    # ... and the flash holds exactly what a full reprogram would have left
    flash = system.autopilot.cpu.flash
    image = system.running_image.code
    assert flash.dump(0, len(image)) == image
    assert flash.dump(len(image)) == b"\xff" * (flash.size - len(image))


def test_differential_reflash_is_faster(testapp):
    system = MavrSystem(testapp, seed=102)
    full_ms = system.boot()
    diff_ms = system.master.boot(attack_detected=True)
    assert 0 < diff_ms < full_ms


def test_watchdog_recovery_loop_end_to_end(testapp):
    """Crashed/silent autopilot -> watch() -> fresh permutation + cold caches."""
    system = MavrSystem(testapp, seed=103)
    system.boot()
    system.run(20)
    first_permutation = system.master.last_permutation
    first_code = system.running_image.code
    generation_before = system.autopilot.cpu.flash.generation

    # drive the core into garbage: the firmware crashes and stops feeding
    system.autopilot.cpu.pc = (system.running_image.size + 64) // 2
    system.autopilot.tick()
    assert system.autopilot.status.value == "crashed"

    assert system.master.watch()  # detected and recovered
    assert system.master.stats.attacks_detected == 1

    # a new layout was installed...
    second_permutation = system.master.last_permutation
    moves = lambda p: [(m.name, m.new_address) for m in p.moves]
    assert moves(second_permutation) != moves(first_permutation)
    assert system.running_image.code != first_code
    # ...the predecoded engine's decode cache is dead (generation moved
    # with the page writes), and the UAV is flying again
    assert system.autopilot.cpu.flash.generation > generation_before
    assert system.autopilot.status.value == "running"
    assert system.run(20) == 0
