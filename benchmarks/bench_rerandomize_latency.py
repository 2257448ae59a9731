"""Re-randomization latency: ``patch_image`` vs the streaming reference.

Every attack detection triggers a full re-randomization (paper §V-C), so
the patch pass sits on the recovery-latency critical path.  The
reference patcher re-decodes the whole instruction stream on every
shuffle; ``patch_image`` replays the memoized relocation index and
touches only the words that actually need new targets.  This bench
prices both on the largest paper application (ArduPlane, 917 functions)
and verifies ``patch_image`` is byte-identical to the reference for
every measured seed.

It also prices the second half of the fast path — differential page
reflash — by programming an ATmega2560-sized flash twice and recording
how many pages (and wire bytes) the page-digest diff avoids retransferring.

Results land in ``BENCH_rerandomize.json`` at the repo root.
``patch_image`` must stay at least 3x faster than the streaming
reference — that floor is asserted here, not just documented (measured:
~80x).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_rerandomize_latency.py -q -s
Scale the seed count with REPRO_BENCH_RERANDOMIZE_SEEDS (default 3).
"""

import json
import os
import random
import time
from pathlib import Path

from repro.binfmt import build_relocation_index, relocation_index
from repro.core.patching import patch_image, reference_patch_image
from repro.core.randomize import generate_permutation
from repro.hw.isp import IspProgrammer
from repro.avr.memory import FlashMemory

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_rerandomize.json"
SPEEDUP_FLOOR = 3.0


def _seeds() -> list:
    count = int(os.environ.get("REPRO_BENCH_RERANDOMIZE_SEEDS", "3"))
    return list(range(1, count + 1))


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def test_rerandomize_latency(benchmark, arduplane):
    # one-time cost per code image: the full-stream decode behind the index
    start = time.perf_counter()
    index = build_relocation_index(arduplane)
    index_build_ms = (time.perf_counter() - start) * 1e3
    relocation_index(arduplane)  # warm the memo patch_image reads

    reference_ms, patch_ms = [], []
    for seed in _seeds():
        permutation = generate_permutation(arduplane, random.Random(seed))

        start = time.perf_counter()
        reference = reference_patch_image(arduplane, permutation)
        reference_ms.append((time.perf_counter() - start) * 1e3)

        start = time.perf_counter()
        fast = patch_image(arduplane, permutation)
        patch_ms.append((time.perf_counter() - start) * 1e3)

        assert fast == reference, f"patch_image diverged from reference at seed {seed}"

    speedup = _median(reference_ms) / _median(patch_ms)

    # pytest-benchmark row: the patcher at paper scale
    permutation = generate_permutation(arduplane, random.Random(0))
    benchmark.pedantic(
        lambda: patch_image(arduplane, permutation),
        rounds=3, iterations=1,
    )

    # differential reflash: how much of the wire/wear a re-randomization
    # actually costs once the chip already holds a layout
    flash = FlashMemory(size=len(arduplane.code))
    isp = IspProgrammer()
    isp.program(flash, arduplane.code)
    full_wire = isp.stats.last_bytes_on_wire
    full_prog_ms = isp.stats.last_programming_ms
    isp.program(flash, patch_image(arduplane, permutation))
    stats = isp.stats
    assert stats.differential_passes == 1
    assert stats.last_bytes_on_wire < full_wire

    results = {
        "app": arduplane.name,
        "functions": arduplane.function_count(),
        "code_bytes": len(arduplane.code),
        "seeds": _seeds(),
        "index": {
            "sites": index.site_count,
            "build_ms": round(index_build_ms, 2),
        },
        "patch_ms": {
            "reference": round(_median(reference_ms), 2),
            "patch_image": round(_median(patch_ms), 2),
        },
        "speedup": round(speedup, 1),
        "reflash": {
            "full_wire_bytes": full_wire,
            "full_programming_ms": round(full_prog_ms, 1),
            "diff_wire_bytes": stats.last_bytes_on_wire,
            "diff_programming_ms": round(stats.last_programming_ms, 1),
            "pages_written": stats.last_pages_written,
            "pages_skipped": stats.last_pages_skipped,
            "wire_saving_fraction": round(
                1.0 - stats.last_bytes_on_wire / full_wire, 3
            ),
        },
    }

    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(
        f"\n{arduplane.name}: reference {results['patch_ms']['reference']} ms, "
        f"patch_image {results['patch_ms']['patch_image']} ms "
        f"({results['speedup']}x); index {index.site_count} sites, "
        f"built in {results['index']['build_ms']} ms"
    )
    print(
        f"reflash: {stats.last_pages_written} pages rewritten, "
        f"{stats.last_pages_skipped} skipped, "
        f"{stats.last_bytes_on_wire}/{full_wire} bytes on wire"
    )
    print(f"results written to {RESULTS_PATH}")

    assert speedup >= SPEEDUP_FLOOR, (
        f"patch_image is only {speedup:.2f}x faster than the streaming "
        f"reference; the floor is {SPEEDUP_FLOOR}x"
    )
