"""What the benchmark reports, and what each number is meant to show.

Names, units, directions and workload reasons come from
``BENCHMARK.json`` at the repository root, the one place they are
written.  Its fixed schema has no room for intent, so this module adds
it: a line on what each end-to-end metric measures (``E2E_WHAT``), and
for each per-layer metric the end-to-end metric it should move, the
workloads where it should move it, and the workloads that skip the layer
(``LAYER_INTENT``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Tuple

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    .read_text(encoding="utf-8")
)

#: workload name -> why it is in the benchmark (one line each)
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
#: metric name -> unit, in the order the benchmark prints them
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

GUESS = "guess-testapp-warm"
V2 = "v2-arduplane-defenses"
SWARM = "protocol-swarm"

#: the seed whose per-record digests are pinned in pins.json
COMMITTED_SEED = 2015
#: the seed that was not used while the workloads were chosen
HELD_OUT_SEED = 7

E2E_WHAT = {
    "setup_s":
        "fresh interpreter to first timed scenario: import, firmware build, "
        "cache priming, one discarded warm-up scenario; median of three "
        "fresh interpreters",
    "scenarios_per_s":
        "completed scenarios per host second over the timed campaign "
        "(closed loop: jobs workers each pull the next spec)",
    "scenario_ms.p50": "median host ms of one run_scenario call",
    "scenario_ms.tail":
        "highest percentile with at least 10 scenarios beyond it; the "
        "percentile and the sample count are printed beside it",
    "guest_insn_per_s": "guest instructions retired over untraced host seconds",
    "peak_rss_mb": "peak RSS of the workload process plus its pool workers",
    "ok_frac":
        "scenarios with no error and a record that passes every correctness "
        "check, over scenarios attempted (1 - failed_frac)",
    "model.startup_ms": "median ScenarioResult.startup_overhead_ms (Table II)",
    "model.recovery_ms":
        "median simulated overhead of a detection-triggered "
        "MasterProcessor.boot(attack_detected=True); no paper reference, "
        "unvalidated",
    "model.pages_per_recovery":
        "ISP pages written per recovery (flash-wear budget); no paper "
        "reference, unvalidated",
}


class Intent(NamedTuple):
    moves: str                  # end-to-end metric it should move
    on: Tuple[str, ...]         # workloads where it should move it
    bypassed: Tuple[str, ...]   # workloads that skip the layer


_ALL = (GUESS, V2, SWARM)

LAYER_INTENT = {
    "firmware.build.ms": Intent("setup_s", _ALL, ()),
    "binfmt.hex_decode.ms": Intent("scenario_ms.p50", (V2,), (GUESS,)),
    "binfmt.hex_decode.calls": Intent("scenario_ms.p50", (V2,), (GUESS,)),
    "binfmt.reloc_index.ms": Intent("scenario_ms.p50", (V2,), ()),
    "binfmt.reloc_index.calls": Intent("scenario_ms.p50", (V2,), ()),
    "core.preprocess.ms": Intent("scenario_ms.p50", (V2,), (GUESS,)),
    "core.preprocess.calls": Intent("scenario_ms.p50", (V2,), (GUESS,)),
    "core.diversify.ms": Intent("scenario_ms.tail", (V2,), ()),
    "core.diversify.calls": Intent("scenario_ms.tail", (V2,), ()),
    "core.recover.ms": Intent("model.recovery_ms", (V2,), ()),
    "core.recover.calls": Intent("model.recovery_ms", (V2,), ()),
    "core.master_boot.ms": Intent("model.recovery_ms", (V2, GUESS), ()),
    "core.master_boot.calls": Intent("model.startup_ms", (V2, GUESS), ()),
    "core.master_watch.ms": Intent("scenarios_per_s", (GUESS,), ()),
    "core.master_watch.calls": Intent("scenarios_per_s", (GUESS,), ()),
    "core.master_watch.detections":
        Intent("model.recovery_ms", (GUESS, V2), ()),
    "hw.isp_program.ms": Intent("model.recovery_ms", (V2,), ()),
    "hw.isp.pages_written": Intent("model.pages_per_recovery", (V2,), ()),
    "hw.isp.pages_skipped": Intent("model.pages_per_recovery", (V2,), ()),
    "hw.isp.skip_ratio": Intent("model.pages_per_recovery", (V2,), ()),
    "attack.gadget_scan.ms": Intent("scenario_ms.p50", (V2,), (SWARM,)),
    "attack.gadget_scan.calls": Intent("scenario_ms.p50", (V2,), (SWARM,)),
    "attack.inject.ms": Intent("scenario_ms.p50", (V2,), ()),
    "avr.run.ms": Intent("scenarios_per_s", _ALL, ()),
    "avr.run.calls": Intent("scenarios_per_s", (SWARM,), ()),
    "avr.insn": Intent("guest_insn_per_s", _ALL, ()),
    "avr.insn_per_s": Intent("guest_insn_per_s", _ALL, ()),
    "avr.insn_per_call": Intent("scenarios_per_s", (SWARM,), ()),
    "avr.decode_misses": Intent("scenarios_per_s", (SWARM, V2), ()),
    "avr.decode_hit_ratio": Intent("scenarios_per_s", (SWARM, V2), ()),
    "avr.compile.ms": Intent("scenarios_per_s", (SWARM, V2), ()),
    "uav.tick.ms": Intent("scenarios_per_s", _ALL, ()),
    "uav.ticks": Intent("scenarios_per_s", _ALL, ()),
    "uav.detector.ms": Intent("scenarios_per_s", (SWARM,), (GUESS, V2)),
    "uav.detector.calls": Intent("scenarios_per_s", (SWARM,), (GUESS, V2)),
    "uav.detector.bytes": Intent("scenarios_per_s", (SWARM,), (GUESS, V2)),
    # the v2 delivery loop feeds each tick's downlink to a GroundStation
    # too (about 0.05% of scenario time), so v2 is neither on nor bypassed
    "uav.gcs_ingest.ms": Intent("scenarios_per_s", (SWARM,), (GUESS,)),
    "mavlink.session.ms": Intent("scenarios_per_s", (SWARM,), (GUESS, V2)),
    "mavlink.parser.ms": Intent("scenarios_per_s", (SWARM,), (GUESS, V2)),
    "mavlink.parser.bytes": Intent("scenarios_per_s", (SWARM,), (GUESS, V2)),
    "sim.scenario.ms": Intent("scenario_ms.p50", _ALL, ()),
    "sim.scenario.untraced_ms": Intent("scenario_ms.p50", _ALL, ()),
    "sim.artifacts.get.ms": Intent("scenarios_per_s", (GUESS,), (V2, SWARM)),
    "sim.artifacts.get.calls": Intent("scenarios_per_s", (GUESS,), (V2, SWARM)),
    "sim.artifacts.hit_ratio": Intent("scenarios_per_s", (GUESS,), (V2, SWARM)),
    "sim.artifacts.put.ms": Intent("setup_s", (GUESS,), (V2, SWARM)),
    "sim.artifacts.put.bytes": Intent("setup_s", (GUESS,), (V2, SWARM)),
    "sim.snapshot_restore.ms": Intent("scenario_ms.p50", (GUESS,), (V2, SWARM)),
    "sim.pool.busy_frac": Intent("scenarios_per_s", (GUESS,), (V2, SWARM)),
    "sim.pool.overhead_ms": Intent("scenarios_per_s", (GUESS,), (V2, SWARM)),
    "sim.trace_overhead": Intent("scenario_ms.p50", _ALL, ()),
}
