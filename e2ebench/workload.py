"""One workload in one fresh interpreter: set up, run, check, measure.

``run.py`` starts this script once per measurement so that no in-process
state (the ``build_app`` cache, the inline-image LRU, the relocation
index attached to a shared base image, artifact-cache memos) can leak
from one workload into the next.  Modes:

* ``setup`` — set up and exit; prints the set-up time.
* ``run``   — set up, then the untraced timed campaign; prints the
  end-to-end metrics.
* ``trace`` — set up under the ledger wrappers, batch 0 untraced twice
  (a warm-up, then the timed reference), then the traced timed campaign
  (serial, so every span stays in this process); prints the per-layer
  metrics.

The last line of standard output is one JSON object for ``run.py``.

Every workload draws scenario ``i`` of seed ``s`` from ``derive_seed``,
so the same seed gives the same specs, and plays them through
``CampaignRunner`` in fixed-size batches until ``--seconds`` have passed
(at least one batch).  Batch 0 is the workload's *prefix*: the
deterministic model metrics and counts are read from it alone, so they
repeat exactly for a seed however many batches the time allowed.

Correctness gate: a scenario fails when it ends in ``error``/``timeout``,
when its result does not belong to its spec, when (on the committed
seed) its record's digest differs from ``pins.json``, or when it is one
of the records compared byte for byte and differs: the first four
scenarios of a pool window re-run serially, and the traced window's
first batch against the untraced reference batch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
from catalog import GUESS, SWARM, V2  # noqa: E402

BACKENDS = ("mavr", "daedalus", "ctomp")
PROTOCOL_KINDS = (
    "replay", "gps_spoof", "waypoint_inject", "command_inject", "flood",
)
#: distinct boards the warm guess campaign attacks (each primed once)
FLEET_BOARDS = 4
#: scenarios of a pool window re-run serially and compared byte for byte
RECHECK = 4
PINS_PATH = HERE / "pins.json"


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Workload:
    """Spec stream, batching and set-up of one named workload."""

    def __init__(self, name: str, seed: int) -> None:
        if name not in catalog.WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.jobs = usable_cores() if name == GUESS else 1
        self.batch = {GUESS: 16, V2: 3, SWARM: 5}[name]
        self.uses_cache = name == GUESS

    def spec(self, index: int, stream: str = "attack", label: str = ""):
        from repro.sim import ScenarioSpec, SwarmSpec, derive_seed

        label = label or f"{self.name}-{index}"
        attack_seed = derive_seed(self.seed, index, stream)
        if self.name == GUESS:
            board = index % FLEET_BOARDS
            return ScenarioSpec(
                app="testapp",
                seed=derive_seed(self.seed, board, "board"),
                attack="guess", attack_seed=attack_seed, label=label,
            )
        if self.name == V2:
            return ScenarioSpec(
                app="arduplane", defense=BACKENDS[index % len(BACKENDS)],
                seed=derive_seed(self.seed, index, "board"),
                attack="v2", attack_seed=attack_seed, label=label,
            )
        return SwarmSpec(
            app="testapp", boards=3,
            seed=derive_seed(self.seed, index, "board"),
            attack=PROTOCOL_KINDS[index % len(PROTOCOL_KINDS)],
            attack_seed=attack_seed, label=label,
        )

    def batch_specs(self, number: int) -> list:
        first = number * self.batch
        return [self.spec(i) for i in range(first, first + self.batch)]

    def setup(self, tmp: Path):
        """Build, prime the artifact cache, play one discarded warm-up.

        Returns the cache root (or None).  Raises on any error outcome.
        """
        from repro.sim import CampaignRunner, ScenarioSpec, load_spec_image

        first = self.spec(0)
        load_spec_image(first if isinstance(first, ScenarioSpec)
                        else first.board_spec(0))
        cache_dir = None
        if self.uses_cache:
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=tmp)
            fleet = [
                ScenarioSpec(
                    app="testapp", seed=self.spec(board).seed,
                    warmup_ticks=1, observe_ticks=1,
                    label=f"{self.name}-prime-{board}",
                )
                for board in range(FLEET_BOARDS)
            ]
            _require_clean(CampaignRunner(cache_dir=cache_dir).run(fleet))
        warmup = self.spec(0, stream="warmup", label=f"{self.name}-warmup")
        _require_clean(CampaignRunner(cache_dir=cache_dir).run([warmup]))
        return cache_dir


def _require_clean(report) -> None:
    for result in report.results:
        if result.outcome in ("error", "timeout"):
            raise RuntimeError(f"{result.spec.label}: {result.error}")


# -- records and correctness --------------------------------------------------

def record_line(result) -> str:
    """The scenario's JSONL line, exactly as the campaign sink writes it."""
    from repro.telemetry import jsonable

    return json.dumps(jsonable(result.to_record()), separators=(",", ":"))


def record_digest(result) -> str:
    """Digest of a record minus ``spec.engine``: the determinism contract
    promises identical records on every engine, so the pin must not name
    one."""
    record = json.loads(record_line(result))
    record["spec"].pop("engine", None)
    canonical = json.dumps(record, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


def load_pins(workload: Workload) -> list:
    if workload.seed != catalog.COMMITTED_SEED or not PINS_PATH.exists():
        return []
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    return pins["records"].get(workload.name, [])


def check_window(workload: Workload, batches: list, pins: list) -> dict:
    """label -> reason, for every scenario in the window that fails."""
    from ledger import result_data

    failures = {}
    for number, results in enumerate(batches):
        for position, result in enumerate(results):
            index = number * workload.batch + position
            label = f"{workload.name}-{index}"
            if result.spec.label != label or result.index != position:
                failures[label] = "result does not belong to its spec"
            elif result.outcome in ("error", "timeout"):
                failures[label] = f"{result.outcome}: {result.error}"
            elif result_data(result) is None:
                failures[label] = "scenario wrapper did not run"
            elif index < len(pins) and record_digest(result) != pins[index]:
                failures[label] = "record digest differs from pins.json"
    return failures


def compare_records(failures: dict, expected: list, actual: list, what: str) -> None:
    for want, got in zip(expected, actual):
        if record_line(want) != record_line(got):
            failures.setdefault(want.spec.label, f"{what}: records differ")


def completed(results: list) -> list:
    """The results the scenario wrapper measured.  An ``error`` or
    ``timeout`` result is a campaign placeholder that carries no
    measurement; ``check_window`` has already counted it as failed."""
    from ledger import result_data

    return [r for r in results if result_data(r) is not None]


# -- the timed campaign -------------------------------------------------------

def run_window(workload: Workload, seconds: float, jobs: int, cache_dir):
    """Batches back to back until ``seconds`` have passed; returns
    (list of per-batch result lists, wall seconds)."""
    from repro.sim import CampaignRunner

    runner = CampaignRunner(jobs=jobs, cache_dir=cache_dir)
    batches = []
    start = time.perf_counter()
    while not batches or time.perf_counter() - start < seconds:
        batches.append(runner.run(workload.batch_specs(len(batches))).results)
    return batches, time.perf_counter() - start


def tail(values: list):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it (the maximum when there are ten or fewer)."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (count - 10) / count, ordered[count - 11]


def recoveries(results: list) -> list:
    from ledger import result_data

    found = []
    for result in completed(results):
        found.extend(result_data(result)["counts"].get("recoveries", ()))
    return found


def forced_recovery(workload: Workload) -> tuple:
    """Price one detection-triggered recovery of the workload's first
    board, for a prefix whose scenarios triggered none."""
    from repro.sim import Board, ScenarioSpec

    spec = workload.spec(0)
    board = Board(spec if isinstance(spec, ScenarioSpec) else spec.board_spec(0))
    board.boot()
    master = board.system.master
    written = master.isp.stats.pages_written
    overhead_ms = master.boot(attack_detected=True)
    return overhead_ms, master.isp.stats.pages_written - written


def model_metrics(workload: Workload, prefix: list, notes: list) -> dict:
    prefix = completed(prefix)
    if not prefix:
        raise RuntimeError("no scenario of the first batch completed")
    found = recoveries(prefix)
    if not found:
        found = [forced_recovery(workload)]
        notes.append(
            "model.recovery_ms: no scenario in the prefix triggered a "
            "recovery; priced one forced recovery of board 0 of spec 0"
        )
    startup = statistics.median(r.startup_overhead_ms for r in prefix)
    if workload.name == V2:
        from repro.firmware import PAPER_STARTUP_MS

        mavr = [r.startup_overhead_ms for r in prefix if r.spec.defense == "mavr"]
        model = statistics.median(mavr)
        paper = PAPER_STARTUP_MS["arduplane"]
        notes.append(
            f"model accuracy: arduplane mavr startup {model:.1f} sim_ms vs "
            f"Table II {paper} ms ({100.0 * (model - paper) / paper:+.2f}% "
            f"error, {len(mavr)} rows)"
        )
    notes.append(
        "model.recovery_ms and model.pages_per_recovery have no paper "
        "reference and are unvalidated"
    )
    return {
        "model.startup_ms": startup,
        "model.recovery_ms": statistics.median(ms for ms, _ in found),
        "model.pages_per_recovery": statistics.median(p for _, p in found),
    }


def peak_rss_mb(batches: list) -> float:
    """This process's peak RSS plus, for a pool, the largest sum of its
    concurrent workers' peaks (one pool per batch)."""
    from ledger import result_data

    own = os.getpid()
    workers = 0
    for results in batches:
        peaks = {}
        for result in completed(results):
            data = result_data(result)
            if data["pid"] != own:
                peaks[data["pid"]] = max(peaks.get(data["pid"], 0), data["rss_kb"])
        workers = max(workers, sum(peaks.values()))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (self_kb + workers) / 1024.0


def by_outcome(results: list) -> dict:
    counts = {}
    for result in results:
        counts[result.outcome] = counts.get(result.outcome, 0) + 1
    return dict(sorted(counts.items()))


# -- modes --------------------------------------------------------------------

def mode_run(workload: Workload, seconds: float, cache_dir, notes: list) -> dict:
    from ledger import Tracer, result_data
    from repro.sim import CampaignRunner

    with Tracer(traced=False):
        batches, wall = run_window(workload, seconds, workload.jobs, cache_dir)
        failures = check_window(workload, batches, load_pins(workload))
        rss = peak_rss_mb(batches)
        prefix = batches[0]
        if workload.jobs > 1:
            recheck = prefix[:RECHECK]
            again = CampaignRunner(cache_dir=cache_dir).run(
                [r.spec for r in recheck]
            ).results
            compare_records(
                failures, recheck, again,
                f"serial re-run vs jobs={workload.jobs}",
            )
        model = model_metrics(workload, prefix, notes)
    results = [r for batch in batches for r in batch]
    scenario_ms = [result_data(r)["ms"] for r in completed(results)]
    percentile, tail_ms = tail(scenario_ms)
    insn = sum(result_data(r)["counts"].get("avr.insn", 0)
               for r in completed(results))
    notes.append(
        f"scenario_ms: {len(results)} scenarios in {len(batches)} batches "
        f"of {workload.batch} at jobs={workload.jobs}; tail is "
        f"p{percentile:.1f} ({len(scenario_ms)} samples)"
    )
    notes.append(f"outcomes: {json.dumps(by_outcome(results))}")
    for label, reason in sorted(failures.items()):
        notes.append(f"FAILED {label}: {reason}")
    metrics = {
        "scenarios_per_s": len(results) / wall,
        "scenario_ms.p50": statistics.median(scenario_ms),
        "scenario_ms.tail": tail_ms,
        "guest_insn_per_s": insn / wall,
        "peak_rss_mb": rss,
        "ok_frac": 1.0 - len(failures) / len(results),
        **model,
    }
    return {"attempted": len(results), "failed": len(failures),
            "metrics": metrics}


def mode_trace(workload: Workload, seconds: float, tmp: Path, notes: list) -> dict:
    from ledger import Tracer, result_data

    tracer = Tracer(traced=True).install()
    try:
        cache_dir = workload.setup(tmp)
    finally:
        tracer.uninstall()
    with Tracer(traced=False):
        # set-up warms one backend / attack kind; this first pass warms
        # the rest, so the timed reference and the traced batch below
        # both start from a process that has run every path once
        warm, _wall = run_window(workload, 0, workload.jobs, cache_dir)
        reference, ref_wall = run_window(workload, 0, workload.jobs, cache_dir)
    reference = reference[0]
    tracer.install()
    try:
        batches, _wall = run_window(workload, seconds, 1, cache_dir)
    finally:
        tracer.uninstall()

    failures = check_window(workload, batches, load_pins(workload))
    for untraced in (warm[0], reference):
        compare_records(failures, untraced, batches[0], "traced vs untraced")
    results = [r for batch in batches for r in batch]
    if not completed(reference) or not completed(batches[0]):
        raise RuntimeError("no scenario of the first batch completed")
    ref_ms = sum(result_data(r)["ms"] for r in completed(reference))
    traced_ms = sum(result_data(r)["ms"] for r in completed(batches[0]))
    metrics = layer_metrics(
        tracer,
        window=[r.spec.label for r in results],
        prefix=[r.spec.label for r in batches[0]],
    )
    metrics["sim.pool.busy_frac"] = ref_ms / (ref_wall * 1000.0 * workload.jobs)
    metrics["sim.pool.overhead_ms"] = (
        (ref_wall * workload.jobs * 1000.0 - ref_ms) / len(reference)
    )
    metrics["sim.trace_overhead"] = traced_ms / ref_ms
    shares = layer_shares(tracer, [r.spec.label for r in results])
    shape = check_shape(workload.name, shares, metrics)
    notes.append(
        f"ledger: {len(results)} traced scenarios (serial); counts from the "
        f"first {len(batches[0])}; tracing overhead "
        f"{metrics['sim.trace_overhead']:.3f}x of the untraced batch at "
        f"jobs={workload.jobs}"
    )
    notes.append("self-time shares of scenario time: " + ", ".join(
        f"{name} {share:.3f}" for name, share in shares.items()
    ))
    notes.append(f"shape: {shape}")
    notes.append(f"outcomes: {json.dumps(by_outcome(results))}")
    for label, reason in sorted(failures.items()):
        notes.append(f"FAILED {label}: {reason}")
    return {
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
        "shares": shares,
        "shape": shape,
        "by_outcome": by_outcome(results),
    }


# -- the ledger ---------------------------------------------------------------

def _sum_counts(tracer, labels) -> dict:
    total = {}
    for label in labels:
        for key, value in tracer.scenario_counts.get(label, {}).items():
            if key != "recoveries":
                total[key] = total.get(key, 0) + value
    return total


def layer_metrics(tracer, window: list, prefix: list) -> dict:
    """Per-layer metrics: times per scenario over the whole traced
    window, deterministic counts per scenario over the prefix."""
    from ledger import ROOT

    n, p = len(window), len(prefix)
    timed = tracer.layer_totals(window)
    counted = tracer.layer_totals(prefix)
    everything = tracer.layer_totals(list(tracer.scenario_counts))
    counts_w = _sum_counts(tracer, window)
    counts_p = _sum_counts(tracer, prefix)
    counts_all = _sum_counts(tracer, tracer.scenario_counts)

    def ms(name, own=False):
        return timed.get(name, {}).get("self_ms" if own else "ms", 0.0) / n

    def calls(name):
        return counted.get(name, {}).get("calls", 0) / p

    def ratio(part, whole):
        return part / whole if whole else 0.0

    insn_p = counts_p.get("avr.insn", 0)
    written = counts_p.get("hw.isp.pages_written", 0)
    skipped = counts_p.get("hw.isp.pages_skipped", 0)
    misses = counts_p.get("avr.decode_misses", 0)
    gets = counted.get("sim.artifacts.get", {}).get("calls", 0)
    run_self_s = timed.get("avr.run", {}).get("self_ms", 0.0) / 1000.0
    metrics = {
        "firmware.build.ms": everything.get("firmware.build", {}).get("ms", 0.0),
        "binfmt.hex_decode.ms": ms("binfmt.hex_decode"),
        "binfmt.hex_decode.calls": calls("binfmt.hex_decode"),
        "binfmt.reloc_index.ms": ms("binfmt.reloc_index"),
        "binfmt.reloc_index.calls": calls("binfmt.reloc_index"),
    }
    for layer in ("preprocess", "diversify", "recover", "master_boot",
                  "master_watch"):
        metrics[f"core.{layer}.ms"] = ms(f"core.{layer}")
        metrics[f"core.{layer}.calls"] = calls(f"core.{layer}")
    metrics.update({
        "core.master_watch.detections":
            counts_p.get("core.master_watch.detections", 0) / p,
        "hw.isp_program.ms": ms("hw.isp_program"),
        "hw.isp.pages_written": written / p,
        "hw.isp.pages_skipped": skipped / p,
        "hw.isp.skip_ratio": ratio(skipped, written + skipped),
        "attack.gadget_scan.ms": ms("attack.gadget_scan"),
        "attack.gadget_scan.calls": calls("attack.gadget_scan"),
        "attack.inject.ms": ms("attack.inject", own=True),
        "avr.run.ms": ms("avr.run", own=True),
        "avr.run.calls": calls("avr.run"),
        "avr.insn": insn_p / p,
        "avr.insn_per_s": ratio(counts_w.get("avr.insn", 0), run_self_s),
        "avr.insn_per_call": ratio(insn_p, counted.get("avr.run", {}).get("calls", 0)),
        "avr.decode_misses": misses / p,
        "avr.decode_hit_ratio": 1.0 - ratio(misses, insn_p) if insn_p else 0.0,
        "avr.compile.ms": counts_w.get("avr.compile_ms", 0.0) / n,
        "uav.tick.ms": ms("uav.tick", own=True),
        "uav.ticks": calls("uav.tick"),
        "uav.detector.ms": ms("uav.detector"),
        "uav.detector.calls": calls("uav.detector"),
        "uav.detector.bytes": counts_p.get("uav.detector.bytes", 0) / p,
        "uav.gcs_ingest.ms": ms("uav.gcs_ingest"),
        "mavlink.session.ms": ms("mavlink.session", own=True),
        "mavlink.parser.ms": ms("mavlink.parser"),
        "mavlink.parser.bytes": counts_p.get("mavlink.parser.bytes", 0) / p,
        "sim.scenario.ms": ms(ROOT),
        "sim.scenario.untraced_ms": ms(ROOT, own=True),
        "sim.artifacts.get.ms": ms("sim.artifacts.get"),
        "sim.artifacts.get.calls": calls("sim.artifacts.get"),
        "sim.artifacts.hit_ratio": ratio(counts_p.get("sim.artifacts.hits", 0), gets),
        "sim.artifacts.put.ms": everything.get("sim.artifacts.put", {}).get("ms", 0.0),
        "sim.artifacts.put.bytes": counts_all.get("sim.artifacts.put.bytes", 0),
        "sim.snapshot_restore.ms": ms("sim.snapshot_restore"),
    })
    return metrics


def layer_shares(tracer, window: list) -> dict:
    """Self time of each layer as a share of scenario time, largest first
    (``sim.scenario`` is the remainder no layer span covers)."""
    from ledger import ROOT

    totals = tracer.layer_totals(window)
    scenario_ms = totals[ROOT]["ms"]
    shares = {name: cell["self_ms"] / scenario_ms for name, cell in totals.items()}
    return dict(sorted(shares.items(), key=lambda item: -item[1]))


def check_shape(name: str, shares: dict, metrics: dict) -> str:
    """Whether the workload still has the shape its reason states."""
    from ledger import ROOT

    if name == GUESS:
        largest = next(layer for layer in shares if layer != ROOT)
        held = largest == "avr.run"
        what = f"largest self-time layer is {largest} (stated: avr.run)"
    elif name == V2:
        cold = sum(shares.get(layer, 0.0) for layer in (
            "attack.gadget_scan", "core.preprocess", "binfmt.hex_decode"))
        held = cold >= 0.25
        what = (f"gadget scan + preprocess + HEX decode self time is "
                f"{cold:.3f} of scenario time (stated: >= 0.25)")
    else:
        run_calls = metrics["avr.run.calls"]
        held = (run_calls >= 100 and metrics["uav.detector.calls"] > 0
                and metrics["attack.gadget_scan.calls"] == 0)
        what = (f"{run_calls:.0f} AvrCpu.run calls per scenario, detector "
                f"calls {metrics['uav.detector.calls']:.0f}, gadget scans "
                f"{metrics['attack.gadget_scan.calls']:.0f} (stated: "
                f">= 100, > 0, 0)")
    return ("holds: " if held else "DOES NOT HOLD: ") + what


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--tmp", type=Path, required=True,
                        help="directory for the artifact cache (removed after)")
    args = parser.parse_args(argv)

    workload = Workload(args.workload, args.seed)
    notes: list = []
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.mode}-", dir=args.tmp))
    try:
        if args.mode == "trace":
            out = mode_trace(workload, args.seconds, tmp, notes)
        else:
            cache_dir = workload.setup(tmp)
            setup_s = time.monotonic() - args.t0
            out = {"setup_s": setup_s}
            if args.mode == "run":
                out.update(mode_run(workload, args.seconds, cache_dir, notes))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out["notes"] = notes
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
