"""Campaign runner: fan a list of scenario specs out over a process pool.

The runner owns everything around :func:`~repro.sim.scenario.run_scenario`
that the hand-wired drivers used to re-implement:

* **deterministic fan-out** — specs are numbered; a worker computes the
  result of spec *i* from spec *i* alone, so the ordered result list is
  bit-identical at any ``jobs`` level (see ``docs/SCENARIOS.md`` for the
  full determinism contract),
* **per-task timeout** — enforced inside the worker (`SIGALRM`), the only
  place a CPU-bound simulation can be interrupted,
* **retry-once-on-worker-death** — a killed worker breaks the pool; its
  unfinished specs run once more in a fresh pool, and a second death
  degrades to an ``error`` result instead of losing the campaign,
* **ordered JSONL sink** — one record per spec, in spec order, each a
  deterministic function of its spec,
* **cross-process telemetry merging** — workers return snapshots, the
  parent folds them with :meth:`repro.telemetry.Telemetry.merge`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..telemetry import Telemetry, jsonable
from .artifacts import get_cache
from .pool import PoolTaskError, _TaskTimeout, call_with_timeout, in_worker, map_indexed
from .scenario import PHASE_ORDER, ScenarioResult, ScenarioSpec, run_scenario
from .swarm import SwarmSpec, run_swarm_scenario

#: default number of checkpoint shard files a checkpointed campaign keeps
DEFAULT_SHARDS = 4


def spec_digest(spec: ScenarioSpec) -> str:
    """Content digest of a spec, pinning checkpoint lines to their spec.

    Resume only replays a checkpointed result when the stored digest
    matches the spec at the same index in the *current* spec list, so a
    checkpoint directory can never leak results across campaigns (or
    across edits to the same campaign's parameters).
    """
    canonical = json.dumps(
        jsonable(spec.to_record()), sort_keys=True, separators=(",", ":")
    )
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def aggregate_results(results: Sequence[ScenarioResult]) -> dict:
    """Deterministic campaign aggregates (no timing, no process identity)."""
    attacks = sum(1 for r in results if r.spec.attack is not None)
    effects = sum(1 for r in results if r.effect)
    detections = sum(1 for r in results if r.detected)
    errors = sum(1 for r in results if r.outcome in ("error", "timeout"))
    by_outcome: dict = {}
    for result in results:
        by_outcome[result.outcome] = by_outcome.get(result.outcome, 0) + 1
    return {
        "scenarios": len(results),
        "attacks": attacks,
        "effects": effects,
        "detections": detections,
        "stealthy": sum(1 for r in results if r.stealthy),
        "crashed": sum(1 for r in results if r.status == "crashed"),
        "still_flying": sum(1 for r in results if r.still_flying),
        "boots": sum(r.boots for r in results),
        "randomizations": sum(r.randomizations for r in results),
        "attacks_detected": sum(r.attacks_detected for r in results),
        "errors": errors,
        "effect_rate": effects / attacks if attacks else 0.0,
        "detection_rate": detections / attacks if attacks else 0.0,
        "by_outcome": dict(sorted(by_outcome.items())),
    }


def aggregate_phases(results: Sequence[ScenarioResult]) -> dict:
    """Per-phase totals across a campaign, in lifecycle order.

    ``sim_ms`` sums are deterministic (cycle counts and the ISP timing
    model); ``host_ms`` sums are wall time and vary run to run.  Results
    arrive in spec order at every ``jobs`` level, so the float additions
    happen in the same order and the deterministic fields are
    bit-identical between serial and parallel runs.
    """
    totals: dict = {}
    for result in results:
        for name, cell in result.phases.items():
            agg = totals.setdefault(
                name, {"scenarios": 0, "host_ms": 0.0, "sim_ms": 0.0}
            )
            agg["scenarios"] += 1
            agg["host_ms"] += cell.get("host_ms", 0.0)
            agg["sim_ms"] += cell.get("sim_ms", 0.0)
    return {
        name: {
            "scenarios": totals[name]["scenarios"],
            "host_ms": round(totals[name]["host_ms"], 3),
            "sim_ms": round(totals[name]["sim_ms"], 6),
        }
        for name in PHASE_ORDER
        if name in totals
    }


def deterministic_phases(phases: dict) -> dict:
    """The phase breakdown minus its wall-clock fields.

    What the JSONL sink (and any byte-identity comparison between
    runners) may carry: scenario counts and simulated milliseconds only.
    """
    return {
        name: {"scenarios": cell["scenarios"], "sim_ms": cell["sim_ms"]}
        for name, cell in phases.items()
    }


@dataclass
class CampaignReport:
    """Everything one campaign produced, results in spec order."""

    results: List[ScenarioResult]
    aggregates: dict
    merged_snapshot: Optional[dict] = None
    # per-phase breakdown from aggregate_phases(); sim_ms fields are
    # deterministic, host_ms fields are wall time
    phases: dict = field(default_factory=dict)
    # non-deterministic diagnostics (wall time, retry counts); kept out of
    # the JSONL records so those stay bit-identical across runs
    runner: dict = field(default_factory=dict)

    def records(self) -> List[dict]:
        return [result.to_record() for result in self.results]


def _campaign_worker(payload) -> ScenarioResult:
    """Run one (index, spec, timeout, cache root) task; module-level for
    pickling.  The cache root travels as a string so every worker resolves
    the same per-process :class:`~repro.sim.artifacts.ArtifactCache`."""
    index, spec, timeout_s, cache_root = payload
    _maybe_die_for_test(spec)
    cache = get_cache(cache_root)
    play = run_swarm_scenario if isinstance(spec, SwarmSpec) else run_scenario
    try:
        return call_with_timeout(
            lambda p: play(p[1], index=p[0], cache=cache),
            (index, spec), timeout_s,
        )
    except _TaskTimeout:
        return _placeholder(index, spec, "timeout", f"exceeded {timeout_s}s")


def _maybe_die_for_test(spec: ScenarioSpec) -> None:
    """Worker-crash injection for the retry tests.

    Only ever fires inside a pool worker: the first worker to see the
    spec creates the marker file and dies without cleanup (the closest
    simulation of an OOM-kill), the retry finds the marker and proceeds.
    """
    if spec.worker_fault_marker is None or not in_worker():
        return
    if not os.path.exists(spec.worker_fault_marker):
        with open(spec.worker_fault_marker, "w", encoding="ascii") as handle:
            handle.write("died-once\n")
        os._exit(42)


def _placeholder(
    index: int, spec: ScenarioSpec, outcome: str, message: str,
    retried: bool = False,
) -> ScenarioResult:
    return ScenarioResult(
        index=index,
        spec=spec,
        outcome=outcome,
        effect=False,
        detected=False,
        stealthy=False,
        succeeded=False,
        status="unknown",
        error=message + (" (after one retry)" if retried else ""),
    )


def _result_from_checkpoint(
    index: int, spec: ScenarioSpec, entry: dict
) -> ScenarioResult:
    """Rehydrate a checkpointed result for the merge.

    The checkpoint stores the result's deterministic record verbatim
    (JSON round-trips preserve key order and float exactness), so the
    rebuilt result re-serializes byte-identically and feeds the same
    values into :func:`aggregate_results`.  Phase cells keep only their
    deterministic ``sim_ms``; host time belongs to the run that paid it.
    """
    record = entry["record"]
    return ScenarioResult(
        index=index,
        spec=spec,
        outcome=record["outcome"],
        effect=record["effect"],
        detected=record["detected"],
        stealthy=record["stealthy"],
        succeeded=record["succeeded"],
        status=record["status"],
        crash=record.get("crash"),
        delivered_bytes=record.get("delivered_bytes", 0),
        link_lost=record.get("link_lost", False),
        telemetry_frames_after=record.get("telemetry_frames_after", 0),
        boots=record.get("boots", 0),
        randomizations=record.get("randomizations", 0),
        attacks_detected=record.get("attacks_detected", 0),
        profile_anomalies=record.get("profile_anomalies", 0),
        error=record.get("error"),
        detector=record.get("detector"),
        swarm=record.get("swarm"),
        phases={
            name: {"sim_ms": cell["sim_ms"]}
            for name, cell in entry.get("phases", {}).items()
        },
    )


class CampaignRunner:
    """Runs spec lists; serial (``jobs=1``) and parallel paths share all
    scenario code, differing only in where :func:`run_scenario` executes."""

    def __init__(
        self,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        jsonl_path=None,
        retry_worker_death: bool = True,
        progress=None,
        cache_dir=None,
        checkpoint_dir=None,
        shards: int = DEFAULT_SHARDS,
        resume: bool = False,
        result_sink=None,
    ) -> None:
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.jsonl_path = jsonl_path
        self.retry_worker_death = retry_worker_death
        # progress(done, total, index, outcome) — called in the parent as
        # each scenario's final result lands (live campaign progress)
        self.progress = progress
        # artifact-cache root shared by all workers (None disables caching)
        self.cache_dir = None if cache_dir is None else str(Path(cache_dir))
        # checkpoint shard directory; resume=True replays completed specs
        # from it instead of re-running them
        self.checkpoint_dir = (
            None if checkpoint_dir is None else Path(checkpoint_dir)
        )
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self.resume = resume
        if resume and self.checkpoint_dir is None:
            raise ValueError("resume requires a checkpoint_dir")
        # result_sink(index, result) — called in the parent as each final
        # ScenarioResult lands (the serve front end streams these)
        self.result_sink = result_sink

    # -- checkpoint shards -------------------------------------------------

    def _shard_path(self, index: int) -> Path:
        return self.checkpoint_dir / f"shard-{index % self.shards}.jsonl"

    def _shard_paths(self) -> List[Path]:
        return [
            self.checkpoint_dir / f"shard-{shard}.jsonl"
            for shard in range(self.shards)
        ]

    def _write_checkpoint(
        self, index: int, spec: ScenarioSpec, result: ScenarioResult
    ) -> None:
        """Append one completed spec to its shard (open-append-close, so an
        interrupt loses at most the line being written)."""
        entry = {
            "index": index,
            "spec": spec_digest(spec),
            "record": jsonable(result.to_record()),
            "phases": {
                name: {"sim_ms": cell["sim_ms"]}
                for name, cell in result.phases.items()
            },
        }
        with open(self._shard_path(index), "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
            handle.flush()

    def _load_checkpoints(
        self, specs: Sequence[ScenarioSpec]
    ) -> Tuple[Dict[int, ScenarioResult], int]:
        """Replay completed specs from the shard files.

        Returns the replayed results and the number of skipped lines.
        Lines that fail to parse (the torn tail of an interrupted append,
        foreign bytes), have the wrong shape, carry an out-of-range index,
        or whose spec digest does not match the current spec list are
        skipped — those specs simply re-run.
        """
        completed: Dict[int, ScenarioResult] = {}
        skipped = 0
        for path in self._shard_paths():
            if not path.exists():
                continue
            with open(path, encoding="utf-8", errors="replace") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                        index = entry["index"]
                        if (
                            0 <= index < len(specs)
                            and entry["spec"] == spec_digest(specs[index])
                        ):
                            completed[index] = _result_from_checkpoint(
                                index, specs[index], entry
                            )
                            continue
                    # JSONDecodeError is a ValueError; the rest are a
                    # parsed line of the wrong shape
                    except (ValueError, KeyError, TypeError, AttributeError):
                        pass
                    skipped += 1
        return completed, skipped

    def run(self, specs: Sequence[ScenarioSpec]) -> CampaignReport:
        specs = list(specs)
        started = time.perf_counter()
        completed: Dict[int, ScenarioResult] = {}
        skipped = 0
        checkpointing = self.checkpoint_dir is not None
        if checkpointing:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
            if self.resume:
                completed, skipped = self._load_checkpoints(specs)
            else:
                for path in self._shard_paths():
                    if path.exists():
                        path.unlink()
        pending = [
            index for index in range(len(specs)) if index not in completed
        ]

        on_result = None
        if self.progress is not None or checkpointing or self.result_sink:
            total = len(specs)
            done = [len(completed)]
            progress = self.progress
            result_sink = self.result_sink
            runner = self

            def on_result(list_index: int, item) -> None:
                index = pending[list_index]
                is_result = isinstance(item, ScenarioResult)
                if (
                    checkpointing and is_result
                    and item.outcome not in ("error", "timeout")
                ):
                    runner._write_checkpoint(index, specs[index], item)
                if result_sink is not None:
                    result_sink(
                        index,
                        item if is_result else _placeholder(
                            index, specs[index], "error", item.message,
                            retried=item.retried,
                        ),
                    )
                if progress is not None:
                    done[0] += 1
                    progress(
                        done[0], total, index,
                        item.outcome if is_result else item.kind,
                    )

        raw = map_indexed(
            _campaign_worker,
            [
                (index, specs[index], self.timeout_s, self.cache_dir)
                for index in pending
            ],
            jobs=self.jobs,
            retry_worker_death=self.retry_worker_death,
            on_result=on_result,
        )
        by_index: Dict[int, ScenarioResult] = dict(completed)
        worker_deaths = 0
        for list_index, item in enumerate(raw):
            index = pending[list_index]
            if isinstance(item, PoolTaskError):
                if item.kind == "worker_death":
                    worker_deaths += 1
                by_index[index] = _placeholder(
                    index, specs[index], "error", item.message,
                    retried=item.retried,
                )
            else:
                by_index[index] = item
        results = [by_index[index] for index in range(len(specs))]

        snapshots = [r.snapshot for r in results if r.snapshot is not None]
        report = CampaignReport(
            results=results,
            aggregates=aggregate_results(results),
            merged_snapshot=Telemetry.merge(snapshots) if snapshots else None,
            phases=aggregate_phases(results),
            runner={
                "jobs": self.jobs,
                "wall_s": time.perf_counter() - started,
                "worker_deaths": worker_deaths,
                "timeout_s": self.timeout_s,
                "resumed": len(completed),
                "checkpoint_skipped": skipped,
                "cache_dir": self.cache_dir,
                "shards": self.shards if checkpointing else None,
            },
        )
        if self.jsonl_path is not None:
            self.write_jsonl(report)
        return report

    def write_jsonl(self, report: CampaignReport) -> None:
        """One record per spec, in spec order, plus a trailing aggregate.

        Records are deterministic functions of their specs; the trailing
        ``campaign.aggregates`` and ``campaign.phases`` lines carry only
        deterministic sums (the phase line strips its wall-clock fields),
        so the whole file is bit-identical between serial and parallel
        runs of the same spec list.
        """
        with open(self.jsonl_path, "w", encoding="utf-8") as handle:
            for record in report.records():
                handle.write(
                    json.dumps(jsonable(record), separators=(",", ":")) + "\n"
                )
            handle.write(
                json.dumps(
                    {"campaign.aggregates": jsonable(report.aggregates)},
                    separators=(",", ":"),
                )
                + "\n"
            )
            handle.write(
                json.dumps(
                    {
                        "campaign.phases": jsonable(
                            deterministic_phases(report.phases)
                        )
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
