"""Write ``pins.json``: the benchmark's committed correctness reference.

    python3 e2ebench/pin.py

For the committed seed (``catalog.COMMITTED_SEED``) it stores a digest
of each of the first records of every workload (``workload.record_digest``:
the JSONL line minus ``spec.engine``); ``run.py`` fails any scenario
whose record differs.  It also stores, for the committed and the
held-out seed, each workload's outcome mix and self-time shares from a
traced run over the benchmark's own window (``run_seconds`` in
``BENCHMARK.json``), so a later reader can see that the workloads keep
the shape ``catalog.WORKLOADS`` states on a seed they were not chosen on.

Re-pin only when a change is meant to alter records, and say so.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import workload as wl  # noqa: E402

#: records pinned per workload: well past what a 30 s window completes
PINNED_BATCHES = {catalog.GUESS: 8, catalog.V2: 12, catalog.SWARM: 12}


def pin_records(name: str, tmp: Path) -> list:
    from repro.sim import CampaignRunner

    workload = wl.Workload(name, catalog.COMMITTED_SEED)
    cache_dir = workload.setup(tmp)
    runner = CampaignRunner(jobs=workload.jobs, cache_dir=cache_dir)
    digests = []
    for number in range(PINNED_BATCHES[name]):
        results = runner.run(workload.batch_specs(number)).results
        for result in results:
            if result.outcome in ("error", "timeout"):
                raise RuntimeError(f"{result.spec.label}: {result.error}")
            digests.append(wl.record_digest(result))
    return digests


def traced_shape(name: str, seed: int, tmp: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(catalog.SPEC["run_seconds"]),
         "--mode", "trace",
         "--t0", repr(time.monotonic()), "--tmp", str(tmp)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True,
    )
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "scenarios": out["attempted"],
        "failed": out["failed"],
        "by_outcome": out["by_outcome"],
        "shares": {k: round(v, 4) for k, v in out["shares"].items()},
        "shape": out["shape"],
    }


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    scratch = HERE / "_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="pin-", dir=scratch))
    try:
        pins = {
            "seed": catalog.COMMITTED_SEED,
            "held_out_seed": catalog.HELD_OUT_SEED,
            "python": platform.python_version(),
            "records": {
                name: pin_records(name, tmp) for name in catalog.WORKLOADS
            },
            "shape": {
                name: {
                    str(seed): traced_shape(name, seed, tmp)
                    for seed in (catalog.COMMITTED_SEED, catalog.HELD_OUT_SEED)
                }
                for name in catalog.WORKLOADS
            },
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    wl.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {wl.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
