"""End-to-end campaign benchmark with a per-layer ledger.

Run from the repository root:

    python3 e2ebench/run.py --workload guess-testapp-warm --seed 2015 \\
        --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints every
per-layer metric from a separate, serial, traced run.  Each measurement
runs in a fresh interpreter (``workload.py``); with ``--trace 0`` two
more fresh interpreters only set up, and ``setup_s`` is the median of
the three.  Human-readable lines come first; the last line of standard
output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

The exit code is 0 only when a result was printed.  Names and units
come from ``BENCHMARK.json``, the intent of every metric is in
``catalog.py``; the workloads and the correctness gate are in
``workload.py``; the wrappers in ``ledger.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402

#: every child must have finished this long after start (one invocation
#: must end within 180 s)
BUDGET_S = 170.0
SETUP_SAMPLES = 3


def child(args, mode: str, tmp: Path, deadline: float) -> dict:
    """Run ``workload.py`` in a fresh interpreter; return its result."""
    t0 = time.monotonic()
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--t0", repr(t0), "--tmp", str(tmp),
    ]
    done = subprocess.run(
        command, cwd=REPO, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - t0, 1.0),
        env={**os.environ, "TMPDIR": str(tmp)},  # stay inside the checkout
    )
    if done.returncode != 0:
        raise RuntimeError(f"{mode} run of {args.workload} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(args, tmp: Path, deadline: float) -> dict:
    if args.trace:
        out = child(args, "trace", tmp, deadline)
        units = catalog.LAYER_UNITS
    else:
        out = child(args, "run", tmp, deadline)
        setups = [out.pop("setup_s")] + [
            child(args, "setup", tmp, deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        out["metrics"]["setup_s"] = statistics.median(setups)
        out["notes"].append(
            "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups)
        )
        units = catalog.E2E_UNITS
    missing = sorted(set(units) - set(out["metrics"]))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    out["metrics"] = {
        name: {"value": out["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program to measure under {REPO / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    # compile up front, so that no timed set-up pays for bytecode
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "e2ebench"],
        cwd=REPO, check=True, stdout=subprocess.DEVNULL,
        timeout=deadline - time.monotonic(),
    )
    scratch = HERE / "_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        out = measure(args, tmp, deadline)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still there

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ({catalog.WORKLOADS[args.workload]})")
    for note in out["notes"]:
        print(note)
    for name, cell in out["metrics"].items():
        print(f"  {name:<32} {cell['value']:>16.6g} {cell['unit']}")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
